"""Periodic pseudospectral integrator and orbital-distance diagnostics.

The equation advanced is u_t + C u_x + gamma u u_x + alpha u_xxx
= beta u_xxxxx on a periodic box.  In transform space the linear symbol is
purely imaginary, i(-C kappa + alpha kappa^3 + beta kappa^5); it is
propagated exactly through the exponential factors of an ETDRK4 step
(Cox-Matthews coefficients), while the nonlinearity gamma u u_x
= (gamma/2)(u^2)_x is evaluated pseudospectrally with 3/2-rule zero padding,
which dealiases the quadratic product exactly.

A plain integrating-factor RK4 was tried first and rejected: on cnoidal
initial data its high-wavenumber resonances grow at every affordable step
size (halving dt only doubles the blow-up time), while the phi-function
weights of ETDRK4 suppress them.  The linear part is still propagated
exactly, so a single Fourier mode with gamma = 0 rotates at the exact
dispersion phase no matter the step.

Each ``evolve`` run allocates one workspace of stage buffers, and its padded
transforms call numpy's pocketfft ufuncs directly: at N <= 1024 the ``np.fft``
wrappers cost as much as the transforms.  With the wrappers' arguments and
every product's operand order kept, a step has the bits of one with fresh
arrays and ``np.fft``.

Sobolev norms on the box use ||f||^2_{H^s} = sum_kappa (1 + kappa^2)^s
|f_hat(kappa)|^2 with f_hat = FFT(f)/N; this one convention backs every
distance reported here.  The orbital distance minimizes over continuous
shifts: one FFT correlation picks the best grid shift, and a safeguarded
Newton iteration on the trigonometric polynomial dist^2(y) refines it to
about 1e-12 of a cell.  ``evolve`` transforms the reference once per run
and each recorded field once for both Sobolev orders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .waves import MediumParams, WaveProfile, _wavenumbers

__all__ = [
    "SpectralState",
    "DiagnosticsRecord",
    "Perturbation",
    "ExperimentReport",
    "BlowUpError",
    "evolve",
    "default_dt",
    "orbital_distance",
    "state_from_profile",
    "characteristic_time",
    "apply_perturbation",
    "stability_experiment",
]

_BLOWUP_FACTOR = 100.0
_DT_CAP = 0.01
# evolve refuses longer runs up front; every default-horizon run on a grid
# of at most 4096 points needs fewer than 360 000 steps
_STEPS_CAP = 10 ** 6
# Newton refinements of the orbital shift, each one exp over N/2 + 1 bins;
# three or four reach the 1e-12 dx step tolerance from the grid optimum
_NEWTON_ITERS = 8


class BlowUpError(RuntimeError):
    def __init__(self, time: float, peak: float):
        super().__init__(f"field exceeded {_BLOWUP_FACTOR:g}x its initial peak "
                         f"at t={time:g} (|u| ~ {peak:.3g})")
        self.time = time
        self.peak = peak


def _check_blowup(field: np.ndarray, peak0: float, time: float):
    """Raise BlowUpError if ``field`` is non-finite or past 100x ``peak0``."""
    peak = np.max(np.abs(field)) if np.all(np.isfinite(field)) else math.inf
    if not np.isfinite(peak) or (peak0 > 0 and peak > _BLOWUP_FACTOR * peak0):
        raise BlowUpError(time, peak)


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Real periodic field with its grid geometry and medium parameters.

    The grid has ``grid_n`` points (a power of two; at least 256 whenever the
    fifth-derivative term is active) over a box of length ``domain_length``.
    States are immutable; stepping returns new ones.
    """

    grid_n: int
    domain_length: float
    field: np.ndarray
    time: float
    params: MediumParams

    def __post_init__(self):
        n = self.grid_n
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"grid_n must be a power of two, got {n}")
        if self.params.beta != 0.0 and n < 256:
            raise ValueError("fifth-derivative dynamics needs grid_n >= 256")
        field = np.asarray(self.field, dtype=float)
        if field.shape != (n,):
            raise ValueError(f"field must have shape ({n},)")
        if not np.all(np.isfinite(field)):
            raise ValueError("field must be finite")
        object.__setattr__(self, "field", field)

    @property
    def x(self) -> np.ndarray:
        return _grid(self.grid_n, self.domain_length)


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    mass: float
    momentum: float
    dist_h1: float
    dist_h2: float
    shift: float


def _grid(n: int, domain_length: float) -> np.ndarray:
    """The n points -L/2 + j L/n of the periodic box of length L."""
    return -0.5 * domain_length + np.arange(n) * (domain_length / n)


def _phi123(z: np.ndarray):
    """phi_1, phi_2, phi_3 on complex z, Taylor-switched below |z| = 0.5."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.5
    zs = np.where(small, 0.0, z)  # keep the direct branch division safe
    zb = np.where(small, 1.0, z)
    ez = np.exp(zs)
    p1 = (ez - 1.0) / zb
    p2 = (ez - 1.0 - zs) / zb ** 2
    p3 = (ez - 1.0 - zs - zs ** 2 / 2.0) / zb ** 3
    zt = np.where(small, z, 0.0)
    # Maclaurin sums; 16 terms keep the truncation below 1e-19 for |z| < 0.5
    t1 = t2 = t3 = 0.0
    fact = 1.0
    power = np.ones_like(zt)
    for m in range(16):
        fact /= (m + 1)
        t1 = t1 + power * fact
        t2 = t2 + power * (fact / (m + 2))
        t3 = t3 + power * (fact / ((m + 2) * (m + 3)))
        power = power * zt
    p1 = np.where(small, t1, p1)
    p2 = np.where(small, t2, p2)
    p3 = np.where(small, t3, p3)
    return p1, p2, p3


@lru_cache(maxsize=32)
def _etdrk4_coeffs(n: int, domain_length: float, params: MediumParams, dt: float):
    """Per-(grid, medium, dt) factors of one ETDRK4 step.

    Returns the nonlinear factor -i kappa gamma/2 and the weights e^z,
    e^{z/2}, (dt/2) phi_1(z/2), f1, 2 f2 and f3 of Cox-Matthews with z = L dt.
    A weight that overflows is a ValueError naming C and dt.
    """
    kap = _wavenumbers(n, domain_length)
    # an overflow shows as a weight that is not finite, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        sym = 1j * (-params.cee * kap + params.alpha * kap ** 3 + params.beta * kap ** 5)
        z = sym * dt
        e_full = np.exp(z)
        e_half = np.exp(0.5 * z)
        p1h, _, _ = _phi123(0.5 * z)
        q = 0.5 * dt * p1h
        p1, p2, p3 = _phi123(z)
        f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
        f2 = dt * (p2 - 2.0 * p3)
        f3 = dt * (4.0 * p3 - p2)
    coeffs = -0.5j * params.gamma * kap, e_full, e_half, q, f1, 2.0 * f2, f3
    if not all(np.all(np.isfinite(w)) for w in coeffs):
        raise ValueError(f"the ETDRK4 weights overflow at C = {params.cee!r} with "
                         f"dt = {dt!r}: the linear symbol times dt reaches "
                         f"{float(np.max(np.abs(z))):.3g}")
    return coeffs


class _Workspace:
    """One run's pocketfft kernels and stage buffers on an N-point grid.  As in
    ``np.fft.rfft``, the forward kernel goes by the parity of m = 3N/2 (odd at N = 2)."""

    def __init__(self, n: int):
        from numpy.fft import _pocketfft_umath as kernels
        self.n, self.m = n, 3 * n // 2
        self.irfft = kernels.irfft
        self.rfft = kernels.rfft_n_odd if self.m % 2 else kernels.rfft_n_even
        self.fine = np.empty(self.m)
        self.fine_hat = np.empty(self.m // 2 + 1, dtype=complex)
        self.spectra = [np.empty(n // 2 + 1, dtype=complex) for _ in range(8)]


def _nonlinear(vh: np.ndarray, nl_factor: np.ndarray, ws: _Workspace, out: np.ndarray):
    """-i kappa (gamma/2) (v^2)_hat into ``out``, 3/2-rule padded (exact for quadratics)."""
    # irfft zero-pads the n/2 + 1 bins of vh to the 3n/4 + 1 of the fine grid
    fine = ws.irfft(vh, 1.0 / ws.m, out=ws.fine)
    fine *= ws.m / ws.n
    fine *= fine
    sq_hat = ws.rfft(fine, 1.0, out=ws.fine_hat)[: ws.n // 2 + 1]
    sq_hat *= ws.n / ws.m
    # complex products keep the operand order: with FMA kernels they need
    # not commute bit for bit
    return np.multiply(nl_factor, sq_hat, out=out)


def _step_spectrum(uh, coeffs, ws):
    """Advance the spectrum ``uh`` one ETDRK4 step in place; stages live in ``ws``."""
    nl_factor, e_full, e_half, q, f1, f2x2, f3 = coeffs
    nl_u, nl_a, nl_b, nl_c, e_half_uh, a, c, t = ws.spectra
    _nonlinear(uh, nl_factor, ws, nl_u)
    np.multiply(e_half, uh, out=e_half_uh)
    np.add(e_half_uh, np.multiply(q, nl_u, out=t), out=a)
    _nonlinear(a, nl_factor, ws, nl_a)
    # stage b lives in c's buffer; nl_b is its last reader
    b = np.add(e_half_uh, np.multiply(q, nl_a, out=t), out=c)
    _nonlinear(b, nl_factor, ws, nl_b)
    np.subtract(np.multiply(2.0, nl_b, out=t), nl_u, out=t)
    np.add(np.multiply(e_half, a, out=c), np.multiply(q, t, out=t), out=c)
    _nonlinear(c, nl_factor, ws, nl_c)
    # e_full uh + f1 nl_u + f2x2 (nl_a + nl_b) + f3 nl_c, summed left to right
    np.multiply(e_full, uh, out=uh)
    uh += np.multiply(f1, nl_u, out=t)
    uh += np.multiply(f2x2, np.add(nl_a, nl_b, out=t), out=t)
    uh += np.multiply(f3, nl_c, out=t)
    return uh


def default_dt(state: SpectralState) -> float:
    """Advective step bound 0.5 dx / max|gamma u|, at most 0.01.

    The dispersive terms are integrated exactly, so only the nonlinear
    advection scale constrains dt; the cap keeps the time truncation error
    small when the field is weak.
    """
    dx = state.domain_length / state.grid_n
    speed = abs(state.params.gamma) * float(np.max(np.abs(state.field)))
    if speed == 0.0:
        return _DT_CAP
    return min(0.5 * dx / speed, _DT_CAP)


def evolve(state: SpectralState, t_end: float, dt: float, record_every: int,
           reference: np.ndarray | None = None):
    """Run to t_end, recording diagnostics every ``record_every`` steps.

    ``dt`` is shortened so that a whole number of steps reaches t_end;
    :func:`default_dt` gives the advective bound.  Mass and momentum are the
    grid integrals of u and u^2 (both conserved by the flow; the mean mode is
    untouched by construction, so mass is exact).  Distances are
    shift-minimized H^1/H^2 distances to ``reference`` when one is given,
    else zero.  Returns (final_state, records); records always include t = 0
    and the final time.  A run of zero length (``t_end`` equal to the state's
    time) takes no step and returns the state with one record.  Rejected
    before the first step: a non-finite ``t_end`` or ``dt``, a backward run
    (``t_end`` before the state's time), ``dt <= 0``, ``record_every < 1``,
    a run of more than ``_STEPS_CAP`` steps and ETDRK4 weights that overflow.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if t_end < state.time:
        raise ValueError(f"t_end = {t_end!r} lies before the state's time {state.time!r}")
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every!r}")
    steps = (t_end - state.time) / dt - 1e-12
    if steps > _STEPS_CAP:
        raise ValueError(f"reaching t_end = {t_end!r} with dt = {dt!r} takes {steps:.3g} "
                         f"steps, above the cap of {_STEPS_CAP}")
    n_steps = max(1, int(math.ceil(steps)))
    dt = (t_end - state.time) / n_steps
    n = state.grid_n
    dx = state.domain_length / n
    if reference is not None:
        ref_hat = np.fft.rfft(reference) / n

    def record(field, t):
        if reference is not None:
            u_hat = np.fft.rfft(field) / n
            d1, sh = orbital_distance(field, reference, state.domain_length, 1,
                                      u_hat=u_hat, ref_hat=ref_hat)
            d2, _ = orbital_distance(field, reference, state.domain_length, 2,
                                     u_hat=u_hat, ref_hat=ref_hat)
        else:
            d1 = d2 = sh = 0.0
        return DiagnosticsRecord(
            time=t,
            mass=float(np.sum(field) * dx),
            momentum=float(np.sum(field ** 2) * dx),
            dist_h1=d1,
            dist_h2=d2,
            shift=sh,
        )

    records = [record(state.field, state.time)]
    if t_end == state.time:
        return state, records
    coeffs = _etdrk4_coeffs(n, state.domain_length, state.params, dt)
    ws = _Workspace(n)
    uh = np.fft.rfft(state.field)
    peak0 = float(np.max(np.abs(state.field)))
    for i in range(n_steps):
        uh = _step_spectrum(uh, coeffs, ws)
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            t = state.time + (i + 1) * dt
            field = np.fft.irfft(uh, n)
            _check_blowup(field, peak0, t)
            records.append(record(field, t))
    # the last step always records, so ``field`` is the final field
    return replace(state, field=field, time=t), records


# ---------------------------------------------------------------------------
# norms, shifts and the orbital distance
# ---------------------------------------------------------------------------

def _sobolev_weights(n: int, domain_length: float, s: int):
    """Wavenumbers of the rfft bins and the H^s weights wts (1 + kappa^2)^s.

    wts is 2 on the interior bins, which stand for a +-kappa pair, and 1 on
    the mean and Nyquist bins.
    """
    kap = _wavenumbers(n, domain_length)
    wts = np.full(len(kap), 2.0)
    wts[0] = 1.0
    if n % 2 == 0:
        wts[-1] = 1.0
    return kap, wts * (1.0 + kap ** 2) ** s


def orbital_distance(u: np.ndarray, reference: np.ndarray, domain_length: float,
                     s: int, *, u_hat: np.ndarray | None = None,
                     ref_hat: np.ndarray | None = None):
    """min over y of ||u - reference(. + y)||_{H^s} and the minimizing y.

    The correlation against all grid shifts comes from one inverse transform.
    The squared distance sum_kappa w |u_hat - r_hat e^{i kappa y}|^2 equals
    const - 2 Re sum_kappa g e^{-i kappa y} with g = w u_hat conj(r_hat), a
    trigonometric polynomial with closed-form derivatives; from the winning
    grid shift j dx, y is refined by Newton's method, safeguarded by
    bisection on the sign of the slope inside [(j - 1) dx, (j + 1) dx], in
    at most eight evaluations.  Warns when a second, well-separated local
    optimum lies within 1% of the best one (the minimizer is then
    ambiguous).  ``u_hat`` and ``ref_hat``, when given, must be
    ``rfft(u) / N`` and ``rfft(reference) / N``; they let a caller transform
    a field once for several orders and a reference once for many fields.
    """
    u = np.asarray(u, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if u.shape != reference.shape:
        raise ValueError("field and reference must share one grid")
    if s not in (0, 1, 2):
        raise ValueError("sobolev order must be 0, 1 or 2")
    n = len(u)
    kap, w = _sobolev_weights(n, domain_length, s)
    uh = np.fft.rfft(u) / n if u_hat is None else u_hat
    rh = np.fft.rfft(reference) / n if ref_hat is None else ref_hat
    g = w * uh * np.conj(rh)
    # C(y_j) for all grid shifts y_j = j dx in one zero-padded FFT
    corr = np.fft.fft(g, n).real
    j_best = int(np.argmax(corr))
    _warn_if_ambiguous(corr, j_best)

    # d/dy dist^2 = -2 Im sum(kappa g e^{-i kappa y}) and
    # d^2/dy^2 dist^2 = 2 Re sum(kappa^2 g e^{-i kappa y})
    kg = kap * g
    derivative_rows = np.array([kg, kap * kg])
    dx = domain_length / n
    y = j_best * dx
    lo, hi = y - dx, y + dx
    for it in range(_NEWTON_ITERS):
        phase = np.exp(-1j * kap * y)
        first, second = derivative_rows @ phase
        slope, curvature = -2.0 * float(first.imag), 2.0 * float(second.real)
        step = -slope / curvature if curvature > 0.0 else math.inf
        if abs(step) < 1e-12 * dx or it == _NEWTON_ITERS - 1:
            break
        if slope > 0.0:
            hi = y
        else:
            lo = y
        y = y + step if lo < y + step < hi else 0.5 * (lo + hi)
    # summed term by term: const - 2 Re sum(g phase) would cancel down to
    # rounding noise of order 1e-8 ||u|| near the orbit
    dist_sq = float(np.sum(w * np.abs(uh - rh * np.conj(phase)) ** 2))
    # canonical representative in (-L/2, L/2]
    y_wrapped = y - domain_length * round(y / domain_length)
    return math.sqrt(dist_sq), y_wrapped


def _warn_if_ambiguous(corr: np.ndarray, j_best: int):
    """Warn when a local maximum of ``corr`` more than n/64 (at least 2)
    cells from ``j_best`` comes within 1% of the best value's span."""
    n = len(corr)
    guard = max(2, n // 64)
    wrapped = np.concatenate((corr[-1:], corr, corr[:1]))
    is_peak = (corr >= wrapped[:-2]) & (corr >= wrapped[2:])
    is_peak[np.arange(j_best - guard, j_best + guard + 1) % n] = False
    others = corr[is_peak]
    if len(others) == 0:
        return
    best = corr[j_best]
    runner = float(np.max(others))
    span = best - float(np.min(corr))
    if span > 0 and (best - runner) < 0.01 * span:
        warnings.warn("two near-degenerate shift optima (within 1%); the "
                      "reported shift may be ambiguous")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def state_from_profile(profile: WaveProfile, grid_n: int = 1024):
    """Initial state and on-grid reference for a traveling-wave experiment.

    The box is the profile's sampled window: exactly one wavelength for the
    periodic families, 40 characteristic widths for the solitary ones, wide
    enough that the wrap-around tails sit below 1e-12 of the peak (the
    periodic box then approximates the whole line).
    """
    domain = 2.0 * profile.window
    reference = profile.evaluate(_grid(grid_n, domain))
    state = SpectralState(grid_n=grid_n, domain_length=domain,
                          field=reference.copy(), time=0.0, params=profile.params)
    return state, reference


def characteristic_time(profile: WaveProfile) -> float:
    """Wavelength (periodic) or width (solitary) divided by the speed."""
    return profile.width / abs(profile.params.c)


@dataclass(frozen=True)
class Perturbation:
    """Initial-data perturbation: 'scale' (u -> (1+eps) u), 'cosine'
    (u -> u + eps cos(2 pi mode x / box)), or seeded band-limited 'noise'
    with peak eps * amplitude on the lowest N/8 modes."""

    kind: str
    eps: float
    seed: int | None = None
    mode: int = 1

    def __post_init__(self):
        if self.kind not in ("scale", "cosine", "noise"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "noise" and (self.seed is None or self.seed < 0):
            raise ValueError(f"noise perturbations must carry a non-negative seed, "
                             f"got {self.seed!r}")
        if not math.isfinite(self.eps):
            raise ValueError(f"perturbation eps must be finite, got {self.eps!r}")


def apply_perturbation(u: np.ndarray, pert: Perturbation, domain_length: float,
                       amplitude: float) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    n = len(u)
    if pert.kind == "scale":
        return (1.0 + pert.eps) * u
    if pert.kind == "cosine":
        x = _grid(n, domain_length)
        return u + pert.eps * np.cos(2.0 * math.pi * pert.mode * x / domain_length)
    rng = np.random.default_rng(pert.seed)
    spec = np.zeros(n // 2 + 1, dtype=complex)
    n_modes = max(1, n // 8)
    spec[1: n_modes + 1] = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    noise = np.fft.irfft(spec, n)
    peak = np.max(np.abs(noise))
    if peak > 0:
        noise *= pert.eps * abs(amplitude) / peak
    return u + noise


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    family: str
    perturbation: Perturbation | None
    horizon: float
    records: list
    initial_dist_h1: float
    initial_dist_h2: float
    max_dist_h1: float
    max_dist_h2: float
    final_state: SpectralState

    @property
    def ratio_h1(self) -> float:
        return self.max_dist_h1 / self.initial_dist_h1 if self.initial_dist_h1 > 0 else float("nan")

    @property
    def ratio_h2(self) -> float:
        return self.max_dist_h2 / self.initial_dist_h2 if self.initial_dist_h2 > 0 else float("nan")


def stability_experiment(profile: WaveProfile, perturbation: Perturbation | None,
                         horizon: float | None = None, grid_n: int | None = None,
                         dt: float | None = None, record_every: int = 50) -> ExperimentReport:
    """Evolve a (perturbed) wave and track its distance to the unperturbed orbit.

    ``horizon`` defaults to ten characteristic times; ``grid_n`` to 1024 on
    solitary boxes and 512 on the single-wavelength periodic box (which a
    cnoidal wave over-resolves already); ``dt`` to :func:`default_dt` of the
    perturbed state.  The report holds the diagnostics
    series plus max/initial distances in both H^1 and H^2, covering the two
    readings of the stability definition.  A field, perturbed or not, whose
    squares overflow on the grid is out of floating-point range: a ValueError
    that names the perturbation.
    """
    if grid_n is None:
        grid_n = 512 if profile.periodic else 1024
    state, reference = state_from_profile(profile, grid_n=grid_n)
    if horizon is None:
        horizon = 10.0 * characteristic_time(profile)
    field = state.field
    if perturbation is not None:
        # an overflow shows as a peak that is not finite, which is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            field = apply_perturbation(field, perturbation, state.domain_length,
                                       profile.amplitude)
    # the 3/2-rule product and the momentum diagnostic square the field and sum it
    peak = float(np.max(np.abs(field)))
    if not math.isfinite(peak * peak * grid_n):
        how = ("" if perturbation is None
               else f" perturbed by {perturbation.kind}:{perturbation.eps!r}")
        raise ValueError(f"the {profile.family} member's field{how} of peak {peak:.3g} squared "
                         f"over {grid_n} points is out of floating-point range")
    state = replace(state, field=field)
    if dt is None:
        dt = default_dt(state)
    final, records = evolve(state, horizon, dt=dt, record_every=record_every,
                            reference=reference)
    return ExperimentReport(
        family=profile.family,
        perturbation=perturbation,
        horizon=horizon,
        records=records,
        initial_dist_h1=records[0].dist_h1,
        initial_dist_h2=records[0].dist_h2,
        max_dist_h1=max(r.dist_h1 for r in records),
        max_dist_h2=max(r.dist_h2 for r in records),
        final_state=final,
    )
