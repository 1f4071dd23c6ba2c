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

Sobolev norms on the box use ||f||^2_{H^s} = sum_kappa (1 + kappa^2)^s
|f_hat(kappa)|^2 with f_hat = FFT(f)/N; this one convention backs every
distance reported here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .waves import MediumParams, WaveProfile, write_csv

__all__ = [
    "SpectralState",
    "DiagnosticsRecord",
    "Perturbation",
    "ExperimentReport",
    "BlowUpError",
    "step",
    "evolve",
    "default_dt",
    "sobolev_norm",
    "spectral_shift",
    "orbital_distance",
    "state_from_profile",
    "characteristic_time",
    "apply_perturbation",
    "stability_experiment",
    "diagnostics_to_csv",
    "snapshot_to_csv",
]

_BLOWUP_FACTOR = 100.0
_DT_CAP = 0.01


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
        return -0.5 * self.domain_length + np.arange(self.grid_n) * (
            self.domain_length / self.grid_n)


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    mass: float
    momentum: float
    dist_h1: float
    dist_h2: float
    shift: float


def _wavenumbers(n: int, domain_length: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=domain_length / n)


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
    kap = _wavenumbers(n, domain_length)
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
    return kap, e_full, e_half, q, f1, f2, f3


def _nonlinear(uh: np.ndarray, kap: np.ndarray, gamma: float, n: int) -> np.ndarray:
    """-i kappa (gamma/2) (u^2)_hat with 3/2-rule padding (exact for quadratics)."""
    m = 3 * n // 2
    padded = np.zeros(m // 2 + 1, dtype=complex)
    padded[: n // 2 + 1] = uh
    u_fine = np.fft.irfft(padded, m) * (m / n)
    sq_hat = np.fft.rfft(u_fine * u_fine)[: n // 2 + 1] * (n / m)
    return -0.5j * gamma * kap * sq_hat


def _step_spectrum(uh, coeffs, gamma, n):
    kap, e_full, e_half, q, f1, f2, f3 = coeffs
    nl_u = _nonlinear(uh, kap, gamma, n)
    a = e_half * uh + q * nl_u
    nl_a = _nonlinear(a, kap, gamma, n)
    b = e_half * uh + q * nl_a
    nl_b = _nonlinear(b, kap, gamma, n)
    c = e_half * a + q * (2.0 * nl_b - nl_u)
    nl_c = _nonlinear(c, kap, gamma, n)
    return e_full * uh + f1 * nl_u + 2.0 * f2 * (nl_a + nl_b) + f3 * nl_c


def step(state: SpectralState, dt: float) -> SpectralState:
    """Advance one ETDRK4 step; raises BlowUpError past 100x the initial peak."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    coeffs = _etdrk4_coeffs(state.grid_n, state.domain_length, state.params, dt)
    uh = np.fft.rfft(state.field)
    uh = _step_spectrum(uh, coeffs, state.params.gamma, state.grid_n)
    field = np.fft.irfft(uh, state.grid_n)
    _check_blowup(field, np.max(np.abs(state.field)), state.time + dt)
    return replace(state, field=field, time=state.time + dt)


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


def evolve(state: SpectralState, t_end: float, dt: float | None = None,
           record_every: int = 50, reference: np.ndarray | None = None):
    """Run to t_end, recording diagnostics every ``record_every`` steps.

    Mass and momentum are the grid integrals of u and u^2 (both conserved by
    the flow; the mean mode is untouched by construction, so mass is exact).
    Distances are shift-minimized H^1/H^2 distances to ``reference`` when
    one is given, else zero.  Returns (final_state, records); records always
    include t = 0 and the final time.  A backward run (``t_end`` before the
    state's time), ``dt <= 0`` and ``record_every < 1`` are rejected.
    """
    if t_end < state.time:
        raise ValueError(f"t_end = {t_end!r} lies before the state's time {state.time!r}")
    if dt is None:
        dt = default_dt(state)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every!r}")
    n_steps = max(1, int(math.ceil((t_end - state.time) / dt - 1e-12)))
    dt = (t_end - state.time) / n_steps
    coeffs = _etdrk4_coeffs(state.grid_n, state.domain_length, state.params, dt)
    dx = state.domain_length / state.grid_n

    def record(field, t):
        if reference is not None:
            d1, sh = orbital_distance(field, reference, state.domain_length, 1)
            d2, _ = orbital_distance(field, reference, state.domain_length, 2)
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
    uh = np.fft.rfft(state.field)
    peak0 = float(np.max(np.abs(state.field)))
    t = state.time
    for i in range(n_steps):
        uh = _step_spectrum(uh, coeffs, state.params.gamma, state.grid_n)
        t = state.time + (i + 1) * dt
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            field = np.fft.irfft(uh, state.grid_n)
            _check_blowup(field, peak0, t)
            records.append(record(field, t))
    final = replace(state, field=np.fft.irfft(uh, state.grid_n), time=t)
    return final, records


# ---------------------------------------------------------------------------
# norms, shifts and the orbital distance
# ---------------------------------------------------------------------------

def sobolev_norm(u: np.ndarray, domain_length: float, s: int) -> float:
    """Discrete H^s norm, sum_kappa (1 + kappa^2)^s |u_hat|^2 with u_hat = FFT/N."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    kap = _wavenumbers(n, domain_length)
    spec = np.fft.rfft(u) / n
    weights = np.full(len(kap), 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return math.sqrt(float(np.sum(weights * (1.0 + kap ** 2) ** s * np.abs(spec) ** 2)))


def spectral_shift(u: np.ndarray, y: float, domain_length: float) -> np.ndarray:
    """Evaluate u(x + y) through the transform phases (exact for band-limited u)."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    kap = _wavenumbers(n, domain_length)
    return np.fft.irfft(np.fft.rfft(u) * np.exp(1j * kap * y), n)


def orbital_distance(u: np.ndarray, reference: np.ndarray, domain_length: float,
                     s: int):
    """min over y of ||u - reference(. + y)||_{H^s} and the minimizing y.

    The correlation against all grid shifts comes from one inverse transform;
    the winning cell is then refined by golden-section on the continuous
    shift.  Warns when a second, well-separated local optimum lies within 1%
    of the best one (the minimizer is then ambiguous).
    """
    u = np.asarray(u, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if u.shape != reference.shape:
        raise ValueError("field and reference must share one grid")
    if s not in (0, 1, 2):
        raise ValueError("sobolev order must be 0, 1 or 2")
    n = len(u)
    kap = _wavenumbers(n, domain_length)
    uh = np.fft.rfft(u) / n
    rh = np.fft.rfft(reference) / n
    wts = np.full(len(kap), 2.0)
    wts[0] = 1.0
    if n % 2 == 0:
        wts[-1] = 1.0
    w = wts * (1.0 + kap ** 2) ** s
    g = w * uh * np.conj(rh)
    # C(y_j) for all grid shifts y_j = j dx in one FFT
    padded = np.zeros(n, dtype=complex)
    padded[: len(kap)] = g
    corr = np.fft.fft(padded).real
    const = float(np.sum(w * (np.abs(uh) ** 2 + np.abs(rh) ** 2)))

    j_best = int(np.argmax(corr))
    _warn_if_ambiguous(corr, j_best)

    def dist_sq(y):
        return const - 2.0 * float(np.sum(g * np.exp(-1j * kap * y)).real)

    dx = domain_length / n
    lo, hi = (j_best - 1) * dx, (j_best + 1) * dx
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - inv_golden * (hi - lo)
    c2 = lo + inv_golden * (hi - lo)
    f1, f2 = dist_sq(c1), dist_sq(c2)
    while hi - lo > 1e-12 * dx:
        if f1 < f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - inv_golden * (hi - lo)
            f1 = dist_sq(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + inv_golden * (hi - lo)
            f2 = dist_sq(c2)
    y = 0.5 * (lo + hi)
    # canonical representative in (-L/2, L/2]
    y_wrapped = y - domain_length * round(y / domain_length)
    return math.sqrt(max(dist_sq(y), 0.0)), y_wrapped


def _warn_if_ambiguous(corr: np.ndarray, j_best: int):
    n = len(corr)
    guard = max(2, n // 64)
    is_peak = (corr >= np.roll(corr, 1)) & (corr >= np.roll(corr, -1))
    away = np.minimum(np.abs(np.arange(n) - j_best),
                      n - np.abs(np.arange(n) - j_best)) > guard
    others = corr[is_peak & away]
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
    x = -0.5 * domain + np.arange(grid_n) * (domain / grid_n)
    reference = profile.evaluate(x)
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
        if self.kind == "noise" and self.seed is None:
            raise ValueError("noise perturbations must carry a seed")


def apply_perturbation(u: np.ndarray, pert: Perturbation, domain_length: float,
                       amplitude: float) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    n = len(u)
    if pert.kind == "scale":
        return (1.0 + pert.eps) * u
    if pert.kind == "cosine":
        x = -0.5 * domain_length + np.arange(n) * (domain_length / n)
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
    cnoidal wave over-resolves already).  The report holds the diagnostics
    series plus max/initial distances in both H^1 and H^2, covering the two
    readings of the stability definition.
    """
    if grid_n is None:
        grid_n = 512 if profile.periodic else 1024
    state, reference = state_from_profile(profile, grid_n=grid_n)
    if horizon is None:
        horizon = 10.0 * characteristic_time(profile)
    u0 = state.field
    if perturbation is not None:
        u0 = apply_perturbation(u0, perturbation, state.domain_length,
                                profile.amplitude)
        state = replace(state, field=u0)
    if dt is None:
        dt = default_dt(state)
    d1_0, _ = orbital_distance(u0, reference, state.domain_length, 1)
    d2_0, _ = orbital_distance(u0, reference, state.domain_length, 2)
    final, records = evolve(state, horizon, dt=dt, record_every=record_every,
                            reference=reference)
    return ExperimentReport(
        family=profile.family,
        perturbation=perturbation,
        horizon=horizon,
        records=records,
        initial_dist_h1=d1_0,
        initial_dist_h2=d2_0,
        max_dist_h1=max(r.dist_h1 for r in records),
        max_dist_h2=max(r.dist_h2 for r in records),
        final_state=final,
    )


def diagnostics_to_csv(records, path=None) -> str:
    rows = ((r.time, r.mass, r.momentum, r.dist_h1, r.dist_h2, r.shift) for r in records)
    return write_csv(path, ("time", "mass", "momentum", "distH1", "distH2", "shift"), rows)


def snapshot_to_csv(state: SpectralState, path=None) -> str:
    return write_csv(path, ("x", "u"), zip(state.x, state.field),
                     comment=f"t={state.time:.17g}")
