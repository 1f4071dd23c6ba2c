import math
import warnings

import numpy as np
import pytest

from fkdv import pde
from fkdv.pde import (
    BlowUpError,
    Perturbation,
    SpectralState,
    apply_perturbation,
    characteristic_time,
    default_dt,
    evolve,
    orbital_distance,
    stability_experiment,
    state_from_profile,
)
from dataclasses import replace

from fkdv.waves import FIFTH_SOLITON, KDV_CNOIDAL, KDV_SOLITON, MediumParams, build_profile


def sobolev_norm(u, domain_length, s):
    """Discrete H^s norm, sum_kappa (1 + kappa^2)^s |u_hat|^2 with u_hat = FFT/N."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    _, w = pde._sobolev_weights(n, domain_length, s)
    spec = np.fft.rfft(u) / n
    return math.sqrt(float(np.sum(w * np.abs(spec) ** 2)))


def spectral_shift(u, y, domain_length):
    """Evaluate u(x + y) through the transform phases (exact for band-limited u)."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    kap = pde._wavenumbers(n, domain_length)
    return np.fft.irfft(np.fft.rfft(u) * np.exp(1j * kap * y), n)


def soliton_state(grid_n=1024):
    prof = build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0)
    return state_from_profile(prof, grid_n=grid_n)


def kdv_soliton_state(grid_n=256):
    return state_from_profile(build_profile(KDV_SOLITON, 1.0, 1.0, 0.0, 1.0, 0.0), grid_n=grid_n)


def unreachable_step(*args):
    raise AssertionError("validation should have stopped the run")


def step(state, dt):
    """Advance one ETDRK4 step with evolve's kernel; raises BlowUpError past 100x the initial peak."""
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    coeffs = pde._etdrk4_coeffs(state.grid_n, state.domain_length, state.params, dt)
    uh = np.fft.rfft(state.field)
    uh = pde._step_spectrum(uh, coeffs, pde._Workspace(state.grid_n))
    field = np.fft.irfft(uh, state.grid_n)
    pde._check_blowup(field, np.max(np.abs(state.field)), state.time + dt)
    return replace(state, field=field, time=state.time + dt)


# ---------------------------------------------------------------------------
# References: the ETDRK4 stage kernel with a fresh array for every product,
# and the golden-section shift refinement.  The solver must reproduce the
# kernel bit for bit; the Newton refinement must agree with golden section
# to golden section's own resolution.
# ---------------------------------------------------------------------------

def reference_coeffs(n, domain_length, params, dt):
    kap = pde._wavenumbers(n, domain_length)
    sym = 1j * (-params.cee * kap + params.alpha * kap ** 3 + params.beta * kap ** 5)
    z = sym * dt
    e_full = np.exp(z)
    e_half = np.exp(0.5 * z)
    p1h, _, _ = pde._phi123(0.5 * z)
    q = 0.5 * dt * p1h
    p1, p2, p3 = pde._phi123(z)
    f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
    f2 = dt * (p2 - 2.0 * p3)
    f3 = dt * (4.0 * p3 - p2)
    return kap, e_full, e_half, q, f1, f2, f3


def reference_nonlinear(uh, kap, gamma, n):
    m = 3 * n // 2
    padded = np.zeros(m // 2 + 1, dtype=complex)
    padded[: n // 2 + 1] = uh
    u_fine = np.fft.irfft(padded, m) * (m / n)
    sq_hat = np.fft.rfft(u_fine * u_fine)[: n // 2 + 1] * (n / m)
    return -0.5j * gamma * kap * sq_hat


def reference_step_spectrum(uh, coeffs, gamma, n):
    kap, e_full, e_half, q, f1, f2, f3 = coeffs
    nl_u = reference_nonlinear(uh, kap, gamma, n)
    a = e_half * uh + q * nl_u
    nl_a = reference_nonlinear(a, kap, gamma, n)
    b = e_half * uh + q * nl_a
    nl_b = reference_nonlinear(b, kap, gamma, n)
    c = e_half * a + q * (2.0 * nl_b - nl_u)
    nl_c = reference_nonlinear(c, kap, gamma, n)
    return e_full * uh + f1 * nl_u + 2.0 * f2 * (nl_a + nl_b) + f3 * nl_c


def reference_final_field(state, t_end, dt):
    n_steps = max(1, int(math.ceil((t_end - state.time) / dt - 1e-12)))
    dt = (t_end - state.time) / n_steps
    coeffs = reference_coeffs(state.grid_n, state.domain_length, state.params, dt)
    uh = np.fft.rfft(state.field)
    for _ in range(n_steps):
        uh = reference_step_spectrum(uh, coeffs, state.params.gamma, state.grid_n)
    return np.fft.irfft(uh, state.grid_n)


def orbital_distance_golden(u, reference, domain_length, s):
    n = len(u)
    kap = pde._wavenumbers(n, domain_length)
    uh = np.fft.rfft(u) / n
    rh = np.fft.rfft(reference) / n
    wts = np.full(len(kap), 2.0)
    wts[0] = 1.0
    if n % 2 == 0:
        wts[-1] = 1.0
    w = wts * (1.0 + kap ** 2) ** s
    g = w * uh * np.conj(rh)
    padded = np.zeros(n, dtype=complex)
    padded[: len(kap)] = g
    corr = np.fft.fft(padded).real
    const = float(np.sum(w * (np.abs(uh) ** 2 + np.abs(rh) ** 2)))
    j_best = int(np.argmax(corr))

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
    y_wrapped = y - domain_length * round(y / domain_length)
    return math.sqrt(max(dist_sq(y), 0.0)), y_wrapped


def periodic_gap(a, b, box):
    """|a - b| on the circle of circumference ``box``."""
    return abs((a - b + box / 2) % box - box / 2)


def kdv_two_soliton(x, t, gamma, alpha, k=(1.2, 0.8)):
    """Hirota's two-soliton solution of u_t + gamma u u_x + alpha u_xxx = 0.

    u = (6 alpha / gamma) w(x, alpha t), where w_tau + 6 w w_x + w_xxx = 0 has
    w = 2 (log F)_xx with F = 1 + e^eta1 + e^eta2 + A12 e^(eta1 + eta2),
    eta_i = k_i x - k_i^3 tau and A12 = ((k1 - k2) / (k1 + k2))^2.  Each term of
    F is an exponential of slope s_m in x, so (log F)_xx is the variance of s
    under the weights e^theta_m / F, formed here without overflow.
    """
    k1, k2 = k
    tau = alpha * t
    eta1, eta2 = k1 * (x - k1 ** 2 * tau), k2 * (x - k2 ** 2 * tau)
    log_a12 = 2.0 * math.log((k1 - k2) / (k1 + k2))
    theta = np.stack([np.zeros_like(x), eta1, eta2, eta1 + eta2 + log_a12])
    slope = np.array([0.0, k1, k2, k1 + k2])[:, None]
    weight = np.exp(theta - theta.max(axis=0))
    weight /= weight.sum(axis=0)
    mean = np.sum(weight * slope, axis=0)
    return (12.0 * alpha / gamma) * np.sum(weight * (slope - mean) ** 2, axis=0)


class TestStateValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            SpectralState(grid_n=100, domain_length=10.0, field=np.zeros(100),
                          time=0.0, params=MediumParams(1.0, 1.0, 0.0, 1.0))

    def test_fifth_derivative_resolution_guard(self):
        with pytest.raises(ValueError):
            SpectralState(grid_n=128, domain_length=10.0, field=np.zeros(128),
                          time=0.0, params=MediumParams(1.0, 1.0, 1.0, 1.0))

    def test_beta_zero_allows_small_grids(self):
        state = SpectralState(grid_n=128, domain_length=10.0, field=np.zeros(128),
                              time=0.0, params=MediumParams(1.0, 1.0, 0.0, 1.0))
        assert state.grid_n == 128


class TestPhiFunctions:
    def test_branch_consistency(self):
        # around the |z| = 0.5 switch both branches are accurate: the direct
        # formulas lose at most ~2 digits to cancellation at |z| ~ 0.3
        from fkdv.pde import _phi123
        z = np.array([0.3j, 0.45j, -0.2 + 0.35j, 0.49j])
        direct = []
        for f_exact in (
            lambda w: (np.exp(w) - 1.0) / w,
            lambda w: (np.exp(w) - 1.0 - w) / w ** 2,
            lambda w: (np.exp(w) - 1.0 - w - w ** 2 / 2.0) / w ** 3,
        ):
            direct.append(f_exact(z))
        for ours, ref in zip(_phi123(z), direct):
            assert np.max(np.abs(ours - ref)) < 1e-12

    def test_weights_reduce_to_rk4_at_zero(self):
        from fkdv.pde import _phi123
        p1, p2, p3 = _phi123(np.array([0.0]))
        f1 = p1 - 3.0 * p2 + 4.0 * p3   # 1/6
        f2 = p2 - 2.0 * p3              # 1/6 (applied twice to two stages)
        f3 = 4.0 * p3 - p2              # 1/6
        assert np.allclose([f1, f2, f3], 1.0 / 6.0, rtol=1e-14)


class TestLinearExactness:
    def test_single_mode_phase_rotation(self):
        # gamma = 0: the stepping is the exact linear propagator, any dt
        n, box = 256, 20.0
        params = MediumParams(gamma=0.0, alpha=1.0, beta=0.0, c=0.0, cee=0.5)
        x = -box / 2 + np.arange(n) * (box / n)
        kap1 = 2.0 * math.pi * 3.0 / box
        state = SpectralState(grid_n=n, domain_length=box, field=np.cos(kap1 * x),
                              time=0.0, params=params)
        dt = 0.371
        out = step(state, dt)
        omega = params.cee * kap1 - params.alpha * kap1 ** 3  # from the symbol
        expected = np.cos(kap1 * x - omega * dt)
        assert np.max(np.abs(out.field - expected)) < 1e-12

    def test_constant_field_fixed_point(self):
        n = 256
        params = MediumParams(gamma=1.0, alpha=1.0, beta=1.0, c=0.0)
        state = SpectralState(grid_n=n, domain_length=15.0,
                              field=np.full(n, 0.7), time=0.0, params=params)
        out = step(state, 0.05)
        assert np.max(np.abs(out.field - 0.7)) < 1e-14


class TestSolitonPropagation:
    def test_exact_travel_to_t10(self):
        state, ref = soliton_state()
        final, records = evolve(state, 10.0, dt=0.01, record_every=200,
                                reference=ref)
        d2, _ = orbital_distance(final.field, ref, state.domain_length, 2)
        assert d2 < 1e-5 * 0.6213
        # compare against the exact solution wrapped onto the periodic box
        box = state.domain_length
        xs = np.mod(final.x - (36.0 / 169.0) * 10.0 + box / 2, box) - box / 2
        exact = (105.0 / 169.0) / np.cosh(0.5 / math.sqrt(13.0) * xs) ** 4
        assert np.max(np.abs(final.field - exact)) < 1e-9
        times = [r.time for r in records]
        assert times == sorted(times) and times[0] == 0.0 and times[-1] == 10.0

    def test_field_transform_conjugate_symmetry(self):
        state, _ = soliton_state(grid_n=512)
        out = step(state, 0.01)
        spec = np.fft.fft(out.field)
        sym = spec[1:][::-1] - np.conj(spec[1:])
        assert np.max(np.abs(sym)) < 1e-13 * np.max(np.abs(spec))

    def test_mass_and_momentum_conservation(self):
        state, ref = soliton_state()
        _, records = evolve(state, 10.0, dt=0.01, record_every=100, reference=ref)
        mass = np.array([r.mass for r in records])
        mom = np.array([r.momentum for r in records])
        assert np.max(np.abs(mass - mass[0])) / abs(mass[0]) < 1e-10
        assert np.max(np.abs(mom - mom[0])) / mom[0] < 1e-8

    def test_spatial_spectral_accuracy(self):
        # doubling the grid cuts the t=1 shape error by far more than 100x
        errs = []
        for n in (128, 256, 512):
            # beta != 0 needs n >= 256; use the KdV soliton so n = 128 is legal
            state, _ = kdv_soliton_state(grid_n=n)
            final, _ = evolve(state, 1.0, dt=0.0008, record_every=10 ** 9)
            box = state.domain_length
            xs = np.mod(final.x - 1.0 + box / 2, box) - box / 2
            exact = 3.0 / np.cosh(0.5 * xs) ** 2
            errs.append(float(np.max(np.abs(final.field - exact))))
        assert errs[0] / errs[1] > 100.0
        assert errs[2] < 5e-12

    def test_time_step_convergence_fourth_order(self):
        state, _ = soliton_state(grid_n=256)
        ref, _ = evolve(state, 1.0, dt=0.0005, record_every=10 ** 9)
        errors = []
        for dt in (0.08, 0.04, 0.02):
            out, _ = evolve(state, 1.0, dt=dt, record_every=10 ** 9)
            errors.append(float(np.max(np.abs(out.field - ref.field))))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert 3.5 < order < 5.0

    def test_blow_up_detection(self):
        prof = build_profile(KDV_SOLITON, 1.0, 1.0, 0.0, 1.0, 0.0)
        state, _ = state_from_profile(prof, grid_n=512)
        with pytest.raises(BlowUpError):
            evolve(state, 50.0, dt=2.0, record_every=1)

    def test_advection_term_is_a_frame_change(self):
        # evolving with C != 0 equals the C = 0 run followed by a shift by -Ct
        prof = build_profile(KDV_SOLITON, 1.0, 1.0, 0.0, 1.0, 0.0)
        state0, _ = state_from_profile(prof, grid_n=512)
        cee = 0.8
        moving = SpectralState(
            grid_n=state0.grid_n, domain_length=state0.domain_length,
            field=state0.field.copy(), time=0.0,
            params=MediumParams(gamma=1.0, alpha=1.0, beta=0.0, c=1.0, cee=cee))
        t_end = 1.0
        out_c, _ = evolve(moving, t_end, dt=0.002, record_every=10 ** 9)
        out_0, _ = evolve(state0, t_end, dt=0.002, record_every=10 ** 9)
        shifted = spectral_shift(out_0.field, -cee * t_end, state0.domain_length)
        assert np.max(np.abs(out_c.field - shifted)) < 1e-10


class TestTwoSolitonCollision:
    """An exact KdV collision checks the nonlinear term, which single waves
    leave to their own profile: the fast soliton overtakes the slow one and
    both come out phase-shifted, from t = -8 to 8 on a box of 80."""

    BOX, N = 80.0, 512

    def collision_error(self, gamma, alpha, t_end, dt_divisor=1):
        """Max error at t_end relative to the peak, from the exact field at -t_end."""
        x = pde._grid(self.N, self.BOX)
        params = MediumParams(gamma=gamma, alpha=alpha, beta=0.0, c=0.0)
        state = SpectralState(grid_n=self.N, domain_length=self.BOX, time=-t_end,
                              field=kdv_two_soliton(x, -t_end, gamma, alpha), params=params)
        final, _ = evolve(state, t_end, default_dt(state) / dt_divisor, record_every=10 ** 6)
        exact = kdv_two_soliton(x, t_end, gamma, alpha)
        return float(np.max(np.abs(final.field - exact)) / np.max(np.abs(exact)))

    def test_error_is_fourth_order_in_dt(self):
        # measured 2.5e-7 at default_dt = 0.01, then 1.4e-8 and 7.8e-10
        errors = [self.collision_error(6.0, 1.0, 8.0, d) for d in (1, 2, 4)]
        assert errors[0] < 5e-7
        assert errors[0] > 12.0 * errors[1] and errors[1] > 12.0 * errors[2]

    def test_scaled_mirrored_collision(self):
        # the same collision in tau = alpha t, at half the rate and with u -> -u
        assert self.collision_error(-3.0, 0.5, 16.0) < 5e-7


class TestSobolevMachinery:
    def test_norm_of_cosine(self):
        n, box = 512, 10.0
        x = -box / 2 + np.arange(n) * (box / n)
        kap = 2.0 * math.pi / box
        u = np.cos(kap * x)
        for s in (0, 1, 2):
            expected = math.sqrt((1.0 + kap ** 2) ** s / 2.0)
            assert sobolev_norm(u, box, s) == pytest.approx(expected, rel=1e-13)

    def test_spectral_shift_roundtrip(self):
        state, ref = soliton_state(grid_n=512)
        moved = spectral_shift(ref, 1.234, state.domain_length)
        back = spectral_shift(moved, -1.234, state.domain_length)
        assert np.max(np.abs(back - ref)) < 1e-12


class TestOrbitalDistance:
    def test_exact_member_fractional_shift(self):
        state, ref = soliton_state(grid_n=512)
        dx = state.domain_length / state.grid_n
        field = spectral_shift(ref, 3.7 * dx, state.domain_length)
        dist, shift = orbital_distance(field, ref, state.domain_length, 2)
        assert dist < 1e-10
        assert shift / dx == pytest.approx(3.7, abs=1e-6)

    def test_ten_random_shifts(self):
        state, ref = soliton_state(grid_n=512)
        rng = np.random.default_rng(3)
        for y in rng.uniform(-0.5, 0.5, 10) * state.domain_length:
            field = spectral_shift(ref, y, state.domain_length)
            dist, _ = orbital_distance(field, ref, state.domain_length, 2)
            assert dist < 1e-10

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_additive_cosine(self, s):
        state, ref = soliton_state(grid_n=512)
        box = state.domain_length
        eps = 1e-3
        field = ref + eps * np.cos(2.0 * math.pi * state.x / box)
        dist, _ = orbital_distance(field, ref, box, s)
        kap1 = 2.0 * math.pi / box
        expected = eps * math.sqrt((1.0 + kap1 ** 2) ** s / 2.0)
        assert dist == pytest.approx(expected, rel=0.05)

    def test_scaled_copy(self):
        state, ref = soliton_state(grid_n=512)
        dist, shift = orbital_distance(1.01 * ref, ref, state.domain_length, 1)
        expected = 0.01 * sobolev_norm(ref, state.domain_length, 1)
        assert dist == pytest.approx(expected, rel=0.05)
        assert abs(shift) < state.domain_length / state.grid_n

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            orbital_distance(np.zeros(64), np.zeros(128), 1.0, 0)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            orbital_distance(np.zeros(64), np.zeros(64), 1.0, 3)

    def test_two_hump_field_warns_ambiguous(self):
        # a pure second harmonic is invariant under a half-period shift, so
        # two shift optima tie and the minimizer is ambiguous
        n, box = 256, 10.0
        x = -box / 2 + np.arange(n) * (box / n)
        u = np.cos(4.0 * math.pi * x / box)
        with pytest.warns(UserWarning, match="near-degenerate"):
            orbital_distance(u, u, box, 0)


class TestPerturbations:
    def test_scale(self):
        u = np.ones(16)
        out = apply_perturbation(u, Perturbation("scale", 0.01), 1.0, 1.0)
        assert np.allclose(out, 1.01)

    def test_noise_is_seeded_and_band_limited(self):
        u = np.zeros(256)
        pert = Perturbation("noise", 0.1, seed=7)
        a = apply_perturbation(u, pert, 1.0, 2.0)
        b = apply_perturbation(u, pert, 1.0, 2.0)
        assert np.array_equal(a, b)
        assert np.max(np.abs(a)) == pytest.approx(0.1 * 2.0, rel=1e-12)
        spec = np.fft.rfft(a)
        assert np.max(np.abs(spec[256 // 8 + 1:])) < 1e-12 * np.max(np.abs(spec))

    def test_noise_requires_seed(self):
        with pytest.raises(ValueError):
            Perturbation("noise", 0.1)
        with pytest.raises(ValueError, match="non-negative seed, got -1"):
            Perturbation("noise", 0.1, seed=-1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Perturbation("bump", 0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=f"perturbation eps must be finite, got {eps!r}"):
            Perturbation("scale", eps)


class TestExperiments:
    def test_unperturbed_soliton_stays_on_orbit(self):
        prof = build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0)
        report = stability_experiment(prof, None, horizon=5.0, dt=0.01,
                                      record_every=100)
        assert report.max_dist_h2 < 1e-5 * prof.amplitude

    def test_perturbed_soliton_bounded(self):
        prof = build_profile(KDV_SOLITON, 1.0, 1.0, 0.0, 1.0, 0.0)
        report = stability_experiment(prof, Perturbation("scale", 0.01),
                                      horizon=4.0, dt=0.005, record_every=100)
        assert report.initial_dist_h2 > 0.0
        assert report.ratio_h2 < 5.0

    def test_default_dt_is_taken_on_the_perturbed_state(self):
        prof = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0)
        pert = Perturbation("noise", 0.02, seed=5)
        report = stability_experiment(prof, pert, horizon=0.5)
        state, ref = state_from_profile(prof, grid_n=512)
        perturbed = replace(state, field=apply_perturbation(state.field, pert,
                                                            state.domain_length, prof.amplitude))
        # the noise lifts the peak, so the advective bound moves off the wave's own
        assert default_dt(perturbed) < default_dt(state) < 0.01
        final, records = evolve(perturbed, 0.5, dt=default_dt(perturbed), record_every=50,
                                reference=ref)
        assert len(records) > 2 and report.records == records
        assert np.array_equal(report.final_state.field, final.field)
        assert report.final_state.time == final.time

    def test_zero_field_diagnostics(self):
        n = 128
        state = SpectralState(grid_n=n, domain_length=10.0, field=np.zeros(n),
                              time=0.0, params=MediumParams(1.0, 1.0, 0.0, 1.0))
        final, records = evolve(state, 0.1, dt=0.01, record_every=2)
        for r in records:
            assert r.mass == 0.0 and r.momentum == 0.0
            assert r.dist_h1 == 0.0 and r.dist_h2 == 0.0

    def test_characteristic_time(self):
        prof = build_profile(KDV_SOLITON, 1.0, 1.0, 0.0, 1.0, 0.0)
        assert characteristic_time(prof) == pytest.approx(2.0, rel=1e-14)

    def test_box_and_time_follow_the_width(self):
        fifth = build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0)
        state, _ = state_from_profile(fifth, grid_n=256)
        assert state.domain_length == 40.0 * 2.0 * math.sqrt(13.0)
        cn2 = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 2.0, 1.0)
        state, _ = state_from_profile(cn2, grid_n=256)
        assert state.domain_length == cn2.cnoidal.wavelength
        assert characteristic_time(cn2) == cn2.cnoidal.wavelength / 2.0

    def test_backward_run_rejected(self):
        state, _ = kdv_soliton_state()
        with pytest.raises(ValueError, match="before"):
            evolve(replace(state, time=5.0), 1.0, dt=0.01, record_every=1)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_nonpositive_dt_rejected(self, dt):
        state, _ = kdv_soliton_state()
        with pytest.raises(ValueError, match="dt"):
            evolve(state, 1.0, dt=dt, record_every=1)

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_nonpositive_record_every_rejected(self, record_every):
        state, _ = kdv_soliton_state()
        with pytest.raises(ValueError, match="record_every"):
            evolve(state, 1.0, dt=0.1, record_every=record_every)

    def test_default_dt_cfl(self):
        prof = build_profile(KDV_SOLITON, 1.0, 1.0, 0.0, 1.0, 0.0)
        state, _ = state_from_profile(prof, grid_n=512)
        dx = state.domain_length / 512
        assert default_dt(state) == pytest.approx(min(0.5 * dx / 3.0, 0.01), rel=1e-12)

    def test_initial_distances_are_the_first_record(self):
        prof = build_profile(KDV_SOLITON, 1.0, 1.0, 0.0, 1.0, 0.0)
        report = stability_experiment(prof, Perturbation("cosine", 0.01, mode=2),
                                      horizon=0.1, grid_n=256, dt=0.01)
        state, ref = state_from_profile(prof, grid_n=256)
        u0 = apply_perturbation(state.field, Perturbation("cosine", 0.01, mode=2),
                                state.domain_length, prof.amplitude)
        assert report.initial_dist_h1 == orbital_distance(u0, ref, state.domain_length, 1)[0]
        assert report.initial_dist_h2 == orbital_distance(u0, ref, state.domain_length, 2)[0]


class TestTimeInputs:
    @pytest.fixture
    def state(self, monkeypatch):
        monkeypatch.setattr(pde, "_step_spectrum", unreachable_step)
        return kdv_soliton_state()[0]

    @pytest.mark.parametrize("t_end", [math.inf, -math.inf, math.nan])
    def test_non_finite_t_end_rejected(self, state, t_end):
        with pytest.raises(ValueError, match=f"t_end must be finite, got {t_end!r}"):
            evolve(state, t_end, dt=0.01, record_every=1)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_non_finite_dt_rejected(self, state, dt):
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt!r}"):
            evolve(state, 1.0, dt=dt, record_every=1)

    @pytest.mark.parametrize("t0", [0.0, 2.5])
    def test_zero_length_run_takes_no_step(self, state, t0):
        state = replace(state, time=t0)
        final, records = evolve(state, t0, dt=0.01, record_every=1, reference=state.field)
        assert final is state
        assert [r.time for r in records] == [t0]

    def test_step_count_cap(self, state):
        with pytest.raises(ValueError, match=r"takes 2e\+10 steps, above the cap of 1000000"):
            evolve(state, 20.0, dt=1e-9, record_every=1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weights_rejected(self, state):
        state = replace(state, params=replace(state.params, cee=1e200))
        with pytest.raises(ValueError, match=r"ETDRK4 weights overflow at C = 1e\+200 "
                                             r"with dt = 0\.01:"):
            evolve(state, 0.1, dt=0.01, record_every=1)

    def test_step_count_cap_admits_its_bound(self, state, monkeypatch):
        monkeypatch.setattr(pde, "_step_spectrum", lambda uh, coeffs, ws: uh)
        final, records = evolve(state, 0.5 * pde._STEPS_CAP, dt=0.5, record_every=10 ** 9)
        assert final.time == 0.5 * pde._STEPS_CAP and len(records) == 2


class TestReferenceKernel:
    @pytest.mark.parametrize("family, grid_n, cee", [
        ("kdv-soliton", 2, 0.0),     # beta = 0; odd padded length m = 3
        ("fifth-soliton", 256, 0.0),
        ("kdv-cnoidal", 512, 0.5),   # beta = 0 and C != 0
        ("fifth-cnoidal", 512, 0.0),
        ("kdv-soliton", 1024, 0.0),  # beta = 0
        ("fifth-soliton", 4096, 0.0),
    ])
    def test_evolve_matches_reference_bitwise(self, family, grid_n, cee):
        prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
        state, _ = state_from_profile(prof, grid_n=grid_n)
        field = apply_perturbation(state.field, Perturbation("noise", 0.01, seed=3),
                                   state.domain_length, prof.amplitude)
        state = replace(state, field=field, params=replace(state.params, cee=cee))
        dt = default_dt(state)
        final, _ = evolve(state, 40.5 * dt, dt=dt, record_every=7)
        assert np.array_equal(final.field, reference_final_field(state, 40.5 * dt, dt))

    def test_nested_run_leaves_both_runs_unchanged(self, monkeypatch):
        # a second run on another grid starts in the middle of the first
        # run's second step; each run owns its workspace, so neither moves
        def run_of(family, grid_n):
            prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
            state, ref = state_from_profile(prof, grid_n=grid_n)
            dt = default_dt(state)
            return lambda: evolve(state, 20.5 * dt, dt=dt, record_every=3, reference=ref)

        outer, inner = run_of("kdv-cnoidal", 512), run_of("fifth-soliton", 256)
        solo = [outer(), inner()]
        kernel, calls, nested = pde._nonlinear, [], []

        def nonlinear(*args):
            calls.append(None)
            if len(calls) == 7:  # stage b of the outer run's second step
                nested.append(inner())
            return kernel(*args)

        monkeypatch.setattr(pde, "_nonlinear", nonlinear)
        nested_runs = zip([outer(), *nested], solo, strict=True)
        for (final, records), (solo_final, solo_records) in nested_runs:
            assert np.array_equal(final.field, solo_final.field)
            assert records == solo_records

    def test_step_matches_reference_bitwise(self):
        state, _ = soliton_state(grid_n=512)
        assert np.array_equal(step(state, 0.01).field,
                              reference_final_field(state, 0.01, 0.01))


class TestNewtonShift:
    @pytest.mark.parametrize("family", ["fifth-soliton", "kdv-cnoidal"])
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_agrees_with_golden_section(self, family, s):
        prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
        state, ref = state_from_profile(prof, grid_n=512)
        box = state.domain_length
        dx = box / state.grid_n
        rng = np.random.default_rng(11)
        for pert in (Perturbation("scale", 0.01), Perturbation("cosine", 0.01, mode=3),
                     Perturbation("noise", 0.01, seed=5)):
            field = spectral_shift(apply_perturbation(ref, pert, box, prof.amplitude),
                                   rng.uniform(-0.5, 0.5) * box, box)
            dist, shift = orbital_distance(field, ref, box, s)
            dist_golden, shift_golden = orbital_distance_golden(field, ref, box, s)
            assert dist == pytest.approx(dist_golden, rel=1e-9)
            assert periodic_gap(shift, shift_golden, box) < 1e-5 * dx

    def test_recovers_exact_shifts(self):
        # golden section stops at about 2e-7 dx here, where dist^2 gets flat
        state, ref = soliton_state(grid_n=512)
        box = state.domain_length
        dx = box / state.grid_n
        for y in np.random.default_rng(5).uniform(-0.5, 0.5, 50) * box:
            _, shift = orbital_distance(spectral_shift(ref, y, box), ref, box, 2)
            assert periodic_gap(shift, y, box) < 1e-10 * dx

    def test_evolve_warns_once_per_record_and_order(self):
        n, box = 256, 10.0
        x = -box / 2 + np.arange(n) * (box / n)
        u = np.cos(4.0 * math.pi * x / box)
        state = SpectralState(grid_n=n, domain_length=box, field=u, time=0.0,
                              params=MediumParams(1.0, 1.0, 0.0, 1.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, records = evolve(state, 0.1, dt=0.01, record_every=4, reference=u)
        assert len(records) == 4
        assert len(caught) == 8
        assert all("near-degenerate" in str(w.message) for w in caught)
