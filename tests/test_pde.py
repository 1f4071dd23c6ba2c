import math

import numpy as np
import pytest

from fkdv.pde import (
    BlowUpError,
    Perturbation,
    SpectralState,
    apply_perturbation,
    characteristic_time,
    default_dt,
    evolve,
    orbital_distance,
    sobolev_norm,
    spectral_shift,
    stability_experiment,
    state_from_profile,
    step,
)
from dataclasses import replace

from fkdv.waves import (
    MediumParams,
    build_fifth_order_soliton,
    build_kdv_cnoidal,
    build_kdv_soliton,
)


def soliton_state(grid_n=1024):
    prof = build_fifth_order_soliton(1.0, 1.0, 1.0)
    return state_from_profile(prof, grid_n=grid_n)


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
            state, _ = state_from_profile(build_kdv_soliton(1.0, 1.0, 1.0), grid_n=n)
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
        prof = build_kdv_soliton(1.0, 1.0, 1.0)
        state, _ = state_from_profile(prof, grid_n=512)
        with pytest.raises(BlowUpError):
            evolve(state, 50.0, dt=2.0, record_every=1)

    def test_advection_term_is_a_frame_change(self):
        # evolving with C != 0 equals the C = 0 run followed by a shift by -Ct
        prof = build_kdv_soliton(1.0, 1.0, 1.0)
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

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Perturbation("bump", 0.1)


class TestExperiments:
    def test_unperturbed_soliton_stays_on_orbit(self):
        prof = build_fifth_order_soliton(1.0, 1.0, 1.0)
        report = stability_experiment(prof, None, horizon=5.0, dt=0.01,
                                      record_every=100)
        assert report.max_dist_h2 < 1e-5 * prof.amplitude

    def test_perturbed_soliton_bounded(self):
        prof = build_kdv_soliton(1.0, 1.0, 1.0)
        report = stability_experiment(prof, Perturbation("scale", 0.01),
                                      horizon=4.0, dt=0.005, record_every=100)
        assert report.initial_dist_h2 > 0.0
        assert report.ratio_h2 < 5.0

    def test_zero_field_diagnostics(self):
        n = 128
        state = SpectralState(grid_n=n, domain_length=10.0, field=np.zeros(n),
                              time=0.0, params=MediumParams(1.0, 1.0, 0.0, 1.0))
        final, records = evolve(state, 0.1, dt=0.01, record_every=2)
        for r in records:
            assert r.mass == 0.0 and r.momentum == 0.0
            assert r.dist_h1 == 0.0 and r.dist_h2 == 0.0

    def test_characteristic_time(self):
        prof = build_kdv_soliton(1.0, 1.0, 1.0)
        assert characteristic_time(prof) == pytest.approx(2.0, rel=1e-14)

    def test_box_and_time_follow_the_width(self):
        fifth = build_fifth_order_soliton(1.0, 1.0, 1.0)
        state, _ = state_from_profile(fifth, grid_n=256)
        assert state.domain_length == 40.0 * 2.0 * math.sqrt(13.0)
        cn2 = build_kdv_cnoidal(1.0, 1.0, 2.0, 1.0)
        state, _ = state_from_profile(cn2, grid_n=256)
        assert state.domain_length == cn2.cnoidal.wavelength
        assert characteristic_time(cn2) == cn2.cnoidal.wavelength / 2.0

    def test_backward_run_rejected(self):
        state, _ = state_from_profile(build_kdv_soliton(1.0, 1.0, 1.0), grid_n=256)
        with pytest.raises(ValueError, match="before"):
            evolve(replace(state, time=5.0), 1.0)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_nonpositive_dt_rejected(self, dt):
        state, _ = state_from_profile(build_kdv_soliton(1.0, 1.0, 1.0), grid_n=256)
        with pytest.raises(ValueError, match="dt"):
            evolve(state, 1.0, dt=dt)

    @pytest.mark.parametrize("record_every", [0, -3])
    def test_nonpositive_record_every_rejected(self, record_every):
        state, _ = state_from_profile(build_kdv_soliton(1.0, 1.0, 1.0), grid_n=256)
        with pytest.raises(ValueError, match="record_every"):
            evolve(state, 1.0, dt=0.1, record_every=record_every)

    def test_default_dt_cfl(self):
        prof = build_kdv_soliton(1.0, 1.0, 1.0)
        state, _ = state_from_profile(prof, grid_n=512)
        dx = state.domain_length / 512
        assert default_dt(state) == pytest.approx(min(0.5 * dx / 3.0, 0.01), rel=1e-12)
