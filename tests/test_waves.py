import dataclasses
import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkdv.elliptic as elliptic
import fkdv.waves as waves
from fkdv.cli import conservation_rows
from fkdv.elliptic import EllipticContext, jacobi_cn
from fkdv.fourier import analytic_coeffs, pf2_check
from fkdv.stability import family_reports
from fkdv.waves import (
    FAMILIES,
    FIFTH_CNOIDAL,
    FIFTH_SOLITON,
    KDV_CNOIDAL,
    KDV_SOLITON,
    DegenerateModulusError,
    MediumParams,
    build_profile,
    conservation_residuals,
    family_member,
)
from fkdv.waves import _CHOP, _spectral_derivatives


def cn2_wavelength(alpha, cn):
    """Wavelength of a cn^2 member from K alone, without an elliptic context."""
    K = elliptic._complete_KED(cn.modulus)[0]
    return 4.0 * math.sqrt(3.0 * alpha) * K / cn.delta ** 0.25


def all_four_profiles():
    return [
        build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0),
        build_profile(KDV_SOLITON, 1.0, 1.0, 0.0, 1.0, 0.0),
        build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0),
        build_profile(FIFTH_CNOIDAL, 1.0, 0.0, 1.0, 1.0, 0.0),
    ]


class TestFifthOrderSoliton:
    def test_peak_value(self):
        prof = build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0)
        assert prof.evaluate(0.0) == pytest.approx(105.0 / 169.0, rel=1e-14)
        assert prof.amplitude == pytest.approx(0.621302, rel=1e-5)

    def test_speed_locked_by_dispersion(self):
        prof = build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0)
        assert prof.params.c == pytest.approx(36.0 / 169.0, rel=1e-15)
        assert prof.params.c == pytest.approx(0.213018, rel=1e-5)

    def test_far_field_decay(self):
        prof = build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0)
        assert prof.evaluate(50.0) < 1e-9

    @pytest.mark.parametrize("alpha,beta", [(-1.0, 1.0), (1.0, -1.0), (0.0, 1.0)])
    def test_domain(self, alpha, beta):
        with pytest.raises(ValueError, match="needs alpha > 0 and beta > 0"):
            build_profile(FIFTH_SOLITON, 1.0, alpha, beta, 0.0, 0.0)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            build_profile(FIFTH_SOLITON, 0.0, 1.0, 1.0, 0.0, 0.0)


class TestKdvSoliton:
    def test_peak_value(self):
        prof = build_profile(KDV_SOLITON, 1.0, 1.0, 0.0, 1.0, 0.0)
        assert prof.evaluate(0.0) == pytest.approx(3.0, rel=1e-14)

    def test_left_moving_branch(self):
        # alpha < 0 admits c < 0
        prof = build_profile(KDV_SOLITON, 1.0, -1.0, 0.0, -1.0, 0.0)
        assert prof.params.c == -1.0
        assert prof.evaluate(0.0) == pytest.approx(-3.0, rel=1e-14)

    @pytest.mark.parametrize("alpha,c", [(1.0, -1.0), (-1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    def test_domain(self, alpha, c):
        with pytest.raises(ValueError, match="needs c/alpha > 0"):
            build_profile(KDV_SOLITON, 1.0, alpha, 0.0, c, 0.0)

    @pytest.mark.parametrize("gamma,alpha,c", [(1.0, 1.0, 1.0), (2.0, 0.5, 1.5), (0.7, 2.0, 0.4)])
    def test_l2_norm_closed_form(self, gamma, alpha, c):
        # ||phi||^2 = 24 sqrt(alpha) c^{3/2} / gamma^2; trapezoid quadrature of
        # the rapidly decaying samples is spectrally accurate on the window
        prof = build_profile(KDV_SOLITON, gamma, alpha, 0.0, c, 0.0)
        norm_sq = np.trapezoid(prof.u ** 2, prof.xi)
        assert norm_sq == pytest.approx(24.0 * math.sqrt(alpha) * c ** 1.5 / gamma ** 2,
                                        rel=1e-6)

    def test_sech4_integral_is_four_thirds(self):
        chi = np.linspace(-40.0, 40.0, 4001)
        assert np.trapezoid(1.0 / np.cosh(chi) ** 4, chi) == pytest.approx(4.0 / 3.0, rel=1e-12)


class TestKdvCnoidal:
    def test_derived_parameters(self):
        prof = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0)
        cn = prof.cnoidal
        assert cn.delta == pytest.approx(33.0, rel=1e-15)
        assert cn.amplitude == pytest.approx((3.0 + math.sqrt(33.0)) / 2.0, rel=1e-14)
        assert cn.modulus ** 2 == pytest.approx(0.5 * (1.0 + 3.0 / math.sqrt(33.0)), rel=1e-13)

    def test_emm_identities(self):
        for c, flux in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)]:
            cn = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, c, flux).cnoidal
            assert cn.emm == pytest.approx(6.0 * cn.modulus ** 2, rel=1e-13)  # gamma = alpha = 1
            assert cn.emm == pytest.approx(6.0 * cn.amplitude / math.sqrt(cn.delta), rel=1e-13)

    def test_wavelength_formula(self):
        cn = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0).cnoidal
        expected = 4.0 * math.sqrt(3.0) * EllipticContext.from_modulus(cn.modulus).K / 33.0 ** 0.25
        assert cn.wavelength == pytest.approx(expected, rel=1e-14)

    def test_zero_flux_degenerates(self):
        with pytest.raises(DegenerateModulusError):
            build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 0.0)

    def test_negative_discriminant(self):
        with pytest.raises(ValueError):
            build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 0.1, -1.0)

    def test_crest_and_trough(self):
        prof = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0)
        cn = prof.cnoidal
        assert prof.evaluate(0.0) == pytest.approx(cn.amplitude, rel=1e-14)
        assert abs(prof.evaluate(cn.wavelength / 2.0)) < 1e-12

    def test_positive_when_flux_gamma_positive(self):
        prof = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0)
        assert np.all(prof.u >= 0.0)
        xi = np.linspace(-prof.cnoidal.half_period, prof.cnoidal.half_period, 1001)
        assert np.all(prof.evaluate(xi) >= -1e-15)

    def test_compact_form_matches(self):
        # (2 M K^2 / L^2) cn^2(K xi / L) is the same wave as A cn^2(b xi)
        prof = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0)
        cn = prof.cnoidal
        K = EllipticContext.from_modulus(cn.modulus).K
        L = cn.half_period
        compact = (2.0 * cn.emm * K ** 2 / L ** 2) * jacobi_cn(
            K * prof.xi / L, cn.modulus) ** 2
        assert np.max(np.abs(compact - prof.u)) < 1e-11

    def test_alpha_restriction(self):
        with pytest.raises(ValueError):
            build_profile(KDV_CNOIDAL, 1.0, -1.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("gamma,flux", [(1.0, -0.1), (-1.0, 0.1)])
    def test_flux_against_gamma_has_no_wave(self, gamma, flux):
        # flux*gamma < 0 pushes the modulus past 1: no real wave, not a soliton limit
        with pytest.raises(ValueError, match="mass flux of the sign of gamma") as exc:
            build_profile(KDV_CNOIDAL, gamma, 1.0, 0.0, 1.0, flux)
        assert not isinstance(exc.value, DegenerateModulusError)

    def test_wavelength_is_bitwise_the_params_wavelength(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            gamma = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
            alpha, c = rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0)
            flux = np.sign(gamma) * 10.0 ** rng.uniform(-4.0, 2.0)
            try:
                cn = family_member(KDV_CNOIDAL, gamma, alpha, 0.0, c, flux)[1]
            except ValueError:
                continue
            assert cn2_wavelength(alpha, cn) == cn.wavelength

    @pytest.mark.parametrize("gamma", [1.0, -1.0])
    @pytest.mark.parametrize("c,flux", [(-20.0, 0.05), (-100.0, 0.01), (-1000.0, 0.001)])
    def test_amplitude_without_cancellation_below_zero_speed(self, gamma, c, flux):
        # (3c + sqrt(delta)) / 2g loses 1e-13 .. 1e-9 of the amplitude here
        flux = gamma * flux
        with mp.workdps(50):
            exact = (3 * mp.mpf(c) + mp.sqrt(9 * mp.mpf(c) ** 2 + 24 * mp.mpf(flux) * gamma)) \
                / (2 * mp.mpf(gamma))
            amp = family_member(KDV_CNOIDAL, gamma, 1.0, 0.0, c, flux)[2]
            assert abs((amp - exact) / exact) <= 1e-15

    def test_amplitude_bits_kept_at_nonnegative_speed(self):
        for gamma, c, flux in itertools.product([-2.5, -1.0, 0.3, 1.0, 4.0],
                                                [0.0, 1e-300, 0.01, 0.7, 1.0, 3.0, 50.0],
                                                [1e-4, 0.05, 1.0, 20.0]):
            flux = math.copysign(flux, gamma)
            try:
                amp = family_member(KDV_CNOIDAL, gamma, 1.0, 0.0, c, flux)[2]
            except DegenerateModulusError:
                continue
            assert amp == (3.0 * c + math.sqrt(9.0 * c * c + 24.0 * flux * gamma)) / (2.0 * gamma)


class TestFifthOrderCnoidal:
    def test_peak_value(self):
        prof = build_profile(FIFTH_CNOIDAL, 1.0, 0.0, 1.0, 1.0, 0.0)
        assert prof.evaluate(0.0) == pytest.approx(2.5, rel=1e-14)

    @pytest.mark.parametrize("gamma,beta,c", [(1.0, 1.0, 1.0), (2.0, 0.5, 3.0)])
    def test_modulus_constant(self, gamma, beta, c):
        prof = build_profile(FIFTH_CNOIDAL, gamma, 0.0, beta, c, 0.0)
        assert prof.cnoidal.modulus == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)

    def test_wavelength(self):
        prof = build_profile(FIFTH_CNOIDAL, 1.0, 0.0, 1.0, 1.0, 0.0)
        expected = 2.0 * math.sqrt(2.0) * 42.0 ** 0.25 * EllipticContext.from_modulus(math.sqrt(2.0) / 2.0).K
        assert prof.cnoidal.wavelength == pytest.approx(expected, rel=1e-14)
        assert prof.cnoidal.wavelength == pytest.approx(13.3500, abs=2e-3)

    def test_flux_constant(self):
        prof = build_profile(FIFTH_CNOIDAL, 1.0, 0.0, 1.0, 1.0, 0.0)
        assert prof.params.flux_a == pytest.approx(-5.0 / 56.0, rel=1e-15)

    @pytest.mark.parametrize("beta,c", [(1.0, -1.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
    def test_domain(self, beta, c):
        with pytest.raises(ValueError, match="needs c/beta > 0"):
            build_profile(FIFTH_CNOIDAL, 1.0, 0.0, beta, c, 0.0)


class TestProfileGeometry:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_even_symmetry_on_grid(self, family):
        prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
        u_neg = prof.evaluate(-prof.xi)
        assert np.max(np.abs(u_neg - prof.u)) < 1e-12

    @pytest.mark.parametrize("family", ["kdv-cnoidal", "fifth-cnoidal"])
    def test_periodicity(self, family):
        prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
        lam = prof.cnoidal.wavelength
        assert np.max(np.abs(prof.evaluate(prof.xi + lam) - prof.u)) < 1e-11

    def test_solitary_window_tail(self):
        prof = build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0)
        assert abs(prof.u[0]) < 1e-14 * prof.amplitude

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_profile("breather", 1.0, 1.0, 1.0, 1.0, 1.0)


class TestOutOfRange:
    @pytest.mark.parametrize("family, gamma, alpha, beta, c, flux, what", [
        # alpha ** 2 raised OverflowError
        ("fifth-soliton", 1.0, 1e200, 1.0, 1.0, 0.0, "(OverflowError in its closed form)"),
        ("fifth-cnoidal", 1.0, 0.0, 1.0, 1e300, 0.0, "member's flux -inf"),
        ("fifth-soliton", 1.0, 1e-10, 1e300, 1.0, 0.0, "member's width inf"),
        # the amplitude overflowed and the modulus was blamed as degenerate
        ("kdv-cnoidal", 1e-320, 1.0, 0.0, 1.0, 1e-320, "member's amplitude inf"),
        # c/alpha and c/beta underflowed to 0 and the sign rule was blamed
        ("kdv-soliton", 1.0, 1e300, 0.0, 1e-300, 0.0, "member's width inf"),
        ("fifth-cnoidal", 1.0, 0.0, 1e300, 1e-300, 0.0, "member's width inf"),
        # verify failed on the overflowing kappa^4 of the samples, and the cn^2
        # index divided by an L^4 that underflowed to 0
        ("kdv-cnoidal", 1.0, 1e-200, 0.0, 1.0, 1.0, "member's wavelength 6.29e-100 is below"),
        ("fifth-cnoidal", 1.0, 0.0, 1e-300, 1.0, 0.0, "member's wavelength 1.34e-74 is below"),
        # sqrt(alpha / c) underflowed to a width of 0
        ("kdv-soliton", 1.0, 1e-300, 0.0, 1e300, 0.0, "member's width 0 is below"),
    ])
    def test_member_is_rejected_by_family(self, family, gamma, alpha, beta, c, flux, what):
        with pytest.raises(ValueError) as exc:
            build_profile(family, gamma, alpha, beta, c, flux)
        assert not isinstance(exc.value, DegenerateModulusError)
        assert str(exc.value).startswith(f"the {family} ")
        assert what in str(exc.value) and "out of floating-point range" in str(exc.value)


def signed_log_uniform(lo, hi):
    """|x| log-uniform in [lo, hi], either sign."""
    return st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                     st.floats(math.log10(lo), math.log10(hi)))


MEMBER_DRAWS = dict(family=st.sampled_from(sorted(FAMILIES)),
                    gamma=signed_log_uniform(1e-2, 1e2), alpha=signed_log_uniform(1e-2, 1e2),
                    beta=signed_log_uniform(1e-2, 1e2), c=signed_log_uniform(1e-2, 1e2),
                    flux=signed_log_uniform(1e-3, 1e2))


class TestEveryMember:
    @given(**MEMBER_DRAWS)
    @settings(max_examples=400, deadline=None)
    def test_rejected_or_conserving(self, family, gamma, alpha, beta, c, flux):
        # a member is either refused with a ValueError or passes verify's
        # four conservation rows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                prof = build_profile(family, gamma, alpha, beta, c, flux)
            except ValueError:
                return
            rows = conservation_rows(conservation_residuals(prof), prof.params)
        assert len(rows) == 4
        for name, value, tol in rows:
            assert value <= tol, (name, value, tol)

    @given(**MEMBER_DRAWS)
    @settings(max_examples=400, deadline=None)
    def test_accepted_member_is_stable(self, family, gamma, alpha, beta, c, flux):
        # the paper's claim: every member is stable, and a cnoidal member's
        # coefficients are PF(2), checked as verify does on the mirror of u < 0
        try:
            cnoidal = family_member(family, gamma, alpha, beta, c, flux)[1]
        except ValueError:
            return
        reports = family_reports(family, gamma, alpha, beta, [c], flux)
        assert [rep.verdict for rep in reports] == ["stable"] * len(reports)
        if cnoidal is None:
            return
        prof = build_profile(family, gamma, alpha, beta, c, flux)
        sign = math.copysign(1.0, prof.amplitude)
        for window in (1, 12, 24, 64):
            seq = sign * analytic_coeffs(prof, 2 * window).two_sided()
            report = pf2_check(seq, window=window)
            assert report.passed, (window, report)


class TestSampler:
    @given(family=st.sampled_from(sorted(FAMILIES)),
           n_samples=st.one_of(st.just(0), st.integers(64, 5000)),
           gamma=st.sampled_from([-2.0, -0.5, 0.5, 1.0, 3.0]),
           alpha=st.floats(0.1, 10.0), beta=st.floats(0.1, 10.0),
           c=st.floats(0.1, 10.0), flux=st.floats(0.1, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_grid_is_symmetric_and_evaluated_once_per_pair(self, family, n_samples, gamma,
                                                           alpha, beta, c, flux):
        calls = []
        member = FAMILIES[family]

        def counting(*args):
            params, cnoidal, amp, width, evaluator = member(*args)

            def counted(xi):
                calls.append(len(xi))
                return evaluator(xi)
            return params, cnoidal, amp, width, counted

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(waves.FAMILIES, family, counting)
            prof = build_profile(family, gamma, alpha, beta, c, math.copysign(flux, gamma),
                                 n_samples)
        xi, w = prof.xi, prof.window
        if prof.periodic:
            n = n_samples or 512
            d = n
            assert w == prof.cnoidal.half_period
            # endpoint-exclusive: xi_0 = -W has no mirror point on the grid
            assert len(xi) == n and xi[-1] == (n - 2) / n * w
            assert np.array_equal(xi[1:], -xi[:0:-1])
        else:
            n = n_samples or 2049
            d = (n | 1) - 1
            assert w == 20.0 * prof.width
            assert len(xi) == d + 1 and xi[-1] == w
            assert np.array_equal(xi, -xi[::-1])
        assert xi[0] == -w and np.all(np.diff(xi) > 0.0)
        assert calls == [d // 2 + 1]
        assert np.array_equal(prof.u, prof.evaluate(xi))


class TestSolitaryLimit:
    """As the flux goes to 0+ at c > 0 the cn^2 wave tends to the sech^2 soliton.

    The two member functions share no code.  To leading order in the flux f,
    1 - k = |g| f / 3c^2 and the crest gap is 2/3 of |g| f / c^2.
    """

    @pytest.mark.parametrize("gamma,alpha,c", [(1.0, 1.0, 1.0), (2.0, 0.5, 3.0),
                                               (-1.0, 1.0, 1.0)])
    def test_cn2_tends_to_kdv_soliton(self, gamma, alpha, c):
        soliton = build_profile(KDV_SOLITON, gamma, alpha, 0.0, c, 0.0)
        for flux in (1e-2, 1e-4, 1e-6, 1e-8):
            cn2 = build_profile(KDV_CNOIDAL, gamma, alpha, 0.0, c, math.copysign(flux, gamma))
            bound = abs(gamma) * flux / c ** 2
            assert 0.0 < 1.0 - cn2.cnoidal.modulus <= 1.01 * bound / 3.0
            assert 0.0 < cn2.amplitude / soliton.amplitude - 1.0 <= bound
            gap = np.max(np.abs(cn2.u - soliton.evaluate(cn2.xi)))
            assert gap <= bound * abs(soliton.amplitude)
        # ... up to the modulus cap 1 - 1e-10
        with pytest.raises(DegenerateModulusError):
            build_profile(KDV_CNOIDAL, gamma, alpha, 0.0, c, math.copysign(1e-10 * c * c, gamma))


class TestConservation:
    def test_fifth_soliton_first_law(self):
        prof = build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0, n_samples=2048)
        check = conservation_residuals(prof)
        assert np.max(np.abs(check.law1 - check.mean1)) < 1e-7
        assert abs(check.mean1) < 1e-7

    def test_kdv_cnoidal_flux_recovered(self):
        prof = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0)
        check = conservation_residuals(prof)
        assert check.mean1 == pytest.approx(1.0, abs=1e-6)

    def test_fifth_cnoidal_flux_recovered(self):
        prof = build_profile(FIFTH_CNOIDAL, 1.0, 0.0, 1.0, 1.0, 0.0)
        check = conservation_residuals(prof)
        assert check.mean1 == pytest.approx(-5.0 / 56.0, abs=1e-8)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_first_law_constant(self, family):
        prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
        check = conservation_residuals(prof)
        assert np.std(check.law1) / check.scale1 < 1e-6

    @pytest.mark.parametrize("family", FAMILIES)
    def test_second_law_constant_and_zero(self, family):
        # the energy-flux constant vanishes for all four closed forms: the
        # solitary tails kill every term, and both cnoidal troughs are zeros
        # of high enough order that each second-law product vanishes there
        prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
        check = conservation_residuals(prof)
        assert np.std(check.law2) / check.scale2 < 1e-4
        assert abs(check.mean2) < 1e-4 * check.scale2

    @pytest.mark.parametrize("n_samples", [512, 1024, 4096, 16384])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_laws_flat_at_every_resolution(self, family, n_samples):
        # the chopped differentiator keeps kappa^4 from lifting rounding, so
        # the residual does not grow with the sample count
        prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0, n_samples=n_samples)
        check = conservation_residuals(prof)
        assert np.std(check.law1) / check.scale1 < 1e-10
        assert np.std(check.law2) / check.scale2 < 1e-10

    @pytest.mark.parametrize("family", FAMILIES)
    def test_residuals_cover_the_box(self, family):
        # a solitary grid repeats its first point at the end; only that goes
        prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
        check = conservation_residuals(prof)
        n = len(prof.u) if prof.periodic else len(prof.u) - 1
        assert len(check.xi) == len(check.law1) == len(check.law2) == n
        assert np.array_equal(check.xi, prof.xi[:n])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batched_transform_matches_per_order(self, family):
        prof = build_profile(family, 1.0, 1.0, 1.0, 1.0, 1.0)
        u, period = prof.u[prof.xi < prof.window], 2.0 * prof.window
        n = len(u)
        uh = np.fft.rfft(u)
        uh[np.abs(uh) < _CHOP * np.max(np.abs(uh))] = 0.0
        kap = 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)
        per_order = [np.fft.irfft(uh * (1j * kap) ** der, n) for der in (1, 2, 3, 4)]
        assert np.array_equal(_spectral_derivatives(u, period), np.array(per_order))

    def test_zero_field_means_zero_flux(self):
        # both law expressions vanish identically on u = 0
        zeros = np.zeros(512)
        d1, d2, d3, d4 = _spectral_derivatives(zeros, 10.0)
        p = MediumParams(gamma=1.0, alpha=1.0, beta=1.0, c=1.0)
        law1 = -p.c * zeros + 0.5 * p.gamma * zeros ** 2 + p.alpha * d2 - p.beta * d4
        law2 = (-0.5 * p.c * zeros ** 2 + p.gamma / 3.0 * zeros ** 3
                + p.alpha * (zeros * d2 - 0.5 * d1 ** 2)
                - p.beta * (zeros * d4 - d1 * d3 + 0.5 * d2 ** 2))
        assert np.all(law1 == 0.0) and np.all(law2 == 0.0)

    def test_tampered_speed_breaks_first_law(self):
        prof = build_profile(FIFTH_SOLITON, 1.0, 1.0, 1.0, 0.0, 0.0)
        bad = MediumParams(gamma=1.0, alpha=1.0, beta=1.0, c=prof.params.c * 1.1)
        tampered = dataclasses.replace(prof, params=bad)
        check = conservation_residuals(tampered)
        assert np.max(np.abs(check.law1 - check.mean1)) > 1e-3


class TestWidth:
    def test_recorded_width(self):
        fifth, kdv, cn2, cn4 = all_four_profiles()
        assert fifth.width == 2.0 * math.sqrt(13.0)
        assert kdv.width == 2.0
        assert cn2.width == cn2.cnoidal.wavelength
        assert cn4.width == cn4.cnoidal.wavelength

    def test_window_spans_twenty_widths(self):
        for prof in all_four_profiles()[:2]:
            assert prof.window == 20.0 * prof.width
