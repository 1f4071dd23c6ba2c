import itertools
import math
import re
import struct
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from fkdv.stability import (
    GegenbauerSeriesSpec,
    StabilityReport,
    cn2_norm_derivative,
    cn4_ell2_norm_sq,
    cn4_norm_derivative,
    cn4_series_constant,
    family_reports,
    gegenbauer_terms,
    gegenbauer_verdict,
    kdv_soliton_norm_derivative,
    solve_flux_for_wavelength,
)
from fkdv import stability
from fkdv.elliptic import EllipticContext
from fkdv.waves import (FAMILIES, FIFTH_CNOIDAL, KDV_CNOIDAL, KDV_SOLITON, build_profile,
                        family_member)

B0 = Fraction(-891, 14515200)


def cn2_member(gamma, alpha, c, flux_a):
    """The cn^2 member's CnoidalParams and the elliptic context of its modulus."""
    cn = family_member(KDV_CNOIDAL, gamma, alpha, 0.0, c, flux_a)[1]
    return cn, EllipticContext.from_modulus(cn.modulus)


def kdv_soliton_norm_sq(gamma, alpha, c):
    """||phi_c||^2_{L^2(R)} = 24 alpha^{1/2} c^{3/2} / gamma^2 (closed form)."""
    return 24.0 * math.sqrt(alpha) * c ** 1.5 / gamma ** 2


def gegenbauer_terms_explicit(jmax: int) -> np.ndarray:
    """b_0..b_jmax from the explicit r=4, n=2 factorial formula (cross-check)."""
    out = np.empty(jmax + 1)
    for j in range(jmax + 1):
        bracket = (2 * j + 4) * (2 * j + 5) * (2 * j + 6) * (2 * j + 7) - 1680
        lognum = (math.log(1680.0) + math.log(2 * j + 5.5)
                  + 2.0 * math.log(j + 1.0) + 2.0 * math.log(j + 4.5)
                  + math.lgamma(2 * j + 1.0))
        logden = math.log(abs(bracket)) + math.lgamma(2 * j + 11.0)
        out[j] = math.copysign(math.exp(lognum - logden), bracket)
    return out


def b_j_exact(j: int) -> Fraction:
    """Exact-rational oracle for the explicit series term."""
    bracket = (2 * j + 4) * (2 * j + 5) * (2 * j + 6) * (2 * j + 7) - 1680
    num = (Fraction(1680) * Fraction(4 * j + 11, 2) * Fraction(j + 1) ** 2
           * Fraction(2 * j + 9, 2) ** 2 * math.factorial(2 * j))
    return num / (bracket * math.factorial(2 * j + 10))


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] += a * b
    return out


def poly_in_t(*factors):
    """The product of linear factors a j + b, each given as (a, b), as exact
    coefficients in t = j - 1, lowest power first."""
    out = [Fraction(1)]
    for a, b in factors:
        out = poly_mul(out, [Fraction(a) + b, Fraction(a)])
    return out


def cn2_ell2_norm_sq(gamma: float, alpha: float, c: float, flux_a: float,
                     half_period: float | None = None) -> float:
    """Two-sided coefficient norm of the cn^2 wave,

        (4 M^2 K^2 / L^4)(K - D)^2
        + (M^2 pi^4 / L^4 k^4) sum_{n != 0} n^2 csch^2(n pi K'/K),

    equal to (1/2L) int u^2 over one period under the package transform
    convention.  ``half_period`` overrides the L in the formula (the
    frozen-L reading); by default L tracks the wavelength of the
    (c, flux_a) member.
    """
    cn, ctx = cn2_member(gamma, alpha, c, flux_a)
    L = cn.half_period if half_period is None else half_period
    k, emm = cn.modulus, cn.emm
    s2, _ = stability._csch_sums(ctx.K, ctx.Kprime)
    head = (4.0 * emm ** 2 * ctx.K ** 2 / L ** 4) * (ctx.K - ctx.D) ** 2
    return head + (emm ** 2 * math.pi ** 4 / (L ** 4 * k ** 4)) * s2


# ---------------------------------------------------------------------------
# Richardson oracle: the cn^2 derivatives by extrapolated central differences
# ---------------------------------------------------------------------------

_REL_STEPS = (1e-3, 1e-4)  # Richardson steps relative to |c|, coarse then fine


class StepSizeError(RuntimeError):
    """Richardson derivatives at the two step sizes disagree."""


def _richardson(f, x: float, h: float) -> float:
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _richardson_checked(f, x: float, rel_steps=_REL_STEPS, rel_tol: float = 1e-4) -> float:
    """Richardson derivative at two step scales; raise if they disagree."""
    d_coarse = _richardson(f, x, rel_steps[0] * abs(x))
    d_fine = _richardson(f, x, rel_steps[1] * abs(x))
    denom = max(abs(d_fine), 1e-300)
    if abs(d_coarse - d_fine) / denom > rel_tol:
        raise StepSizeError(
            f"derivative at x={x!r} differs across steps: {d_coarse!r} vs {d_fine!r}"
        )
    return d_fine


def richardson_report(gamma, alpha, c, flux_a, mode):
    """(norm_derivative, functional_i, terms) of a cn^2 member by Richardson differences.

    Fixed-period re-solves the flux at every Richardson speed; the terms are
    the product-rule pieces with each factor's derivative taken numerically.
    """
    cn, ctx = cn2_member(gamma, alpha, c, flux_a)
    L0 = cn.half_period
    if mode == "fixed-flux":
        deriv = _richardson_checked(lambda cc: cn2_ell2_norm_sq(gamma, alpha, cc, flux_a), c)
    else:
        def norm_fixed_period(cc):
            a_cc = solve_flux_for_wavelength(gamma, alpha, cc, cn.wavelength, flux_guess=flux_a)
            return cn2_ell2_norm_sq(gamma, alpha, cc, a_cc, half_period=L0)

        deriv = _richardson_checked(norm_fixed_period, c)

    frozen_direct = _richardson_checked(
        lambda cc: cn2_ell2_norm_sq(gamma, alpha, cc, flux_a, half_period=L0), c)

    def along_c(quantity):
        return _richardson_checked(lambda cc: quantity(*cn2_member(gamma, alpha, cc, flux_a)), c)

    d_mk = along_c(lambda cn_c, ctx_c: cn_c.emm * ctx_c.K)
    d_kmd = along_c(lambda cn_c, ctx_c: ctx_c.K - ctx_c.D)
    d_emm = along_c(lambda cn_c, ctx_c: cn_c.emm)
    d_k = along_c(lambda cn_c, ctx_c: cn_c.modulus)
    k, emm = cn.modulus, cn.emm
    dK_dk = _richardson(lambda q: EllipticContext.from_modulus(q).K, k, 1e-6)
    dKp_dk = _richardson(lambda q: EllipticContext.from_modulus(q).Kprime, k, 1e-6)
    s2, s3 = stability._csch_sums(ctx.K, ctx.Kprime)
    kmd = ctx.K - ctx.D
    term_i = (8.0 * emm * ctx.K / L0 ** 4) * kmd ** 2 * d_mk
    term_ii = (8.0 * emm ** 2 * ctx.K ** 2 / L0 ** 4) * kmd * d_kmd
    term_iii = (2.0 * emm * math.pi ** 4 / (L0 ** 4 * k ** 5)) * (k * d_emm - 2.0 * emm * d_k) * s2
    term_iv = (2.0 * math.pi ** 5 / L0 ** 4) * (emm / k ** 2) ** 2 \
        * ((ctx.Kprime * dK_dk - ctx.K * dKp_dk) / ctx.K ** 2) * d_k * s3
    terms = {"i": term_i, "ii": term_ii, "iii": term_iii, "iv": term_iv,
             "sum": term_i + term_ii + term_iii + term_iv, "frozen_direct": frozen_direct,
             "K_minus_D": kmd, "d_K_minus_D": d_kmd}
    return deriv, -0.5 * L0 * deriv, terms


# ---------------------------------------------------------------------------
# mpmath oracle: the cn^2 norm in 50 digits, differentiated by central differences
# ---------------------------------------------------------------------------

def _mp_member(gamma, alpha, c, flux_a):
    """m = k^2, K, E, K', L and M of a cn^2 member, from the float inputs exactly."""
    gamma, alpha, c, flux_a = map(mp.mpf, (gamma, alpha, c, flux_a))
    delta = 9 * c * c + 24 * flux_a * gamma
    s = mp.sqrt(delta)
    m = (3 * c + s) / (2 * s)
    K = mp.ellipk(m)
    L = 2 * mp.sqrt(3 * alpha) * K / mp.root(delta, 4)
    return m, K, mp.ellipe(m), mp.ellipk(1 - m), L, 6 * alpha * m / gamma


def _mp_norm(gamma, alpha, c, flux_a, L=None):
    m, K, E, Kp, L_member, M = _mp_member(gamma, alpha, c, flux_a)
    L = L_member if L is None else L
    tau = mp.pi * Kp / K
    s2, n = mp.mpf(0), 1
    while True:
        t = n * n * mp.csch(n * tau) ** 2
        s2 += t
        if t < mp.mpf(10) ** -60 * s2:
            break
        n += 1
    kmd = K - (K - E) / m
    return M ** 2 / L ** 4 * (4 * K ** 2 * kmd ** 2 + mp.pi ** 4 * 2 * s2 / m ** 2)


@lru_cache(maxsize=None)
def mpmath_derivatives(gamma, alpha, c, flux_a):
    """d/dc of the cn^2 norm at fixed flux, at fixed period and at frozen L, in 50 digits.

    Fixed period solves the wavelength equation for the flux with findroot
    at each speed of the central difference.
    """
    with mp.workdps(50):
        h = mp.mpf("1e-15")
        c0 = mp.mpf(c)
        L0 = _mp_member(gamma, alpha, c0, flux_a)[4]

        def central(f):
            return (f(c0 + h) - f(c0 - h)) / (2 * h)

        def fixed_period(cc):
            a = mp.findroot(lambda a: _mp_member(gamma, alpha, cc, a)[4] - L0, mp.mpf(flux_a))
            return _mp_norm(gamma, alpha, cc, a, L=L0)

        return (float(central(lambda cc: _mp_norm(gamma, alpha, cc, flux_a))),
                float(central(fixed_period)),
                float(central(lambda cc: _mp_norm(gamma, alpha, cc, flux_a, L=L0))))


class TestKdvSolitonNorm:
    def test_reference_value(self):
        assert kdv_soliton_norm_derivative(1.0, 1.0, 1.0) == pytest.approx(36.0, rel=1e-15)

    def test_gamma_scaling(self):
        assert kdv_soliton_norm_derivative(2.0, 1.0, 1.0) == pytest.approx(9.0, rel=1e-15)

    @pytest.mark.parametrize("gamma,alpha,c", [(1.0, 1.0, 1.0), (2.0, 0.5, 1.5), (0.7, 2.0, 0.4)])
    def test_matches_quadrature_finite_difference(self, gamma, alpha, c):
        h = 1e-4 * c

        def norm_sq(cc):
            prof = build_profile(KDV_SOLITON, gamma, alpha, 0.0, cc, 0.0, n_samples=4097)
            return float(np.trapezoid(prof.u ** 2, prof.xi))

        fd = (norm_sq(c + h) - norm_sq(c - h)) / (2.0 * h)
        analytic = kdv_soliton_norm_derivative(gamma, alpha, c)
        assert fd == pytest.approx(analytic, rel=1e-3)
        assert norm_sq(c) == pytest.approx(kdv_soliton_norm_sq(gamma, alpha, c), rel=1e-6)

    def test_domain(self):
        # the builder's rule, c/alpha > 0, is the only one
        with pytest.raises(ValueError, match=re.escape("needs c/alpha > 0")):
            kdv_soliton_norm_derivative(1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match=re.escape("needs c/alpha > 0")):
            kdv_soliton_norm_derivative(1.0, 1.0, -2.0)
        with pytest.raises(ValueError, match="gamma must be nonzero"):
            kdv_soliton_norm_derivative(0.0, 1.0, 1.0)


class TestGegenbauerSeries:
    def test_b0_exact_rational(self):
        b = gegenbauer_terms(1)
        assert b[0] == float(B0)
        # paper-quoted magnitude (11/10!)(81/4) ~ 6.14e-5
        assert abs(b[0]) == pytest.approx(6.14e-5, rel=0.01)
        assert B0 == Fraction(11) / math.factorial(10) * Fraction(81, 4) * -1

    @pytest.mark.parametrize("jmax", [1, 7, 200])
    def test_terms_are_a_fresh_writable_copy(self, jmax):
        expected = gegenbauer_terms_explicit(jmax)
        first = gegenbauer_terms(jmax)
        assert first.flags.writeable
        np.testing.assert_allclose(first, expected, rtol=1e-12, atol=0.0)
        first[:] = 7.0
        second = gegenbauer_terms(jmax)
        assert second is not first
        np.testing.assert_allclose(second, expected, rtol=1e-12, atol=0.0)

    def test_prefactor(self):
        # gamma 2^{n+r-1} Gamma(r) / (pi Gamma(n)) = 192/pi at r=4, n=2
        assert GegenbauerSeriesSpec().prefactor_a == pytest.approx(192.0 / math.pi, rel=1e-14)

    def test_signs(self):
        b = gegenbauer_terms(50)
        assert b[0] < 0.0
        assert np.all(b[1:] > 0.0)

    def test_rational_form_agrees_with_log_domain_oracle(self):
        b = gegenbauer_terms(30)
        b_exp = gegenbauer_terms_explicit(30)
        assert np.max(np.abs(b - b_exp) / np.abs(b_exp)) < 1e-12

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 5])
    def test_against_exact_rationals(self, j):
        b = gegenbauer_terms_explicit(j + 1)
        assert b[j] == pytest.approx(float(b_j_exact(j)), rel=1e-12)

    def test_terms_are_the_rationals_to_rounding(self):
        # the log-gamma form these terms replace was 9.3e-13 off for j <= 200
        # and 1.1e-11 off at j = 10^4
        b = gegenbauer_terms(10000)
        for j in [*range(201), 1000, 10000]:
            exact = b_j_exact(j)
            assert abs(Fraction(float(b[j])) - exact) <= Fraction(1, 10 ** 15) * abs(exact), j

    def test_tail_sum_value(self):
        b = gegenbauer_terms(200)
        total = float(np.sum(b[1:]))
        assert 4.5e-6 < total < 5.6e-6
        assert total == pytest.approx(5.05e-6, rel=0.01)  # paper-quoted ~5.05e-6

    def test_power_law_decay(self):
        # b_j ~ const * j^{-9}: the compensated sequence levels off
        b = gegenbauer_terms_explicit(200)
        comp = np.array([b[j] * j ** 9 for j in (50, 100, 150, 200)])
        assert np.all(np.diff(comp) > 0.0)
        assert np.all((0.1 < comp) & (comp < 0.25))
        assert comp[-1] - comp[-2] < comp[1] - comp[0]


class TestGegenbauerCertificate:
    """The verdict's proof in exact rationals: b_j <= (105/512) j^-9 for every
    j >= 1, so the terms beyond J sum to at most (105/512)/(8 J^8), and at
    J = 10 the partial sum plus that bound is below |b_0|."""

    COEF = Fraction(105, 512)

    def test_every_term_is_below_the_power_law(self):
        # b_j = numerator / (bracket rising); in t = j - 1 >= 0 the bracket has
        # positive coefficients, and so does COEF bracket rising - numerator j^9
        bracket = poly_in_t((2, 4), (2, 5), (2, 6), (2, 7))
        bracket[0] -= 1680
        rising = poly_in_t(*((2, i) for i in range(1, 11)))
        numerator = [1680 * a for a in poly_in_t((2, Fraction(11, 2)), (1, 1), (1, 1),
                                                  (1, Fraction(9, 2)), (1, Fraction(9, 2)))]
        j9 = poly_in_t(*[(1, 0)] * 9)
        certificate = [self.COEF * a - b for a, b in
                       zip(poly_mul(bracket, rising), poly_mul(numerator, j9))]
        assert all(a > 0 for a in bracket)
        # the leading powers cancel, so COEF is the j^-9 constant of b_j itself
        assert certificate[14] == 0 and certificate[13] == 83160
        assert all(a >= 0 for a in certificate)

    def test_ten_terms_and_the_tail_settle_the_sign(self):
        certified = sum(b_j_exact(j) for j in range(1, 11)) + self.COEF / (8 * 10 ** 8)
        assert B0 == Fraction(-11, 179200)
        assert certified < Fraction(11, 179200)
        assert float(certified / -B0) == pytest.approx(0.0823, abs=1e-4)
        # the verdict compares the same quantities in floating point
        assert stability._tail_bound(10) == pytest.approx(float(self.COEF / (8 * 10 ** 8)),
                                                          rel=1e-15)
        assert float(np.sum(gegenbauer_terms(10)[1:])) + stability._tail_bound(10) == (
            pytest.approx(float(certified), rel=1e-14))


class TestGegenbauerVerdict:
    def test_stable_at_standard_truncation(self):
        rep = gegenbauer_verdict(GegenbauerSeriesSpec(), jmax=200)
        assert rep.verdict == "stable"
        assert rep.partial_sum + rep.tail_bound < abs(rep.terms["b0"])
        assert rep.functional_i < 0.0
        assert rep.tail_bound < 0.01 * rep.partial_sum

    @pytest.mark.parametrize("gamma", [1.0, -1.0])
    @pytest.mark.parametrize("jmax", [1, 2, 200])
    def test_verdict_does_not_depend_on_the_truncation(self, jmax, gamma):
        # a tail estimate of b_jmax jmax / 4 called jmax = 1 and 2 "inconclusive"
        rep = gegenbauer_verdict(GegenbauerSeriesSpec(gamma_coef=gamma), jmax=jmax)
        assert rep.verdict == "stable"
        assert len(rep.series) == jmax + 1
        assert rep.tail_bound == (105 / 512) / (8 * jmax ** 8)

    def test_tail_bound_holds(self):
        # the proven bound covers the terms beyond each truncation
        b = gegenbauer_terms(10000)
        tails = np.cumsum(b[:0:-1])[::-1]  # tails[j - 1] = sum_{i >= j} b_i
        for jmax in (1, 2, 10, 200, 1000):
            rep = gegenbauer_verdict(GegenbauerSeriesSpec(), jmax=jmax)
            assert tails[jmax] < rep.tail_bound

    @pytest.mark.parametrize("gamma", [1.0, 0.5, 3.0])
    def test_mirror_has_the_same_index(self, gamma):
        # (u, gamma) -> (-u, -gamma) leaves the Hessian, hence I, unchanged
        rep = gegenbauer_verdict(GegenbauerSeriesSpec(gamma_coef=gamma))
        mirror = gegenbauer_verdict(GegenbauerSeriesSpec(gamma_coef=-gamma))
        assert rep.functional_i < 0.0
        assert struct.pack("<d", mirror.functional_i) == struct.pack("<d", rep.functional_i)
        assert mirror.verdict == rep.verdict == "stable"

    def test_partial_sums_monotone(self):
        b = gegenbauer_terms(40)
        partials = np.cumsum(b[1:])
        assert np.all(np.diff(partials) > 0.0)

    def test_runtime_under_a_second(self):
        import time
        start = time.perf_counter()
        gegenbauer_verdict(GegenbauerSeriesSpec(), jmax=200)
        assert time.perf_counter() - start < 1.0


def assert_matches_mpmath(gamma, alpha, c, flux_a, mode, rel=1e-12):
    """A "stable" report whose derivative is the 50-digit value to ``rel``."""
    fixed_flux, fixed_period, frozen = mpmath_derivatives(gamma, alpha, c, flux_a)
    rep = cn2_norm_derivative(gamma, alpha, c, flux_a, mode=mode)
    assert rep.verdict == "stable"
    expected = fixed_flux if mode == "fixed-flux" else fixed_period
    assert rep.norm_derivative == pytest.approx(expected, rel=rel)
    assert rep.terms["frozen_direct"] == pytest.approx(frozen, rel=rel)
    assert rep.terms["sum"] == pytest.approx(frozen, rel=rel)


class TestCn2Derivative:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    def test_positive_derivative(self, c, mode):
        rep = cn2_norm_derivative(1.0, 1.0, c, 1.0, mode=mode)
        assert rep.norm_derivative > 0.0
        assert rep.functional_i < 0.0
        assert rep.verdict == "stable"

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_term_signs(self, c):
        terms = cn2_norm_derivative(1.0, 1.0, c, 1.0).terms
        assert terms["i"] > 0.0
        assert terms["ii"] > 0.0
        assert terms["iv"] > 0.0
        scale = terms["frozen_direct"]
        assert abs(terms["iii"]) < 1e-10 * scale

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_decomposition_consistency(self, c):
        terms = cn2_norm_derivative(1.0, 1.0, c, 1.0).terms
        assert terms["sum"] == pytest.approx(terms["frozen_direct"], rel=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_K_minus_D_grows(self, c):
        terms = cn2_norm_derivative(1.0, 1.0, c, 1.0).terms
        assert terms["K_minus_D"] > 0.0
        assert terms["d_K_minus_D"] > 0.0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            cn2_norm_derivative(1.0, 1.0, 1.0, 1.0, mode="frozen")

    # c = 0 was rejected while the derivative was a Richardson difference
    # with steps relative to |c|; the closed form judges it
    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    @pytest.mark.parametrize("c", [0.0, -0.0])
    def test_zero_speed_rejected(self, c, mode):
        assert_matches_mpmath(1.0, 1.0, c, 1.0, mode)

    # speeds whose Richardson steps fell below half an ulp of the
    # discriminant were rejected; the closed form judges them
    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    @pytest.mark.parametrize("c", [1e-300, 1e-12, -1e-12, 1e-7])
    def test_unresolvable_speed_rejected(self, c, mode):
        assert_matches_mpmath(1.0, 1.0, c, 1.0, mode)

    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    @pytest.mark.parametrize("c", [1e-3, -1e-3, 5e-6])
    def test_small_resolvable_speed_still_judged(self, c, mode):
        rep = cn2_norm_derivative(1.0, 1.0, c, 1.0, mode=mode)
        assert rep.verdict == "stable"
        assert rep.norm_derivative > 2.0

    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    def test_negative_speed_still_judged(self, mode):
        assert cn2_norm_derivative(1.0, 1.0, -0.7, 1.0, mode=mode).verdict == "stable"

    def test_step_size_disagreement_raises(self):
        # a fast jitter makes the two step scales disagree violently
        noisy = lambda x: x * x + 1e-5 * math.sin(1e7 * x)
        with pytest.raises(StepSizeError):
            _richardson_checked(noisy, 1.0)

    def test_fixed_period_holds_wavelength(self):
        prof = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0)
        lam0 = prof.cnoidal.wavelength
        for cc in (0.99, 1.01):
            flux = solve_flux_for_wavelength(1.0, 1.0, cc, lam0)
            lam = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, cc, flux).cnoidal.wavelength
            assert lam == pytest.approx(lam0, rel=1e-12)

    @pytest.mark.parametrize("c,flux", [(0.5, 2.0), (1.0, 1.0), (3.0, 0.3)])
    def test_fixed_period_flux_matches_brentq(self, c, flux):
        brentq = pytest.importorskip("scipy.optimize").brentq
        lam0 = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, c, flux).cnoidal.wavelength
        got = solve_flux_for_wavelength(1.0, 1.0, 1.01 * c, lam0, flux_guess=flux)

        def gap(a):
            return build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.01 * c, a).cnoidal.wavelength - lam0
        oracle = brentq(gap, 0.5 * got, 2.0 * got, xtol=1e-14, rtol=8.9e-16)
        assert got == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    def test_flux_against_gamma_rejected(self, mode):
        with pytest.raises(ValueError, match="mass flux of the sign of gamma"):
            cn2_norm_derivative(1.0, 1.0, 1.0, -0.1, mode=mode)

    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    def test_out_of_range_member_rejected(self, mode):
        # sqrt(3 alpha) overflows, so the wavelength is inf; no NaN index is judged
        with pytest.raises(ValueError, match="width"):
            cn2_norm_derivative(1.0, 1e308, 1.0, 1.0, mode=mode)

    def test_fixed_period_flux_of_out_of_range_member_rejected(self):
        with pytest.raises(ValueError, match="width"):
            solve_flux_for_wavelength(1.0, 1e308, 1.0, 5.0)

    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    def test_negative_gamma_wave_is_stable(self, mode):
        # gamma -> -gamma with flux -> -flux leaves the cn^2 member's parameters
        # unchanged but the sign of the amplitude, so both modes see the mirrored wave
        rep = cn2_norm_derivative(-1.0, 1.0, 1.0, -1.0, mode=mode)
        assert rep.verdict == "stable"
        mirror = cn2_norm_derivative(1.0, 1.0, 1.0, 1.0, mode=mode)
        assert rep.norm_derivative == pytest.approx(mirror.norm_derivative, rel=1e-9)

    def test_fixed_period_flux_takes_the_sign_of_gamma(self):
        lam0 = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, 1.0, 1.0).cnoidal.wavelength
        pos = solve_flux_for_wavelength(1.0, 1.0, 1.01, lam0, flux_guess=1.0)
        neg = solve_flux_for_wavelength(-1.0, 1.0, 1.01, lam0, flux_guess=-1.0)
        assert neg == -pos


class TestCn2ClosedForm:
    # k from 0.009 (c = -20) to 1 - 1.3e-4 (c = 5), c = 0 and a speed far
    # below the wave's scale
    MPMATH_POINTS = [(1.0, 1.0), (1.7, 0.4), (-0.7, 1.0), (-3.0, 0.1), (-20.0, 0.05),
                     (5.0, 0.01), (0.0, 1.0), (1e-300, 1.0)]

    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    @pytest.mark.parametrize("c,flux", MPMATH_POINTS)
    def test_matches_mpmath(self, c, flux, mode):
        assert_matches_mpmath(1.0, 1.0, c, flux, mode)

    @pytest.mark.parametrize("c,flux", [(1.0, 1.0), (-0.7, 1.0), (-3.0, 0.1), (-20.0, 0.05),
                                        (-100.0, 0.01)])
    def test_d_K_minus_D_matches_mpmath(self, c, flux):
        # dD/dk as (K - (2 - k^2) D)/(k k'^2) put 9.7e-14 (k = 0.085) to 5.9e-10
        # (c = -100) into this term; the context's dD/dk does not cancel
        def kmd(cc):
            m, K, E = _mp_member(1.0, 1.0, cc, flux)[:3]
            return K - (K - E) / m

        with mp.workdps(50):
            exact = mp.diff(kmd, mp.mpf(c))
        got = cn2_norm_derivative(1.0, 1.0, c, flux).terms["d_K_minus_D"]
        assert float(abs((got - exact) / exact)) < 5e-15

    def test_zero_speed_values(self):
        fixed_flux, fixed_period, _ = mpmath_derivatives(1.0, 1.0, 0.0, 1.0)
        assert fixed_flux == pytest.approx(2.23857, abs=5e-6)
        assert fixed_period == pytest.approx(3.35786, abs=5e-6)

    @pytest.mark.parametrize("mode", ["fixed-flux", "fixed-period"])
    def test_matches_richardson_oracle(self, mode):
        rng = np.random.default_rng(20)
        for _ in range(100):
            gamma = float(rng.choice([1.0, -1.0, 2.0]))
            c = float(rng.uniform(-3.0, 5.0))
            flux = math.copysign(float(rng.uniform(0.05, 3.0)), gamma)
            rep = cn2_norm_derivative(gamma, 1.0, c, flux, mode=mode)
            deriv, functional_i, terms = richardson_report(gamma, 1.0, c, flux, mode)
            where = (gamma, c, flux, mode)
            assert rep.norm_derivative == pytest.approx(deriv, rel=1e-8), where
            assert rep.functional_i == pytest.approx(functional_i, rel=1e-8), where
            assert rep.verdict == ("stable" if deriv > 0.0 else "not-stable-hypotheses")
            # the oracle differentiates K - D, whose D = (K - E)/k^2 carries
            # about eps K/k^2 of rounding; its fine step 1e-4|c| lifts that to
            # 3 eps K/(1e-4 |c| k^2), which passes 1e-8 of d(K - D)/dc at small k
            # or |c| (mpmath puts the closed form within 1e-10 there)
            cn, ctx = cn2_member(gamma, 1.0, c, flux)
            floor = 3.0 * 2.2e-16 * ctx.K / (1e-4 * abs(c) * cn.modulus ** 2)
            kmd_rel = 1e-8 + floor / abs(rep.terms["d_K_minus_D"])
            for name, expected in terms.items():
                got = rep.terms[name]
                if name == "iii":  # zero up to rounding in both
                    assert abs(got - expected) <= 1e-8 * rep.terms["frozen_direct"], where
                else:
                    rel = kmd_rel if name in ("ii", "d_K_minus_D") else 1e-8
                    assert got == pytest.approx(expected, rel=rel), (name, where)


def report_bits(rep):
    """Every field of a report, floats (also inside ``terms``) as their bits."""
    def bits(v):
        return struct.pack("<d", v) if isinstance(v, float) else v
    fields = {name: getattr(rep, name) for name in StabilityReport.__dataclass_fields__}
    fields["terms"] = {name: bits(v) for name, v in (rep.terms or {}).items()}
    return {name: bits(v) for name, v in fields.items()}


def clear_context_cache():
    EllipticContext.from_modulus.cache_clear()


def contexts_built():
    return EllipticContext.from_modulus.cache_info().misses


class TestCn2Cache:
    POINTS = [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 0.37, 2.4), (-1.0, 1.0, 1.3, -0.6),
              (1.0, 2.0, -0.7, 1.0)]
    MODES = ("fixed-flux", "fixed-period")

    @pytest.mark.parametrize("point", POINTS)
    def test_reports_equal_cold_and_warm_in_either_order(self, point):
        cold = {}
        for mode in self.MODES:
            clear_context_cache()
            cold[mode] = report_bits(cn2_norm_derivative(*point, mode=mode))
        for order in (self.MODES, self.MODES[::-1]):
            clear_context_cache()
            for mode in order:
                assert report_bits(cn2_norm_derivative(*point, mode=mode)) == cold[mode]
            for mode in order:  # warm: every member already cached
                assert report_bits(cn2_norm_derivative(*point, mode=mode)) == cold[mode]

    @pytest.mark.parametrize("point", POINTS)
    def test_terms_equal_cold_and_warm(self, point):
        # the terms are mode-free: one member gives the same bits in both modes
        clear_context_cache()
        cold = report_bits(cn2_norm_derivative(*point, mode="fixed-flux"))["terms"]
        for mode in self.MODES:
            assert report_bits(cn2_norm_derivative(*point, mode=mode))["terms"] == cold
            clear_context_cache()
            assert report_bits(cn2_norm_derivative(*point, mode=mode))["terms"] == cold

    def test_cold_fixed_flux_builds_each_member_once(self):
        clear_context_cache()
        cn2_norm_derivative(1.0, 1.0, 1.0, 1.0, mode="fixed-flux")
        # the member's own context gives every derivative
        assert contexts_built() == 1

    def test_fixed_period_after_fixed_flux_builds_no_context(self):
        clear_context_cache()
        cn2_norm_derivative(1.0, 1.0, 1.0, 1.0, mode="fixed-flux")
        built = contexts_built()
        cn2_norm_derivative(1.0, 1.0, 1.0, 1.0, mode="fixed-period")
        assert contexts_built() == built


class TestParsevalBridge:
    @pytest.mark.parametrize("c,flux", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)])
    def test_norm_equals_grid_quadrature(self, c, flux):
        # ties the analytic coefficient norm to the profile itself
        prof = build_profile(KDV_CNOIDAL, 1.0, 1.0, 0.0, c, flux, n_samples=4096)
        norm = cn2_ell2_norm_sq(1.0, 1.0, c, flux)
        assert norm == pytest.approx(float(np.mean(prof.u ** 2)), rel=1e-7)


class TestCn4Derivative:
    def test_series_constant(self):
        # independent direct sum; terms below n = 20 are already ~1e-50
        oracle = sum(2.0 * n ** 6 / math.sinh(n * math.pi) ** 2 for n in range(1, 21))
        assert cn4_series_constant() == pytest.approx(oracle, rel=1e-15)
        assert cn4_series_constant() > 2.0 / math.sinh(math.pi) ** 2

    def test_norm_value(self):
        K = EllipticContext.from_modulus(math.sqrt(2.0) / 2.0).K
        expected = 25.0 / 36.0 + 25.0 * math.pi ** 8 / (36.0 * K ** 8) * cn4_series_constant()
        assert cn4_ell2_norm_sq(1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_homogeneity(self, c):
        rep = cn4_norm_derivative(1.0, 1.0, c)
        assert rep.norm_derivative == pytest.approx(2.0 * rep.terms["norm"] / c, rel=1e-14)
        assert rep.verdict == "stable"

    def test_parseval_bridge(self):
        prof = build_profile(FIFTH_CNOIDAL, 1.0, 0.0, 1.0, 1.0, 0.0, n_samples=4096)
        assert cn4_ell2_norm_sq(1.0, 1.0) == pytest.approx(float(np.mean(prof.u ** 2)), rel=1e-7)

    def test_domain(self):
        # the builder's rule, c/beta > 0, is the only one
        for beta, c in ((1.0, -1.0), (-1.0, 1.0), (0.0, 1.0)):
            with pytest.raises(ValueError, match=re.escape("needs c/beta > 0")):
                cn4_norm_derivative(1.0, beta, c)


def bits(x):
    return None if x is None else struct.pack("<d", x)


class TestMirroredMembers:
    """A member the builder accepts gets the index of its x -> -x mirror,
    (alpha, beta, c, u) -> (-alpha, -beta, -c, -u), bit for bit."""

    @staticmethod
    def assert_same_index(mirror, canon):
        assert bits(mirror.norm_derivative) == bits(canon.norm_derivative)
        assert bits(mirror.functional_i) == bits(canon.functional_i)
        assert mirror.verdict == canon.verdict == "stable"

    @pytest.mark.parametrize("gamma,alpha,c", [(1.0, 1.0, 1.0), (-2.0, 0.5, 1.5),
                                               (0.7, 2.0, 0.4), (1.0, 3.0, 1e-300)])
    def test_kdv_soliton(self, gamma, alpha, c):
        assert (bits(kdv_soliton_norm_derivative(gamma, -alpha, -c))
                == bits(kdv_soliton_norm_derivative(gamma, alpha, c)))
        canon, mirror = (family_reports("kdv-soliton", gamma, a, 0.0, [s], 0.0)[0]
                         for a, s in ((alpha, c), (-alpha, -c)))
        assert (mirror.c, canon.c) == (-c, c)
        self.assert_same_index(mirror, canon)

    @pytest.mark.parametrize("gamma,beta,c", [(1.0, 1.0, 1.0), (-2.0, 0.5, 1.5),
                                              (0.7, 2.0, 0.4), (1.0, 3.0, 7e5)])
    def test_fifth_cnoidal(self, gamma, beta, c):
        canon, mirror = (cn4_norm_derivative(gamma, b, s) for b, s in ((beta, c), (-beta, -c)))
        assert mirror.terms == canon.terms
        self.assert_same_index(mirror, canon)
        canon, mirror = (family_reports("fifth-cnoidal", gamma, 0.0, b, [s], 0.0)[0]
                         for b, s in ((beta, c), (-beta, -c)))
        self.assert_same_index(mirror, canon)


class TestFamilyReports:
    def test_one_report_per_speed_and_mode(self):
        def reports(family):
            return family_reports(family, 1.0, 1.0, 1.0, [0.5, 1.0], 1.0)

        assert len(reports("kdv-soliton")) == 2
        assert len(reports("fifth-cnoidal")) == 2
        assert [r.mode for r in reports("kdv-cnoidal")] == ["fixed-flux", "fixed-period"] * 2
        (series,) = reports("fifth-soliton")
        assert series.series is not None and series.verdict == "stable"

    def test_kdv_soliton_report(self):
        (rep,) = family_reports("kdv-soliton", 2.0, 1.0, 1.0, [1.0], 1.0)
        assert rep.norm_derivative == kdv_soliton_norm_derivative(2.0, 1.0, 1.0) == 9.0
        assert rep.functional_i is None and rep.verdict == "stable"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family_reports("kdv", 1.0, 1.0, 1.0, [1.0], 1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_verdict_for_a_member_the_builder_rejects(self, family):
        # every sign of every parameter; the flux reaches only cn^2
        signs = (-1.0, 0.0, 1.0)
        rejected = 0
        for gamma, alpha, beta, c, flux_a in itertools.product(signs, signs, signs,
                                                               (-1.0, 0.5), (-1.0, 1.0)):
            args = (family, gamma, alpha, beta, [c], flux_a)
            try:
                build_profile(family, gamma, alpha, beta, c, flux_a)
            except ValueError as exc:
                rejected += 1
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    family_reports(*args)
                continue
            # a member the builder accepts is judged, its mirror included
            assert all(rep.verdict == "stable" for rep in family_reports(*args))
        assert rejected > 0

    @pytest.mark.parametrize("family, gamma, alpha, beta, c, index", [
        # 36 sqrt(alpha c) / gamma^2: alpha c underflows to 0, which read "not stable"
        ("kdv-soliton", 1.0, 1e-300, 0.0, 1e-300, "0.0"),
        # 192 |gamma| / pi overflows
        ("fifth-soliton", 1e307, 1.0, 1.0, 1.0, "-inf"),
    ])
    def test_index_out_of_range_is_rejected(self, family, gamma, alpha, beta, c, index):
        build_profile(family, gamma, alpha, beta, c, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"the {family} stability index {index} ")):
            family_reports(family, gamma, alpha, beta, [c], 1.0)

    @pytest.mark.parametrize("family, gamma, alpha, beta, c, error", [
        ("kdv-soliton", 1e200, 1.0, 0.0, 1.0, "OverflowError"),
        # the modulus is 8.2e-101, so k^4 underflows to 0
        ("kdv-cnoidal", 1.0, 1.0, 0.0, -1e100, "ZeroDivisionError"),
        ("fifth-cnoidal", 1e200, 0.0, 1.0, 1.0, "OverflowError"),
    ])
    def test_arithmetic_error_is_rejected(self, family, gamma, alpha, beta, c, error):
        build_profile(family, gamma, alpha, beta, c, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"({error})")):
            family_reports(family, gamma, alpha, beta, [c], 1.0)

    def test_empty_speed_list_rejected(self):
        with pytest.raises(ValueError, match="at least one speed"):
            family_reports("fifth-soliton", 1.0, 1.0, 1.0, [], 1.0)
