import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkdv.elliptic import EllipticContext, jacobi_cn
from fkdv.fourier import (
    AliasingWarning,
    CoeffSequence,
    analytic_coeffs,
    cn2_coeffs,
    cn4_coeffs_halfmodulus,
    cn4_series_general_k,
    dft_coeffs,
    dft_cosine_coeffs,
    Pf2Report,
    pf2_check,
)
from fkdv.waves import build_fifth_order_cnoidal, build_kdv_cnoidal, build_kdv_soliton

CN2_SETS = [(1.0, 1.0), (1.0, 0.03), (2.0, 5.0)]  # (c, flux)


def make_grid(half_period, n):
    return -half_period + np.arange(n) * (2.0 * half_period / n)


class TestCn2Coeffs:
    def test_mean_coefficient_definition(self):
        prof = build_kdv_cnoidal(1.0, 1.0, 1.0, 1.0)
        cn = prof.cnoidal
        seq = cn2_coeffs(cn, 8)
        ctx = EllipticContext.from_modulus(cn.modulus)
        expected = (2.0 * cn.emm * ctx.K / cn.half_period ** 2) * (ctx.K - ctx.D)
        assert seq[0] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("c,flux", CN2_SETS)
    def test_match_dft_oracle(self, c, flux):
        prof = build_kdv_cnoidal(1.0, 1.0, c, flux, n_samples=4096)
        analytic = cn2_coeffs(prof.cnoidal, 16)
        numeric = dft_coeffs(prof, 16)
        floor = 1e-6 * analytic[0]
        for n in range(17):
            err = abs(analytic[n] - numeric[n])
            assert err <= 1e-8 * max(abs(analytic[n]), floor)

    def test_all_positive_on_parameter_grid(self):
        for c in (0.5, 1.0, 2.0):
            for flux in (0.2, 1.0, 5.0):
                prof = build_kdv_cnoidal(1.0, 1.0, c, flux)
                assert cn2_coeffs(prof.cnoidal, 20).strictly_positive

    def test_decay_rate(self):
        # coeff(n) = C n csch(n pi K'/K) ~ 2C n q^n, so successive ratios
        # approach ((n+1)/n) exp(-pi K'/K) geometrically fast
        prof = build_kdv_cnoidal(1.0, 1.0, 1.0, 1.0)
        ctx = EllipticContext.from_modulus(prof.cnoidal.modulus)
        seq = cn2_coeffs(prof.cnoidal, 17)
        decay = math.exp(-math.pi * ctx.Kprime / ctx.K)
        for n in range(8, 17):
            ratio = seq[n] / seq[n - 1]
            assert ratio == pytest.approx((n / (n - 1)) * decay, rel=1e-10)


class TestCn4Coeffs:
    def test_mean_value(self):
        prof = build_fifth_order_cnoidal(1.0, 1.0, 1.0)
        seq = cn4_coeffs_halfmodulus(prof, 8)
        assert seq[0] == pytest.approx(5.0 / 6.0, rel=1e-15)

    def test_cn4_period_mean_is_one_third(self):
        # quadrature oracle for the constant term of cn^4 at half modulus
        ctx = EllipticContext.from_modulus(math.sqrt(2.0) / 2.0)
        z = np.linspace(0.0, 4.0 * ctx.K, 40001)
        mean = np.trapezoid(jacobi_cn(z, ctx.k) ** 4, z) / (4.0 * ctx.K)
        assert mean == pytest.approx(1.0 / 3.0, rel=1e-9)

    @pytest.mark.parametrize("gamma,beta,c", [(1.0, 1.0, 1.0), (1.0, 0.5, 2.0), (3.0, 2.0, 0.7)])
    def test_match_dft_oracle(self, gamma, beta, c):
        prof = build_fifth_order_cnoidal(gamma, beta, c, n_samples=4096)
        analytic = cn4_coeffs_halfmodulus(prof, 12)
        numeric = dft_coeffs(prof, 12)
        floor = 1e-6 * analytic[0]
        for n in range(13):
            err = abs(analytic[n] - numeric[n])
            assert err <= 1e-8 * max(abs(analytic[n]), floor)

    def test_rejects_wrong_family(self):
        prof = build_kdv_cnoidal(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cn4_coeffs_halfmodulus(prof, 8)

    def test_decay_rate(self):
        prof = build_fifth_order_cnoidal(1.0, 1.0, 1.0)
        seq = cn4_coeffs_halfmodulus(prof, 13)
        decay = math.exp(-math.pi)
        for n in range(6, 13):
            ratio = seq[n] / seq[n - 1]
            assert ratio == pytest.approx((n / (n - 1)) ** 3 * decay, rel=1e-10)


class TestCn4GeneralModulus:
    def test_reduces_at_half_modulus(self):
        # k^2 - k'^2 = 0 kills the first term family; the cosine-series
        # coefficient collapses to (2 pi^4 / 3 K^4) n^3 csch(n pi), i.e. a
        # stored transform value of half that
        seq = cn4_series_general_k(math.sqrt(2.0) / 2.0, 10)
        assert seq[0] == pytest.approx(1.0 / 3.0, rel=1e-13)
        ctx = EllipticContext.from_modulus(math.sqrt(2.0) / 2.0)
        for n in range(1, 11):
            expected = (math.pi ** 4 / (3.0 * ctx.K ** 4)) * n ** 3 / math.sinh(n * math.pi)
            assert seq[n] == pytest.approx(expected, rel=1e-12)

    def test_sums_to_cn4_at_origin(self):
        seq = cn4_series_general_k(0.6, 40)
        assert float(seq.reconstruct(0.0)) == pytest.approx(1.0, abs=1e-9)

    def test_sums_to_cn4_at_quarter_period(self):
        k = 0.3
        ctx = EllipticContext.from_modulus(k)
        seq = cn4_series_general_k(k, 40)
        z = ctx.K / 2.0
        assert float(seq.reconstruct(z)) == pytest.approx(
            float(jacobi_cn(z, k)) ** 4, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            cn4_series_general_k(bad, 10)


class TestDftCoeffs:
    def test_constant_profile(self):
        u = np.full(256, 2.5)
        seq = dft_cosine_coeffs(u, 3.0, 8)
        assert seq[0] == pytest.approx(2.5, rel=1e-14)
        assert np.max(np.abs(seq.values[1:])) < 1e-13

    def test_pure_cosine(self):
        # A cos(pi xi/L) splits evenly over n = +-1 in the transform
        L = 2.0
        xi = make_grid(L, 512)
        u = 0.7 * np.cos(math.pi * xi / L)
        seq = dft_cosine_coeffs(u, L, 10)
        assert seq[1] == pytest.approx(0.35, rel=1e-13)
        others = [seq[n] for n in range(11) if n != 1]
        assert max(abs(v) for v in others) < 1e-13

    def test_symmetry_is_structural(self):
        u = np.full(128, 1.0)
        seq = dft_cosine_coeffs(u, 1.0, 4)
        for n in range(5):
            assert seq[-n] == seq[n]

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError):
            dft_cosine_coeffs(np.zeros(64), 1.0, 16)

    def test_requires_periodic_profile(self):
        prof = build_kdv_soliton(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            dft_coeffs(prof, 8)

    def test_aliasing_warning(self):
        # a triangle wave decays like n^-2: far too slowly for 128 samples
        L = 1.0
        xi = make_grid(L, 128)
        u = np.abs(xi)
        with pytest.warns(AliasingWarning):
            dft_cosine_coeffs(u, L, 8)


class TestParseval:
    @pytest.mark.parametrize("c,flux", CN2_SETS)
    def test_mean_square_identity(self, c, flux):
        # sum_{n in Z} coeff(n)^2 = (1/2L) int u^2, with no extra weights
        prof = build_kdv_cnoidal(1.0, 1.0, c, flux, n_samples=4096)
        seq = cn2_coeffs(prof.cnoidal, 60)
        mean_sq = float(np.mean(prof.u ** 2))
        assert seq.ell2_norm_sq() == pytest.approx(mean_sq, rel=1e-8)

    def test_ell2_norm_convention(self):
        seq = CoeffSequence(values=np.array([2.0, 1.0, 0.5]), half_period=1.0)
        assert seq.ell2_norm_sq() == pytest.approx(4.0 + 2.0 * (1.0 + 0.25), rel=1e-15)


def pf2_check_bruteforce(seq, window=12, tol_factor=1e-14):
    """Reference PF(2) check: every (2w+1)^4 minor at once, argmin in C order."""
    values = seq.two_sided() if isinstance(seq, CoeffSequence) else np.asarray(seq, dtype=float)
    reach = len(values) // 2
    idx = np.arange(-window, window + 1)
    diff = idx[:, None] - idx[None, :]
    defined = np.abs(diff) <= reach
    T = np.where(defined, values[np.clip(diff + reach, 0, 2 * reach)], np.nan)
    scale = float(np.max(values) ** 2)
    tol = tol_factor * scale
    m = len(idx)
    minors = (T[:, None, :, None] * T[None, :, None, :]
              - T[:, None, None, :] * T[None, :, :, None])
    i1, i2 = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    pairs = i1 < i2
    mask = pairs[:, :, None, None] & pairs[None, None, :, :] & np.isfinite(minors)
    masked = np.where(mask, minors, np.inf)
    loc = np.unravel_index(int(np.argmin(masked)), masked.shape)
    min_minor = float(masked[loc])
    lc = values[1:-1] ** 2 - values[:-2] * values[2:]
    min_lc = float(np.min(lc)) if len(lc) else 0.0
    lc_ok = min_lc >= -tol
    return Pf2Report(
        passed=(min_minor >= -tol) and lc_ok,
        window=window,
        min_minor=min_minor,
        min_location=tuple(int(idx[i]) for i in loc),
        scale=scale,
        log_concavity_ok=lc_ok,
        min_log_concavity=min_lc,
        tolerance=tol,
        failures=int(np.sum(masked < -tol)),
    )


def assert_same_report(fast, ref):
    """Field-by-field equality, floats compared bit for bit."""
    for name in Pf2Report.__dataclass_fields__:
        a, b = getattr(fast, name), getattr(ref, name)
        if isinstance(b, float):
            assert struct.pack("<d", a) == struct.pack("<d", b), (name, a, b)
        else:
            assert a == b, (name, a, b)


@st.composite
def pf2_cases(draw):
    window = draw(st.integers(0, 8))
    reach = draw(st.integers(0, 2 * window + 2))
    # a small pool of repeated values makes tied minima common
    pool = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
    values = draw(st.lists(st.sampled_from(pool) | st.floats(0.0, 10.0),
                           min_size=2 * reach + 1, max_size=2 * reach + 1))
    values[reach] = draw(st.floats(0.1, 10.0))
    return np.array(values), window


class TestPf2:
    def test_geometric_sequence_passes(self):
        n = np.arange(-12, 13)
        seq = 0.5 ** np.abs(n)
        report = pf2_check(seq, window=6)
        assert report.passed
        assert report.min_minor >= -report.tolerance

    @given(ratio=st.floats(0.05, 0.95), width=st.floats(0.5, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_log_concave_families_pass(self, ratio, width):
        # geometric r^|n| sits on the boundary; gaussian r^(n/w)^2 is strictly
        # log-concave; both must clear the minor test
        n = np.arange(-12, 13)
        assert pf2_check(ratio ** np.abs(n), window=6).passed
        assert pf2_check(ratio ** ((n / width) ** 2), window=6).passed

    def test_cn2_coefficients_pass(self):
        prof = build_kdv_cnoidal(1.0, 1.0, 1.0, 1.0)
        seq = cn2_coeffs(prof.cnoidal, 24)
        report = pf2_check(seq, window=12)
        assert report.passed
        assert report.log_concavity_ok

    def test_cn4_coefficients_pass(self):
        prof = build_fifth_order_cnoidal(1.0, 1.0, 1.0)
        seq = cn4_coeffs_halfmodulus(prof, 24)
        assert pf2_check(seq, window=12).passed

    def test_off_origin_spike_fails(self):
        vals = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 1.0])  # spike at n = +2
        report = pf2_check(vals, window=3)
        assert not report.passed
        assert not report.log_concavity_ok
        assert report.min_minor < -report.tolerance
        n1, n2, m1, m2 = report.min_location
        assert n1 < n2 and m1 < m2

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            pf2_check(np.array([1.0, -1.0, 1.0]), window=1)

    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            pf2_check(np.ones(4), window=1)

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError, match="window"):
            pf2_check(np.ones(5), window=-1)

    @pytest.mark.parametrize("window", [0, 1, 2, 7, 12, 24])
    def test_cnoidal_reports_match_bruteforce(self, window):
        cn2 = cn2_coeffs(build_kdv_cnoidal(1.0, 1.0, 1.0, 1.0).cnoidal, max(1, 2 * window))
        cn4 = cn4_coeffs_halfmodulus(build_fifth_order_cnoidal(1.0, 1.0, 1.0), max(1, 2 * window))
        for seq in (cn2, cn4):
            assert_same_report(pf2_check(seq, window=window),
                               pf2_check_bruteforce(seq, window=window))

    def test_spike_matches_bruteforce(self):
        spike = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 1.0])
        for window in (1, 3, 5):
            assert_same_report(pf2_check(spike, window=window),
                               pf2_check_bruteforce(spike, window=window))

    @given(pf2_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_bruteforce(self, case):
        values, window = case
        assert_same_report(pf2_check(values, window=window),
                           pf2_check_bruteforce(values, window=window))

    def test_window_60_memory(self):
        seq = cn4_coeffs_halfmodulus(build_fifth_order_cnoidal(1.0, 1.0, 1.0), 120)
        tracemalloc.start()
        try:
            report = pf2_check(seq, window=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8 * 2 ** 20


class TestAnalyticDispatch:
    def test_family_picks_the_formula(self):
        cn2 = build_kdv_cnoidal(1.0, 1.0, 1.0, 1.0)
        cn4 = build_fifth_order_cnoidal(1.0, 1.0, 1.0)
        assert np.array_equal(analytic_coeffs(cn2, 8).values, cn2_coeffs(cn2.cnoidal, 8).values)
        assert np.array_equal(analytic_coeffs(cn4, 8).values,
                              cn4_coeffs_halfmodulus(cn4, 8).values)
        with pytest.raises(ValueError):
            analytic_coeffs(build_kdv_soliton(1.0, 1.0, 1.0), 8)


class TestCoeffSequence:
    def test_getitem_bounds(self):
        seq = CoeffSequence(values=np.array([1.0, 0.5]), half_period=1.0)
        with pytest.raises(IndexError):
            seq[5]

    def test_csv(self, tmp_path):
        seq = CoeffSequence(values=np.array([1.0, 0.5, 0.25]), half_period=1.0)
        path = tmp_path / "coeffs.csv"
        text = seq.to_csv(path)
        assert text.splitlines()[0] == "n,coeff"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (3, 2)
        assert np.array_equal(data[:, 1], seq.values)

    def test_underflow_flag(self):
        prof = build_kdv_cnoidal(1.0, 1.0, 1.0, 1.0)
        seq = cn2_coeffs(prof.cnoidal, 400)
        assert seq.underflow
        assert seq[400] == 0.0
