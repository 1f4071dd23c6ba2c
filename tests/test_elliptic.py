import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj

import fkdv.elliptic as elliptic
from fkdv.elliptic import (
    EllipticContext,
    complete_E,
    complete_K,
    jacobi_cn,
    legendre_D,
)

# frozen oracle values for k = sqrt(2)/2 (30-digit AGM iteration)
K_AT_SQRT2_OVER_2 = 1.8540746773013719
E_AT_SQRT2_OVER_2 = 1.3506438810476755

K_GRID = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]


def quad_K(k):
    val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_E(k):
    val, _ = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    return val


def quad_D(k):
    val, _ = quad(lambda t: math.sin(t) ** 2 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                  0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    return val


class TestCompleteK:
    def test_zero_modulus(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_frozen_agm_value(self):
        assert complete_K(math.sqrt(2) / 2) == pytest.approx(K_AT_SQRT2_OVER_2, rel=1e-13)

    def test_against_quadrature(self):
        assert complete_K(0.5) == pytest.approx(quad_K(0.5), rel=1e-12)

    @pytest.mark.parametrize("bad", [1.0, -0.1, 1.5, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            complete_K(bad)


class TestCompleteE:
    def test_zero_modulus(self):
        assert complete_E(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_unit_modulus_exact(self):
        assert complete_E(1.0) == 1.0

    def test_frozen_and_quadrature(self):
        e = complete_E(math.sqrt(2) / 2)
        assert e == pytest.approx(E_AT_SQRT2_OVER_2, rel=1e-13)
        assert e == pytest.approx(quad_E(math.sqrt(2) / 2), rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.2, 1.0001])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            complete_E(bad)


class TestLegendreD:
    def test_small_k_limit(self):
        assert legendre_D(0.0) == pytest.approx(math.pi / 4, rel=1e-15)
        assert legendre_D(1e-6) == pytest.approx(math.pi / 4, rel=1e-10)

    def test_identity_at_sqrt2_over_2(self):
        k = math.sqrt(2) / 2
        assert legendre_D(k) == pytest.approx(2.0 * (complete_K(k) - complete_E(k)), rel=1e-14)

    @pytest.mark.parametrize("k", [0.05, 0.3, 0.6, 0.9])
    def test_against_quadrature(self, k):
        assert legendre_D(k) == pytest.approx(quad_D(k), rel=1e-11)

    def test_K_minus_D_positive(self):
        # sign condition behind the mean coefficient of the cn^2 wave
        for k in K_GRID:
            assert complete_K(k) - legendre_D(k) > 0.0


class TestJacobiCn:
    @pytest.mark.parametrize("k", [0.0, 0.2, math.sqrt(2) / 2, 0.95])
    def test_at_zero(self, k):
        assert jacobi_cn(0.0, k) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.9, 0.999])
    def test_quarter_period_zero(self, k):
        assert abs(jacobi_cn(complete_K(k), k)) < 1e-12

    def test_degenerate_modulus_is_cosine(self):
        z = np.linspace(-5.0, 5.0, 10)
        assert np.max(np.abs(jacobi_cn(z, 0.0) - np.cos(z))) < 1e-13

    @pytest.mark.parametrize("k", [0.3, 0.7, 0.99])
    def test_full_period(self, k):
        z = np.linspace(-2.0, 2.0, 17)
        K = complete_K(k)
        assert np.max(np.abs(jacobi_cn(z + 4 * K, k) - jacobi_cn(z, k))) < 1e-12

    def test_evenness_exact(self):
        z = np.linspace(0.1, 3.0, 11)
        assert np.array_equal(jacobi_cn(-z, 0.8), jacobi_cn(z, 0.8))

    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.9999])
    def test_against_scipy(self, k):
        rng = np.random.default_rng(42)
        z = rng.uniform(-10.0, 10.0, 100)
        ref = ellipj(z, k * k)[1]
        assert np.max(np.abs(jacobi_cn(z, k) - ref)) < 1e-12

    @given(z=st.floats(-20.0, 20.0), k=st.floats(0.0, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_pythagorean(self, z, k):
        # cn(K - z) = k' sn z / dn z; with sn^2 = 1 - cn^2 and
        # dn^2 = k'^2 + k^2 cn^2 this ties cn(K - z) to cn(z) alone
        cn = jacobi_cn(z, k)
        assert -1.0 - 1e-12 <= cn <= 1.0 + 1e-12
        kp2 = (1.0 - k) * (1.0 + k)
        cn_reflected = jacobi_cn(complete_K(k) - z, k)
        assert abs(cn_reflected ** 2 * (kp2 + k * k * cn * cn) - kp2 * (1.0 - cn * cn)) < 1e-12

    def test_rejects_nonfinite_argument(self):
        with pytest.raises(ValueError):
            jacobi_cn(float("inf"), 0.5)


class TestEllipticContext:
    @pytest.mark.parametrize("k", K_GRID)
    def test_complementary_modulus(self, k):
        ctx = EllipticContext.from_modulus(k)
        assert abs(ctx.kprime ** 2 + ctx.k ** 2 - 1.0) < 1e-14

    @pytest.mark.parametrize("k", K_GRID)
    def test_legendre_relation(self, k):
        # E K' + E' K - K K' = pi/2
        ctx = EllipticContext.from_modulus(k)
        eprime = complete_E(ctx.kprime)
        lhs = ctx.E * ctx.Kprime + eprime * ctx.K - ctx.K * ctx.Kprime
        assert abs(lhs - math.pi / 2) < 1e-12

    @pytest.mark.parametrize("k", K_GRID)
    def test_D_definition(self, k):
        ctx = EllipticContext.from_modulus(k)
        assert abs(ctx.D * k * k - (ctx.K - ctx.E)) < 1e-13

    @pytest.mark.parametrize("k", K_GRID)
    def test_nome_in_unit_interval(self, k):
        ctx = EllipticContext.from_modulus(k)
        assert 0.0 < ctx.q < 1.0

    @pytest.mark.parametrize("k", [0.01, 0.5, 1.0 - 1e-10])
    def test_one_agm_run_per_modulus(self, k, monkeypatch):
        # one AGM for K and E at k, one for K' at k'
        runs = []
        agm = elliptic._agm_sequence
        monkeypatch.setattr(elliptic, "_agm_sequence", lambda q: runs.append(q) or agm(q))
        ctx = EllipticContext.from_modulus(k)
        assert runs == [k, ctx.kprime]

    def test_context_matches_the_functions(self):
        for k in (0.0, 0.01, 0.3, 0.95):
            ctx = EllipticContext.from_modulus(k)
            assert (ctx.K, ctx.E, ctx.D) == (complete_K(k), complete_E(k), legendre_D(k))

    def test_zero_modulus_context(self):
        ctx = EllipticContext.from_modulus(0.0)
        assert ctx.q == 0.0
        assert math.isinf(ctx.Kprime)


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
def test_q_series_csch_identity(k):
    # q^n / (1 - q^2n) = csch(n pi K'/K) / 2 for the nome q = exp(-pi K'/K)
    ctx = EllipticContext.from_modulus(k)
    for n in range(1, 31):
        lhs = ctx.q ** n / (1.0 - ctx.q ** (2 * n))
        rhs = 0.5 / math.sinh(n * math.pi * ctx.Kprime / ctx.K)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_K_monotonicity():
    Ks = [complete_K(k) for k in K_GRID]
    Kps = [EllipticContext.from_modulus(k).Kprime for k in K_GRID]
    assert all(b > a for a, b in zip(Ks, Ks[1:]))
    assert all(b < a for a, b in zip(Kps, Kps[1:]))
