import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj

import fkdv.elliptic as elliptic
from fkdv.elliptic import EllipticContext, jacobi_cn

# frozen oracle values for k = sqrt(2)/2 (30-digit AGM iteration)
K_AT_SQRT2_OVER_2 = 1.8540746773013719
E_AT_SQRT2_OVER_2 = 1.3506438810476755

K_GRID = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]


def ctx_of(k):
    return EllipticContext.from_modulus(k)


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
        assert ctx_of(0.0).K == pytest.approx(math.pi / 2, rel=1e-15)

    def test_frozen_agm_value(self):
        assert ctx_of(math.sqrt(2) / 2).K == pytest.approx(K_AT_SQRT2_OVER_2, rel=1e-13)

    def test_against_quadrature(self):
        assert ctx_of(0.5).K == pytest.approx(quad_K(0.5), rel=1e-12)

    @pytest.mark.parametrize("bad", [1.0, -0.1, 1.5, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            ctx_of(bad)


class TestCompleteE:
    def test_zero_modulus(self):
        assert ctx_of(0.0).E == pytest.approx(math.pi / 2, rel=1e-15)

    def test_frozen_and_quadrature(self):
        e = ctx_of(math.sqrt(2) / 2).E
        assert e == pytest.approx(E_AT_SQRT2_OVER_2, rel=1e-13)
        assert e == pytest.approx(quad_E(math.sqrt(2) / 2), rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.2, 1.0001])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            ctx_of(bad)


class TestLegendreD:
    def test_small_k_limit(self):
        assert ctx_of(0.0).D == pytest.approx(math.pi / 4, rel=1e-15)
        assert ctx_of(1e-6).D == pytest.approx(math.pi / 4, rel=1e-10)

    def test_identity_at_sqrt2_over_2(self):
        ctx = ctx_of(math.sqrt(2) / 2)
        assert ctx.D == pytest.approx(2.0 * (ctx.K - ctx.E), rel=1e-14)

    @pytest.mark.parametrize("k", [0.05, 0.3, 0.6, 0.9])
    def test_against_quadrature(self, k):
        assert ctx_of(k).D == pytest.approx(quad_D(k), rel=1e-11)

    @pytest.mark.parametrize("k", [0.005, 0.0199, 0.02, 0.03, 0.13, 0.9])
    def test_against_mpmath(self, k):
        # the AGM sum has no K - E to cancel, so D keeps full precision at
        # every k, small ones included
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            m = mpmath.mpf(k) ** 2
            exact = (mpmath.ellipk(m) - mpmath.ellipe(m)) / m
            rel = abs((ctx_of(k).D - exact) / exact)
        assert rel < 5e-16

    @pytest.mark.parametrize("k", [1e-4, 0.009, 0.03, 0.085, 0.3, 0.9])
    def test_derivative_against_mpmath(self, k):
        # (K - (2 - k^2) D)/(k k'^2) cancels for small k: 2.4e-8 off at
        # k = 1e-4 and 2.3e-12 at k = 0.009; the context's form does not
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath.diff(lambda x: (mpmath.ellipk(x * x) - mpmath.ellipe(x * x)) / (x * x),
                                mpmath.mpf(k))
            rel = abs((ctx_of(k).dD - exact) / exact)
        assert rel < 1e-15

    @pytest.mark.parametrize("k", [0.0, 1e-300, 1e-20, 2e-16])
    def test_derivative_below_the_agm_cutoff(self, k):
        # the AGM takes at most one step here; dD/dk = 3 pi k/16 to rounding
        assert ctx_of(k).dD == pytest.approx(3.0 * math.pi * k / 16.0, rel=1e-15, abs=0.0)

    def test_K_minus_D_positive(self):
        # sign condition behind the mean coefficient of the cn^2 wave
        for k in K_GRID:
            assert ctx_of(k).K - ctx_of(k).D > 0.0


def agm_sequence(k, kprime=None):
    """AGM sequences (a_n, c_n, b_n) starting from a0=1, b0=k', c0=k.

    ``kprime`` defaults to sqrt((1 - k)(1 + k)); a caller that knows k' more
    accurately than that (k' of a small complementary modulus) passes it.
    """
    a = [1.0]
    b = [math.sqrt((1.0 - k) * (1.0 + k)) if kprime is None else kprime]
    c = [k]
    # the gap can stall at half an ulp of a, so the cutoff is one relative ulp
    while abs(c[-1]) > 2.3e-16 * a[-1]:
        if len(a) > elliptic._MAX_AGM_ITER:
            raise RuntimeError(f"AGM failed to converge for k={k!r}")
        a_prev, b_prev = a[-1], b[-1]
        a.append(0.5 * (a_prev + b_prev))
        c.append(0.5 * (a_prev - b_prev))
        b.append(math.sqrt(a_prev * b_prev))
    return a, c, b


def jacobi_cn_reference(z, k):
    """The allocating Landen kernel that jacobi_cn replaced, kept as its bitwise oracle."""
    z = np.asarray(z, dtype=float)
    if k < 1e-8:
        return np.cos(z)
    z = np.abs(z)
    a, c, _ = agm_sequence(k)
    n_last = len(a) - 1
    K = math.pi / (2.0 * a[-1])
    z = np.mod(z + 2.0 * K, 4.0 * K) - 2.0 * K
    phi = (2.0 ** n_last) * a[-1] * z
    for n in range(n_last, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c[n] / a[n] * np.sin(phi), -1.0, 1.0)))
    cn = np.cos(phi)
    return float(cn) if cn.ndim == 0 else cn


def complete_KED_reference(k, kprime=None):
    """The list-based K, E, D, U and Landen data, kept as the bitwise oracle of _complete_KED."""
    a, c, b = agm_sequence(k, kprime)
    csum = 0.0
    dsum = 0.5
    power = 0.5
    for n, cn_ in enumerate(c):
        csum += power * cn_ * cn_
        if n:
            dsum += power * (cn_ / k) ** 2
        power *= 2.0
    # v_n = c_n/k^2 for n = 1 .. N + 1, from v_(n+1) = k^2 v_n^2 / (4 a_(n+1))
    v = [1.0 / (2.0 * (a[0] + b[0]))]
    for n in range(1, len(a)):
        v.append(v[-1] * (k * k * v[-1] / (2.0 * (a[n] + b[n]))))
    usum = v[0] * v[0]
    for n in range(1, len(v)):
        usum += 2.0 ** n * v[n] * v[n]
    K = math.pi / (2.0 * a[-1])
    n_last = len(a) - 1
    landen = ((2.0 ** n_last) * a[-1], *(c[n] / a[n] for n in range(n_last, 0, -1)))
    return K, K * (1.0 - csum), K * dsum, usum, landen


def context_bits(ctx):
    *scalars, landen = (getattr(ctx, name) for name in EllipticContext.__dataclass_fields__)
    return np.array([*scalars, *landen]).tobytes()


class TestScalarAgm:
    def test_bitwise_equal_to_reference(self):
        # uniform, small, near 1, and the edges
        rng = np.random.default_rng(11)
        moduli = np.concatenate([
            rng.uniform(0.0, 1.0, 10000),
            10.0 ** rng.uniform(-12.0, math.log10(0.02), 6000),
            1.0 - 10.0 ** rng.uniform(-12.0, -1.0, 4000),
            [0.0, 1e-300, 0.02, np.nextafter(0.02, 0.0), np.nextafter(1.0, 0.0)],
        ])
        def bits(ked):
            K, E, D, U, landen = ked
            return struct.pack(f"<{4 + len(landen)}d", K, E, D, U, *landen)

        for k in moduli.tolist():
            assert bits(elliptic._complete_KED(k)) == bits(complete_KED_reference(k)), k
            if k == 0.0:
                continue  # the context takes K'(0) = inf without an AGM
            # K' of the context: the AGM of (1, k) at the complementary modulus
            kprime = math.sqrt((1.0 - k) * (1.0 + k))
            assert (bits(elliptic._complete_KED(kprime, k))
                    == bits(complete_KED_reference(kprime, k))), k

    @pytest.mark.parametrize("k", [0.3, 1.0 - 1e-10])
    def test_same_iteration_cap(self, k, monkeypatch):
        steps = len(agm_sequence(k)[0]) - 1
        monkeypatch.setattr(elliptic, "_MAX_AGM_ITER", steps)
        assert elliptic._complete_KED(k) == complete_KED_reference(k)
        monkeypatch.setattr(elliptic, "_MAX_AGM_ITER", steps - 1)
        for ked in (complete_KED_reference, elliptic._complete_KED):
            with pytest.raises(RuntimeError, match="AGM failed to converge"):
                ked(k)


class TestJacobiCn:
    @pytest.mark.parametrize("k", [1e-9, 0.3, math.sqrt(2) / 2, 0.99, 1.0 - 1e-10])
    def test_bitwise_equal_to_reference(self, k):
        rng = np.random.default_rng(7)
        K = ctx_of(k).K
        inside = rng.uniform(-2.0 * K, 2.0 * K, 4096)
        beyond = rng.uniform(-40.0 * K, 40.0 * K, (16, 33))
        edges = np.array([0.0, -0.0, 2.0 * K, -2.0 * K, 4.0 * K, np.nextafter(2.0 * K, 0.0)])
        for z in (inside, beyond, edges, np.array([]), np.array(1.3), 0.25, -9.0 * K):
            got, ref = jacobi_cn(z, k), jacobi_cn_reference(z, k)
            assert type(got) is type(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_leaves_its_argument_alone(self):
        z = np.linspace(-30.0, 30.0, 101)
        before = z.copy()
        jacobi_cn(z, 0.8)
        assert np.array_equal(z, before)

    @pytest.mark.parametrize("k", [0.0, 0.2, math.sqrt(2) / 2, 0.95])
    def test_at_zero(self, k):
        assert jacobi_cn(0.0, k) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.9, 0.999])
    def test_quarter_period_zero(self, k):
        assert abs(jacobi_cn(ctx_of(k).K, k)) < 1e-12

    def test_degenerate_modulus_is_cosine(self):
        z = np.linspace(-5.0, 5.0, 10)
        assert np.max(np.abs(jacobi_cn(z, 0.0) - np.cos(z))) < 1e-13

    @pytest.mark.parametrize("k", [0.3, 0.7, 0.99])
    def test_full_period(self, k):
        z = np.linspace(-2.0, 2.0, 17)
        K = ctx_of(k).K
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
        cn_reflected = jacobi_cn(ctx_of(k).K - z, k)
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
        eprime = ctx_of(ctx.kprime).E
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
        ked = elliptic._complete_KED
        monkeypatch.setattr(elliptic, "_complete_KED",
                            lambda q, *b0: runs.append(q) or ked(q, *b0))
        EllipticContext.from_modulus.cache_clear()
        ctx = EllipticContext.from_modulus(k)
        assert runs == [k, ctx.kprime]

    @pytest.mark.parametrize("k", [1e-3, 0.3, math.sqrt(2) / 2, 1.0 - 1e-10])
    def test_cn_reads_its_agm_from_the_context(self, k, monkeypatch):
        # a cold cn builds the context (one AGM at k, one at k'); a warm one runs none
        z = np.linspace(-10.0, 10.0, 33)
        runs = []
        ked = elliptic._complete_KED
        monkeypatch.setattr(elliptic, "_complete_KED",
                            lambda q, *b0: runs.append(q) or ked(q, *b0))
        EllipticContext.from_modulus.cache_clear()
        cold = jacobi_cn(z, k)
        assert runs == [k, math.sqrt((1.0 - k) * (1.0 + k))]
        runs.clear()
        warm = jacobi_cn(z, k)
        assert runs == []
        assert cold.tobytes() == warm.tobytes() == jacobi_cn_reference(z, k).tobytes()

    def test_fields_equal_cold_and_warm(self):
        moduli = [0.0, 1e-9, 0.01, 0.3, math.sqrt(2) / 2, 0.95, 1.0 - 1e-10]
        EllipticContext.from_modulus.cache_clear()
        cold = [context_bits(EllipticContext.from_modulus(k)) for k in moduli]
        for k, bits in zip(moduli, cold):
            assert context_bits(EllipticContext.from_modulus(k)) == bits
            assert context_bits(EllipticContext.from_modulus.__wrapped__(EllipticContext, k)) == bits

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_modulus_is_zero_in_either_order(self, first):
        EllipticContext.from_modulus.cache_clear()
        for k in (first, -first):
            assert context_bits(EllipticContext.from_modulus(k)) == context_bits(
                EllipticContext.from_modulus.__wrapped__(EllipticContext, 0.0))

    def test_context_matches_the_functions(self):
        # K, E and D are the context's AGM run at k, bit for bit
        for k in (0.0, 0.01, 0.3, 0.95):
            ctx = EllipticContext.from_modulus(k)
            assert (ctx.K, ctx.E, ctx.D) == elliptic._complete_KED(k)[:3]

    def test_zero_modulus_context(self):
        ctx = EllipticContext.from_modulus(0.0)
        assert ctx.q == 0.0
        assert math.isinf(ctx.Kprime)

    @pytest.mark.parametrize("k", [1e-2, 1e-4, 1e-6, 1e-9])
    def test_small_modulus_kprime_against_mpmath(self, k):
        # k' = sqrt(1 - k^2) keeps no digit of a small k; below k ~ 1e-8 it
        # rounds to 1, which a K' computed from k' alone cannot survive
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = mpmath.ellipk(1 - mpmath.mpf(k) ** 2)
            rel = abs((EllipticContext.from_modulus(k).Kprime - exact) / exact)
        assert rel < 1e-14


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9])
def test_q_series_csch_identity(k):
    # q^n / (1 - q^2n) = csch(n pi K'/K) / 2 for the nome q = exp(-pi K'/K)
    ctx = EllipticContext.from_modulus(k)
    for n in range(1, 31):
        lhs = ctx.q ** n / (1.0 - ctx.q ** (2 * n))
        rhs = 0.5 / math.sinh(n * math.pi * ctx.Kprime / ctx.K)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_K_monotonicity():
    Ks = [ctx_of(k).K for k in K_GRID]
    Kps = [EllipticContext.from_modulus(k).Kprime for k in K_GRID]
    assert all(b > a for a, b in zip(Ks, Ks[1:]))
    assert all(b < a for a, b in zip(Kps, Kps[1:]))
