"""Complete elliptic integrals and the Jacobi cn function.

K, E and D come from one arithmetic-geometric mean iteration, cn from the
descending Landen (Gauss) transformation built on the same AGM sequence.
Both converge quadratically, so every value here is good to a few ulps
without any series-truncation tuning.  An :class:`EllipticContext` holds
K, E, D, K', the nome and the Landen data of a modulus for two AGM runs, one
at k and one at k'; ``EllipticContext.from_modulus(k)`` is the only way to
them, for cn as for every other caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EllipticContext",
    "jacobi_cn",
    "CSCH_OVERFLOW",
]

# Below this modulus the elliptic functions are replaced by their
# trigonometric limits; the neglected terms are O(k^2) < 1e-16.
_TRIG_LIMIT = 1e-8

_MAX_AGM_ITER = 64

# csch(x) = 1/sinh(x) for x beyond this overflows sinh; the terms of the
# nome series there lie below the smallest subnormal and count as exact zeros
CSCH_OVERFLOW = 700.0


def _check_modulus(k: float) -> float:
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {k!r}")
    return k


def _complete_KED(k: float, kprime: float | None = None):
    """K, E, D = (K - E)/k^2, U and the Landen data of one AGM run from a0=1, b0=k', c0=k.

    ``kprime`` defaults to sqrt((1 - k)(1 + k)); a caller that knows k' more
    accurately than that (k' of a small complementary modulus) passes it.
    With c_0 = k the AGM gives E = K (1 - sum_(n>=0) 2^(n-1) c_n^2) and
    D = K (1/2 + sum_(n>=1) 2^(n-1) (c_n/k)^2) (Abramowitz & Stegun 17.6), a
    sum of positive terms, so no digit of a small k is lost to K - E.  The
    Landen data (2^N a_N, c_N/a_N, ..., c_1/a_1) is what :func:`jacobi_cn`
    descends with.

    U = sum_(n>=1) 2^(n-1) (c_n/k^2)^2, so that D = K (1/2 + k^2 U), gives
    dD/dk = (K - (2 - k^2) D)/(k k'^2) = K k (1/2 - (2 - k^2) U)/k'^2, whose
    two terms are 4:1 apart for small k.  U needs every c_n to full relative
    precision, and c_1 = (1 - k')/2 loses the digits of a small k, so U runs
    on a second sequence v_n = c_n/k^2 from c_(n+1) = c_n^2/(4 a_(n+1)),
    which has no subtraction.  It is kept one term ahead of the loop, so
    that its first term, v_1 = 1/(4 a_1), is there however few steps the
    AGM takes.
    """
    a, c = 1.0, k
    b = math.sqrt((1.0 - k) * (1.0 + k)) if kprime is None else kprime
    csum, dsum, power, ratios = (0.5 * k) * k, 0.5, 0.5, []
    v = 1.0 / (2.0 * (a + b))
    usum = v * v
    # the gap can stall at half an ulp of a, so the cutoff is one relative ulp
    while abs(c) > 2.3e-16 * a:
        if len(ratios) >= _MAX_AGM_ITER:
            raise RuntimeError(f"AGM failed to converge for k={k!r}")
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        csum += power * c * c
        dsum += power * (c / k) ** 2
        # v_(n+1) = k^2 v_n^2 / (4 a_(n+1)), with 4 a_(n+1) = 2 (a_n + b_n)
        v *= k * k * v / (2.0 * (a + b))
        usum += 2.0 * power * v * v
        ratios.append(c / a)
    K = math.pi / (2.0 * a)
    return K, K * (1.0 - csum), K * dsum, usum, ((2.0 ** len(ratios)) * a, *ratios[::-1])


def jacobi_cn(z, k: float):
    """Jacobi cn(z, k) by the descending Landen transformation; cn(z, 0) = cos z.

    z is reduced modulo the full period 4K first, so cn(z + 4K) = cn(z) to
    rounding.  Scalars or arrays; a few ulps absolute for 0 <= k <= 1 - 1e-10.
    K and the Landen data come from the cached :class:`EllipticContext`.
    """
    k = _check_modulus(k)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("argument of the elliptic functions must be finite")
    if k < _TRIG_LIMIT:
        return np.cos(z)

    ctx = EllipticContext.from_modulus(k)
    K, (scale, *ratios) = ctx.K, ctx.landen
    # evaluate on |z| so that cn is even bit-for-bit; phi is a fresh array
    # (at least 1-d, so the levels below can update it in place)
    phi = np.abs(np.array(z, ndmin=1))
    phi += 2.0 * K
    # on [0, 4K) the reduction is exact and returns its argument
    if phi.size and phi.max() >= 4.0 * K:
        np.mod(phi, 4.0 * K, out=phi)
    phi -= 2.0 * K

    phi *= scale
    level = np.empty_like(phi)
    for ratio in ratios:
        np.sin(phi, out=level)
        # arcsin needs no clip: a_n - c_n = b_(n-1) > 0 while k' > 0, and as
        # rounding is monotone fl(a + b)/2 >= |fl(a - b)|/2 for a, b >= 0, so
        # |c_n / a_n| <= 1 and |sin phi| c_n/a_n stays within [-1, 1]
        level *= ratio
        np.arcsin(level, out=level)
        phi += level
        phi *= 0.5
    np.cos(phi, out=phi)
    return float(phi[0]) if z.ndim == 0 else phi


@dataclass(frozen=True)
class EllipticContext:
    """All elliptic quantities for one modulus, cached at construction.

    Attributes
    ----------
    k, kprime : modulus and complementary modulus, k^2 + k'^2 = 1
    K, E      : complete integrals of the first and second kind at k
    Kprime    : K(k'), infinite at k = 0 in exact arithmetic (stored as inf)
    D         : Legendre integral (K - E)/k^2
    dD        : its derivative dD/dk, formed without cancellation
    q         : nome exp(-pi K'/K)
    landen    : (2^N a_N, c_N/a_N, ..., c_1/a_1) of the AGM at k, for jacobi_cn
    """

    k: float
    kprime: float
    K: float
    E: float
    Kprime: float
    D: float
    dD: float
    q: float
    landen: tuple[float, ...]

    @classmethod
    @lru_cache(maxsize=256, typed=True)
    def from_modulus(cls, k: float) -> "EllipticContext":
        """Context of modulus k; cached, since the cn^2 stability terms and cn revisit moduli."""
        # -0.0 and 0.0 share a cache entry, so both build the context of 0.0
        k = _check_modulus(k) + 0.0
        kprime = math.sqrt((1.0 - k) * (1.0 + k))
        K, E, D, U, landen = _complete_KED(k)
        # K(k') from the AGM of (1, k): sqrt((1 - k')(1 + k')) has lost
        # the digits of a small k (it is 0 below k ~ 1e-8)
        Kprime = _complete_KED(kprime, k)[0] if k > 0.0 else math.inf
        return cls(
            k=k,
            kprime=kprime,
            K=K,
            E=E,
            Kprime=Kprime,
            D=D,
            dD=K * k * (0.5 - (2.0 - k * k) * U) / ((1.0 - k) * (1.0 + k)),
            q=math.exp(-math.pi * Kprime / K) if k > 0.0 else 0.0,
            landen=landen,
        )
