"""Complete elliptic integrals and the Jacobi cn function.

K and E come from one arithmetic-geometric mean iteration, cn from the
descending Landen (Gauss) transformation built on the same AGM sequence.
Both converge quadratically, so every value here is good to a few ulps
without any series-truncation tuning.  An :class:`EllipticContext` holds
K, E, D and the nome of a modulus for two AGM runs, one at k and one at k'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EllipticContext",
    "complete_K",
    "complete_E",
    "legendre_D",
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


def _check_modulus(k: float, *, allow_one: bool = False) -> float:
    k = float(k)
    if not math.isfinite(k) or k < 0.0 or k > 1.0 or (k == 1.0 and not allow_one):
        hi = "1" if allow_one else "1)"
        lo = "[0, " + hi
        raise ValueError(f"modulus must lie in {lo}, got {k!r}")
    return k


def _agm_sequence(k: float):
    """AGM sequences (a_n, c_n) starting from a0=1, b0=k', c0=k."""
    a = [1.0]
    b = math.sqrt((1.0 - k) * (1.0 + k))
    c = [k]
    # the gap can stall at half an ulp of a, so the cutoff is one relative ulp
    while abs(c[-1]) > 2.3e-16 * a[-1]:
        if len(a) > _MAX_AGM_ITER:
            raise RuntimeError(f"AGM failed to converge for k={k!r}")
        a_prev = a[-1]
        a.append(0.5 * (a_prev + b))
        c.append(0.5 * (a_prev - b))
        b = math.sqrt(a_prev * b)
    return a, c


def _complete_KED(k: float) -> tuple[float, float, float]:
    """K, E and D = (K - E)/k^2 from one AGM run; below k = 0.02 D is legendre_D's series."""
    a, c = _agm_sequence(k)
    csum = 0.0
    power = 0.5
    for cn_ in c:
        csum += power * cn_ * cn_
        power *= 2.0
    K = math.pi / (2.0 * a[-1])
    E = K * (1.0 - csum)
    if k < 0.02:
        k2 = k * k
        D = (math.pi / 4.0) * (1.0 + k2 * (3.0 / 8.0 + k2 * (15.0 / 64.0 + k2 * 175.0 / 1024.0)))
        return K, E, D
    return K, E, (K - E) / (k * k)


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi/(2 agm(1, k'))."""
    return _complete_KED(_check_modulus(k))[0]


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind.

    Uses the AGM relation E = K (1 - sum_n 2^{n-1} c_n^2).  E(1) = 1 is
    returned exactly (K diverges there, E does not).
    """
    k = _check_modulus(k, allow_one=True)
    if k == 1.0:
        return 1.0
    return _complete_KED(k)[1]


def legendre_D(k: float) -> float:
    """Legendre integral D(k) = (K - E)/k^2.

    The difference K - E cancels catastrophically for small k, so below
    k = 0.02 the Maclaurin series (pi/4)(1 + 3k^2/8 + 15k^4/64 + 175k^6/1024)
    is used instead; its truncation error is below 1e-16 there.  The k -> 0
    limit is pi/4.
    """
    k = _check_modulus(k)
    return _complete_KED(k)[2]


def jacobi_cn(z, k: float):
    """Jacobi cn(z, k) by the descending Landen transformation; cn(z, 0) = cos z.

    z is reduced modulo the full period 4K first, so cn(z + 4K) = cn(z) to
    rounding.  Scalars or arrays; a few ulps absolute for 0 <= k <= 1 - 1e-10.
    """
    k = _check_modulus(k)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("argument of the elliptic functions must be finite")
    if k < _TRIG_LIMIT:
        return np.cos(z)

    # evaluate on |z| so that cn is even bit-for-bit
    z = np.abs(z)
    a, c = _agm_sequence(k)
    n_last = len(a) - 1
    K = math.pi / (2.0 * a[-1])
    z = np.mod(z + 2.0 * K, 4.0 * K) - 2.0 * K

    phi = (2.0 ** n_last) * a[-1] * z
    for n in range(n_last, 0, -1):
        phi = 0.5 * (phi + np.arcsin(np.clip(c[n] / a[n] * np.sin(phi), -1.0, 1.0)))
    cn = np.cos(phi)
    return float(cn) if cn.ndim == 0 else cn


@dataclass(frozen=True)
class EllipticContext:
    """All elliptic quantities for one modulus, cached at construction.

    Attributes
    ----------
    k, kprime : modulus and complementary modulus, k^2 + k'^2 = 1
    K, E      : complete integrals of the first and second kind at k
    Kprime    : K(k'), infinite at k = 0 in exact arithmetic (stored as inf)
    D         : Legendre integral (K - E)/k^2
    q         : nome exp(-pi K'/K)
    """

    k: float
    kprime: float
    K: float
    E: float
    Kprime: float
    D: float
    q: float

    @classmethod
    def from_modulus(cls, k: float) -> "EllipticContext":
        k = _check_modulus(k)
        kprime = math.sqrt((1.0 - k) * (1.0 + k))
        K, E, D = _complete_KED(k)
        Kprime = complete_K(kprime) if k > 0.0 else math.inf
        return cls(
            k=k,
            kprime=kprime,
            K=K,
            E=E,
            Kprime=Kprime,
            D=D,
            q=math.exp(-math.pi * Kprime / K) if k > 0.0 else 0.0,
        )
