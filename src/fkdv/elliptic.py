"""Complete elliptic integrals, the nome, and the Jacobi cn function.

K and E are computed with the arithmetic-geometric mean iteration, cn with
the descending Landen (Gauss) transformation built on the same AGM sequence.
Both converge quadratically, so every value here is good to a few ulps
without any series-truncation tuning.  All downstream modules consume these
through :class:`EllipticContext`.
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
    "nome",
    "jacobi_cn",
    "jacobi_sn_cn_dn",
]

# Below this modulus the elliptic functions are replaced by their
# trigonometric limits; the neglected terms are O(k^2) < 1e-16.
_TRIG_LIMIT = 1e-8

_MAX_AGM_ITER = 64


def _check_modulus(k: float, *, allow_one: bool = False) -> float:
    k = float(k)
    if not math.isfinite(k) or k < 0.0 or k > 1.0 or (k == 1.0 and not allow_one):
        hi = "1" if allow_one else "1)"
        lo = "[0, " + hi
        raise ValueError(f"modulus must lie in {lo}, got {k!r}")
    return k


def _agm_sequence(k: float):
    """AGM triple (a_n, b_n, c_n) starting from a0=1, b0=k', c0=k."""
    a = [1.0]
    b = [math.sqrt((1.0 - k) * (1.0 + k))]
    c = [k]
    # the gap can stall at half an ulp of a, so the cutoff is one relative ulp
    while abs(c[-1]) > 2.3e-16 * a[-1]:
        if len(a) > _MAX_AGM_ITER:
            raise RuntimeError(f"AGM failed to converge for k={k!r}")
        a_next = 0.5 * (a[-1] + b[-1])
        b_next = math.sqrt(a[-1] * b[-1])
        c_next = 0.5 * (a[-1] - b[-1])
        a.append(a_next)
        b.append(b_next)
        c.append(c_next)
    return a, b, c


def complete_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi/(2 agm(1, k'))."""
    k = _check_modulus(k)
    a, _, _ = _agm_sequence(k)
    return math.pi / (2.0 * a[-1])


def complete_E(k: float) -> float:
    """Complete elliptic integral of the second kind.

    Uses the AGM relation E = K (1 - sum_n 2^{n-1} c_n^2).  E(1) = 1 is
    returned exactly (K diverges there, E does not).
    """
    k = _check_modulus(k, allow_one=True)
    if k == 1.0:
        return 1.0
    a, _, c = _agm_sequence(k)
    csum = 0.0
    power = 0.5
    for cn_ in c:
        csum += power * cn_ * cn_
        power *= 2.0
    K = math.pi / (2.0 * a[-1])
    return K * (1.0 - csum)


def legendre_D(k: float) -> float:
    """Legendre integral D(k) = (K - E)/k^2.

    The difference K - E cancels catastrophically for small k, so below
    k = 0.02 the Maclaurin series (pi/4)(1 + 3k^2/8 + 15k^4/64 + 175k^6/1024)
    is used instead; its truncation error is below 1e-16 there.  The k -> 0
    limit is pi/4.
    """
    k = _check_modulus(k)
    if k < 0.02:
        k2 = k * k
        return (math.pi / 4.0) * (1.0 + k2 * (3.0 / 8.0 + k2 * (15.0 / 64.0 + k2 * 175.0 / 1024.0)))
    return (complete_K(k) - complete_E(k)) / (k * k)


def nome(k: float) -> float:
    """Elliptic nome q = exp(-pi K'/K); q = 0 at k = 0."""
    k = _check_modulus(k)
    if k == 0.0:
        return 0.0
    kprime = math.sqrt((1.0 - k) * (1.0 + k))
    return math.exp(-math.pi * complete_K(kprime) / complete_K(k))


def jacobi_sn_cn_dn(z, k: float):
    """Jacobi sn, cn, dn via the descending Landen transformation.

    The argument is reduced modulo the full period 4K before the phase
    recursion, so periodicity holds to rounding.  Accepts scalars or arrays;
    absolute accuracy is a few ulps for 0 <= k <= 1 - 1e-10.
    """
    k = _check_modulus(k)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("argument of the elliptic functions must be finite")
    if k < _TRIG_LIMIT:
        return np.sin(z), np.cos(z), np.ones_like(z)

    # evaluate on |z| so that cn is even and sn odd bit-for-bit
    sign = np.sign(z)
    z = np.abs(z)

    a, _, c = _agm_sequence(k)
    n_last = len(a) - 1
    K = math.pi / (2.0 * a[-1])
    z = np.mod(z + 2.0 * K, 4.0 * K) - 2.0 * K

    phi = (2.0 ** n_last) * a[-1] * z
    phi_prev = phi
    for n in range(n_last, 0, -1):
        phi_prev = phi
        phi = 0.5 * (phi + np.arcsin(np.clip(c[n] / a[n] * np.sin(phi), -1.0, 1.0)))
    sn = np.sin(phi) * sign
    cn = np.cos(phi)
    denom = np.cos(phi_prev - phi)
    dn = np.where(np.abs(denom) > 1e-300, cn / np.where(denom == 0.0, 1.0, denom), 1.0)
    if sn.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn


def jacobi_cn(z, k: float):
    """Jacobi cn(z, k); cn(z, 0) = cos z, cn(z + 4K) = cn(z)."""
    return jacobi_sn_cn_dn(z, k)[1]


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
        K = complete_K(k)
        E = complete_E(k)
        Kprime = complete_K(kprime) if k > 0.0 else math.inf
        return cls(
            k=k,
            kprime=kprime,
            K=K,
            E=E,
            Kprime=Kprime,
            D=legendre_D(k),
            q=math.exp(-math.pi * Kprime / K) if k > 0.0 else 0.0,
        )
