"""Analytic Fourier coefficients of the cnoidal profiles and the PF(2) test.

Transform convention (used by every producer and consumer in this package):
a profile with half-period L is represented by the symmetric sequence
u_hat(n) = u_hat(-n) = (1/2L) int_{-L}^{L} u(xi) exp(-i n pi xi / L) dxi,
so that

    u(xi) = u_hat(0) + sum_{n>=1} 2 u_hat(n) cos(n pi xi / L)

and Parseval holds with no extra weights:

    sum_{n in Z} u_hat(n)^2 = (1/2L) int_{-L}^{L} u(xi)^2 dxi.

This (rather than the plain cosine coefficient) is the sequence whose
2x2 Toeplitz minors decide PF(2); with the doubled cosine coefficients in
the n != 0 slots the origin minor u_hat(0)^2 - u_hat(1)^2 goes negative
for moduli above ~0.7 and the positivity framework would collapse.

Closed forms implemented below (q = exp(-pi K'/K), so that
q^n/(1 - q^{2n}) = csch(n pi K'/K)/2):

* cn^2 wave:   u_hat(0) = (2 M K / L^2)(K - D),
               u_hat(n) = (M pi^2 / L^2 k^2) n csch(n pi K'/K);
* cn^4 wave at modulus sqrt2/2:
               u_hat(0) = 5c/6g,
               u_hat(n) = (5 c pi^4 / 6 g K^4) n^3 csch(n pi).

Terms whose csch argument passes ``CSCH_OVERFLOW`` are exact zeros.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .elliptic import CSCH_OVERFLOW, EllipticContext
from .waves import CN4_K, FIFTH_CNOIDAL, KDV_CNOIDAL, CnoidalParams, WaveProfile

__all__ = [
    "CoeffSequence",
    "Pf2Report",
    "AliasingWarning",
    "analytic_coeffs",
    "cn2_coeffs",
    "cn4_coeffs_halfmodulus",
    "dft_cosine_coeffs",
    "dft_coeffs",
    "pf2_check",
]


class AliasingWarning(UserWarning):
    pass


def _csch(x: float) -> float:
    return 1.0 / math.sinh(x)


@dataclass(frozen=True, eq=False)
class CoeffSequence:
    """Symmetric cosine-coefficient sequence indexed by n in [-n_max, n_max].

    Only n >= 0 is stored; symmetry coeff(-n) = coeff(n) is structural.
    The values follow the transform convention of the module docstring.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> float:
        n = abs(int(n))
        if n > self.n_max:
            raise IndexError(f"coefficient index {n} beyond truncation {self.n_max}")
        return float(self.values[n])

    def two_sided(self) -> np.ndarray:
        """Array of coeff(n) for n = -n_max .. n_max."""
        return np.concatenate([self.values[:0:-1], self.values])


def cn2_coeffs(cn: CnoidalParams, n_max: int) -> CoeffSequence:
    """Analytic coefficients of the cn^2 cnoidal profile."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ctx = EllipticContext.from_modulus(cn.modulus)
    L = cn.half_period
    vals = np.zeros(n_max + 1)
    vals[0] = (2.0 * cn.emm * ctx.K / L ** 2) * (ctx.K - ctx.D)
    ratio = math.pi * ctx.Kprime / ctx.K
    pref = cn.emm * math.pi ** 2 / (L ** 2 * cn.modulus ** 2)
    for n in range(1, n_max + 1):
        x = n * ratio
        if x > CSCH_OVERFLOW:
            break
        vals[n] = pref * n * _csch(x)
    return CoeffSequence(values=vals)


def cn4_coeffs_halfmodulus(profile: WaveProfile, n_max: int) -> CoeffSequence:
    """Analytic coefficients of the cn^4 profile (modulus sqrt2/2 enforced)."""
    if profile.family != FIFTH_CNOIDAL:
        raise ValueError("half-modulus cn^4 coefficients are defined for the "
                         f"{FIFTH_CNOIDAL!r} family only")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = profile.params
    vals = np.zeros(n_max + 1)
    vals[0] = 5.0 * p.c / (6.0 * p.gamma)
    pref = 5.0 * p.c * math.pi ** 4 / (6.0 * p.gamma * CN4_K ** 4)
    for n in range(1, n_max + 1):
        x = n * math.pi
        if x > CSCH_OVERFLOW:
            break
        vals[n] = pref * n ** 3 * _csch(x)
    return CoeffSequence(values=vals)


def analytic_coeffs(profile: WaveProfile, n_max: int) -> CoeffSequence:
    """Analytic coefficients of a cnoidal profile, cn^2 or cn^4 by its family."""
    if profile.family == KDV_CNOIDAL:
        return cn2_coeffs(profile.cnoidal, n_max)
    if profile.family == FIFTH_CNOIDAL:
        return cn4_coeffs_halfmodulus(profile, n_max)
    raise ValueError(f"no analytic coefficients for the {profile.family!r} family")


def dft_cosine_coeffs(u: np.ndarray, n_max: int) -> CoeffSequence:
    """Cosine coefficients of samples on the grid xi_j = -L + j (2L/N).

    This is the numerical oracle for the analytic formulas; it conforms to
    the module convention.  Warns when the content near the Nyquist scale
    exceeds 1e-12 of coeff(0), since then truncation/aliasing matters.
    """
    u = np.asarray(u, dtype=float)
    n_samp = len(u)
    if n_samp < 8 * n_max:
        raise ValueError(f"need at least 8*n_max = {8 * n_max} samples, got {n_samp}")
    spec = np.fft.rfft(u)
    # the grid starts at -L, half a period before the transform origin
    signs = (-1.0) ** np.arange(len(spec))
    vals = np.zeros(n_max + 1)
    vals[0] = spec[0].real / n_samp
    vals[1:] = signs[1:n_max + 1] * spec[1:n_max + 1].real / n_samp
    nyq_band = np.max(np.abs(spec[-max(2, n_samp // 64):])) / n_samp
    scale = max(abs(vals[0]), float(np.max(np.abs(spec))) / n_samp)
    if scale > 0 and nyq_band > 1e-12 * scale:
        warnings.warn(
            f"Nyquist-scale content {nyq_band:.2e} exceeds 1e-12 of the "
            "leading coefficient; increase the sample count",
            AliasingWarning,
        )
    return CoeffSequence(values=vals)


def dft_coeffs(profile: WaveProfile, n_max: int) -> CoeffSequence:
    """Discrete-transform coefficients of a periodic profile's samples."""
    if not profile.periodic:
        raise ValueError("dft_coeffs needs a periodic profile")
    return dft_cosine_coeffs(profile.u, n_max)


# ---------------------------------------------------------------------------
# PF(2): 2x2 Toeplitz minors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pf2Report:
    """Outcome of the discrete PF(2) minor check on an index window."""

    passed: bool
    window: int
    min_minor: float
    min_location: tuple  # (n1, n2, m1, m2)
    scale: float
    log_concavity_ok: bool
    min_log_concavity: float
    tolerance: float
    failures: int = 0


def _twosided_values(seq) -> tuple[np.ndarray, int]:
    """Return (values over n = -R..R, R) from a CoeffSequence or odd array."""
    if isinstance(seq, CoeffSequence):
        return seq.two_sided(), seq.n_max
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1 or len(arr) % 2 == 0:
        raise ValueError("raw sequences must be one-dimensional with odd length "
                         "(values for n = -R..R)")
    return arr, len(arr) // 2


def pf2_check(seq, window: int = 12, tol_factor: float = 1e-14) -> Pf2Report:
    """Check every 2x2 Toeplitz minor a(n1-m1)a(n2-m2) - a(n1-m2)a(n2-m1).

    Indices n1 < n2 and m1 < m2 range over [-window, window]; quadruples
    whose differences leave the stored range are skipped, so sequences should
    carry at least 2*window coefficients for full coverage.  Minors are
    allowed to dip to -tol_factor*scale with scale = max(a)^2, the
    floating-point floor for minors that vanish exactly.  The log-concavity
    corollary a(n)^2 >= a(n-1)a(n+1) is reported separately.

    A minor depends on its quadruple only through p = n1 - m1, dn = n2 - n1
    and dm = m2 - m1, as a(p)a(p+dn-dm) - a(p-dm)a(p+dn), so each class
    (p, dn, dm) is evaluated once, as prod(dn-dm, p) - prod(dn+dm, p-dm)
    from one table prod(e, i) = a(i)a(i+e) that is NaN where an index leaves
    the stored range.  For each dm the (dn, p) plane is the difference of two
    row slices, and its NaN-skipping minimum (``np.fmin``) is the least
    checked minor: O(window^3) time, O(window^2) memory.  A class stands
    for the quadruples with n1 in [max(-w, p-w), min(w-dn, p+w-dm)], w the
    window; ``failures`` counts those quadruples.  ``min_location`` is the
    lexicographically first (n1, n2, m1, m2) among all quadruples tied at the
    minimum; with no finite minor it is (-w, -w, -w, -w) and the minimum inf.
    Entries that are not finite, or whose largest square overflows (and with
    it the tolerance, so every minor would pass), are rejected.
    """
    values, reach = _twosided_values(seq)
    if not np.all(np.isfinite(values)):
        raise ValueError("PF(2) check needs finite coefficients; the sequence holds inf or NaN")
    if np.any(values < 0.0) or not np.any(values > 0.0):
        raise ValueError("PF(2) check expects a nonnegative, nontrivial sequence")
    if np.max(values) > math.sqrt(np.finfo(float).max):
        raise ValueError(f"the square of the largest entry {np.max(values):.3e} overflows")
    if window < 0:
        raise ValueError(f"window must be nonnegative, got {window!r}")
    w = window
    scale = float(np.max(values) ** 2)
    tol = tol_factor * scale

    # a(k) sits at a[off + k], NaN beyond min(reach, 2w).  The differences
    # of a quadruple lie in [-2w, 2w], and a class stands for no quadruple
    # exactly when it reads a(p - dm) or a(p + dn) beyond 2w, so the finite
    # minors are the checked ones.  prod[e + 2w - 1, i + 2w] = a(i) a(i + e)
    # for i in [-2w, 2w] and e in [1 - 2w, 4w].
    span = 2 * w
    off = 2 * span
    a = np.full(5 * span + 1, np.nan)
    r = min(reach, span)
    a[off - r:off + r + 1] = values[reach - r:reach + r + 1]
    i = np.arange(off - span, off + span + 1)
    prod = a[i] * a[i + np.arange(1 - span, 2 * span + 1)[:, None]]
    dn = np.arange(1, span + 1)[:, None]
    p = np.arange(-span, span + 1)
    lo = np.maximum(-w, p - w)

    min_minor, location = math.inf, (-w, -w, -w, -w)
    failures = 0
    for dm in range(1, span + 1):
        # dn = 1..2w down, p = dm - 2w..2w across; a smaller p reads
        # a(p - dm) below -2w, so its minors would all be NaN
        minor = (prod[span - dm:2 * span - dm, dm:]
                 - prod[span + dm:2 * span + dm, :2 * span + 1 - dm])
        least = float(np.fmin.reduce(minor, axis=None))
        p_dm, lo_dm = p[dm:], lo[dm:]
        if least < -tol:
            count = np.minimum(w - dn, p_dm + w - dm) - lo_dm + 1
            failures += int(np.sum(count[minor < -tol]))
        if math.isnan(least) or least > min_minor:
            continue
        idn, ip = np.nonzero(minor == least)
        n1 = lo_dm[ip]
        n2 = n1 + dn[idn, 0]
        m1 = n1 - p_dm[ip]
        first = np.lexsort((m1, n2, n1))[0]
        candidate = (int(n1[first]), int(n2[first]), int(m1[first]), int(m1[first]) + dm)
        if least < min_minor or candidate < location:
            min_minor = float(minor[idn[first], ip[first]])
            location = candidate

    # log-concavity across the stored range
    lc = values[1:-1] ** 2 - values[:-2] * values[2:]
    min_lc = float(np.min(lc)) if len(lc) else 0.0
    lc_ok = min_lc >= -tol

    return Pf2Report(
        passed=(min_minor >= -tol) and lc_ok,
        window=window,
        min_minor=min_minor,
        min_location=location,
        scale=scale,
        log_concavity_ok=lc_ok,
        min_log_concavity=min_lc,
        tolerance=tol,
        failures=failures,
    )
