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
import sys
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


def _csch_series(head: float, pref: float, ratio: float, power: int,
                 n_max: int) -> CoeffSequence:
    """u_hat(0) = head, u_hat(n) = pref n^power csch(n ratio) for 1 <= n <= n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    vals = np.zeros(n_max + 1)
    vals[0] = head
    for n in range(1, n_max + 1):
        x = n * ratio
        if x > CSCH_OVERFLOW:
            break
        vals[n] = pref * n ** power * (1.0 / math.sinh(x))
    return CoeffSequence(values=vals)


def cn2_coeffs(cn: CnoidalParams, n_max: int) -> CoeffSequence:
    """Analytic coefficients of the cn^2 cnoidal profile."""
    ctx = EllipticContext.from_modulus(cn.modulus)
    L = cn.half_period
    return _csch_series((2.0 * cn.emm * ctx.K / L ** 2) * (ctx.K - ctx.D),
                        cn.emm * math.pi ** 2 / (L ** 2 * cn.modulus ** 2),
                        math.pi * ctx.Kprime / ctx.K, 1, n_max)


def cn4_coeffs_halfmodulus(profile: WaveProfile, n_max: int) -> CoeffSequence:
    """Analytic coefficients of the cn^4 profile (modulus sqrt2/2 enforced)."""
    if profile.family != FIFTH_CNOIDAL:
        raise ValueError("half-modulus cn^4 coefficients are defined for the "
                         f"{FIFTH_CNOIDAL!r} family only")
    p = profile.params
    return _csch_series(5.0 * p.c / (6.0 * p.gamma),
                        5.0 * p.c * math.pi ** 4 / (6.0 * p.gamma * CN4_K ** 4),
                        math.pi, 3, n_max)


def analytic_coeffs(profile: WaveProfile, n_max: int) -> CoeffSequence:
    """Analytic coefficients of a cnoidal profile, cn^2 or cn^4 by its family."""
    if profile.family == KDV_CNOIDAL:
        return cn2_coeffs(profile.cnoidal, n_max)
    if profile.family == FIFTH_CNOIDAL:
        return cn4_coeffs_halfmodulus(profile, n_max)
    raise ValueError(f"no analytic coefficients for the {profile.family!r} family")


def dft_cosine_coeffs(u: np.ndarray, n_max: int) -> CoeffSequence:
    """Cosine coefficients of samples on the grid xi_j = ((2j - N)/N) L.

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
    vals = np.zeros(n_max + 1)
    vals[0] = spec[0].real / n_samp
    vals[1:] = (-1.0) ** np.arange(1, n_max + 1) * spec[1:n_max + 1].real / n_samp
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
    scale: float
    tolerance: float


# the largest entry whose square is finite
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)
# the rounding floor of a minor that vanishes exactly, relative to max(a)^2
_PF2_TOL_FACTOR = 1e-14


def _twosided_values(seq) -> tuple[np.ndarray, int]:
    """Return (values over n = -R..R, R) from a CoeffSequence or odd array."""
    if isinstance(seq, CoeffSequence):
        return seq.two_sided(), seq.n_max
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1 or len(arr) % 2 == 0:
        raise ValueError("raw sequences must be one-dimensional with odd length "
                         "(values for n = -R..R)")
    return arr, len(arr) // 2


def _least_minor(values: np.ndarray, reach: int, w: int) -> float:
    """The least minor on window w, inf when none is defined; see pf2_check."""
    span = 2 * w
    # a(k) sits at a[off + k], NaN beyond min(reach, 2w)
    off = 2 * span
    a = np.full(2 * off + 1, np.nan)
    r = min(reach, span)
    a[off - r:off + r + 1] = values[reach - r:reach + r + 1]
    # rows: s = 2c (shift 0), then s = 2c + 1 (shift 1), c = 1 - 2w .. 2w - 1;
    # table[s, u] = a(c + shift + u) a(c - u) for u = 0 .. 2w
    n_c = 2 * span - 1
    # ahead[t, u] = a(t - off + u), a strided view of a; sliding_window_view
    # gives the same in 20 us instead of 1 and leaves the process holding
    # about 1 MB more after a few thousand calls
    ahead = np.ndarray((len(a) - span, span + 1), buffer=a, strides=a.strides * 2)
    back = ahead[off - 2 * span + 1:off, ::-1]   # back[c, u] = a(c - u)
    table = np.empty((2 * n_c, span + 1))
    np.multiply(ahead[off - span + 1:off + span], back, out=table[:n_c])
    np.multiply(ahead[off - span + 2:off + span + 1], back, out=table[n_c:])
    # gap e = 1 .. 2w: i = c - e, j = c + shift + e, and the p of the class
    # lie at u <= min(e - 1, 2w - shift - e); odd s at e = 2w is all NaN
    gap = np.arange(1, span + 1)
    u_even, u_odd = np.minimum(gap - 1, span - gap), np.minimum(gap - 1, span - 1 - gap)
    u_odd[-1] = 0
    running = np.fmin.accumulate(table[:, :w], axis=1)   # every u bound is below w
    row_least = np.empty((2 * n_c, span))
    np.take(running[:n_c], u_even, axis=1, out=row_least[:n_c])
    np.take(running[n_c:], u_odd, axis=1, out=row_least[n_c:])
    del running
    row_least -= table[:, 1:]
    least = float(np.fmin.reduce(row_least, axis=None))
    return math.inf if math.isnan(least) else least


def pf2_check(seq, window: int = 12) -> Pf2Report:
    """Check every 2x2 Toeplitz minor a(n1-m1)a(n2-m2) - a(n1-m2)a(n2-m1).

    Indices n1 < n2 and m1 < m2 range over [-window, window]; quadruples
    whose differences leave the stored range are skipped, so sequences should
    carry at least 2*window coefficients for full coverage.  The verdict
    reads a(n) only for |n| <= 2*window: entries beyond that decide nothing.
    Minors are allowed to dip to -1e-14*scale with scale = max(a)^2, the
    floating-point floor for minors that vanish exactly.  Each log-concavity
    cell a(n)^2 - a(n-1)a(n+1) with |n| <= 2*window - 1 is one of these
    minors (n1 - m1 = n, n2 = n1 + 1, m2 = m1 + 1), in the same
    floating-point expression, so it needs no check of its own.

    With i = n1 - m2 < p = n1 - m1 < j = n2 - m1 and s = i + j, a minor is
    a(p)a(s-p) - a(i)a(j).  It depends on the quadruple only through the
    class (s, i, p), with p - i and j - p in 1..2w (w the window).

    Both products of a minor lie on the anti-diagonal s of the table
    a(x)a(y), so two tables hold them all: E[c, u] = a(c+u)a(c-u) for
    s = 2c and O[c, u] = a(c+1+u)a(c-u) for s = 2c+1, each the product of
    two strided views of the sequence.  For the gap e = c - i the p of the
    classes lie at u <= min(e-1, 2w-e) (even s) or u <= min(e-1, 2w-1-e)
    (odd s), and a(i)a(j) is the same table at u = e.  So the least minor of
    every (s, i) is a running minimum along the row less one entry:
    O(window^2) time and memory, passing or failing.  It is bitwise the
    least of the row's minors: products commute exactly, and rounding is
    monotone, so fl(min x - y) = min fl(x - y).  Entries beyond
    min(reach, 2w) are NaN and skipped (``np.fmin``), which leaves exactly
    the classes that stand for a quadruple.

    ``min_minor`` is the least minor over all quadruples, as computed in
    floating point (a zero may carry either sign), and inf when the window
    holds no minor.  When the tolerance would not be a normal float, the
    check and its report are of the sequence rescaled by a power of two to a
    largest entry in [0.5, 1), so that tiny sequences are judged like others.
    Entries that are not finite, or whose largest square overflows (and with
    it the tolerance, so every minor would pass), are rejected.

    Why both cnoidal families pass at every window: for n >= 1, u_hat(n) is
    proportional to n csch(n rho) (cn^2) or n^3 csch(n pi) (cn^4), and as sinh
    x > x, d^2/dn^2 log of these is -1/n^2 + rho^2 csch^2(n rho) < 0 or -3/n^2
    + pi^2 csch^2(n pi) < 0; a positive log-concave sequence is PF(2).  This
    covers every cell with |n| >= 2; those that read u_hat(0) stay checked.
    """
    values, reach = _twosided_values(seq)
    # NaN and +-inf reach the least or the largest entry; the initial 0.0
    # changes neither check and leaves an empty sequence trivial
    lo, hi = np.min(values, initial=0.0), np.max(values, initial=0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("PF(2) check needs finite coefficients; the sequence holds inf or NaN")
    if lo < 0.0 or not hi > 0.0:
        raise ValueError("PF(2) check expects a nonnegative, nontrivial sequence")
    if hi > _SQRT_FLOAT_MAX:
        raise ValueError(f"the square of the largest entry {hi:.3e} overflows")
    if window < 0:
        raise ValueError(f"window must be nonnegative, got {window!r}")
    scale = float(hi ** 2)
    tol = _PF2_TOL_FACTOR * scale
    if not tol >= sys.float_info.min:
        # an underflowing tolerance passes every minor that underflows with
        # it; PF(2) is scale-free, so decide (and report) on the sequence
        # scaled exactly by a power of two to a largest entry in [0.5, 1)
        values = np.ldexp(values, -math.frexp(hi)[1])
        scale = float(np.max(values) ** 2)
        tol = _PF2_TOL_FACTOR * scale
    min_minor = _least_minor(values, reach, window) if window else math.inf
    return Pf2Report(
        passed=min_minor >= -tol,
        window=window,
        min_minor=min_minor,
        scale=scale,
        tolerance=tol,
    )
