"""Stability functionals for the four traveling-wave families.

The sign test throughout is I < 0, certified via growth of the squared
norm along the family:

* KdV soliton: the L^2 norm is closed-form, ||phi||^2 = 24 sqrt(a) c^{3/2}
  / g^2, so d/dc ||phi||^2 = 36 sqrt(a c) / g^2 > 0 outright.
* Fifth-order soliton: the speed is pinned by the medium, so there is no
  family to differentiate; the sign of I comes from a Gegenbauer-type
  gamma-function series with terms b_j (b_0 < 0, b_j > 0 for j >= 1), and
  stability follows from sum_{j>=1} b_j < |b_0|.
* cn^2 / cn^4 cnoidal waves: I = -(L/2) d/dc of the two-sided coefficient
  sequence norm; the derivative is formed with Richardson-extrapolated
  central differences, and for cn^2 the four-term sign decomposition of the
  product rule is evaluated term by term.

Differentiating the cn^2 norm in c is ambiguous about what is held fixed;
both readings are implemented: ``fixed-flux`` holds the mass flux constant
(the wavelength then drifts with c), ``fixed-period`` re-solves the flux at
each c so the wavelength stays put (the setting of the periodic stability
framework).  The four sign terms are always evaluated in the frozen-L
partial sense that matches their derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

from .elliptic import CSCH_OVERFLOW, EllipticContext
from .waves import (CN4_K, FIFTH_CNOIDAL, FIFTH_SOLITON, KDV_CNOIDAL, KDV_SOLITON,
                    cn2_params, cn4_wavelength, write_csv)

__all__ = [
    "GegenbauerSeriesSpec",
    "StabilityReport",
    "StepSizeError",
    "kdv_soliton_norm_sq",
    "kdv_soliton_norm_derivative",
    "gegenbauer_terms",
    "gegenbauer_terms_explicit",
    "gegenbauer_verdict",
    "cn2_ell2_norm_sq",
    "cn4_ell2_norm_sq",
    "cn4_series_constant",
    "solve_flux_for_wavelength",
    "cn2_norm_derivative",
    "cn4_norm_derivative",
    "family_reports",
    "reports_to_csv",
]

_SERIES_CAP = 400          # hard cap on coefficient sums in n
_SERIES_REL_FLOOR = 1e-18  # stop once the next term is this small relatively


class StepSizeError(RuntimeError):
    """Richardson derivatives at the two step sizes disagree."""


@dataclass(frozen=True)
class StabilityReport:
    """Evaluated stability functional for one family member.

    ``verdict`` is "stable" only when the sign test is certified
    (I < 0, equivalently norm_derivative > 0); "inconclusive" when a tail
    bound is too loose to decide; "not-stable-hypotheses" otherwise.
    ``terms`` carries the named sign contributions where a decomposition
    exists.
    """

    family: str
    c: float
    norm_derivative: float | None
    functional_i: float | None
    verdict: str
    mode: str | None = None
    terms: dict | None = None
    partial_sum: float | None = None
    tail_bound: float | None = None
    series: np.ndarray | None = None

    def summary(self) -> str:
        lines = [f"family={self.family} c={self.c:g} verdict={self.verdict}"]
        if self.norm_derivative is not None:
            lines.append(f"  d/dc squared norm = {self.norm_derivative:.9g}"
                         + (f"  [{self.mode}]" if self.mode else ""))
        if self.functional_i is not None:
            lines.append(f"  I = {self.functional_i:.9g}")
        if self.partial_sum is not None:
            lines.append(f"  partial sum = {self.partial_sum:.9g}, "
                         f"tail bound = {self.tail_bound:.3g}")
        if self.terms:
            for name, val in self.terms.items():
                lines.append(f"  term {name} = {val:.9g}")
        return "\n".join(lines)


def _sign_verdict(norm_derivative: float) -> str:
    return "stable" if norm_derivative > 0.0 else "not-stable-hypotheses"


# ---------------------------------------------------------------------------
# KdV soliton: closed-form norm
# ---------------------------------------------------------------------------

def kdv_soliton_norm_sq(gamma: float, alpha: float, c: float) -> float:
    """||phi_c||^2_{L^2(R)} = 24 alpha^{1/2} c^{3/2} / gamma^2."""
    if alpha <= 0.0 or c <= 0.0:
        raise ValueError("closed-form norm requires alpha > 0 and c > 0")
    return 24.0 * math.sqrt(alpha) * c ** 1.5 / gamma ** 2


def kdv_soliton_norm_derivative(gamma: float, alpha: float, c: float) -> float:
    """d/dc ||phi_c||^2 = 36 sqrt(alpha c) / gamma^2, positive for all c > 0."""
    if alpha <= 0.0 or c <= 0.0:
        raise ValueError("norm derivative requires alpha > 0 and c > 0")
    return 36.0 * math.sqrt(alpha * c) / gamma ** 2


# ---------------------------------------------------------------------------
# Gegenbauer series for the fixed-speed sech^4 soliton
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GegenbauerSeriesSpec:
    """Order parameters of the gamma-function series for I.

    With r = 4, n = 2 (the sech^4 case) the series term reduces to

        b_j = 1680 (2j + 11/2)(j+1)^2 (j + 9/2)^2 (2j)!
              / { [(2j+4)(2j+5)(2j+6)(2j+7) - 1680] (2j+10)! }

    and lambda_1 = 1, lambda_{2j} in (0, 1) for j >= 1 while lambda_0 = 2,
    which is what makes b_0 the single negative term.
    """

    r = 4.0  # not fields: the orders are constants
    n = 2.0
    gamma_coef: float = 1.0

    @property
    def prefactor_a(self) -> float:
        return (self.gamma_coef * 2.0 ** (self.n + self.r - 1.0)
                * math.gamma(self.r) / (math.pi * math.gamma(self.n)))

    def lambda_m(self, m: float) -> float:
        r = self.r
        return math.exp(lgamma(r + m) - lgamma(r + 1.0)
                        + lgamma(r + 2.0 * self.n + 1.0)
                        - lgamma(r + 2.0 * self.n + m))

    def term(self, j: int) -> float:
        r, n = self.r, self.n
        lam = self.lambda_m(2.0 * j)
        mid = math.exp(lgamma(2.0 * j + 1.0) - lgamma(2.0 * j + 2.0 * n + 2.0 * r - 1.0))
        mid *= (2.0 * j + n + r - 0.5)
        sq = math.exp(2.0 * (lgamma(j + n) + lgamma(j + n + r - 0.5)
                             - lgamma(j + 1.0) - lgamma(j + r + 0.5)))
        return lam / (1.0 - lam) * mid * sq


def gegenbauer_terms(spec: GegenbauerSeriesSpec, jmax: int) -> np.ndarray:
    """Series terms b_0..b_jmax via the lambda/Gamma form, log-domain gammas."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    return np.array([spec.term(j) for j in range(jmax + 1)])


def gegenbauer_terms_explicit(jmax: int) -> np.ndarray:
    """b_0..b_jmax from the explicit r=4, n=2 factorial formula (cross-check)."""
    out = np.empty(jmax + 1)
    for j in range(jmax + 1):
        bracket = (2 * j + 4) * (2 * j + 5) * (2 * j + 6) * (2 * j + 7) - 1680
        lognum = (math.log(1680.0) + math.log(2 * j + 5.5)
                  + 2.0 * math.log(j + 1.0) + 2.0 * math.log(j + 4.5)
                  + lgamma(2 * j + 1.0))
        logden = math.log(abs(bracket)) + lgamma(2 * j + 11.0)
        out[j] = math.copysign(math.exp(lognum - logden), bracket)
    return out


def gegenbauer_verdict(spec: GegenbauerSeriesSpec, jmax: int = 200) -> StabilityReport:
    """Decide the sign of I from the partial sum plus a decay tail bound.

    The terms fall off like j^{-(2r+1)}, so the tail beyond jmax is bounded
    by the integral comparison b_jmax * jmax / 2r, padded by a factor 2
    because the prefactor of the power law is still drifting at moderate j.
    The verdict is "inconclusive" unless that bound is below 1% of the
    partial sum.
    """
    b = gegenbauer_terms(spec, jmax)
    if not b[0] < 0.0:
        raise ValueError("series leading term is not negative; the sign test "
                         "presupposes b_0 < 0")
    partial = float(np.sum(b[1:]))
    tail = 2.0 * b[-1] * jmax / (2.0 * spec.r)
    total = spec.prefactor_a * (b[0] + partial)
    if tail > 0.01 * partial:
        verdict = "inconclusive"
    elif partial + tail < abs(b[0]):
        verdict = "stable"
    else:
        verdict = "not-stable-hypotheses"
    return StabilityReport(
        family=FIFTH_SOLITON,
        c=float("nan"),
        norm_derivative=None,
        functional_i=total,
        verdict=verdict,
        terms={"b0": float(b[0])},
        partial_sum=partial,
        tail_bound=float(tail),
        series=b,
    )


# ---------------------------------------------------------------------------
# cn^2 family: sequence norm and its derivative in c
# ---------------------------------------------------------------------------

def _csch_sums(K: float, Kprime: float):
    """S2 = sum_{n != 0} n^2 csch^2(n pi K'/K) and S3 with the extra n coth."""
    ratio = math.pi * Kprime / K
    s2 = s3 = 0.0
    for n in range(1, _SERIES_CAP + 1):
        x = n * ratio
        if x > CSCH_OVERFLOW:
            break
        cs = 1.0 / math.sinh(x)
        t2 = n * n * cs * cs
        s2 += t2
        s3 += n * t2 / math.tanh(x)
        if t2 < _SERIES_REL_FLOOR * s2:
            break
    return 2.0 * s2, 2.0 * s3


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
    cn, ctx = cn2_params(gamma, alpha, c, flux_a)
    L = cn.half_period if half_period is None else half_period
    k, emm = cn.modulus, cn.emm
    s2, _ = _csch_sums(ctx.K, ctx.Kprime)
    head = (4.0 * emm ** 2 * ctx.K ** 2 / L ** 4) * (ctx.K - ctx.D) ** 2
    return head + (emm ** 2 * math.pi ** 4 / (L ** 4 * k ** 4)) * s2


def cn4_series_constant() -> float:
    """sum_{n != 0} n^6 csch^2(n pi), the parameter-free cn^4 series factor."""
    s = 0.0
    for n in range(1, _SERIES_CAP + 1):
        t = n ** 6 / math.sinh(n * math.pi) ** 2
        s += t
        if t < _SERIES_REL_FLOOR * s:
            break
    return 2.0 * s


_CN4_SERIES = cn4_series_constant()


def cn4_ell2_norm_sq(gamma: float, c: float) -> float:
    """25 c^2/(36 g^2) + (25 c^2 pi^8 / 36 g^2 K^8) sum_{n != 0} n^6 csch^2(n pi)."""
    return (25.0 * c ** 2 / (36.0 * gamma ** 2)
            + 25.0 * c ** 2 * math.pi ** 8 / (36.0 * gamma ** 2 * CN4_K ** 8)
            * _CN4_SERIES)


def _richardson(f, x: float, h: float) -> float:
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _richardson_checked(f, x: float, rel_steps=(1e-3, 1e-4), rel_tol: float = 1e-4) -> float:
    """Richardson derivative at two step scales; raise if they disagree."""
    d_coarse = _richardson(f, x, rel_steps[0] * abs(x))
    d_fine = _richardson(f, x, rel_steps[1] * abs(x))
    denom = max(abs(d_fine), 1e-300)
    if abs(d_coarse - d_fine) / denom > rel_tol:
        raise StepSizeError(
            f"derivative at x={x!r} differs across steps: {d_coarse!r} vs {d_fine!r}"
        )
    return d_fine


def _illinois(f, a: float, fa: float, b: float, fb: float) -> float:
    """Root of f between a and b, where f(a) and f(b) differ in sign.

    Regula falsi with the Illinois rule (halve the stale end's value when
    the same end moves twice), falling back to bisection whenever the
    secant point leaves the bracket.  Stops once the bracket or the last
    step is below 1e-14 + 8.9e-16 |x|, i.e. a few ulps of the root.
    """
    side = 0
    x = math.inf
    for _ in range(200):
        x_prev = x
        x = (a * fb - b * fa) / (fb - fa)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
            if side == 1:
                fb *= 0.5
            side = 1
        else:
            b, fb = x, fx
            if side == -1:
                fa *= 0.5
            side = -1
        tol = 1e-14 + 8.9e-16 * abs(x)
        if abs(b - a) <= tol or abs(x - x_prev) <= tol:
            return x
    raise RuntimeError("root iteration did not converge")


def solve_flux_for_wavelength(gamma: float, alpha: float, c: float,
                              wavelength: float, flux_guess: float = 1.0) -> float:
    """Mass flux making the cn^2 wavelength equal ``wavelength`` at speed c.

    The flux carries the sign of gamma (see :func:`cn2_params`), so the
    search runs over its magnitude, starting from ``abs(flux_guess)``.
    """
    sign = math.copysign(1.0, gamma)

    def objective(a):
        return cn2_params(gamma, alpha, c, sign * a)[0].wavelength - wavelength

    a = max(abs(flux_guess), 1e-12)
    fa = objective(a)
    if fa == 0.0:
        return sign * a
    # the wavelength decreases in |flux|: double or halve toward the sign change
    factor = 2.0 if fa > 0.0 else 0.5
    for _ in range(200):
        b = a * factor
        fb = objective(b)
        if fb == 0.0:
            return sign * b
        if (fb > 0.0) != (fa > 0.0):
            return sign * _illinois(objective, a, fa, b, fb)
        a, fa = b, fb
    raise RuntimeError("could not bracket the fixed-period flux")


def cn2_norm_derivative(gamma: float, alpha: float, c: float, flux_a: float,
                        mode: str = "fixed-flux") -> StabilityReport:
    """d/dc of the cn^2 coefficient norm plus the four-term sign decomposition.

    mode "fixed-flux": differentiate with flux_a constant, the L inside the
    norm following the wavelength.  mode "fixed-period": re-solve flux_a(c)
    so the wavelength is constant and freeze L at it.  The decomposition
    terms (i), (ii) (both positive), (iii) (identically zero) and (iv)
    (positive) are the product-rule pieces of the frozen-L partial
    derivative at fixed flux; their sum is reported next to a direct
    frozen-L derivative as a consistency check.
    """
    if mode not in ("fixed-flux", "fixed-period"):
        raise ValueError(f"unknown mode {mode!r}")
    cn, ctx = cn2_params(gamma, alpha, c, flux_a)
    L0 = cn.half_period

    if mode == "fixed-flux":
        deriv = _richardson_checked(
            lambda cc: cn2_ell2_norm_sq(gamma, alpha, cc, flux_a), c)
    else:
        def norm_fixed_period(cc):
            a_cc = solve_flux_for_wavelength(gamma, alpha, cc, cn.wavelength,
                                             flux_guess=flux_a)
            return cn2_ell2_norm_sq(gamma, alpha, cc, a_cc, half_period=L0)

        deriv = _richardson_checked(norm_fixed_period, c)

    # frozen-L partial derivative at fixed flux, and its four-term split
    frozen_direct = _richardson_checked(
        lambda cc: cn2_ell2_norm_sq(gamma, alpha, cc, flux_a, half_period=L0), c)

    def along_c(quantity):
        """Fixed-flux derivative in c of quantity(cn, ctx)."""
        return _richardson_checked(
            lambda cc: quantity(*cn2_params(gamma, alpha, cc, flux_a)), c)

    d_mk = along_c(lambda cn_c, ctx_c: cn_c.emm * ctx_c.K)
    d_kmd = along_c(lambda cn_c, ctx_c: ctx_c.K - ctx_c.D)
    d_emm = along_c(lambda cn_c, ctx_c: cn_c.emm)
    d_k = along_c(lambda cn_c, ctx_c: cn_c.modulus)

    k, emm = cn.modulus, cn.emm
    h_k = 1e-6
    dK_dk = _richardson(lambda q: EllipticContext.from_modulus(q).K, k, h_k)
    dKp_dk = _richardson(lambda q: EllipticContext.from_modulus(q).Kprime, k, h_k)
    s2, s3 = _csch_sums(ctx.K, ctx.Kprime)

    kmd = ctx.K - ctx.D
    term_i = (8.0 * emm * ctx.K / L0 ** 4) * kmd ** 2 * d_mk
    term_ii = (8.0 * emm ** 2 * ctx.K ** 2 / L0 ** 4) * kmd * d_kmd
    term_iii = (2.0 * emm * math.pi ** 4 / (L0 ** 4 * k ** 5)) * (k * d_emm - 2.0 * emm * d_k) * s2
    term_iv = (2.0 * math.pi ** 5 / L0 ** 4) * (emm / k ** 2) ** 2 \
        * ((ctx.Kprime * dK_dk - ctx.K * dKp_dk) / ctx.K ** 2) * d_k * s3

    terms = {
        "i": term_i,
        "ii": term_ii,
        "iii": term_iii,
        "iv": term_iv,
        "sum": term_i + term_ii + term_iii + term_iv,
        "frozen_direct": frozen_direct,
        "K_minus_D": kmd,
        "d_K_minus_D": d_kmd,
    }
    return StabilityReport(
        family=KDV_CNOIDAL,
        c=c,
        norm_derivative=deriv,
        functional_i=-0.5 * L0 * deriv,
        verdict=_sign_verdict(deriv),
        mode=mode,
        terms=terms,
    )


def cn4_norm_derivative(gamma: float, beta: float, c: float) -> StabilityReport:
    """d/dc of the cn^4 coefficient norm; the norm is proportional to c^2.

    K(sqrt2/2) is a constant of the family, so the derivative is exactly
    2/c times the norm and positivity is immediate for c > 0.
    """
    if c <= 0.0 or beta <= 0.0:
        raise ValueError("the cn^4 family needs c > 0 and beta > 0")
    norm = cn4_ell2_norm_sq(gamma, c)
    deriv = 2.0 * norm / c
    return StabilityReport(
        family=FIFTH_CNOIDAL,
        c=c,
        norm_derivative=deriv,
        functional_i=-0.25 * cn4_wavelength(beta, c) * deriv,
        verdict=_sign_verdict(deriv),
        terms={"norm": norm, "series_constant": _CN4_SERIES},
    )


def family_reports(family: str, gamma: float, alpha: float, beta: float, speeds,
                   flux_a: float, mode: str, jmax: int) -> list[StabilityReport]:
    """Stability reports of a family at each speed (and each mode for cn^2).

    ``mode`` "both" evaluates the cn^2 derivative in both readings.  The
    sech^4 soliton's speed is pinned by the medium, so it gives the single
    Gegenbauer report whatever ``speeds`` holds.
    """
    if family == FIFTH_SOLITON:
        return [gegenbauer_verdict(GegenbauerSeriesSpec(gamma_coef=gamma), jmax=jmax)]
    if family == KDV_SOLITON:
        derivs = [(c, kdv_soliton_norm_derivative(gamma, alpha, c)) for c in speeds]
        return [StabilityReport(family=family, c=c, norm_derivative=d, functional_i=None,
                                verdict=_sign_verdict(d)) for c, d in derivs]
    if family == KDV_CNOIDAL:
        modes = ("fixed-flux", "fixed-period") if mode == "both" else (mode,)
        return [cn2_norm_derivative(gamma, alpha, c, flux_a, mode=m)
                for c in speeds for m in modes]
    if family == FIFTH_CNOIDAL:
        return [cn4_norm_derivative(gamma, beta, c) for c in speeds]
    raise ValueError(f"unknown family {family!r}")


def reports_to_csv(reports, path=None) -> str:
    """One CSV row per report: family, mode, c, derivative, I, terms, verdict."""
    term_names = list(dict.fromkeys(name for rep in reports for name in (rep.terms or {})))
    header = ["family", "mode", "c", "norm_derivative", "functional_i", "verdict"]
    header += [f"term_{name}" for name in term_names]
    rows = ([rep.family, rep.mode, rep.c, rep.norm_derivative, rep.functional_i,
             rep.verdict, *((rep.terms or {}).get(name) for name in term_names)]
            for rep in reports)
    return write_csv(path, header, rows)
