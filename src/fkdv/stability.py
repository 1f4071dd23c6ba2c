"""Stability functionals for the four traveling-wave families.

The sign test throughout is I < 0, certified via growth of the squared
norm along the family:

* KdV soliton: the L^2 norm is closed-form, ||phi||^2 = 24 sqrt(a) c^{3/2}
  / g^2, so d/dc ||phi||^2 = 36 sqrt(a c) / g^2 > 0 outright.
* Fifth-order soliton: the speed is pinned by the medium, so there is no
  family to differentiate; the sign of I comes from a Gegenbauer-type
  series with rational terms b_j (b_0 = -891/14515200, b_j > 0 for j >= 1):
  b_1..b_10 and the proven bound b_j <= (105/512) j^-9 certify sum b_j < |b_0|.
* cn^2 / cn^4 cnoidal waves: I = -(L/2) d/dc of the two-sided coefficient
  sequence norm.  Both norms are closed form, and so are their derivatives:
  the cn^4 norm is proportional to c^2, and the cn^2 norm is differentiated
  by the chain rule through K, D, K' and one csch series, with the
  four-term sign decomposition of the product rule evaluated term by term.

Differentiating the cn^2 norm in c is ambiguous about what is held fixed;
both readings are implemented: ``fixed-flux`` holds the mass flux constant
(the wavelength then drifts with c), ``fixed-period`` lets the flux move
with c so the wavelength stays put (the setting of the periodic stability
framework); its derivative follows from the implicit-function theorem on
the wavelength, with no root find.  The four sign terms are always
evaluated in the frozen-L partial sense that matches their derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import CSCH_OVERFLOW, EllipticContext
from .waves import (CN4_K, FIFTH_CNOIDAL, FIFTH_SOLITON, KDV_CNOIDAL, KDV_SOLITON,
                    family_member, write_csv)

__all__ = [
    "GegenbauerSeriesSpec",
    "StabilityReport",
    "kdv_soliton_norm_derivative",
    "gegenbauer_terms",
    "gegenbauer_verdict",
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


@dataclass(frozen=True)
class StabilityReport:
    """Evaluated stability functional for one family member.

    ``verdict`` is "stable" when the sign test holds (I < 0, equivalently
    norm_derivative > 0), else "not-stable-hypotheses".  ``terms`` carries the
    named sign contributions where a decomposition exists; the sech^4 report
    adds its partial sum, the proven bound on the tail past it, and the terms.
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

def kdv_soliton_norm_derivative(gamma: float, alpha: float, c: float) -> float:
    """d/dc ||phi_c||^2 = 36 sqrt(alpha c) / gamma^2 of a member the builder accepts.

    A member with alpha, c < 0 gets the value of its mirror (alpha, c) ->
    (-alpha, -c), which alpha c leaves bit for bit.
    """
    family_member(KDV_SOLITON, gamma, alpha, 0.0, c, 0.0)
    return 36.0 * math.sqrt(alpha * c) / gamma ** 2


# ---------------------------------------------------------------------------
# Gegenbauer series for the fixed-speed sech^4 soliton
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GegenbauerSeriesSpec:
    """Scale of the Gegenbauer series for I of the sech^4 soliton.

    The series has the fixed orders r = 4, n = 2 of the sech^4 case, at
    which its term is rational in j:

        b_j = 1680 (2j + 11/2)(j+1)^2 (j + 9/2)^2 (2j)!
              / { [(2j+4)(2j+5)(2j+6)(2j+7) - 1680] (2j+10)! }.

    The bracket is -840 at j = 0 and positive beyond, which is what makes
    b_0 = -891/14515200 the single negative term.
    """

    gamma_coef: float = 1.0

    @property
    def prefactor_a(self) -> float:
        """192 |gamma| / pi, so that a member and its mirror (u, gamma) ->
        (-u, -gamma), which share the Hessian, share I."""
        return 192.0 * abs(self.gamma_coef) / math.pi


def gegenbauer_terms(jmax: int) -> np.ndarray:
    """Series terms b_0..b_jmax, each the rational term of
    :class:`GegenbauerSeriesSpec` in floating point, (2j+10)!/(2j)! taken
    as the product of its ten factors."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    j = np.arange(jmax + 1.0)
    bracket = (2 * j + 4) * (2 * j + 5) * (2 * j + 6) * (2 * j + 7) - 1680.0
    rising = np.prod(2 * j + np.arange(1.0, 11.0)[:, None], axis=0)
    return 1680.0 * (2 * j + 5.5) * (j + 1) ** 2 * (j + 4.5) ** 2 / (bracket * rising)


def _tail_bound(jmax: int) -> float:
    """Bound on sum_{j>jmax} b_j from b_j <= (105/512) j^-9, j >= 1, which the tests
    prove in exact rationals, as they do b_1 + .. + b_10 + _tail_bound(10) < |b_0|."""
    return 105.0 / 512.0 / (8.0 * float(jmax) ** 8)


def gegenbauer_verdict(spec: GegenbauerSeriesSpec, jmax: int = 200) -> StabilityReport:
    """I from the terms b_0..b_jmax, and its sign from the certificate.

    The verdict does not read ``jmax``: b_1..b_10 plus the proven bound on the
    rest come to 0.0823 |b_0|.  ``jmax`` sets the terms that I sums and the
    report carries; ``tail_bound`` is the proven bound on those beyond them.
    """
    b = gegenbauer_terms(jmax)
    partial = float(np.sum(b[1:]))
    certified = float(np.sum(gegenbauer_terms(10)[1:])) + _tail_bound(10)
    return StabilityReport(
        family=FIFTH_SOLITON,
        c=float("nan"),
        norm_derivative=None,
        functional_i=spec.prefactor_a * (b[0] + partial),
        verdict="stable" if certified < -b[0] else "not-stable-hypotheses",
        terms={"b0": float(b[0])},
        partial_sum=partial,
        tail_bound=_tail_bound(jmax),
        series=b,
    )


# ---------------------------------------------------------------------------
# cn^2 family: derivative of the sequence norm in c
# ---------------------------------------------------------------------------

def _csch_sums(K: float, Kprime: float):
    """S2 = sum_{n != 0} n^2 csch^2(n pi K'/K) and S3 with the extra n coth.

    With tau = pi K'/K, dS2/dtau = -2 S3.
    """
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

    The inverse of the wavelength map, for callers that want the member on
    a fixed-period curve itself; the fixed-period derivative needs no such
    solve.  The flux carries the sign of gamma (see :func:`waves._kdv_cnoidal`),
    so the search runs over its magnitude, starting from ``abs(flux_guess)``.
    """
    sign = math.copysign(1.0, gamma)

    def objective(a):
        cn = family_member(KDV_CNOIDAL, gamma, alpha, 0.0, c, sign * a)[1]
        return cn.wavelength - wavelength

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

    With m = k^2, M = 6 alpha m / gamma, G = 4 K^2 (K - D)^2 and
    H = pi^4 S2 / k^4 the norm is N = (M^2 / L^4)(G + H); every derivative
    below is its exact chain rule through K, D, K' and the csch sums, all
    taken from the context of a member the builder accepts.

    mode "fixed-flux": differentiate with flux_a constant, the L inside the
    norm following the wavelength, dN/dc = dN/dc|_L - 4 N d(ln L)/dc.
    mode "fixed-period": the flux moves with c so that the wavelength stays
    put; by the implicit-function theorem dN/dc = dN/dc|_L - dN/dA|_L
    (d ln L/dc)/(d ln L/dA), with L frozen at the member's value.  The
    decomposition terms (i), (ii) (both positive), (iii) (identically zero)
    and (iv) (positive) are the product-rule pieces of the frozen-L partial
    derivative at fixed flux; their sum is reported next to that partial
    ("frozen_direct") as a consistency check.  They do not depend on the
    mode.
    """
    if mode not in ("fixed-flux", "fixed-period"):
        raise ValueError(f"unknown mode {mode!r}")
    cn = family_member(KDV_CNOIDAL, gamma, alpha, 0.0, c, flux_a)[1]
    ctx = EllipticContext.from_modulus(cn.modulus)
    k, emm, L0, delta = cn.modulus, cn.emm, cn.half_period, cn.delta
    K, D, dD, Kp = ctx.K, ctx.D, ctx.dD, ctx.Kprime
    k2 = k * k
    kp2 = (1.0 - k) * (1.0 + k)
    s2, s3 = _csch_sums(K, Kp)

    # derivatives in k; E(k') from Legendre's relation E K' + E' K - K K' = pi/2
    kmd = K - D
    dK = k * kmd / kp2
    Ep = (0.5 * math.pi + Kp * k2 * D) / K
    dKp = -(Ep - k2 * Kp) / (k * kp2)
    dtau = math.pi * (K * dKp - Kp * dK) / K ** 2
    G = 4.0 * K ** 2 * kmd ** 2
    H = math.pi ** 4 * s2 / k2 ** 2
    dG = 8.0 * K * kmd * (kmd * dK + K * (dK - dD))
    dH = -math.pi ** 4 * (2.0 * s3 * dtau / k2 ** 2 + 4.0 * s2 / (k2 ** 2 * k))

    # dk and d(ln L) in c and in the flux, from dm/dc = 36 A g/s^3, dm/dA = -18 c g/s^3
    delta_32 = delta * math.sqrt(delta)
    dk_c = 18.0 * flux_a * gamma / (k * delta_32)
    dk_a = -9.0 * c * gamma / (k * delta_32)
    dlnl_c = dK * dk_c / K - 4.5 * c / delta
    dlnl_a = dK * dk_a / K - 6.0 * gamma / delta

    # frozen-L partial per unit dk; M scales with k^2, so dM/M = 2 dk/k
    scale = emm ** 2 / L0 ** 4
    per_dk = scale * (4.0 * (G + H) / k + dG + dH)
    frozen_direct = per_dk * dk_c
    if mode == "fixed-flux":
        deriv = frozen_direct - 4.0 * scale * (G + H) * dlnl_c
    else:
        deriv = frozen_direct - per_dk * dk_a * dlnl_c / dlnl_a

    d_emm = 2.0 * emm * dk_c / k
    d_mk = d_emm * K + emm * dK * dk_c
    d_kmd = (dK - dD) * dk_c
    term_i = (8.0 * emm * K / L0 ** 4) * kmd ** 2 * d_mk
    term_ii = (8.0 * emm ** 2 * K ** 2 / L0 ** 4) * kmd * d_kmd
    term_iii = (2.0 * emm * math.pi ** 4 / (L0 ** 4 * k ** 5)) * (k * d_emm - 2.0 * emm * dk_c) * s2
    term_iv = -(2.0 * math.pi ** 4 / L0 ** 4) * (emm / k2) ** 2 * dtau * dk_c * s3

    return StabilityReport(
        family=KDV_CNOIDAL,
        c=c,
        norm_derivative=deriv,
        functional_i=-0.5 * L0 * deriv,
        verdict=_sign_verdict(deriv),
        mode=mode,
        terms={"i": term_i, "ii": term_ii, "iii": term_iii, "iv": term_iv,
               "sum": term_i + term_ii + term_iii + term_iv, "frozen_direct": frozen_direct,
               "K_minus_D": kmd, "d_K_minus_D": d_kmd},
    )


def cn4_norm_derivative(gamma: float, beta: float, c: float) -> StabilityReport:
    """d/dc of the cn^4 coefficient norm; the norm is proportional to c^2.

    K(sqrt2/2) is a constant of the family, so the derivative is exactly
    2/|c| times the norm and positivity is immediate.  A member with
    c, beta < 0 gets the report of its mirror (beta, c) -> (-beta, -c):
    the norm reads c^2 and the wavelength beta/c, both bit for bit the same.
    """
    wavelength = family_member(FIFTH_CNOIDAL, gamma, 0.0, beta, c, 0.0)[3]
    norm = cn4_ell2_norm_sq(gamma, c)
    deriv = 2.0 * norm / abs(c)
    return StabilityReport(
        family=FIFTH_CNOIDAL,
        c=c,
        norm_derivative=deriv,
        functional_i=-0.25 * wavelength * deriv,
        verdict=_sign_verdict(deriv),
        terms={"norm": norm, "series_constant": _CN4_SERIES},
    )


def family_reports(family: str, gamma: float, alpha: float, beta: float, speeds,
                   flux_a: float, mode: str) -> list[StabilityReport]:
    """Stability reports of a family at each speed (and each mode for cn^2).

    ``mode`` "both" evaluates the cn^2 derivative in both readings.  The
    sech^4 soliton's speed is pinned by the medium, so it gives the single
    Gegenbauer report whatever ``speeds`` holds.  Every speed's member is
    validated by :func:`waves.family_member` first, so a member that the
    builder rejects gets its error, not a verdict.  An index (d/dc of the
    norm, or I) that overflows, or underflows to 0 and so loses its sign,
    is out of floating-point range and rejected with a ValueError too.
    """
    speeds = list(speeds)
    if not speeds:
        raise ValueError("stability reports need at least one speed")
    for c in speeds:
        family_member(family, gamma, alpha, beta, c, flux_a)
    try:
        if family == FIFTH_SOLITON:
            reports = [gegenbauer_verdict(GegenbauerSeriesSpec(gamma_coef=gamma))]
        elif family == KDV_SOLITON:
            derivs = [(c, kdv_soliton_norm_derivative(gamma, alpha, c)) for c in speeds]
            reports = [StabilityReport(family=family, c=c, norm_derivative=d, functional_i=None,
                                       verdict=_sign_verdict(d)) for c, d in derivs]
        elif family == KDV_CNOIDAL:
            modes = ("fixed-flux", "fixed-period") if mode == "both" else (mode,)
            reports = [cn2_norm_derivative(gamma, alpha, c, flux_a, mode=m)
                       for c in speeds for m in modes]
        else:
            reports = [cn4_norm_derivative(gamma, beta, c) for c in speeds]
    except ArithmeticError as exc:
        raise ValueError(f"the {family} stability index is out of floating-point range "
                         f"({type(exc).__name__})") from exc
    for rep in reports:
        for value in (rep.norm_derivative, rep.functional_i):
            if value is not None and not 0.0 < abs(value) < math.inf:
                raise ValueError(f"the {family} stability index {value} at c = {rep.c} "
                                 "is out of floating-point range")
    return reports


def reports_to_csv(reports, path=None) -> str:
    """One CSV row per report: family, mode, c, derivative, I, terms, verdict."""
    term_names = list(dict.fromkeys(name for rep in reports for name in (rep.terms or {})))
    header = ["family", "mode", "c", "norm_derivative", "functional_i", "verdict"]
    header += [f"term_{name}" for name in term_names]
    rows = ([rep.family, rep.mode, rep.c, rep.norm_derivative, rep.functional_i,
             rep.verdict, *((rep.terms or {}).get(name) for name in term_names)]
            for rep in reports)
    return write_csv(path, header, rows)
