"""Closed-form traveling waves of u_t + gamma u u_x + alpha u_xxx = beta u_xxxxx.

Four families are built here:

* ``fifth-soliton``  u = (105 a^2 / 169 g b) sech^4( sqrt(a/13b) xi / 2 ),
  speed fixed at 36 a^2 / 169 b by both dispersion coefficients;
* ``kdv-soliton``    u = (3c/g) sech^2( sqrt(c/a) xi / 2 ), arbitrary speed
  (beta = 0);
* ``kdv-cnoidal``    u = A cn^2( Delta^{1/4} xi / (2 sqrt(3a)); k ) with
  Delta = 9c^2 + 24 A_flux g, A = (3c + sqrt(Delta))/(2g),
  k = sqrt(A g)/Delta^{1/4} (beta = 0, nonzero mass flux);
* ``fifth-cnoidal``  u = (5c/2g) cn^4( (sqrt2/2)(c/42b)^{1/4} xi; sqrt2/2 ),
  modulus pinned at sqrt2/2 (alpha = 0).

Every profile satisfies the first integral of the traveling ODE,

    -c u + (g/2) u^2 + a u_xixi - b u_xixixixi = A_flux,

pointwise; ``conservation_residuals`` evaluates that expression and the
second (energy-flux) law on the stored grid and reports the deviations.
``write_csv`` is the one CSV writer of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elliptic import EllipticContext, complete_K, jacobi_cn

__all__ = [
    "FIFTH_SOLITON",
    "KDV_SOLITON",
    "KDV_CNOIDAL",
    "FIFTH_CNOIDAL",
    "FAMILIES",
    "CN4_MODULUS",
    "CN4_K",
    "MediumParams",
    "CnoidalParams",
    "WaveProfile",
    "ConservationCheck",
    "DegenerateModulusError",
    "build_fifth_order_soliton",
    "build_kdv_soliton",
    "build_kdv_cnoidal",
    "build_fifth_order_cnoidal",
    "build_profile",
    "cn2_params",
    "cn4_wavelength",
    "conservation_residuals",
    "profile_to_csv",
    "write_csv",
]

FIFTH_SOLITON = "fifth-soliton"
KDV_SOLITON = "kdv-soliton"
KDV_CNOIDAL = "kdv-cnoidal"
FIFTH_CNOIDAL = "fifth-cnoidal"
FAMILIES = (FIFTH_SOLITON, KDV_SOLITON, KDV_CNOIDAL, FIFTH_CNOIDAL)

# moduli above 1 - 1e-10 degenerate toward the solitary (sech) limit and the
# AGM loses the distinction between k and 1
_MODULUS_CAP = 1.0 - 1e-10

# solitary profiles are sampled on [-W, W] with W this many characteristic
# widths, wide enough that the sech tails sit below 1e-12 of the peak
_SOLITARY_WIDTHS = 20.0

CN4_MODULUS = math.sqrt(2.0) / 2.0
CN4_K = complete_K(CN4_MODULUS)


class DegenerateModulusError(ValueError):
    """Cnoidal modulus too close to 1 (solitary-wave degeneration)."""


@dataclass(frozen=True)
class MediumParams:
    """Medium coefficients plus wave speed and flux constants.

    ``cee`` is the optional linear advection coefficient C of the extended
    equation u_t + C u_x + ...; it never enters the closed forms (it can be
    removed by a Galilean frame change) and defaults to zero.
    """

    gamma: float
    alpha: float
    beta: float
    c: float
    cee: float = 0.0
    flux_a: float = 0.0
    flux_b: float = 0.0


@dataclass(frozen=True)
class CnoidalParams:
    """Derived quantities of a periodic family.

    ``delta`` and ``emm`` (M(c) = 6 alpha A / sqrt(Delta) = 6 alpha k^2 /
    gamma) belong to the cn^2 family; they are NaN for the fixed-modulus
    cn^4 family, which has no discriminant.
    """

    delta: float
    amplitude: float
    modulus: float
    emm: float
    wavelength: float
    half_period: float


@dataclass(frozen=True, eq=False)
class WaveProfile:
    """A traveling-wave family member with closed-form evaluator and samples.

    Solitary profiles are sampled on an inclusive symmetric grid over
    [-W, W] with W = 20 characteristic widths; periodic profiles on an
    endpoint-exclusive uniform grid covering exactly one wavelength.
    ``width`` is the characteristic length: the sech width of a soliton,
    the wavelength of a cnoidal train (NaN on a profile assembled without
    one).  Immutable after construction.
    """

    family: str
    params: MediumParams
    cnoidal: CnoidalParams | None
    amplitude: float
    xi: np.ndarray
    u: np.ndarray
    periodic: bool
    _evaluator: Callable[[np.ndarray], np.ndarray]
    width: float = math.nan

    def evaluate(self, xi):
        """Closed form u(xi) at arbitrary points."""
        return self._evaluator(np.asarray(xi, dtype=float))

    @property
    def window(self) -> float:
        """Half the sampled domain (W for solitary, half-period for periodic)."""
        return float(-self.xi[0])


def _solitary_grid(half_width: float, n_samples: int) -> np.ndarray:
    if n_samples < 64:
        raise ValueError("need at least 64 samples for a solitary profile")
    if n_samples % 2 == 0:
        n_samples += 1  # keep xi = 0 on the grid
    return np.linspace(-half_width, half_width, n_samples)


def _periodic_grid(half_period: float, n_samples: int) -> np.ndarray:
    if n_samples < 64:
        raise ValueError("need at least 64 samples for a periodic profile")
    return -half_period + np.arange(n_samples) * (2.0 * half_period / n_samples)


def build_fifth_order_soliton(gamma: float, alpha: float, beta: float,
                              n_samples: int = 2049) -> WaveProfile:
    """sech^4 soliton of the full fifth-order equation; speed 36 a^2/169 b."""
    if gamma == 0.0:
        raise ValueError("gamma must be nonzero")
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("the sech^4 soliton needs alpha > 0 and beta > 0")
    amp = 105.0 * alpha ** 2 / (169.0 * gamma * beta)
    s = 0.5 * math.sqrt(alpha / (13.0 * beta))
    c = 36.0 * alpha ** 2 / (169.0 * beta)
    width = 2.0 * math.sqrt(13.0 * beta / alpha)

    def evaluator(xi):
        return amp / np.cosh(s * xi) ** 4

    xi = _solitary_grid(_SOLITARY_WIDTHS * width, n_samples)
    return WaveProfile(
        family=FIFTH_SOLITON,
        params=MediumParams(gamma=gamma, alpha=alpha, beta=beta, c=c),
        cnoidal=None,
        amplitude=amp,
        xi=xi,
        u=evaluator(xi),
        periodic=False,
        _evaluator=evaluator,
        width=width,
    )


def build_kdv_soliton(gamma: float, alpha: float, c: float,
                      n_samples: int = 2049) -> WaveProfile:
    """sech^2 KdV soliton (beta = 0); right-moving for alpha > 0, left for alpha < 0."""
    if gamma == 0.0:
        raise ValueError("gamma must be nonzero")
    if alpha == 0.0 or c / alpha <= 0.0:
        raise ValueError("the sech^2 soliton needs c/alpha > 0")
    amp = 3.0 * c / gamma
    s = 0.5 * math.sqrt(c / alpha)
    width = 2.0 * math.sqrt(alpha / c)

    def evaluator(xi):
        return amp / np.cosh(s * xi) ** 2

    xi = _solitary_grid(_SOLITARY_WIDTHS * width, n_samples)
    return WaveProfile(
        family=KDV_SOLITON,
        params=MediumParams(gamma=gamma, alpha=alpha, beta=0.0, c=c),
        cnoidal=None,
        amplitude=amp,
        xi=xi,
        u=evaluator(xi),
        periodic=False,
        _evaluator=evaluator,
        width=width,
    )


def cn2_params(gamma: float, alpha: float, c: float,
               flux_a: float) -> tuple[CnoidalParams, EllipticContext]:
    """Discriminant, amplitude, modulus, wavelength and M(c) of a cn^2 wave.

    A real cn^2 wave needs flux_a*gamma > 0: for flux_a*gamma < 0 the
    modulus exceeds 1 (or the amplitude has the wrong sign), and the
    flux_a -> 0 limit drives the modulus to 1, which is rejected as
    degenerate.  Also returns the elliptic context of the modulus.
    """
    if gamma == 0.0:
        raise ValueError("gamma must be nonzero")
    if alpha <= 0.0:
        raise ValueError("cnoidal construction restricted to alpha > 0")
    if flux_a * gamma < 0.0:
        raise ValueError(f"the cn^2 wave needs a mass flux of the sign of gamma; "
                         f"flux_a*gamma = {flux_a * gamma!r} admits no real wave")
    delta = 9.0 * c * c + 24.0 * flux_a * gamma
    if delta <= 0.0:
        raise ValueError(f"discriminant 9c^2 + 24*flux_a*gamma = {delta!r} must be positive")
    sqrt_delta = math.sqrt(delta)
    amp = (3.0 * c + sqrt_delta) / (2.0 * gamma)
    if amp * gamma <= 0.0:
        raise ValueError("amplitude*gamma must be positive for a real modulus")
    modulus = math.sqrt(amp * gamma) / delta ** 0.25
    if modulus > _MODULUS_CAP:
        raise DegenerateModulusError(
            f"modulus {modulus!r} exceeds {_MODULUS_CAP}; the wave degenerates to a soliton"
        )
    ctx = EllipticContext.from_modulus(modulus)
    wavelength = 4.0 * math.sqrt(3.0 * alpha) * ctx.K / delta ** 0.25
    cn_params = CnoidalParams(
        delta=delta,
        amplitude=amp,
        modulus=modulus,
        emm=6.0 * alpha * amp / sqrt_delta,
        wavelength=wavelength,
        half_period=wavelength / 2.0,
    )
    return cn_params, ctx


def build_kdv_cnoidal(gamma: float, alpha: float, c: float, flux_a: float,
                      n_samples: int = 512) -> WaveProfile:
    """cn^2 cnoidal wave of the KdV limit with mass flux ``flux_a``.

    Requires alpha > 0 (negative alpha would force the |alpha| variants of
    the stability terms, which this toolkit does not admit) and
    flux_a*gamma > 0; see :func:`cn2_params`.
    """
    cn_params, _ = cn2_params(gamma, alpha, c, flux_a)
    amp, modulus = cn_params.amplitude, cn_params.modulus
    b = cn_params.delta ** 0.25 / (2.0 * math.sqrt(3.0 * alpha))

    def evaluator(xi):
        return amp * jacobi_cn(b * xi, modulus) ** 2

    xi = _periodic_grid(cn_params.half_period, n_samples)
    return WaveProfile(
        family=KDV_CNOIDAL,
        params=MediumParams(gamma=gamma, alpha=alpha, beta=0.0, c=c, flux_a=flux_a),
        cnoidal=cn_params,
        amplitude=amp,
        xi=xi,
        u=evaluator(xi),
        periodic=True,
        _evaluator=evaluator,
        width=cn_params.wavelength,
    )


def cn4_wavelength(beta: float, c: float) -> float:
    """Wavelength 2 sqrt2 (42 beta/c)^{1/4} K(sqrt2/2) of the cn^4 wave."""
    return 2.0 * math.sqrt(2.0) * (42.0 * beta / c) ** 0.25 * CN4_K


def build_fifth_order_cnoidal(gamma: float, beta: float, c: float,
                              n_samples: int = 512) -> WaveProfile:
    """cn^4 cnoidal wave of the beta-only equation; modulus fixed at sqrt2/2.

    The first-integral constant is forced by the profile itself: at the
    trough u and its first three derivatives vanish while u_xixixixi does
    not, giving flux_a = -5 c^2 / (56 gamma).
    """
    if gamma == 0.0:
        raise ValueError("gamma must be nonzero")
    if beta == 0.0 or c / beta <= 0.0:
        raise ValueError("the cn^4 wave needs c/beta > 0")
    amp = 5.0 * c / (2.0 * gamma)
    s = CN4_MODULUS * (c / (42.0 * beta)) ** 0.25
    wavelength = cn4_wavelength(beta, c)

    def evaluator(xi):
        return amp * jacobi_cn(s * xi, CN4_MODULUS) ** 4

    cn_params = CnoidalParams(
        delta=float("nan"),
        amplitude=amp,
        modulus=CN4_MODULUS,
        emm=float("nan"),
        wavelength=wavelength,
        half_period=wavelength / 2.0,
    )
    xi = _periodic_grid(cn_params.half_period, n_samples)
    return WaveProfile(
        family=FIFTH_CNOIDAL,
        params=MediumParams(gamma=gamma, alpha=0.0, beta=beta, c=c,
                            flux_a=-5.0 * c * c / (56.0 * gamma)),
        cnoidal=cn_params,
        amplitude=amp,
        xi=xi,
        u=evaluator(xi),
        periodic=True,
        _evaluator=evaluator,
        width=cn_params.wavelength,
    )


def build_profile(family: str, gamma: float, alpha: float, beta: float,
                  c: float, flux_a: float, n_samples: int = 0) -> WaveProfile:
    """Dispatch to the family builders with a uniform signature."""
    kw = {"n_samples": n_samples} if n_samples else {}
    if family == FIFTH_SOLITON:
        return build_fifth_order_soliton(gamma, alpha, beta, **kw)
    if family == KDV_SOLITON:
        return build_kdv_soliton(gamma, alpha, c, **kw)
    if family == KDV_CNOIDAL:
        return build_kdv_cnoidal(gamma, alpha, c, flux_a, **kw)
    if family == FIFTH_CNOIDAL:
        return build_fifth_order_cnoidal(gamma, beta, c, **kw)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


# ---------------------------------------------------------------------------
# conservation-law residuals
# ---------------------------------------------------------------------------

_FD_OFFSETS = np.arange(-5, 6)


def _fd_weights(offsets: np.ndarray, der: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion)."""
    x = np.asarray(offsets, dtype=float)
    m = len(x)
    cmat = np.zeros((m, der + 1))
    cmat[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, m):
        mn = min(i, der)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            for s in range(mn, 0, -1):
                cmat[i, s] = (c1 * (s * cmat[i - 1, s - 1] - c5 * cmat[i - 1, s])) / c2
            cmat[i, 0] = (-c1 * c5 * cmat[i - 1, 0]) / c2
            for s in range(mn, 0, -1):
                cmat[j, s] = (c4 * cmat[j, s] - s * cmat[j, s - 1]) / c3
            cmat[j, 0] = (c4 * cmat[j, 0]) / c3
        c1 = c2
    return cmat[:, der]


def _fd_derivatives(u: np.ndarray, h: float, orders=(1, 2, 3, 4)):
    """Central 11-point derivatives (>= 8th order) on the interior of a uniform grid."""
    half = len(_FD_OFFSETS) // 2
    core = len(u) - 2 * half
    out = {}
    for der in orders:
        w = _fd_weights(_FD_OFFSETS, der) / h ** der
        acc = np.zeros(core)
        for wi, off in zip(w, _FD_OFFSETS):
            acc += wi * u[half + off: half + off + core]
        out[der] = acc
    return out, slice(half, len(u) - half)


def _spectral_derivatives(u: np.ndarray, period: float, orders=(1, 2, 3, 4)):
    uh = np.fft.rfft(u)
    kap = 2.0 * np.pi * np.fft.rfftfreq(len(u), d=period / len(u))
    return {der: np.fft.irfft(uh * (1j * kap) ** der, len(u)) for der in orders}


@dataclass(frozen=True, eq=False)
class ConservationCheck:
    """Pointwise conservation-law expressions on a profile's grid.

    ``law1``/``law2`` are the mass- and energy-flux expressions, ``mean*``
    their grid means (the measured flux constants), ``residual*`` the
    deviations from those means, and ``scale*`` the largest pointwise sum of
    term magnitudes (the natural yardstick for the residuals).
    """

    xi: np.ndarray
    law1: np.ndarray
    law2: np.ndarray
    mean1: float
    mean2: float
    residual1: np.ndarray
    residual2: np.ndarray
    scale1: float
    scale2: float


def conservation_residuals(profile: WaveProfile) -> ConservationCheck:
    """Evaluate both conservation-law expressions pointwise.

    Periodic profiles are differentiated spectrally, solitary ones with the
    11-point central stencil on interior points only.  For an exact profile
    both laws are constant; the constants are flux_a and flux_b (zero for
    solitary families).
    """
    p = profile.params
    u_full = profile.u
    if profile.periodic:
        ders = _spectral_derivatives(u_full, 2.0 * profile.window)
        u = u_full
        xi = profile.xi
    else:
        h = profile.xi[1] - profile.xi[0]
        ders, valid = _fd_derivatives(u_full, h)
        u = u_full[valid]
        xi = profile.xi[valid]
    u1, u2, u3, u4 = ders[1], ders[2], ders[3], ders[4]

    t1 = (-p.c * u, 0.5 * p.gamma * u ** 2, p.alpha * u2, -p.beta * u4)
    law1 = sum(t1)
    scale1 = float(np.max(sum(np.abs(t) for t in t1)))

    t2 = (
        -0.5 * p.c * u ** 2,
        p.gamma / 3.0 * u ** 3,
        p.alpha * (u * u2 - 0.5 * u1 ** 2),
        -p.beta * (u * u4 - u1 * u3 + 0.5 * u2 ** 2),
    )
    law2 = sum(t2)
    scale2 = float(np.max(sum(np.abs(t) for t in t2)))

    mean1 = float(np.mean(law1))
    mean2 = float(np.mean(law2))
    return ConservationCheck(
        xi=xi,
        law1=law1,
        law2=law2,
        mean1=mean1,
        mean2=mean2,
        residual1=law1 - mean1,
        residual2=law2 - mean2,
        scale1=scale1,
        scale2=scale2,
    )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header, rows, comment=None) -> str:
    """Write rows as CSV and return the text; ``path=None`` only returns it.

    Floats get full round-trip precision (``%.17g``), None an empty cell;
    an optional ``comment`` becomes a leading ``# ...`` line.
    """
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def profile_to_csv(profile: WaveProfile, path=None) -> str:
    """Serialize samples as CSV: a comment header naming family/parameters, then xi,u."""
    p = profile.params
    comment = (f"{profile.family} gamma={p.gamma!r} alpha={p.alpha!r} beta={p.beta!r} "
               f"c={p.c!r} flux_a={p.flux_a!r} flux_b={p.flux_b!r}")
    return write_csv(path, ("xi", "u"), zip(profile.xi, profile.u), comment)
