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

Each family has one member function with the signature (gamma, alpha, beta,
c, flux_a).  It states where a member exists, rejecting any other with a
ValueError, and returns the member's parameters, amplitude, width and
closed-form evaluator.  ``FAMILIES`` maps each family name to it;
``family_member`` looks a family up, rejects gamma = 0 and validates, and
``build_profile``, the one constructor, is that lookup plus one sampler.

Every profile satisfies the first integral of the traveling ODE,

    -c u + (g/2) u^2 + a u_xixi - b u_xixixixi = A_flux,

pointwise; ``conservation_residuals`` evaluates that expression and the
second (energy-flux) law on the stored grid and reports the deviations.
All four families share one spectral differentiator with rounding-level
modes zeroed; a soliton is taken on its box without the duplicated endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elliptic import EllipticContext, jacobi_cn

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
    "build_profile",
    "family_member",
    "conservation_residuals",
]

FIFTH_SOLITON = "fifth-soliton"
KDV_SOLITON = "kdv-soliton"
KDV_CNOIDAL = "kdv-cnoidal"
FIFTH_CNOIDAL = "fifth-cnoidal"

# moduli above 1 - 1e-10 degenerate toward the solitary (sech) limit and the
# AGM loses the distinction between k and 1
_MODULUS_CAP = 1.0 - 1e-10

# solitary profiles are sampled on [-W, W] with W this many characteristic
# widths, wide enough that the sech tails sit below 1e-12 of the peak
_SOLITARY_WIDTHS = 20.0

# narrower members are rejected: (pi n / L)^4 in the spectral fourth derivative
# overflows near L = 3e-71 at n = 2^20, and L^4 in the cn^2 index underflows near 1e-81
_MIN_WIDTH = 1e-60

CN4_MODULUS = math.sqrt(2.0) / 2.0
CN4_K = EllipticContext.from_modulus(CN4_MODULUS).K


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
    the wavelength of a cnoidal train.  Immutable after construction.
    """

    family: str
    params: MediumParams
    cnoidal: CnoidalParams | None
    amplitude: float
    xi: np.ndarray
    u: np.ndarray
    periodic: bool
    _evaluator: Callable[[np.ndarray], np.ndarray]
    width: float

    def evaluate(self, xi):
        """Closed form u(xi) at arbitrary points."""
        return self._evaluator(np.asarray(xi, dtype=float))

    @property
    def window(self) -> float:
        """Half the sampled domain (W for solitary, half-period for periodic)."""
        return float(-self.xi[0])


def _check_finite(family: str, **values: float) -> None:
    """Reject a member whose named quantities overflowed (or turned NaN)."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"the {family} member's {name} {value!r} "
                             "is out of floating-point range")


def _fifth_soliton(gamma, alpha, beta, c, flux_a):
    """sech^4 member; its speed 36 a^2/169 b is pinned, so ``c`` is not read."""
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("the sech^4 soliton needs alpha > 0 and beta > 0")
    amp = 105.0 * alpha ** 2 / (169.0 * gamma * beta)
    s = 0.5 * math.sqrt(alpha / (13.0 * beta))
    params = MediumParams(gamma=gamma, alpha=alpha, beta=beta,
                          c=36.0 * alpha ** 2 / (169.0 * beta))
    width = 2.0 * math.sqrt(13.0 * beta / alpha)
    return params, None, amp, width, lambda xi: amp / np.cosh(s * xi) ** 4


def _kdv_soliton(gamma, alpha, beta, c, flux_a):
    """sech^2 member of the KdV limit (beta = 0), right-moving for alpha > 0 and left-moving
    for alpha < 0; the sign rule reads c and alpha, not c/alpha, which can underflow."""
    if c == 0.0 or alpha == 0.0 or (c < 0.0) != (alpha < 0.0):
        raise ValueError("the sech^2 soliton needs c/alpha > 0")
    amp = 3.0 * c / gamma
    s = 0.5 * math.sqrt(c / alpha)
    params = MediumParams(gamma=gamma, alpha=alpha, beta=0.0, c=c)
    width = 2.0 * math.sqrt(alpha / c)
    return params, None, amp, width, lambda xi: amp / np.cosh(s * xi) ** 2


def _kdv_cnoidal(gamma, alpha, beta, c, flux_a):
    """cn^2 member of the KdV limit (beta = 0): discriminant, amplitude, modulus,
    wavelength and M(c).

    It needs alpha > 0: negative alpha would force the |alpha| variants of the
    stability terms, not admitted here.  A real cn^2 wave needs flux_a*gamma > 0:
    for flux_a*gamma < 0 the modulus exceeds 1 (or the amplitude has the wrong
    sign), and the flux_a -> 0 limit drives the modulus to 1, which is rejected
    as degenerate.
    """
    if alpha <= 0.0:
        raise ValueError("cnoidal construction restricted to alpha > 0")
    if flux_a * gamma < 0.0:
        raise ValueError(f"the cn^2 wave needs a mass flux of the sign of gamma; "
                         f"flux_a*gamma = {flux_a * gamma!r} admits no real wave")
    delta = 9.0 * c * c + 24.0 * flux_a * gamma
    if not 0.0 < delta < math.inf:
        raise ValueError(f"discriminant 9c^2 + 24*flux_a*gamma = {delta!r} must lie in (0, inf)")
    sqrt_delta = math.sqrt(delta)
    # (3c + sqrt(delta)) / 2g cancels for c < 0; there it equals 12 A / (sqrt(delta) - 3c)
    if c < 0.0:
        amp = 12.0 * flux_a / (sqrt_delta - 3.0 * c)
    else:
        amp = (3.0 * c + sqrt_delta) / (2.0 * gamma)
    _check_finite(KDV_CNOIDAL, amplitude=amp)
    if amp * gamma <= 0.0:
        raise ValueError("amplitude*gamma must be positive for a real modulus")
    modulus = math.sqrt(amp * gamma) / delta ** 0.25
    if modulus > _MODULUS_CAP:
        raise DegenerateModulusError(
            f"modulus {modulus!r} exceeds {_MODULUS_CAP}; the wave degenerates to a soliton"
        )
    wavelength = (4.0 * math.sqrt(3.0 * alpha) * EllipticContext.from_modulus(modulus).K
                  / delta ** 0.25)
    cn = CnoidalParams(delta=delta, amplitude=amp, modulus=modulus,
                       emm=6.0 * alpha * amp / sqrt_delta,
                       wavelength=wavelength, half_period=wavelength / 2.0)
    b = delta ** 0.25 / (2.0 * math.sqrt(3.0 * alpha))
    params = MediumParams(gamma=gamma, alpha=alpha, beta=0.0, c=c, flux_a=flux_a)
    return params, cn, amp, wavelength, lambda xi: amp * jacobi_cn(b * xi, modulus) ** 2


def _fifth_cnoidal(gamma, alpha, beta, c, flux_a):
    """cn^4 member of the beta-only equation (alpha = 0); c and beta share a sign.

    Its flux is forced: at the trough u and its first three derivatives vanish while
    u_xixixixi does not, so flux_a = -5 c^2/(56 gamma) and the one passed in is not read.
    """
    if c == 0.0 or beta == 0.0 or (c < 0.0) != (beta < 0.0):
        raise ValueError("the cn^4 wave needs c/beta > 0")
    amp = 5.0 * c / (2.0 * gamma)
    s = CN4_MODULUS * (c / (42.0 * beta)) ** 0.25
    wavelength = 2.0 * math.sqrt(2.0) * (42.0 * beta / c) ** 0.25 * CN4_K
    cn = CnoidalParams(delta=math.nan, amplitude=amp, modulus=CN4_MODULUS, emm=math.nan,
                       wavelength=wavelength, half_period=wavelength / 2.0)
    params = MediumParams(gamma=gamma, alpha=0.0, beta=beta, c=c,
                          flux_a=-5.0 * c * c / (56.0 * gamma))
    return params, cn, amp, wavelength, lambda xi: amp * jacobi_cn(s * xi, CN4_MODULUS) ** 4


# Each member function takes (gamma, alpha, beta, c, flux_a), reads what its
# family needs, rejects a member that does not exist with a ValueError, and
# returns (MediumParams, CnoidalParams or None, amplitude, width, evaluator).
FAMILIES = {
    FIFTH_SOLITON: _fifth_soliton,
    KDV_SOLITON: _kdv_soliton,
    KDV_CNOIDAL: _kdv_cnoidal,
    FIFTH_CNOIDAL: _fifth_cnoidal,
}


def family_member(family: str, gamma: float, alpha: float, beta: float, c: float,
                  flux_a: float):
    """Validate one member of ``family``; see :data:`FAMILIES` for what it returns.

    A member whose closed form overflows (an OverflowError or a division by an
    underflowed zero), whose speed, amplitude, width or flux is not finite, or whose
    width lies below ``_MIN_WIDTH`` is out of floating-point range: a ValueError.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    if gamma == 0.0:
        raise ValueError("gamma must be nonzero")
    try:
        member = FAMILIES[family](gamma, alpha, beta, c, flux_a)
    except ArithmeticError as exc:
        raise ValueError(f"the {family} member is out of floating-point range "
                         f"({type(exc).__name__} in its closed form)") from exc
    params, cnoidal, amp, width, _ = member
    _check_finite(family, speed=params.c, amplitude=amp, width=width, flux=params.flux_a)
    if width < _MIN_WIDTH:
        name = "wavelength" if cnoidal else "width"
        raise ValueError(f"the {family} member's {name} {width:.3g} is below {_MIN_WIDTH:g}: "
                         "its derivatives are out of floating-point range")
    return member


def build_profile(family: str, gamma: float, alpha: float, beta: float,
                  c: float, flux_a: float, n_samples: int = 0) -> WaveProfile:
    """Validate a member of any family and sample it; 0 samples picks the default.

    Both kinds share the grid xi_j = ((2j - d)/d) W.  A cnoidal wave takes
    d = n points over one wavelength, endpoint-exclusive, W the half period
    (512 samples by default); a soliton an odd count d + 1 covering [-W, W],
    W = 20 widths (2049 by default), so that xi = 0 is on the grid.  The
    grid starts at -W exactly and is mirror-symmetric bit for bit,
    xi_j = -xi_(d-j), so every profile, being even, is evaluated once on
    xi <= 0 and the other half is filled by reversal.
    """
    params, cnoidal, amp, width, evaluator = family_member(family, gamma, alpha, beta,
                                                           c, flux_a)
    periodic = cnoidal is not None
    n = n_samples or (512 if periodic else 2049)
    if n < 64:
        raise ValueError(f"need at least 64 samples for a "
                         f"{'periodic' if periodic else 'solitary'} profile")
    if periodic:
        d, points, w = n, n, cnoidal.half_period
    else:
        d, points, w = (n | 1) - 1, n | 1, _SOLITARY_WIDTHS * width
    xi = np.arange(-d, 2 * points - d, 2.0) / d * w
    # u_j = u_(d-j) for the points xi_j > 0; a periodic grid has no xi_d = W to mirror xi_0
    half = evaluator(xi[:d // 2 + 1])
    u = np.concatenate([half, half[d + 1 - points:(d + 1) // 2][::-1]])
    return WaveProfile(family, params, cnoidal, amp, xi, u, periodic, evaluator, width)


# ---------------------------------------------------------------------------
# conservation-law residuals
# ---------------------------------------------------------------------------

# Modes below this fraction of the largest are rounding; differentiating them
# would lift them by up to kappa^4 and swamp the fourth derivative.
_CHOP = 1e-14


def _wavenumbers(n: int, period: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)


def _spectral_derivatives(u: np.ndarray, period: float) -> np.ndarray:
    """Rows u', u'', u''', u'''' of one period of samples, rounding-level modes zeroed."""
    n = len(u)
    uh = np.fft.rfft(u)
    mag = np.abs(uh)
    uh[mag < _CHOP * mag.max()] = 0.0
    return np.fft.irfft(uh * (1j * _wavenumbers(n, period)) ** np.arange(1, 5)[:, None], n)


@dataclass(frozen=True, eq=False)
class ConservationCheck:
    """Pointwise conservation-law expressions on a profile's grid.

    ``law1``/``law2`` are the mass- and energy-flux expressions, ``mean*``
    their grid means (the measured flux constants), and ``scale*`` the
    largest pointwise sum of term magnitudes (the natural yardstick for the
    deviations ``law - mean``).
    """

    xi: np.ndarray
    law1: np.ndarray
    law2: np.ndarray
    mean1: float
    mean2: float
    scale1: float
    scale2: float


def conservation_residuals(profile: WaveProfile) -> ConservationCheck:
    """Evaluate both conservation-law expressions pointwise.

    Every profile is differentiated spectrally on its box [-W, W), with
    rounding-level modes zeroed first.  A solitary grid repeats its first
    point at the end, so that point is dropped; its tails sit below 1e-12 of
    the peak, which makes the box periodic to rounding.  For an exact profile
    both laws are constant; the constants are flux_a and flux_b (zero for
    solitary families).  A member whose terms, as formed here, overflow is out
    of floating-point range: a ValueError names the law and its scale.
    """
    p = profile.params
    keep = profile.xi < profile.window
    xi, u = profile.xi[keep], profile.u[keep]
    # an overflow shows as a scale that is not finite, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        u1, u2, u3, u4 = _spectral_derivatives(u, 2.0 * profile.window)
        t1 = (-p.c * u, 0.5 * p.gamma * u ** 2, p.alpha * u2, -p.beta * u4)
        t2 = (-0.5 * p.c * u ** 2, p.gamma / 3.0 * u ** 3, p.alpha * (u * u2 - 0.5 * u1 ** 2),
              -p.beta * (u * u4 - u1 * u3 + 0.5 * u2 ** 2))
        scale1, scale2 = (float(np.max(sum(np.abs(t) for t in terms))) for terms in (t1, t2))
    for law, scale in ((1, scale1), (2, scale2)):
        # the grid mean sums len(u) terms of at most the scale each
        if not math.isfinite(scale * len(u)):
            raise ValueError(f"the {profile.family} member's law-{law} scale {scale:.3g} over "
                             f"{len(u)} samples is out of floating-point range")
    law1, law2 = sum(t1), sum(t2)

    return ConservationCheck(xi=xi, law1=law1, law2=law2, mean1=float(np.mean(law1)),
                             mean2=float(np.mean(law2)), scale1=scale1, scale2=scale2)
