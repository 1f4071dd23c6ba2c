"""Traveling waves of the fifth-order KdV equation and their stability.

The package builds the four closed-form families (sech^4 and sech^2
solitons, cn^2 and cn^4 cnoidal wave trains), verifies them against the two
conservation laws and the analytic Fourier coefficient formulas, evaluates
the stability functionals (norm derivatives, the Gegenbauer series, PF(2)
minors), and demonstrates orbital stability dynamically with a periodic
pseudospectral solver.
"""

from .elliptic import EllipticContext, jacobi_cn
from .fourier import (
    CoeffSequence,
    Pf2Report,
    cn2_coeffs,
    cn4_coeffs_halfmodulus,
    dft_coeffs,
    dft_cosine_coeffs,
    pf2_check,
)
from .pde import (
    BlowUpError,
    DiagnosticsRecord,
    ExperimentReport,
    Perturbation,
    SpectralState,
    evolve,
    orbital_distance,
    stability_experiment,
)
from .stability import (
    GegenbauerSeriesSpec,
    StabilityReport,
    cn2_norm_derivative,
    cn4_norm_derivative,
    gegenbauer_terms,
    gegenbauer_verdict,
    kdv_soliton_norm_derivative,
)
from .waves import (
    FAMILIES,
    FIFTH_CNOIDAL,
    FIFTH_SOLITON,
    KDV_CNOIDAL,
    KDV_SOLITON,
    CnoidalParams,
    ConservationCheck,
    DegenerateModulusError,
    MediumParams,
    WaveProfile,
    build_profile,
    conservation_residuals,
)

__version__ = "0.1.0"
