"""orthozero: zero-preserving monomial-to-orthogonal-basis transforms,
sign-regular kernel scanning, and biorthogonal polynomial machinery."""

__version__ = "0.10.0"

from .errors import (
    BadIntervalError,
    BadNodesError,
    BadParameterError,
    BadTupleError,
    DegreeZeroError,
    IncompleteSpecError,
    NonFiniteError,
    OrthozeroError,
    OutOfDomainError,
    QuadratureError,
    SeriesDivergenceError,
    SingularSystemError,
)
from .precision import DOUBLE, PrecisionPolicy, extended, parse_precision
from .polycore import (
    LEGENDRE,
    MONOMIAL,
    Jacobi,
    Monomial,
    Poly,
    RootLocation,
    RootReport,
    Ultraspherical,
    basis_to_monomial,
    classify_roots,
    min_boundary_distance,
    pochhammer,
    poly_eval,
    poly_roots,
)
from .orthopoly import (
    GenFunFamily,
    GenFunSpec,
    OrthoConstant,
    gauss_jacobi_rule,
    genfun_taylor,
    jacobi_poly,
    ortho_constant,
    quad_inner_product,
    resolve_diag_constant,
    resolve_ultra_derived_factor,
    ultra_derived_taylor,
)
from .transforms import (
    JacobiExpansion,
    JacobiFactorial,
    OrthogonalSeriesMap,
    UltraScaled,
    apply_transform,
    jacobi_factorial_transform,
    jacobi_transform,
    legendre_transform,
    orthogonal_series_transform,
    scale_ratio_sequence,
    ultra_series_spec,
    ultra_transform,
)
from .signreg import (
    CustomKernel,
    Domain,
    ExpKernel,
    FactorWrappedKernel,
    JacobiGenKernel,
    PowerSumKernel,
    SsrReport,
    UltraDerivedKernel,
    UltraGenKernel,
    Verdict,
    composition_check,
    factor_invariance_check,
    kernel_eval,
    ssr_minor,
    ssr_scan,
)
from .biortho import (
    BiorthogonalSystem,
    biorthogonal_poly,
    moment,
    moment_matrix,
    orthogonality_residuals,
    regularity_det,
    transform_equivalence_check,
    zeros_in_interval_check,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    emit_report,
    expected_case_count,
    run_campaign,
    run_selftest,
)
