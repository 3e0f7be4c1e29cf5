"""Centroaffine geometry of homogeneous level sets: metrics, boundary
regularity, and completeness certificates."""

from .chart import (
    ChartFrame,
    chart_metric,
    classify,
    lorentz_metric,
    make_chart,
    radial_projection,
    slice_chart,
)
from .completeness import (
    AnalysisConfig,
    CompletenessVerdict,
    CurveTrace,
    completeness_verdict,
    concavity_test,
    cubic_segment_test,
    curve_length_with_error,
    geodesic_shoot,
    n1_monomial_test,
)
from .boundary import (
    BoundaryPoint,
    boundary_scan,
    gen_perturb,
    regularity_report,
)
from .forms import Signature, SymmetricForm
from .homogeneous import (
    HomogeneousPolynomial,
    SmoothHomogeneousMap,
    polarization,
    restrict_to_line,
)
from .structure import (
    CubicFormSample,
    cubic_form,
    curvature_residual,
    fund_equation_residual,
    volume_parallel_residual,
)
from .errors import (
    ConsistencyError,
    DegenerateFrameError,
    DomainError,
    MixedDegreeError,
    ParseError,
    UnboundedRayError,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "BoundaryPoint",
    "ChartFrame",
    "CompletenessVerdict",
    "ConsistencyError",
    "CubicFormSample",
    "CurveTrace",
    "DegenerateFrameError",
    "DomainError",
    "HomogeneousPolynomial",
    "MixedDegreeError",
    "ParseError",
    "Signature",
    "SmoothHomogeneousMap",
    "SymmetricForm",
    "UnboundedRayError",
    "boundary_scan",
    "chart_metric",
    "classify",
    "completeness_verdict",
    "concavity_test",
    "cubic_form",
    "cubic_segment_test",
    "curvature_residual",
    "curve_length_with_error",
    "fund_equation_residual",
    "gen_perturb",
    "geodesic_shoot",
    "lorentz_metric",
    "make_chart",
    "n1_monomial_test",
    "polarization",
    "radial_projection",
    "regularity_report",
    "restrict_to_line",
    "slice_chart",
    "volume_parallel_residual",
]
