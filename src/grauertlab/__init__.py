"""grauertlab: the Grauert metric on C*, its pullbacks to complements of
principal divisors in C^n, curvature machinery, and divisor-convergence
experiments.
"""

from .density import (
    DensityJet,
    UJet,
    gamma_jet,
    gaussian_conformal,
    grauert_curvature,
    hk_density_jet,
    m_factor,
    power_curvature,
    pullback_density_jet,
    u_jet,
)
from .curvature import (
    critical_point_curvature,
    holo_sectional_curvature,
    hsc,
    k_plus,
    kahler_tensor,
    line_curvature,
    line_density_jet,
    sup_sectional_curvature,
)
from .divisors import (
    CompactGrid,
    DivisorFamily,
    curvature_gap,
    liminf_check,
    sup_metric_gap,
    twisted_family,
)
from .errors import GrauertError
from .foliation import (
    LeafChart,
    VectorField,
    divisor_approach,
    geometric_path,
    integrate_leaf,
    leaf_curvature,
    leaf_density_jet,
    transverse_field,
)
from .holomorphic import HoloMap, Jet, Polynomial, eval_jet
from .metric import (
    MetricDerivatives,
    metric_det,
    metric_eval,
    metric_matrix,
    metric_matrix_jet,
)

__version__ = "0.1.0"

__all__ = [
    "CompactGrid",
    "DensityJet",
    "DivisorFamily",
    "GrauertError",
    "HoloMap",
    "Jet",
    "LeafChart",
    "MetricDerivatives",
    "Polynomial",
    "UJet",
    "VectorField",
    "critical_point_curvature",
    "curvature_gap",
    "divisor_approach",
    "eval_jet",
    "gamma_jet",
    "gaussian_conformal",
    "geometric_path",
    "grauert_curvature",
    "hk_density_jet",
    "holo_sectional_curvature",
    "hsc",
    "integrate_leaf",
    "k_plus",
    "kahler_tensor",
    "leaf_curvature",
    "leaf_density_jet",
    "liminf_check",
    "line_curvature",
    "line_density_jet",
    "m_factor",
    "metric_det",
    "metric_eval",
    "metric_matrix",
    "metric_matrix_jet",
    "power_curvature",
    "pullback_density_jet",
    "sup_metric_gap",
    "sup_sectional_curvature",
    "transverse_field",
    "twisted_family",
    "u_jet",
]
