"""Photometric stereo with statistically optimal light-source placement.

Render Lambertian scenes under chosen lights, invert them back to per-pixel
normals and albedo, quantify the uncertainty of those estimates, and descend
on the uncertainty to find better light directions.
"""

from .core import (
    AlbedoMap,
    AlphaOutOfRangeError,
    DegenerateVectorError,
    DimensionMismatchError,
    EmptyMaskError,
    FileFormatError,
    IntensityStack,
    InvalidSpecError,
    LightConfig,
    NonPositiveSigmaError,
    NonUnitRowsError,
    NormalMap,
    PhotometryError,
    SingularLightMatrixError,
    normalize,
)
from .evaluate import AngularErrorStats, ConfigComparison, angular_error, compare_configs, compare_maps
from .forward import NoiseSpec, Stage, add_noise, render_pixel, render_stack, stream_key, substream
from .oed import (
    ConfidenceRegion,
    EstimateCovariance,
    ShapePrior,
    a_criterion,
    b_matrix,
    build_shape_prior,
    chi_square_quantile,
    confidence_region,
    covariance,
    phi_lower_bound,
    phi_shape_agnostic,
    phi_shape_aware,
)
from .optimize import (
    OptimizationReport,
    OptimizerConfig,
    baseline_heuristic_spread,
    baseline_orthogonal_triad,
    baseline_random,
    optimize_lights,
    phi_gradient,
)
from .scenes import AlbedoSpec, SceneSpec, export_normal_map, generate, ingest_normal_map
from .solver import PixelEstimate, solve_exact, solve_lsq, solve_map

__version__ = "0.1.0"

__all__ = [
    "AlbedoMap",
    "AlbedoSpec",
    "AlphaOutOfRangeError",
    "AngularErrorStats",
    "ConfidenceRegion",
    "ConfigComparison",
    "DegenerateVectorError",
    "DimensionMismatchError",
    "EmptyMaskError",
    "EstimateCovariance",
    "FileFormatError",
    "IntensityStack",
    "InvalidSpecError",
    "LightConfig",
    "NoiseSpec",
    "NonPositiveSigmaError",
    "NonUnitRowsError",
    "NormalMap",
    "OptimizationReport",
    "OptimizerConfig",
    "PhotometryError",
    "PixelEstimate",
    "SceneSpec",
    "ShapePrior",
    "SingularLightMatrixError",
    "Stage",
    "a_criterion",
    "add_noise",
    "angular_error",
    "b_matrix",
    "baseline_heuristic_spread",
    "baseline_orthogonal_triad",
    "baseline_random",
    "build_shape_prior",
    "chi_square_quantile",
    "compare_configs",
    "compare_maps",
    "confidence_region",
    "covariance",
    "export_normal_map",
    "generate",
    "ingest_normal_map",
    "normalize",
    "optimize_lights",
    "phi_gradient",
    "phi_lower_bound",
    "phi_shape_agnostic",
    "phi_shape_aware",
    "render_pixel",
    "render_stack",
    "solve_exact",
    "solve_lsq",
    "solve_map",
    "stream_key",
    "substream",
]
