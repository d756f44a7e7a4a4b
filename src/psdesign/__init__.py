"""Photometric stereo with statistically optimal light-source placement.

Render Lambertian scenes under chosen lights, invert them back to per-pixel
normals and albedo, quantify the uncertainty of those estimates, and descend
on the uncertainty to find better light directions.
"""

import types

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

# every name imported above is public
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
