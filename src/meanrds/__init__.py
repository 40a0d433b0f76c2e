"""Numerical toolkit for mean separation in random dynamical systems.

Finitely generated amenable groups (Z^a times finite cyclic factors) act on
a finite base; fibers are tori with affine integer-matrix maps. The package
estimates Besicovitch, Weyl, and Banach mean separations, subset densities,
and classifies systems as mean-equicontinuous or mean-sensitive.
"""

from .groups import (
    AmenableGroup,
    BudgetError,
    FolnerFamily,
    GroupSpecError,
    parse_group,
    search_ball,
)
from .rds import (
    BaseSpace,
    DomainError,
    FiberMap,
    FiberSpace,
    PairEngine,
    RandomDynamicalSystem,
    SystemSpecError,
    ValidationReport,
    fold_norm,
    reduce_point,
    torus_delta,
    torus_distance,
    validate,
)
from .pseudometrics import (
    EstimatorConfig,
    PseudometricEstimate,
    banach_mean,
    banach_separation,
    besicovitch_mean,
    besicovitch_separation,
    fiber_besicovitch,
    fiber_weyl,
    integral_besicovitch,
    mean_curves,
    pair_source,
    pair_summary,
    sup_fiber_weyl,
    synthetic_source,
    translated_besicovitch_scan,
    weyl_mean,
    weyl_separation,
)
from .density import (
    DensityEstimate,
    SeparationSet,
    banach_lower_density,
    banach_upper_density,
    density_summary,
    lower_density,
    separation_set,
    subset_indicator,
    upper_density,
)
from .classify import (
    ClassificationReport,
    ClassifierConfig,
    dichotomy_report,
    equicontinuity_region,
    equicontinuous_point_set,
    mean_l_stable_test,
    openness_violations,
    sensitivity_test,
    wme_test,
)
from . import catalog

__version__ = "0.1.0"
