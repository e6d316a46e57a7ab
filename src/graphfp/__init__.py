"""Fokker-Planck gradient flows, transport metrics, and functional
inequalities on truncated weighted graphs.

The public names below are loaded on first access (PEP 562), so
``import graphfp`` itself imports no numpy: the command line sets its
BLAS thread default before anything loads numpy.
"""

import importlib

_EXPORTS = {
    "config": ("ConfigError", "ExperimentConfig", "GeodesicConfig", "IntegratorConfig"),
    "dynamics": ("MonitorReport", "TrajectoryRecord",
                 "decay_rate_fit", "effective_potential_rhs", "fokker_planck_rhs",
                 "integrate", "is_gradient_flow", "monitor"),
    "errors": ("ConvergenceError", "InsufficientDataError", "InvalidRowError",
               "InvariantBreachError", "NearTieWarning", "StiffnessError", "TruncationError"),
    "graph": ("GraphSpec", "WeightFamily", "WeightSequence", "build_weights",
              "estimate_tail_cutoff", "from_locally_finite", "min_weight_prefix",
              "parse_weight_family"),
    "inequalities": ("TalagrandClass", "TalagrandConstants", "sample_in_class",
                     "talagrand_constants", "verify_talagrand", "verify_w1_bound",
                     "w1_distance"),
    "metric": ("GeodesicResult", "apply_mobility", "geodesic_distance",
               "kernel_dimension_check", "norm_equivalence_check"),
    "mobility": ("invert_mobility", "metric_inner"),
    "serialize": ("load_density", "path_to_csv", "save_density", "snapshots_to_csv",
                  "table_to_csv", "trajectory_to_csv", "write_report"),
    "simplex": ("ConstantsReport", "Density", "TangentVector", "free_energy", "gibbs",
                "invariant_constants", "l2m_norm_sq", "project_tangent",
                "relative_energy", "relative_entropy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
