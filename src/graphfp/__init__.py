"""Fokker-Planck gradient flows, transport metrics, and functional
inequalities on truncated weighted graphs."""

from .dynamics import (IntegratorConfig, MonitorReport, TrajectoryRecord,
                       decay_rate_fit, effective_potential_rhs, fokker_planck_rhs,
                       integrate, master_equation_rhs, monitor, zero_diffusion_rhs)
from .errors import (ConvergenceError, InsufficientDataError, InvariantBreachError,
                     NearTieWarning, StiffnessError, TruncationError)
from .graph import (GraphSpec, WeightFamily, WeightSequence, build_weights,
                    estimate_tail_cutoff, from_locally_finite, min_weight_prefix,
                    parse_weight_family)
from .inequalities import (TalagrandClass, TalagrandConstants, sample_in_class,
                           talagrand_constants, verify_talagrand, verify_w1_bound,
                           w1_distance)
from .metric import (GeodesicConfig, GeodesicResult, apply_mobility, geodesic_distance,
                     invert_mobility, kernel_dimension_check, log_mean, metric_inner,
                     norm_equivalence_check)
from .simplex import (ConstantsReport, Density, TangentVector, free_energy, gibbs,
                      invariant_constants, l2m_norm_sq, project_tangent,
                      relative_energy, relative_entropy)

__version__ = "0.1.0"
