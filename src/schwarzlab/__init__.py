"""Numerical laboratory for gradient bounds of metric-harmonic disk functions."""

from .bounds import (BoundReport, check_distance_contraction,
                     check_gradient_bound, check_unimodal_bounds, chen_rhs,
                     hyperbolic_distance, mobius_automorphism,
                     random_disk_pairs, ring_grid, schwarz_quotient)
from .config import DEFAULT, Tolerances
from .errors import (DomainError, InvalidInput, NoConvergence, NonIntegrable,
                     NumericInversionFailure, OutOfRange, OutsideDisk,
                     ParameterOutOfRange, PreconditionViolated,
                     SchwarzlabError, StencilOutsideDisk)
from .gallery import (ExampleReport, run_halfplane_example,
                      run_negative_curvature_example, run_strip_example,
                      run_zero_curvature_example)
from .harmonic import (BoundaryData, GridField, HarmonicField, analytic_field,
                       boundary_from_json, boundary_from_samples,
                       constant_boundary, cosine_boundary, euclidean_field,
                       fd_solve_oracle, hopf_holomorphy_residual,
                       lift_sup_difference, oracle_sup_difference,
                       pde_residual, poisson_gradient,
                       poisson_value_and_gradient, poisson_values,
                       random_smooth_boundary,
                       random_symmetric_boundary, solved_field, step_boundary)
from .lemmas import (LogConcaveDiffeo, check_unimodal, dif_diagnostics,
                     generate_logconcave, logconcave_diffeo_slack, psi_family,
                     psi_sweep, r_ratio, sharpness_ratio, unimodal_slack)
from .metrics import (ConcaveTentMap, HTransform, LogConcavityReport, Metric1D,
                      constant_metric, cosine_metric, curvature_at,
                      exponential_metric, half_plane_metric, hyperbolic_metric,
                      inverse_H, log_concavity_report, mass, metric_from_json,
                      mollify, secant_metric, tabulated_metric, tent_metric,
                      transform_H, transform_table)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
