"""Deformed G2 gauge theory on the flat 7-torus.

Three layers, importable separately:

  exact      scalars, exalg, g2, prover: rational/polynomial exterior
             algebra and the symbolic identity catalog.
  pointwise  ddt: residuals, calibration weight, ascent direction; the
             one home of each dDT formula.
  fields     torus, flow: periodic grid calculus, functionals, gradient
             flow, instanton solve, Newton continuation, kernel probe.
             They evaluate ddt's formulas on whole fields: exalg.wedge
             and hodge hand a torus.FormField to the field kernels.

The ddt7 console script (ddt7.cli) drives all of it from JSON configs.
"""

from .errors import (DegenerateMetricError, InputError, NumericalError,
                     ObstructionError)
from .scalars import FLOAT, RATIONAL, MultiPoly, PolyRing
from .exalg import (Endo, KForm, blades, det_endo, hodge, inner, interior,
                    pullback, sharp2, solve_endo, wedge)
from .g2 import (G2Data, TwoFormDecomp, decompose2, dt_wedge, embed_cylinder,
                 spin7_pair1, spin7_pair2, standard, star_wedge_phi)
from .ddt import (PointResidual, ddt_residual, deformed_inner, eta,
                  grad_density, point_residual, scaled_residual,
                  spin7_res1, spin7_res2, theta_weight)
from .prover import (IdentityReport, canonical_mutations, catalog_ids,
                     evaluate_at_point, evaluate_float, float_suite,
                     identity_sites, mutate, verify, verify_all)
from .torus import (Flux, FormField, GaugePotential, TorusGrid, codiff,
                    curvature, d, dtheta4, field_inner,
                    field_l2, gauge_shift, integrate, kl_functional,
                    kl_oneform, kl_segment, load_field, load_flux, nu,
                    nu_derivative_check, random_coclosed_potential,
                    random_field, random_potential, residual_field,
                    save_field, save_flux, theta3, zero_potential)
from .flow import (DEFAULT_SCHEDULE, ContinuationResult, ContinuationStep,
                   FlowConfig, Trajectory, ascent_field, continuation,
                   cylinder_check, cylinder_check_samples, flow_run,
                   flow_step, instanton_solve, kernel_probe)
from .kernels import backend_name

__version__ = "0.1.0"
