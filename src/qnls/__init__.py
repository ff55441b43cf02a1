"""qnls: a laboratory for coupled Schrodinger systems with quadratic couplings.

The package splits into five layers:

* :mod:`qnls.nonlinearity` -- the model type (coefficients and the monomials
  of a trilinear potential), its Wirtinger-derived couplings, and the
  structural hypothesis checks, all run by ``validate_model`` on one seeded
  sample draw.
* :mod:`qnls.grids` -- periodic Cartesian and truncated radial meshes with
  the discrete operators and quadratures.
* :mod:`qnls.functionals` -- charge, energy, variational quotients, virial
  quantities, and the global/blow-up classifier.
* :mod:`qnls.evolve` -- Strang split-step integration with conservation
  monitoring, closed-form reference solutions, and blow-up detection.
* :mod:`qnls.groundstate` -- the stabilized fixed-point solver for the
  stationary system, constrained minimization, and instability constructions.

``qnls.cli`` wires everything into the ``qnls`` command.
"""

import os as _os

# honored at BLAS load time, so it must run before numpy comes in.  Unset,
# QNLS_THREADS means one thread: a BLAS pool of its own can stall the small
# pairings of the solvers for milliseconds a call.  A pool variable the user
# set wins either way.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, _os.environ.get("QNLS_THREADS") or "1")

from .nonlinearity import (CoefficientSet, HypothesisReport, ModelSpec, Term, builtin_model,
                           check_supermodularity, derive_fk, read_model_file, validate_model,
                           write_model_file)
from .grids import (FieldState, GridSpec, apply_laplacian, grad_sq_integral, integrate,
                    norm_sq, read_snapshot, symmetric_decreasing_rearrangement,
                    write_snapshot)
from .functionals import (FunctionalSnapshot, ThresholdReport, action, charge, energy,
                          interaction, kinetic, linear_term, sharp_constant, snapshot_of,
                          threshold_report, variance, variance_rate, virial_functional,
                          virial_rhs, virial_rhs_gradient_form, weighted_mass,
                          weinstein_infimum, weinstein_quotient)
from .evolve import (DiagnosticsSeries, EvolutionOutcome, EvolveConfig, pde_residual,
                     pseudo_conformal_with_rate, run_with_monitors, standing_wave,
                     virial_check)
from .groundstate import (ConstrainedMinResult, ConvergenceError, GroundStateResult,
                          amplified_initializer, constrained_minimize,
                          dilated_initializer, lambda_star, modulated_distance,
                          petviashvili_solve, read_groundstate_archive,
                          write_groundstate_archive)

__version__ = "0.1.0"
