"""qnls: a laboratory for coupled Schrodinger systems with quadratic couplings.

The package splits into five layers:

* :mod:`qnls.nonlinearity` -- trilinear potentials, their Wirtinger-derived
  couplings, and the structural hypothesis checks.
* :mod:`qnls.grids` -- periodic Cartesian and truncated radial meshes with
  the discrete operators and quadratures.
* :mod:`qnls.functionals` -- charge, energy, variational quotients, virial
  quantities, and the global/blow-up classifier.
* :mod:`qnls.evolve` -- Strang split-step integration with conservation
  monitoring, closed-form reference solutions, and blow-up detection.
* :mod:`qnls.groundstate` -- the stabilized fixed-point solver for the
  stationary system, constrained minimization, and instability data.

``qnls.cli`` wires everything into the ``qnls`` command.
"""

import os as _os

# honored at BLAS load time, so it must run before numpy comes in
if _os.environ.get("QNLS_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["QNLS_THREADS"])

from .nonlinearity import (CoefficientSet, HypothesisReport, ModelSpec, Monomial,
                           TrilinearPotential, builtin_model, check_degree_identity,
                           check_gauge, check_mass_balance, check_real_cone,
                           check_supermodularity, derive_fk, read_model_file,
                           validate_model, write_model_file)
from .grids import (Field, FieldState, GridSpec, apply_laplacian, grad_sq_integral,
                    integrate, laplacian, momentum_density_integral,
                    multiply_by_radius_sq, norm_sq, read_snapshot,
                    symmetric_decreasing_rearrangement, write_snapshot)
from .functionals import (FunctionalSnapshot, ThresholdReport, action, charge, energy,
                          interaction, kinetic, linear_term, local_virial_rhs,
                          sharp_constant, snapshot_of, threshold_report, variance,
                          variance_rate, virial_functional, virial_rhs,
                          virial_rhs_gradient_form, weighted_mass, weinstein_infimum,
                          weinstein_quotient)
from .evolve import (DiagnosticsSeries, EvolutionOutcome, EvolveConfig, pde_residual,
                     pseudo_conformal_solution, run_with_monitors, standing_wave,
                     virial_check)
from .groundstate import (ConstrainedMinResult, ConvergenceError, GroundStateResult,
                          InstabilityData5D, amplified_initializer,
                          constrained_minimize, dilated_initializer,
                          instability_data, instability_initializer, lambda_star,
                          modulated_distance, normalize_KQ1, petviashvili_solve,
                          pohozaev_check, read_groundstate_archive, scale_to_solution,
                          write_groundstate_archive, xi1_of)

__version__ = "0.1.0"
