"""frontlab: heteroclinic fronts of dispersive-diffusive Burgers equations.

Construct steady fronts of u_t - u_xx + u*u_x = L[u] for admissible
Fourier multipliers L, certify the one-negative-eigenvalue condition on
the linearized Schrodinger operators, evolve large perturbations with
dynamic translation tracking, and audit monotonicity, energy, and
algebraic decay-rate bounds along the trajectories.
"""

__version__ = "0.1.0"

from .symbols import (AdmissibilityReport, MultiplierSpec, SymbolError,
                      SymbolExpr, eval_symbol, parse_symbol, preset,
                      rescale_symbol, spec_from_text, validate_admissibility)
from .spectral import (Field, Grid, apply_multiplier, derivative, lp_norm,
                       make_grid, weighted_l2)
from .fronts import (FrontError, FrontProfile, GalileanParams,
                     closed_form_burgers, front_for_operator,
                     galilean_normalize, newton_front, profile_residual,
                     shoot_local_front)
from .certify import (SpectralCertificate, certify_front,
                      count_negative_eigenvalues, schrodinger_tridiagonal,
                      sweep_nu)
from .evolution import (StabilityError, StepperConfig, Trajectory,
                        cole_hopf_exact, evolve, make_perturbation)
from .diagnostics import (NormSeries, check_energy_inequality,
                          compare_to_theorem, fit_rate, predicted_rate,
                          weighted_bound_monitor)
from .config import RunConfig, operator_from_config
