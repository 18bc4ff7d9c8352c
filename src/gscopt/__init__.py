"""gscopt: Newton-type solvers for generalized self-concordant minimization.

The package is organized around a scalar kernel (step sizes, profile
functions, parameter calculus), univariate loss atoms with certified
constants, multivariate model oracles, and three solver families: damped /
two-phase Newton, proximal Newton for composite problems, and BFGS.
"""

from .atoms import (LossAtom, atom_eval, entropy, entropy_barrier, exponential,
                    gsc_certificate, log_barrier, logistic, neg_power,
                    numeric_conjugate, positive_power, smoothed_hinge,
                    smoothed_l1)
from .bench_io import (Dataset, fast_gradient, frank_wolfe, gen_logistic,
                       gen_portfolio, pg_bb, read_libsvm, read_trace, write_trace)
from .errors import (ConvergenceError, DomainError, GscError,
                     NotPositiveDefiniteError, ParameterError, SubproblemError,
                     UnboundedError)
from .kernel import (GscParams, combine_sum, conjugate_params, d_nu,
                     descent_estimate, kappa_bounds, omega, omega_bar,
                     omega_bar_bar, phase2_threshold, r_nu, reparam, step_size,
                     transform_affine)
from .linops import (NewtonSystem, largest_eigenvalue, local_norm,
                     newton_direction, smallest_eigenvalue)
from .models import (DwdModel, GlmModel, PortfolioModel, QuadraticModel,
                     dwd_as_glm, glm_gsc_params)
from .newton import (IterRecord, SolveOptions, SolveResult, existence_check,
                     linesearch_step, minimize)
from .prox import ProxSpec, project_simplex, prox_apply, scaled_prox_subproblem
from .prox_newton import CompositeProblem, minimize_composite
from .quasi_newton import BfgsState, bfgs_update, dennis_more_ratio, minimize_qn

__version__ = "0.1.0"
