"""memlens: first-order optimizers with exponentially decaying memory, their
memoryless approximations with memory-correction terms, modified equations,
and permutation-averaged mini-batch corrections, at desk scale."""

from .core import (Kind, KSpec, OptimizerSpec, RunConfig,
                   Trajectory, rng, smoothed_one_norm, softsign)
from .correction import (CorrectionTerm, Method, correction_bruteforce,
                         correction_closed, correction_contraction, modified_loss_heavyball)
from .harness import (SweepReport, defect_sweep, fit_loglog, global_error_sweep,
                      n_burn_steps, ordering_fraction, trajectory_closeness)
from .losses import (LossModel, MiniBatchFamily, fd_check_grad, fd_check_hvp,
                     loss_from_config, make_logistic, make_minibatch_quadratics,
                     make_quadratic, make_scalar_quartic)
from .memoryful import MEMORYFUL, momentum_form, run_memoryful, run_stack
from .memoryless import (CorrectionVariant, MemorylessKind, Order,
                         one_step_defect, run_memoryless)
from .minibatch import (PermutationCoefficients, expected_correction_exhaustive,
                        expected_correction_mc, modified_loss_minibatch,
                        perm_coefficients)
from .ode import ModifiedODE, build_modified_ode, compare_discrete_vs_ode, integrate_rk4

__version__ = "0.1.0"
