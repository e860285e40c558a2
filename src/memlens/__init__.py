"""memlens: first-order optimizers with exponentially decaying memory, their
memoryless approximations with memory-correction terms, modified equations,
and permutation-averaged mini-batch corrections, at desk scale."""

from .core import (Kind, KSpec, OptimizerSpec, RunConfig,
                   Trajectory, linf_distance, rng, smoothed_one_norm, softsign)
from .correction import (CorrectionTerm, Method, correction_bruteforce,
                         correction_closed, correction_closed_adamw,
                         correction_closed_heavyball, correction_closed_lionk,
                         correction_closed_nadamw, correction_closed_nesterov,
                         correction_contraction,
                         correction_signum_adam_identity_check,
                         modified_loss_heavyball)
from .harness import (SweepReport, defect_sweep, fit_loglog, global_error_sweep,
                      n_burn_steps, ordering_fraction, trajectory_closeness)
from .losses import (LossModel, MiniBatchFamily, fd_check_grad, fd_check_hvp,
                     loss_from_config, make_logistic, make_minibatch_quadratics,
                     make_quadratic, make_scalar_quartic)
from .memoryful import (HistoryBuffer, MomentumState, eval_F_history,
                        momentum_form, run_memoryful, step_state)
from .memoryless import (CorrectionVariant, MemorylessKind, Order,
                         one_step_defect, run_memoryless, step_memoryless)
from .minibatch import (PermutationCoefficients, expected_correction_exhaustive,
                        expected_correction_mc, modified_loss_minibatch,
                        perm_coefficients)
from .ode import ModifiedODE, build_modified_ode, compare_discrete_vs_ode, integrate_rk4

__version__ = "0.1.0"
