"""charflow: probability-flow characteristic generators at desk scale.

Learn a velocity or denoiser field from samples, solve the probability flow
with Euler or exponential-integrator steppers, distill the flow map into a
one-step generator, and verify every stage against closed-form oracles for
Gaussian-smoothed atomic targets.
"""

__version__ = "0.1.0"

from .schedule import Schedule, denoiser_coeffs, validate_schedule
from .target import (TargetSpec, as_points, as_times, atomic_mixture, embed_target, sample_target,
                     swiss_roll)
from .oracle import (OracleContext, denoiser_exact, flow_exact, gamma_coefficient,
                     manifold_decompose, score_exact, velocity_exact)
from .net import AdamState, Net, NetSpec, adam_step, ema_update, net_init
from .velocity import (InterpolantBatch, TrainConfig, draw_batch, denoiser_loss, train,
                       velocity_from_denoiser, velocity_loss)
from .sampler import TimeGrid, TrajectoryBatch, euler_flow, integrate, push_samples
from .cgen import (CgTrainConfig, StudentNet, g_apply, global_loss, local_loss, multi_step,
                   one_step, regression_loss, self_distill_reference, semigroup_penalty, train_cg)
from .metrics import MetricReport, order_fit, sliced_w2, w2_exact, w2_gaussian
from .rng import Rng
