"""Velocity and denoiser matching: learn the probability-flow drift from data.

A training batch pairs uniform times t ~ Unif[0, T] with prior draws
X_0 ~ N(0, I) and data draws X_1, and regresses either

* the velocity target  Y_t = dalpha X_0 + dbeta X_1  against  b(t, X_t), or
* the normalized denoiser target  (X_1 - c_skip X_t)/c_out  against
  F(c_noise(t), c_in(t) X_t), the unit-variance parameterization under which
  the effective loss weight is identically 1.

Both losses (and the generator's local loss) share one squared-residual pass
with exact parameter gradients.  ``fit``, the package's one training loop,
runs Adam with one substream per iteration, so runs are reproducible from
the config seed alone; ``train`` and every generator mode step through it.

Field callables produced here follow one convention package-wide:
``f(t, X) -> (m, d)`` where t is a scalar or an (m,) array and X is (m, d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net as nets
from .net import AdamState, Net, NetSpec
from .rng import Rng
from .schedule import Schedule, denoiser_coeffs

__all__ = [
    "InterpolantBatch",
    "TrainConfig",
    "TrainingDiverged",
    "draw_batch",
    "velocity_loss",
    "denoiser_loss",
    "residual_loss",
    "denoiser_target",
    "fit",
    "train",
    "velocity_from_denoiser",
    "make_velocity",
    "make_denoiser",
    "denoiser_to_velocity_field",
    "estimate_sigma_data",
    "clip_gradient",
]


class TrainingDiverged(RuntimeError):
    """Raised when a loss turns non-finite; carries the partial loss log."""

    def __init__(self, message, losses):
        super().__init__(message)
        self.losses = losses


def clip_gradient(grad: np.ndarray, max_norm: float | None) -> np.ndarray:
    """Rescale the gradient to the given norm when it exceeds it (None: off)."""
    if max_norm is None or max_norm <= 0:
        return grad
    norm = float(np.linalg.norm(grad))
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad


def fit(net: Net, step, iterations: int, seed: int, adam: AdamState,
        clip_grad_norm: float | None = None, ema: Net | None = None, ema_rate: float = 0.999):
    """Adam on ``net`` in place; returns the per-iteration losses.

    Iteration k takes ``(loss, grad) = step(Rng(seed, stream=1 + k))``, an
    Adam step on the clipped grad, then the optional EMA update.  A
    RuntimeError becomes TrainingDiverged carrying the losses so far.
    """
    adam.for_net(net)
    losses = []
    for it in range(iterations):
        try:
            loss, grad = step(Rng(seed, stream=1 + it))
            losses.append(loss)
            nets.adam_step(adam, net, clip_gradient(grad, clip_grad_norm))
            if ema is not None:
                nets.ema_update(ema, net, ema_rate)
        except RuntimeError as exc:
            raise TrainingDiverged(f"iteration {it}: {exc}", losses) from exc
    return losses


@dataclass(frozen=True)
class InterpolantBatch:
    """Times, endpoint draws, interpolants and regression targets for one batch."""

    t: np.ndarray    # (m,)
    x0: np.ndarray   # (m, d)
    x1: np.ndarray   # (m, d)
    xt: np.ndarray   # (m, d) = alpha(t) x0 + beta(t) x1
    yt: np.ndarray   # (m, d) = dalpha(t) x0 + dbeta(t) x1

    @property
    def size(self) -> int:
        return self.t.shape[0]

    @property
    def dim(self) -> int:
        return self.x0.shape[1]


@dataclass
class TrainConfig:
    schedule: Schedule
    net_spec: NetSpec
    stop_time: float = 0.99
    iterations: int = 5000
    batch_size: int = 256
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    loss: str = "velocity"           # "velocity" | "denoiser"
    sigma_data: float | None = None  # None -> estimated from the training set
    clip_grad_norm: float | None = None

    def __post_init__(self):
        if not 0.5 < self.stop_time < 1.0:
            raise ValueError("stop_time must lie in (0.5, 1)")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.loss not in ("velocity", "denoiser"):
            raise ValueError(f"unknown loss kind {self.loss!r}")


def draw_batch(data: np.ndarray, schedule: Schedule, T: float, m: int, seed: int | Rng) -> InterpolantBatch:
    """t ~ Unif[0, T], X_0 ~ N(0, I), X_1 with replacement from data."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[0] == 0:
        raise ValueError("data must be nonempty")
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    d = data.shape[1]
    t = T * rng.uniform(m)
    x0 = rng.normal((m, d))
    x1 = data[rng.integers(data.shape[0], m)]
    a, b, da, db = schedule.coeffs(t)
    xt = a[:, None] * x0 + b[:, None] * x1
    yt = da[:, None] * x0 + db[:, None] * x1
    return InterpolantBatch(t=t, x0=x0, x1=x1, xt=xt, yt=yt)


def _net_input(net: Net, t, X) -> np.ndarray:
    tf = nets.time_features(t, net.spec.time_features, net.spec.fourier_k)
    if tf.shape[0] == 1 and X.shape[0] > 1:
        tf = np.broadcast_to(tf, (X.shape[0], tf.shape[1]))
    return np.concatenate([tf, X], axis=1)


def residual_loss(net: Net, inp: np.ndarray, target: np.ndarray, name: str):
    """Mean over rows of ||net(inp) - target||^2 and its exact parameter gradient."""
    out, cache = nets.forward_batch(net, inp, want_cache=True)
    resid = out - target
    m = inp.shape[0]
    loss = float(np.sum(resid * resid)) / m
    if not np.isfinite(loss):
        raise RuntimeError(f"non-finite {name} loss")
    grad, _ = nets.grad_batch(net, inp, (2.0 / m) * resid, cache=cache)
    return loss, grad


def denoiser_target(x1: np.ndarray, xt: np.ndarray, c_skip: np.ndarray, c_out: np.ndarray):
    """Unit-variance F-space target (X_1 - c_skip X_t)/c_out."""
    return (x1 - c_skip[:, None] * xt) / c_out[:, None]


def velocity_loss(net: Net, batch: InterpolantBatch):
    """Mean squared velocity-matching residual and its exact parameter gradient."""
    return residual_loss(net, _net_input(net, batch.t, batch.xt), batch.yt, "velocity")


def denoiser_loss(net: Net, batch: InterpolantBatch, sigma_data: float, schedule: Schedule):
    """Normalized denoiser-matching loss: mean ||F_pred - F_target||^2.

    F_pred = F(c_noise(t), c_in(t) X_t); F_target = (X_1 - c_skip X_t)/c_out.
    The uniform weight makes this the conditional-mean regression for the
    denoiser D(t,x) = c_skip x + c_out F(c_noise, c_in x).
    """
    c_in, c_skip, c_out, c_noise, _ = denoiser_coeffs(schedule, batch.t, sigma_data)
    inp = _net_input(net, c_noise, c_in[:, None] * batch.xt)
    return residual_loss(net, inp, denoiser_target(batch.x1, batch.xt, c_skip, c_out), "denoiser")


def estimate_sigma_data(data: np.ndarray) -> float:
    """Average per-coordinate standard deviation of the training set."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    return float(np.mean(np.std(data, axis=0)))


def train(config: TrainConfig, data: np.ndarray):
    """Adam on fresh batches; returns (net, per-iteration losses).

    Iteration k draws its batch from substream 1+k of the config seed; the
    net is initialized from substream 0 (the seed itself).  iterations=0
    returns the freshly initialized net.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    net = nets.net_init(config.net_spec, config.seed)
    sigma_data = config.sigma_data
    if config.loss == "denoiser" and sigma_data is None:
        sigma_data = estimate_sigma_data(data)

    def step(rng):
        batch = draw_batch(data, config.schedule, config.stop_time, config.batch_size, rng)
        if config.loss == "velocity":
            return velocity_loss(net, batch)
        return denoiser_loss(net, batch, sigma_data, config.schedule)

    adam = AdamState(lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)
    return net, fit(net, step, config.iterations, config.seed, adam, config.clip_grad_norm)


def velocity_from_denoiser(denoiser, schedule: Schedule, t, x) -> np.ndarray:
    """b(t, x) = (dalpha/alpha) x + beta (dbeta/beta - dalpha/alpha) D(t, x).

    Uses the pre-simplified closed forms for both time factors, so t = 0 is
    the limit form (for the follmer schedule b(0, x) = D(0, x)); singular at
    t = 1 where alpha vanishes.
    """
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    squeeze = np.asarray(x).ndim == 1
    t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (X.shape[0],))
    dlog = schedule.dlog_alpha(t_arr)
    rate = schedule.rate(t_arr)
    out = dlog[:, None] * X + rate[:, None] * np.atleast_2d(denoiser(t, X))
    return out[0] if squeeze else out


def make_velocity(net: Net):
    """Wrap a velocity net as a field callable f(t, X) -> (m, d)."""

    def field_fn(t, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return nets.forward_batch(net, _net_input(net, t, X))

    return field_fn


def make_denoiser(net: Net, schedule: Schedule, sigma_data: float):
    """Wrap an F-net as the denoiser D(t, x) = c_skip x + c_out F(c_noise, c_in x)."""

    def denoiser_fn(t, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (X.shape[0],))
        c_in, c_skip, c_out, c_noise, _ = denoiser_coeffs(schedule, t_arr, sigma_data)
        pred = nets.forward_batch(net, _net_input(net, c_noise, c_in[:, None] * X))
        return c_skip[:, None] * X + c_out[:, None] * pred

    return denoiser_fn


def denoiser_to_velocity_field(denoiser, schedule: Schedule):
    """Field callable applying the denoiser-to-velocity conversion pointwise."""

    def field_fn(t, X):
        return velocity_from_denoiser(denoiser, schedule, t, np.atleast_2d(X))

    return field_fn
