"""The characteristic generator: a two-time map distilling the probability flow.

A student predicts the path-averaged denoiser D_S(t, s, x) and the flow map
is anchored to the exponential-integrator structure,

    g(t, s, x) = phi(t, s) x + psi(t, s) D_S(t, s, x),

so g(t, t, x) = x holds exactly by construction (psi(t, t) = 0).  D_S itself
reuses the unit-variance denoiser scalings: the underlying network F sees
[time features of t, time features of s, c_in(t) x] and its output is mapped
through c_skip(t) x + c_out(t) F.  A ``plain`` student bypasses all of this
and lets the network represent g(t, s, x) directly; the diagonal identity
must then be learned from the regression diagonal terms.

Three training modes:

* regression — fit stored solver trajectories over sampled index pairs
  (k <= l <= K-1, diagonal terms half-weighted), optionally adding the
  semigroup penalty ||g(t_k, t_l, Z_k) - g(t_j, t_l, Z_j)||^2 over sampled
  index triples k <= j <= l;
* practical — per iteration draw an interpolant batch and nested times
  t <= u <= s <= T, and combine the local denoiser-matching risk at s = t
  with the global two-branch residual
  ||g_off(s,T) . g(u,s) . g_int(t,u) (X_t)  -  g_off(s,T) . g_off(t,s) (X_t)||^2,
  where g_int integrates the teacher denoiser with the exponential
  integrator and the offline copy g_off is an EMA of the student; gradients
  flow only through the middle student factor;
* self-distill — the teacher path is replaced by the student's own two-hop
  midpoint composition, evaluated without gradient tracking.

Every mode is a step function around the shared loop ``velocity.fit``.
Every loss evaluates g through one forward object, ``_GParts``, which is
also the only place that forms D_S and g, and applies one finite check to
its value.  A loss accepts a StudentNet or a plain callable g; only a
StudentNet gets a gradient.

Sampling is one evaluation of g(0, T, .) per particle, or a few chained
evaluations over a node list (one-step is the node list (0, T)); both step
through ``sampler.integrate``, the loop of the Euler and EI samplers, and so
does the practical teacher path g_int, on per-row nodes over [t, u].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net as nets
from .net import AdamState, Net, NetSpec
from .rng import Rng
from .sampler import NonFiniteState, TrajectoryBatch, _ei_step, integrate
from .schedule import Schedule, denoiser_coeffs
from .target import as_points, as_times, as_times_or_scalar
from .velocity import (InterpolantBatch, denoiser_target, draw_batch, estimate_sigma_data, fit,
                       residual_loss)

__all__ = [
    "StudentNet",
    "CgTrainConfig",
    "g_apply",
    "student_denoiser",
    "regression_loss",
    "semigroup_penalty",
    "local_loss",
    "global_loss",
    "self_distill_reference",
    "make_teacher_flow",
    "sample_index_pairs",
    "train_cg",
    "one_step",
    "multi_step",
]


@dataclass
class StudentNet:
    """Two-time network plus the schedule data needed to evaluate g(t, s, x)."""

    net: Net
    schedule: Schedule
    stop_time: float
    sigma_data: float = 1.0
    plain: bool = False

    def __post_init__(self):
        spec = self.net.spec
        f = nets.time_feature_dim(spec.time_features, spec.fourier_k)
        if spec.input_dim != 2 * f + spec.output_dim:
            raise ValueError(
                f"student input_dim must be 2*(time-feature dim) + d = {2 * f + spec.output_dim}, "
                f"got {spec.input_dim}"
            )
        if not 0.0 < self.stop_time < 1.0:
            raise ValueError("stop_time must lie in (0, 1)")
        if self.sigma_data <= 0:
            raise ValueError("sigma_data must be positive")

    @property
    def dim(self) -> int:
        return self.net.spec.output_dim

    def copy(self) -> "StudentNet":
        return StudentNet(self.net.copy(), self.schedule, self.stop_time,
                          self.sigma_data, self.plain)


def _rows(t, s, x, stop_time):
    X = as_points(x, "x")
    m = X.shape[0]
    t, s = as_times_or_scalar(t, m, "t"), as_times_or_scalar(s, m, "s")
    if not (np.all(t >= 0.0) and np.all(s <= stop_time + 1e-12)):  # a NaN time fails here
        raise ValueError("times must lie in [0, stop_time]")
    if not np.all(t <= s):
        raise ValueError("g requires t <= s")
    return t, s, X


def _student_input(student: StudentNet, t, s, X):
    if student.plain:
        return nets.net_input(student.net.spec, (t, s), X), None
    c_in, c_skip, c_out, _, _ = denoiser_coeffs(student.schedule, t, student.sigma_data)
    return nets.net_input(student.net.spec, (t, s), c_in[..., None] * X), (c_in, c_skip, c_out)


def student_denoiser(student: StudentNet, t, s, x) -> np.ndarray:
    """D_S(t, s, x) = c_skip(t) x + c_out(t) F(t, s, c_in(t) x)."""
    if student.plain:
        raise ValueError("plain students parameterize g directly and carry no denoiser")
    t, s, X = _rows(t, s, x, student.stop_time)
    return _GParts(student, t, s, X, want_cache=False).d_s


def g_apply(student: StudentNet, t, s, x) -> np.ndarray:
    """Evaluate the two-time flow map g(t, s, x) on a batch x (m, d)."""
    t, s, X = _rows(t, s, x, student.stop_time)
    return _GParts(student, t, s, X, want_cache=False).out


class _GParts:
    """g(t, s, X) on a row batch: the one place that evaluates g.

    ``g`` is a StudentNet or a plain callable g(t, s, X).  A callable keeps
    only its output and ``student`` is None (no VJP).  A student keeps its
    forward cache for later VJPs unless ``want_cache`` is False; an anchored
    student also keeps D_S.
    """

    def __init__(self, g, t, s, X, want_cache: bool = True):
        if not isinstance(g, StudentNet):
            self.student = None
            self.out = as_points(g(t, s, X), "g output")
            return
        self.student = g
        self.inp, self.coeffs = _student_input(g, t, s, X)
        if want_cache:
            f_out, self.cache = nets.forward_batch(g.net, self.inp, want_cache=True)
        else:
            f_out, self.cache = nets.forward_batch(g.net, self.inp), None
        if g.plain:
            self.out = f_out
            return
        self.phi, self.psi = g.schedule.ei_coeffs(t, s)
        _, c_skip, c_out = self.coeffs
        self.d_s = c_skip[..., None] * X + c_out[..., None] * f_out
        self.out = self.phi[..., None] * X + self.psi[..., None] * self.d_s

    def vjp(self, upstream, want_input: bool = False):
        """Gradient of sum_i <upstream_i, g_i> w.r.t. params (and inputs x)."""
        d = self.student.dim
        if self.student.plain:
            pg, ig = nets.grad_batch(self.student.net, self.inp, upstream, cache=self.cache)
            return pg, (ig[:, -d:] if want_input else None)
        c_in, c_skip, c_out = self.coeffs
        up_f = (self.psi * c_out)[..., None] * upstream
        pg, ig = nets.grad_batch(self.student.net, self.inp, up_f, cache=self.cache)
        input_grad = None
        if want_input:
            input_grad = ((self.phi + self.psi * c_skip)[..., None] * upstream
                          + c_in[..., None] * ig[:, -d:])
        return pg, input_grad


def sample_index_pairs(rng: Rng, count: int, steps: int) -> np.ndarray:
    """Uniform (k, l) with 0 <= k <= l <= steps-1: entry j of the triangle listed row by row."""
    ell, k = np.tril_indices(steps)
    j = rng.integers(ell.shape[0], count)
    return np.stack([k[j], ell[j]], axis=1)


def regression_loss(g, batch: TrajectoryBatch, pairs):
    """Trajectory-regression risk over sampled (particle, k, l) index pairs.

    mean of w * ||Z_l - g(t_k, t_l, Z_k)||^2 with w = 1/2 on the diagonal
    k = l and 1 otherwise.  Pairs must satisfy 0 <= k <= l <= K-1.  Returns
    (loss, grad); grad is None when g is a plain callable.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 3:
        raise ValueError("pairs must be rows (particle, k, l)")
    i, k, ell = pairs.T
    K = batch.grid.steps
    if np.any(k < 0) or np.any(k > ell) or np.any(ell > K - 1):
        raise ValueError("pairs must satisfy 0 <= k <= l <= K-1")
    if np.any(i < 0) or np.any(i >= batch.particles):
        raise ValueError("particle index out of range")
    nodes = batch.grid.nodes
    t, s = nodes[k], nodes[ell]
    Xin = batch.states[i, k]
    target = batch.states[i, ell]
    w = np.where(k == ell, 0.5, 1.0)
    n = pairs.shape[0]
    parts = _GParts(g, t, s, Xin)
    resid = parts.out - target
    loss = float(np.sum(w * np.sum(resid * resid, axis=1))) / n
    if not np.isfinite(loss):
        raise RuntimeError("non-finite regression loss")
    if parts.student is None:
        return loss, None
    grad, _ = parts.vjp((2.0 / n) * w[:, None] * resid)
    return loss, grad


def semigroup_penalty(g, batch: TrajectoryBatch, triples):
    """mean ||g(t_k, t_l, Z_k) - g(t_j, t_l, Z_j)||^2 over (i, k, j, l) triples.

    Z_j is the stored trajectory state (the Euler flow of Z_k from k to j),
    so any map satisfying the semigroup property on the trajectory grid has
    zero penalty.  Gradients flow through both branches.
    """
    triples = np.asarray(triples, dtype=np.int64)
    if triples.ndim != 2 or triples.shape[1] != 4:
        raise ValueError("triples must be rows (particle, k, j, l)")
    i, k, j, ell = triples.T
    K = batch.grid.steps
    if np.any(k < 0) or np.any(k > j) or np.any(j > ell) or np.any(ell > K - 1):
        raise ValueError("triples must satisfy 0 <= k <= j <= l <= K-1")
    nodes = batch.grid.nodes
    n = triples.shape[0]
    Xk = batch.states[i, k]
    Xj = batch.states[i, j]
    parts_a = _GParts(g, nodes[k], nodes[ell], Xk)
    parts_b = _GParts(g, nodes[j], nodes[ell], Xj)
    delta = parts_a.out - parts_b.out
    penalty = float(np.sum(delta * delta)) / n
    if not np.isfinite(penalty):
        raise RuntimeError("non-finite semigroup penalty")
    if parts_a.student is None:
        return penalty, None
    up = (2.0 / n) * delta
    ga, _ = parts_a.vjp(up)
    gb, _ = parts_b.vjp(up)
    return penalty, ga - gb


def local_loss(student: StudentNet, batch: InterpolantBatch):
    """Denoiser-matching risk of the diagonal slice D_S(t, t, .), in F-space.

    Identical scaling to the teacher's denoiser loss: the network target is
    (X_1 - c_skip X_t)/c_out at the batch times.
    """
    if batch.size == 0:
        raise ValueError("local_loss requires a nonempty batch")
    if student.plain:
        raise ValueError("local_loss needs an anchored (non-plain) student")
    inp, (_, c_skip, c_out) = _student_input(student, batch.t, batch.t, batch.xt)
    return residual_loss(student.net, inp, denoiser_target(batch.x1, batch.xt, c_skip, c_out),
                         "local")


def make_teacher_flow(denoiser, schedule: Schedule, steps: int):
    """Exponential-integrator flow map of a teacher denoiser over [t, u].

    Returns flow(t, u, X) stepping each row through ``steps`` uniform substeps
    of its own interval (``sampler.integrate`` on per-row nodes); rows with
    u = t pass through unchanged.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    fractions = (np.arange(steps + 1) / steps)[:, None]

    def flow(t, u, X):
        X = as_points(X, "X")
        t, u = as_times(t, X.shape[0], "t"), as_times(u, X.shape[0], "u")
        if np.any(u < t):
            raise ValueError("teacher flow requires t <= u")
        return integrate(_ei_step(denoiser, schedule), X, t + (u - t) * fractions)

    return flow


def self_distill_reference(student, t, s, x) -> np.ndarray:
    """Teacher-free reference: hop through the midpoint u = (t + s)/2.

    ``student`` may be a StudentNet or any flow callable g(t, s, X).
    """
    stop = student.stop_time if isinstance(student, StudentNet) else 1.0
    t_arr, s_arr, X = _rows(t, s, x, stop)
    u = 0.5 * (t_arr + s_arr)
    mid = _GParts(student, t_arr, u, X, want_cache=False).out
    return _GParts(student, u, s_arr, mid, want_cache=False).out


def global_loss(student, offline, teacher_flow, batch: InterpolantBatch, u, s,
                stop_time: float | None = None):
    """Two-branch long-range residual; gradient w.r.t. the student only.

    branch 1: g_off(s, T) . g(u, s) . teacher_flow(t, u) applied to X_t
    branch 2: g_off(s, T) . g_off(t, s) applied to X_t

    The teacher path and both offline evaluations are frozen; the gradient
    reaches the student through the middle factor g(u, s) via the offline
    map's input Jacobian.  ``student`` and ``offline`` may be plain flow
    callables (value only, gradient None); the horizon T comes from the
    student when it is a StudentNet, otherwise from ``stop_time``.
    """
    if batch.size == 0:
        raise ValueError("global_loss requires a nonempty batch")
    m = batch.size
    if isinstance(student, StudentNet):
        T = student.stop_time
    elif stop_time is not None:
        T = stop_time
    else:
        raise ValueError("stop_time is required when the student is a plain callable")
    t = batch.t
    u, s = as_times(u, m, "u"), as_times(s, m, "s")
    if np.any(u < t) or np.any(s < u) or np.any(s > T + 1e-12):
        raise ValueError("global_loss requires t <= u <= s <= T")
    t_end = np.full(m, T)
    try:
        y = as_points(teacher_flow(t, u, batch.xt), "teacher flow output")
    except NonFiniteState as exc:
        raise RuntimeError("non-finite global loss") from exc
    w2 = _GParts(offline, t, s, batch.xt, want_cache=False).out
    w2 = _GParts(offline, s, t_end, w2, want_cache=False).out
    mid = _GParts(student, u, s, y)
    endcap = _GParts(offline, s, t_end, mid.out)
    resid = endcap.out - w2
    loss = float(np.sum(resid * resid)) / m
    if not np.isfinite(loss):
        raise RuntimeError("non-finite global loss")
    if mid.student is None or endcap.student is None:
        return loss, None
    _, v_z = endcap.vjp((2.0 / m) * resid, want_input=True)
    grad, _ = mid.vjp(v_z)
    return loss, grad


@dataclass
class CgTrainConfig:
    mode: str                        # "regression" | "practical" | "self-distill"
    schedule: Schedule
    net_spec: NetSpec
    stop_time: float = 0.99
    iterations: int = 2000
    batch_size: int = 256
    lr: float = 1e-3
    seed: int = 0
    lambda_local: float = 1.0        # weight of the local risk (practical modes)
    lambda_semigroup: float = 0.0    # weight of the semigroup penalty (regression)
    ema_rate: float = 0.999
    pairs_per_particle: int = 8
    triples_per_particle: int = 8
    full_pairs: bool = False
    teacher_steps: int = 8
    sigma_data: float | None = None
    plain: bool = False
    clip_grad_norm: float | None = None

    def __post_init__(self):
        if self.mode not in ("regression", "practical", "self-distill"):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.lambda_local < 0 or self.lambda_semigroup < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.plain and self.mode != "regression":
            raise ValueError("plain students support regression mode only")


def _init_student(config: CgTrainConfig, sigma_data: float) -> StudentNet:
    return StudentNet(
        net=nets.net_init(config.net_spec, config.seed),
        schedule=config.schedule,
        stop_time=config.stop_time,
        sigma_data=sigma_data,
        plain=config.plain,
    )


def train_cg(config: CgTrainConfig, corpus=None, data=None, teacher=None):
    """Train a characteristic generator; returns (student, per-iteration losses).

    regression: ``corpus`` is a TrajectoryBatch of stored solver paths.
    practical: ``data`` is the target sample set and ``teacher`` a denoiser
    callable.  self-distill: only ``data`` (a teacher is rejected).
    """
    if config.mode == "regression":
        if not isinstance(corpus, TrajectoryBatch):
            raise ValueError("regression mode requires a TrajectoryBatch corpus")
        if abs(corpus.grid.stop_time - config.stop_time) > 1e-12:
            raise ValueError("corpus stop time does not match config")
        sigma_data = config.sigma_data
        if sigma_data is None:
            sigma_data = estimate_sigma_data(corpus.endpoints())
        return _train_regression(config, corpus, sigma_data)
    if data is None:
        raise ValueError(f"{config.mode} mode requires a data set")
    if config.mode == "practical" and teacher is None:
        raise ValueError("practical mode requires a teacher denoiser")
    if config.mode == "self-distill" and teacher is not None:
        raise ValueError("self-distill mode takes no teacher")
    data = as_points(data, "data")
    sigma_data = config.sigma_data if config.sigma_data is not None else estimate_sigma_data(data)
    return _train_practical(config, data, teacher, sigma_data)


def _train_regression(config: CgTrainConfig, corpus: TrajectoryBatch, sigma_data: float):
    student = _init_student(config, sigma_data)
    K = corpus.grid.steps
    n_particles = min(config.batch_size, corpus.particles)

    def step(rng):
        idx = rng.integers(corpus.particles, n_particles)
        if config.full_pairs:
            k, ell = np.triu_indices(K)
            i = np.repeat(idx, k.shape[0])
            pairs = np.stack([i, np.tile(k, n_particles), np.tile(ell, n_particles)], axis=1)
        else:
            kl = sample_index_pairs(rng, n_particles * config.pairs_per_particle, K)
            i = np.repeat(idx, config.pairs_per_particle)
            pairs = np.concatenate([i[:, None], kl], axis=1)
        loss, grad = regression_loss(student, corpus, pairs)
        if config.lambda_semigroup > 0.0:
            raw = rng.integers(K, (n_particles * config.triples_per_particle, 3))
            raw.sort(axis=1)
            i3 = np.repeat(idx, config.triples_per_particle)
            triples = np.concatenate([i3[:, None], raw], axis=1)
            pen, pgrad = semigroup_penalty(student, corpus, triples)
            loss = loss + config.lambda_semigroup * pen
            grad = grad + config.lambda_semigroup * pgrad
        return loss, grad

    losses = fit(student.net, step, config.iterations, config.seed, AdamState(lr=config.lr),
                 config.clip_grad_norm)
    return student, losses


def _train_practical(config: CgTrainConfig, data, teacher, sigma_data: float):
    student = _init_student(config, sigma_data)
    offline = student.copy()
    if config.mode == "practical":
        teacher_flow = make_teacher_flow(teacher, config.schedule, config.teacher_steps)
    else:
        def teacher_flow(t, u, X):
            return self_distill_reference(student, t, u, X)

    def step(rng):
        batch = draw_batch(data, config.schedule, config.stop_time, config.batch_size, rng)
        u = batch.t + (config.stop_time - batch.t) * rng.uniform(config.batch_size)
        s = u + (config.stop_time - u) * rng.uniform(config.batch_size)
        l_loc, g_loc = local_loss(student, batch)
        l_glo, g_glo = global_loss(student, offline, teacher_flow, batch, u, s)
        return (config.lambda_local * l_loc + l_glo,
                config.lambda_local * g_loc + g_glo)

    losses = fit(student.net, step, config.iterations, config.seed, AdamState(lr=config.lr),
                 config.clip_grad_norm, ema=offline.net, ema_rate=config.ema_rate)
    return student, losses


def _push(student: StudentNet, nodes, m: int, seed: int) -> np.ndarray:
    """Chain g over the nodes from m prior draws, through ``sampler.integrate``."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    z0 = Rng(seed).normal((m, student.dim))
    return integrate(lambda t, s, Z: g_apply(student, t, s, Z), z0, nodes)


def one_step(student: StudentNet, m: int, T: float, seed: int) -> np.ndarray:
    """Draw m prior points and apply g(0, T, .) once."""
    return _push(student, (0.0, T), m, seed)


def multi_step(student: StudentNet, nodes, m: int, seed: int) -> np.ndarray:
    """Chain g over a strictly increasing node list 0 = t_0 < ... < t_K = T."""
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim != 1 or nodes.shape[0] < 2:
        raise ValueError("nodes must list at least the two endpoints")
    if nodes[0] != 0.0:
        raise ValueError("nodes must start at 0")
    if not np.all(np.diff(nodes) > 0.0):  # a NaN node fails here
        raise ValueError("nodes must be strictly increasing")
    if abs(nodes[-1] - student.stop_time) > 1e-12:
        raise ValueError("nodes must end at the student's stop time")
    return _push(student, nodes, m, seed)
