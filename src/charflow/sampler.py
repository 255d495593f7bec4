"""Discretize the probability flow: forward Euler and the exponential integrator.

Forward Euler steps ``x <- x + tau * b(t, x)``; the exponential integrator
exploits the semi-linear form of the denoiser-driven ODE and steps
``x <- phi(t, t') x + psi(t, t') D(t, x)``, which is exact whenever the
denoiser is frozen over the step.  Both run through ``integrate``, the one
loop of the package that steps an (m, d) state and keeps it only when asked
to; so do ``cgen``'s samplers and per-row teacher flow, and the RK4
reference flow of ``oracle.flow_exact``.
``push_samples`` integrates a batch of prior draws and keeps every
intermediate state, the training corpus for characteristic regression; with
``keep_trajectories=False`` it streams and holds only the current (m, d)
state, so ``charflow sample`` pays for its points and not for K+1 copies.

Trajectory files use the checkpoints' binary frame (``net.write_frame``):
magic, provenance line, JSON header (m, K, d, T, schedule kind, seed), then
the states as row-major little-endian float64.  Endpoint sets reuse the CSV
point format from the target module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import buffer_pool, read_frame, write_frame
from .rng import stream_normals
from .schedule import Schedule
from .target import as_points, as_times

__all__ = [
    "NonFiniteState",
    "TimeGrid",
    "TrajectoryBatch",
    "push_samples",
    "integrate",
    "save_trajectories",
    "load_trajectories",
]

TRAJECTORY_MAGIC = b"CHARFLOW-TRAJ-1\n"


class NonFiniteState(RuntimeError):
    """Raised when an integrated state turns NaN or infinite."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_k = k T / K, k = 0..K."""

    stop_time: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.stop_time < 1.0:
            raise ValueError("stop_time must lie in (0, 1)")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.stop_time, self.steps + 1)


@dataclass(frozen=True)
class TrajectoryBatch:
    """m particles integrated over a grid: states has shape (m, K+1, d)."""

    grid: TimeGrid
    states: np.ndarray
    seed: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.float64)
        object.__setattr__(self, "states", states)
        if states.ndim != 3 or states.shape[1] != self.grid.steps + 1:
            raise ValueError(f"states shape {states.shape} does not match grid K={self.grid.steps}")
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory states must be finite")

    @property
    def particles(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def endpoints(self) -> np.ndarray:
        return self.states[:, -1, :]


def integrate(step_fn, x0, nodes, record=None) -> np.ndarray:
    """Endpoint of ``X <- step_fn(nodes[k], nodes[k+1], X)`` from x0 (m, d), (m, d).

    ``nodes`` is any increasing time sequence, shaped (K+1,), or (K+1, m) to
    give each row its own times.  Only the current (m, d) state is kept,
    unless ``record`` is given: an array indexed by node, whose
    ``record[k]`` receives the state at nodes[k].  The steps run inside one
    ``net.buffer_pool`` block, so a network field reuses its work arrays from
    step to step.  Overflow warnings are silenced: a non-finite state raises
    NonFiniteState naming the step and the time of its first non-finite row.
    """
    X = as_points(x0, "x0")
    if record is not None:
        record[0] = X
    with np.errstate(over="ignore", invalid="ignore"), buffer_pool():
        for k in range(len(nodes) - 1):
            X = step_fn(nodes[k], nodes[k + 1], X)
            if not np.all(np.isfinite(X)):
                bad_row = np.argmin(np.isfinite(X).all(axis=1))
                t_bad = as_times(nodes[k + 1], X.shape[0], "nodes")[bad_row]
                raise NonFiniteState(f"non-finite state at step {k + 1} (t = {t_bad:.6f})")
            if record is not None:
                record[k + 1] = X
    return X


def _euler_step(velocity):
    def step(t, t_next, X):
        return X + (t_next - t) * as_points(velocity(t, X), "velocity output")

    return step


def _ei_step(denoiser, schedule: Schedule):
    def step(t, t_next, X):
        phi, psi = schedule.ei_coeffs(t, t_next)
        D = as_points(denoiser(t, X), "denoiser output")
        return np.asarray(phi)[..., None] * X + np.asarray(psi)[..., None] * D

    return step


def push_samples(method: str, field, m: int, dim: int, grid: TimeGrid, seed: int,
                 schedule: Schedule | None = None, *, keep_trajectories: bool = True):
    """Integrate m prior draws N(0, I_dim) over the grid.

    ``method`` is "euler" (field = velocity callable) or "ei" (field =
    denoiser callable; requires the schedule).  Particle i's prior draw
    comes from substream i of the seed, so any particle subset is
    reproducible in isolation (``rng.stream_normals`` draws them all at once).

    Trajectories are kept only for the regression corpus: by default the
    result is a TrajectoryBatch whose states are recorded straight into
    their file layout, a C-contiguous (m, K+1, d) array.  With
    ``keep_trajectories=False`` the integration streams and returns only the
    (m, dim) endpoints, the path of ``charflow sample``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if method == "euler":
        step = _euler_step(field)
    elif method == "ei":
        if schedule is None:
            raise ValueError("ei sampling requires a schedule")
        step = _ei_step(field, schedule)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    x0 = stream_normals(seed, m, dim)
    if not keep_trajectories:
        return integrate(step, x0, grid.nodes)
    states = np.empty((m, grid.steps + 1, dim))
    integrate(step, x0, grid.nodes, record=np.swapaxes(states, 0, 1))
    return TrajectoryBatch(grid=grid, states=states, seed=seed)


def save_trajectories(path, batch: TrajectoryBatch, schedule_kind: str = "",
                      provenance: str = "charflow"):
    header = {
        "m": batch.particles,
        "K": batch.grid.steps,
        "d": batch.dim,
        "T": batch.grid.stop_time,
        "schedule": schedule_kind,
        "seed": batch.seed,
    }
    write_frame(path, TRAJECTORY_MAGIC, provenance, header, batch.states)


def load_trajectories(path):
    """Returns (TrajectoryBatch, schedule_kind)."""
    header, body = read_frame(path, TRAJECTORY_MAGIC, "trajectory file",
                              lambda h: h["m"] * (h["K"] + 1) * h["d"])
    m, K, d = header["m"], header["K"], header["d"]
    batch = TrajectoryBatch(grid=TimeGrid(stop_time=header["T"], steps=K),
                            states=body.reshape(m, K + 1, d), seed=header["seed"])
    return batch, header["schedule"]
