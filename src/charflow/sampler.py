"""Discretize the probability flow: forward Euler and the exponential integrator.

Forward Euler steps ``x <- x + tau * b(t, x)``; the exponential integrator
exploits the semi-linear form of the denoiser-driven ODE and steps
``x <- phi(t, t') x + psi(t, t') D(t, x)``, which is exact whenever the
denoiser is frozen over the step.  Both produce full trajectories on a
uniform grid; ``push_samples`` integrates a batch of prior draws and stores
all intermediate states, which is the training corpus for characteristic
regression.

Trajectory files use the checkpoints' binary frame (``net.write_frame``):
magic, provenance line, JSON header (m, K, d, T, schedule kind, seed), then
the states as row-major little-endian float64.  Endpoint sets reuse the CSV
point format from the target module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import read_frame, write_frame
from .rng import stream_normals
from .schedule import Schedule

__all__ = [
    "TimeGrid",
    "TrajectoryBatch",
    "euler_flow",
    "ei_flow",
    "push_samples",
    "save_trajectories",
    "load_trajectories",
]

TRAJECTORY_MAGIC = b"CHARFLOW-TRAJ-1\n"


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

    @property
    def tau(self) -> float:
        return self.stop_time / self.steps


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


def _integrate(step_fn, x0, grid: TimeGrid):
    X = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    nodes = grid.nodes
    out = np.empty((grid.steps + 1, X.shape[0], X.shape[1]))
    out[0] = X
    for k in range(grid.steps):
        X = step_fn(nodes[k], nodes[k + 1], X)
        if not np.all(np.isfinite(X)):
            raise RuntimeError(f"non-finite state at step {k + 1} (t = {nodes[k + 1]:.6f})")
        out[k + 1] = X
    return out


def euler_flow(velocity, x0, grid: TimeGrid) -> np.ndarray:
    """Forward-Euler trajectory of dx/dt = b(t, x) from each row of x0.

    Returns (K+1, d) for a single start point, (K+1, m, d) for a batch.
    """

    def step(t, t_next, X):
        return X + (t_next - t) * velocity(t, X)

    out = _integrate(step, x0, grid)
    return out[:, 0, :] if np.asarray(x0).ndim == 1 else out


def ei_flow(denoiser, schedule: Schedule, x0, grid: TimeGrid) -> np.ndarray:
    """First-order exponential-integrator trajectory driven by a denoiser."""

    def step(t, t_next, X):
        phi, psi = schedule.ei_coeffs(t, t_next)
        return phi * X + psi * denoiser(t, X)

    out = _integrate(step, x0, grid)
    return out[:, 0, :] if np.asarray(x0).ndim == 1 else out


def push_samples(method: str, field, m: int, dim: int, grid: TimeGrid, seed: int,
                 schedule: Schedule | None = None) -> TrajectoryBatch:
    """Integrate m prior draws N(0, I_dim) and keep the full trajectories.

    ``method`` is "euler" (field = velocity callable) or "ei" (field =
    denoiser callable; requires the schedule).  Particle i's prior draw
    comes from substream i of the seed, so any particle subset is
    reproducible in isolation (``rng.stream_normals`` draws them all at once).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    x0 = stream_normals(seed, m, dim)
    if method == "euler":
        states = euler_flow(field, x0, grid)
    elif method == "ei":
        if schedule is None:
            raise ValueError("ei sampling requires a schedule")
        states = ei_flow(field, schedule, x0, grid)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    return TrajectoryBatch(grid=grid, states=np.swapaxes(states, 0, 1), seed=seed)


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
