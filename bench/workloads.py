"""Workload definitions: each turns the workload seed into a charflow config.

The benchmark owns everything random about a workload's input.  The
``[run] seed`` of every config is the workload seed itself, so charflow
derives its data, training and sampling substreams from it; the
``manifold-16d`` atoms and frame are drawn here from the same seed with
numpy's PCG64 generator, before charflow sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

EULER_STEPS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    sections: Callable       # (workload, seed) -> config body without [run] and [sample]
    velocity_iterations: int
    cg_iterations: int
    samples: int             # points drawn by each of the two sample stages
    stop_time: float         # horizon of the teacher and the generator
    regression: bool         # regression generator (stores trajectories.bin)
    one_step_repeats: int = 15  # one-step samples per pass, a multiple of 3; timed by the median
    checked_losses: tuple = ("loss_velocity.csv", "loss_cg.csv")
    law_atoms: tuple = ()    # 1-D atoms whose law of X_T has a closed form
    law_sigma: float = 0.0

    def config_text(self, seed: int, sampler: str = "one-step") -> str:
        """The INI file for one stage; only the [sample] section differs."""
        sample = f"[sample]\nsampler = {sampler}\nn = {self.samples}\n"
        if sampler == "euler":
            sample += f"steps = {EULER_STEPS}\n"
        return f"[run]\nseed = {seed}\n\n{self.sections(self, seed)}\n{sample}"


def _points(arr) -> str:
    return ";".join(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(arr))


def manifold_geometry(seed: int):
    """Four unit-circle atoms on a random 2-plane of R^16.

    The frame is the Q factor of a 16x2 standard-normal draw; the atoms sit
    at angles phase + j*pi/2 in the plane's coordinates, so they stay
    separated whatever the seed.  Returns (ambient atoms (4, 16), frame (16, 2)).
    """
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.standard_normal((16, 2)))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    angles = phase + 0.5 * np.pi * np.arange(4)
    low = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return low @ frame.T, frame


def _swiss_roll(w: "Workload", seed: int) -> str:
    return (
        "[target]\nvariant = swiss-roll\n\n"
        f"[velocity]\niterations = {w.velocity_iterations}\n\n"
        f"[cg]\niterations = {w.cg_iterations}\nlr = 0.003\n"
    )


def _manifold_16d(w: "Workload", seed: int) -> str:
    atoms, frame = manifold_geometry(seed)
    return (
        "[target]\nvariant = embedded\n"
        f"atoms = {_points(atoms)}\nframe = {_points(frame)}\nsigma = 0.1\n\n"
        f"[velocity]\niterations = {w.velocity_iterations}\nhidden = 128,128\n\n"
        f"[cg]\nmode = practical\niterations = {w.cg_iterations}\n"
        "hidden = 128,128\nteacher_steps = 8\nema_rate = 0.99\n"
    )


def _velocity_1d(w: "Workload", seed: int) -> str:
    return (
        f"[target]\nvariant = atomic\natoms = {_points(np.array(w.law_atoms)[:, None])}\n"
        f"sigma = {w.law_sigma}\nn = 16384\n\n"
        "[schedule]\nkind = linear\n\n"
        f"[velocity]\nloss = velocity\nstop_time = {w.stop_time}\nactivation = relu\n"
        f"batch_size = 512\niterations = {w.velocity_iterations}\n\n"
        f"[cg]\nstop_time = {w.stop_time}\nactivation = relu\n"
        f"iterations = {w.cg_iterations}\n"
    )


SWISS_ROLL = Workload("swiss-roll", _swiss_roll, velocity_iterations=800, cg_iterations=200,
                      samples=8192, stop_time=0.99, regression=True,
                      one_step_repeats=36, checked_losses=("loss_cg.csv",))
MANIFOLD_16D = Workload("manifold-16d", _manifold_16d, velocity_iterations=300,
                        cg_iterations=100, samples=8192, stop_time=0.99, regression=False,
                        one_step_repeats=9)
VELOCITY_1D = Workload("velocity-1d", _velocity_1d, velocity_iterations=2000,
                       cg_iterations=300, samples=8192, stop_time=0.9, regression=True,
                       one_step_repeats=48, law_atoms=(-1.0, 1.0), law_sigma=0.25)

WORKLOADS = {w.name: w for w in (SWISS_ROLL, MANIFOLD_16D, VELOCITY_1D)}
