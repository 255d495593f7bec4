"""Synthetic target distributions: smoothed atomic mixtures and the Swiss roll.

Mixture targets are weighted atoms convolved with N(0, sigma^2 I); the
embedded variant maps low-dimensional atoms through an orthonormal frame P
before applying full-dimensional isotropic smoothing.  The Swiss roll is the
classical 2-D spiral: theta ~ Unif[1.5*pi, 4.5*pi], r = theta/(4.5*pi),
point (r*cos(theta), r*sin(theta)) plus Gaussian noise, then a fixed affine
rescale 1/(1 + 4*noise) so the support sits inside [-1, 1]^2.

Point sets serialize to CSV with one leading provenance comment line, then a
header ``x0,...,x{d-1}``, one row per point; a row of the wrong width or a
field that is not a number fails to load with an error naming file and line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = [
    "TargetSpec",
    "atomic_mixture",
    "embedded_mixture",
    "swiss_roll",
    "embed_target",
    "sample_target",
    "save_points",
    "load_points",
]

VARIANTS = ("atomic", "embedded", "swiss_roll")

SWISS_THETA_LO = 1.5 * np.pi
SWISS_THETA_HI = 4.5 * np.pi

WEIGHT_SUM_TOL = 1e-12
FRAME_ORTHO_TOL = 1e-10

CSV_BLOCK_ROWS = 1024  # rows per format call in save_points; bounds the writer's memory


@dataclass(frozen=True)
class TargetSpec:
    """A synthetic target distribution.

    For mixture variants, ``atoms`` is (J, d) and ``weights`` (J,) sums to 1;
    ``sigma`` is the Gaussian smoothing std.  ``frame`` is the (d, d*)
    orthonormal-column embedding matrix (embedded variant only).  For the
    Swiss roll only ``swiss_noise`` matters and ``dim`` is 2.
    """

    variant: str
    atoms: np.ndarray | None = None
    weights: np.ndarray | None = None
    sigma: float = 0.0
    frame: np.ndarray | None = None
    swiss_noise: float = 0.05

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown target variant {self.variant!r}")
        if self.variant == "swiss_roll":
            if self.swiss_noise < 0:
                raise ValueError("swiss_noise must be nonnegative")
            return
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=np.float64))
        object.__setattr__(self, "atoms", atoms)
        if self.weights is None:
            weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
        else:
            weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        if weights.shape != (atoms.shape[0],):
            raise ValueError("weights must have one entry per atom")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive for mixture targets")
        if self.variant == "embedded":
            if self.frame is None:
                raise ValueError("embedded targets require a frame")
            frame = np.asarray(self.frame, dtype=np.float64)
            object.__setattr__(self, "frame", frame)
            _check_frame(frame)
            if frame.shape[0] != atoms.shape[1]:
                raise ValueError("frame row count must match atom dimension")
        elif self.frame is not None:
            raise ValueError("only embedded targets carry a frame")

    @property
    def dim(self) -> int:
        return 2 if self.variant == "swiss_roll" else self.atoms.shape[1]


def _check_frame(frame: np.ndarray):
    if frame.ndim != 2:
        raise ValueError("frame must be a 2-D matrix")
    gram = frame.T @ frame
    dev = float(np.max(np.abs(gram - np.eye(frame.shape[1]))))
    if dev > FRAME_ORTHO_TOL:
        raise ValueError(f"frame columns must be orthonormal within {FRAME_ORTHO_TOL} (deviation {dev:.3e})")


def atomic_mixture(atoms, sigma, weights=None) -> TargetSpec:
    return TargetSpec(variant="atomic", atoms=atoms, weights=weights, sigma=sigma)


def embedded_mixture(atoms, sigma, frame, weights=None) -> TargetSpec:
    return TargetSpec(variant="embedded", atoms=atoms, weights=weights, sigma=sigma, frame=frame)


def swiss_roll(noise: float = 0.05) -> TargetSpec:
    return TargetSpec(variant="swiss_roll", swiss_noise=noise)


def embed_target(low: TargetSpec, frame) -> TargetSpec:
    """Map an atomic mixture through an orthonormal frame: atoms u -> P u.

    The smoothing stays isotropic in the ambient space (same sigma in all d
    coordinates), so the result concentrates near the d*-dimensional plane
    spanned by the frame columns without being supported on it.
    """
    if low.variant != "atomic":
        raise ValueError("embed_target expects an atomic mixture")
    frame = np.asarray(frame, dtype=np.float64)
    _check_frame(frame)
    if frame.shape[1] != low.atoms.shape[1]:
        raise ValueError("frame column count must match the low-dimensional atom dimension")
    return TargetSpec(
        variant="embedded",
        atoms=low.atoms @ frame.T,
        weights=low.weights,
        sigma=low.sigma,
        frame=frame,
    )


def sample_target(spec: TargetSpec, n: int, seed: int | Rng) -> np.ndarray:
    """Draw n points from the target; bit-identical for equal seeds."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    if spec.variant == "swiss_roll":
        theta = SWISS_THETA_LO + (SWISS_THETA_HI - SWISS_THETA_LO) * rng.uniform(n)
        r = theta / SWISS_THETA_HI
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        pts += spec.swiss_noise * rng.normal((n, 2))
        return pts / (1.0 + 4.0 * spec.swiss_noise)
    idx = _choose_atoms(spec.weights, rng.uniform(n))
    return spec.atoms[idx] + spec.sigma * rng.normal((n, spec.dim))


def _choose_atoms(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    edges = np.cumsum(weights)
    edges[-1] = 1.0  # guard the top bin against cumsum round-off
    return np.searchsorted(edges, u, side="right")


def save_points(path, points: np.ndarray, provenance: str = "charflow"):
    """Write a point set as CSV: provenance comment, header, one row per point.

    Rows go out in blocks of CSV_BLOCK_ROWS, each formatted by one ``%r``
    format call (``%r`` of a float is its repr, the round-trip form).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = points.shape[1]
    row = ",".join(["%r"] * d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {provenance}\n")
        fh.write(",".join(f"x{i}" for i in range(d)) + "\n")
        for start in range(0, points.shape[0], CSV_BLOCK_ROWS):
            block = points[start : start + CSV_BLOCK_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def load_points(path) -> np.ndarray:
    """Read a point set written by save_points (comments and header skipped).

    Every row must hold as many numbers as the ``x0,...`` header names (the
    first row's count when there is no header); otherwise one ValueError
    names the file and the line.
    """
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if line.startswith("x0"):
                width = len(fields)
                continue
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: a field is not a number") from None
            width = len(fields) if width is None else width
            if len(fields) != width:
                raise ValueError(f"{path}, line {lineno}: {len(fields)} fields, expected {width}")
    return np.asarray(rows, dtype=np.float64)
