"""Synthetic target distributions: smoothed atomic mixtures and the Swiss roll.

Mixture targets are weighted atoms convolved with N(0, sigma^2 I); the
embedded variant maps low-dimensional atoms through an orthonormal frame P
before applying full-dimensional isotropic smoothing.  The Swiss roll is the
classical 2-D spiral: theta ~ Unif[1.5*pi, 4.5*pi], r = theta/(4.5*pi),
point (r*cos(theta), r*sin(theta)) plus Gaussian noise, then a fixed affine
rescale 1/(1 + 4*noise) so the support sits inside [-1, 1]^2.

Every point set is an (m, d) array, checked by ``as_points``; a time is a
scalar or one entry per row, made an (m,) view by ``as_times``
(``as_times_or_scalar`` keeps a scalar, so a solver step evaluates the
schedule once).  Point sets serialize to CSV with one leading provenance
comment line, then a header ``x0,...,x{d-1}``, one row per point; a row of
the wrong width, a field that is not a number, a coordinate that is not
finite or a file without rows fails to load naming the file.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_open
from .rng import Rng

__all__ = [
    "TargetSpec",
    "as_points",
    "as_times",
    "as_times_or_scalar",
    "atomic_mixture",
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


def as_points(x, name: str = "points") -> np.ndarray:
    """x as a float64 (m, d) array; any other ndim (1-D too) raises ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be an (m, d) array, got shape {x.shape}")
    return x


def as_times(t, m: int, name: str = "t") -> np.ndarray:
    """A scalar or (m,) time as a read-only float64 (m,) view; other shapes raise ValueError."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 0 and t.shape != (m,):
        raise ValueError(f"{name} must be a scalar or an ({m},) array, got shape {t.shape}")
    t = np.broadcast_to(t, (m,)) if t.ndim == 0 else t.view()  # view() costs a third of broadcast_to
    t.flags.writeable = False
    return t


def as_times_or_scalar(t, m: int, name: str = "t"):
    """A scalar time as it is (one step's time, shared by the m rows); else ``as_times``."""
    return t if np.ndim(t) == 0 else as_times(t, m, name)


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
            if not 0 <= self.swiss_noise < np.inf:  # NaN fails here
                raise ValueError("swiss_noise must be finite and nonnegative")
            return
        atoms = as_points(self.atoms, "atoms")
        object.__setattr__(self, "atoms", atoms)
        if self.weights is None:
            weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
        else:
            weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        if weights.shape != (atoms.shape[0],):
            raise ValueError("weights must have one entry per atom")
        for name, arr in (("atoms", atoms), ("weights", weights)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}")
        if not 0 < self.sigma < np.inf:  # NaN fails here
            raise ValueError("sigma must be finite and positive for mixture targets")
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
    if not np.isfinite(frame).all():
        raise ValueError("frame must be finite")
    gram = frame.T @ frame
    dev = float(np.max(np.abs(gram - np.eye(frame.shape[1]))))
    if dev > FRAME_ORTHO_TOL:
        raise ValueError(f"frame columns must be orthonormal within {FRAME_ORTHO_TOL} (deviation {dev:.3e})")


def atomic_mixture(atoms, sigma, weights=None) -> TargetSpec:
    return TargetSpec(variant="atomic", atoms=atoms, weights=weights, sigma=sigma)


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
    points = as_points(points)
    d = points.shape[1]
    row = ",".join(["%r"] * d) + "\n"
    with atomic_open(path) as fh:
        fh.write(f"# {provenance}\n")
        fh.write(",".join(f"x{i}" for i in range(d)) + "\n")
        for start in range(0, points.shape[0], CSV_BLOCK_ROWS):
            block = points[start : start + CSV_BLOCK_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def load_points(path) -> np.ndarray:
    """Read a point set written by save_points (comments and header skipped).

    Every row must hold as many finite numbers as the ``x0,...`` header
    names (the first row's count when there is no header); otherwise one
    ValueError names the file and the line; a file without rows is refused too.
    The body after the leading comments and header is parsed by one
    ``np.loadtxt`` call.  When that call refuses the body, or its rows are
    missing, of the wrong width or not finite, the line-by-line scan
    ``_scan_points`` decides: it names the line at fault, or reads the
    layouts ``np.loadtxt`` refuses but the format allows (comment or
    whitespace-only lines between rows, a repeated header, underscores in a
    number).  Both parse a field as ``float`` does, so either way an
    accepted file gives the same array.
    """
    skip, width = _body_start(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body: the scan refuses it
            points = np.loadtxt(path, delimiter=",", comments=None, skiprows=skip, ndmin=2,
                                encoding="utf-8")
    except ValueError:
        return _scan_points(path)
    if points.size and width in (None, points.shape[1]) and np.isfinite(points).all():
        return points
    return _scan_points(path)


def _body_start(path):
    """(lines before the first data row, the header's field count or None without a header)."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if line and not line.startswith("#"):
                if line.startswith("x0"):
                    return lineno + 1, len(line.split(","))
                return lineno, None
    return 0, None


def _scan_points(path) -> np.ndarray:
    """``load_points`` line by line: the array, or the ValueError that names the line."""
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
    if not rows:
        raise ValueError(f"{path}: no points (no data rows)")
    points = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        lineno = _line_of_row(path, int(np.argmin(finite)))
        raise ValueError(f"{path}, line {lineno}: a coordinate is not finite")
    return points


def _line_of_row(path, row: int) -> int:
    """The line number of data row ``row`` (0-based) of a point file, as load_points counts."""
    with open(path, "r", encoding="utf-8") as fh:
        data = [lineno for lineno, line in enumerate(map(str.strip, fh), 1)
                if line and not line.startswith(("#", "x0"))]
    return data[row]
