"""Distribution distances and convergence-order fitting.

``w2_exact`` solves the assignment problem exactly (Jonker-Volgenant via
scipy) and is the acceptance-grade distance for equal-size empirical
measures up to n = 4096 (its n x n cost matrix is filled in row blocks of
a few MB); larger comparisons go through ``sliced_w2``.
``w2_gaussian`` is the closed form between Gaussians and doubles as an
independent calibration oracle for the empirical estimators.

Metric reports serialize one record per line as space-separated key=value
pairs (values via repr, so floats round-trip); '#' lines are comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .rng import Rng

__all__ = [
    "MetricReport",
    "w2_exact",
    "w2_gaussian",
    "sliced_w2",
    "order_fit",
    "save_reports",
    "load_reports",
]

W2_EXACT_MAX_N = 4096
COST_BLOCK_BYTES = 1 << 22  # size of one row block's difference tensor in _sq_cost


def _sq_cost(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances ||a_i - b_j||^2, filled in row blocks.

    Each block evaluates the one-shot formula on its rows, so the costs are
    bit-identical to it without building the n x n x d tensor at once.
    """
    rows = max(1, COST_BLOCK_BYTES // (8 * max(1, B.shape[0] * B.shape[1])))
    cost = np.empty((A.shape[0], B.shape[0]))
    for start in range(0, A.shape[0], rows):
        block = A[start : start + rows]
        cost[start : start + rows] = np.sum((block[:, None, :] - B[None, :, :]) ** 2, axis=2)
    return cost


def w2_exact(A: np.ndarray, B: np.ndarray) -> float:
    """Exact 2-Wasserstein distance between equal-size empirical measures.

    sqrt(min over matchings of mean ||a_i - b_pi(i)||^2), n <= 4096.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape != B.shape:
        raise ValueError(f"point sets must have equal shape, got {A.shape} vs {B.shape}")
    n = A.shape[0]
    if n == 0:
        raise ValueError("point sets must be nonempty")
    if n > W2_EXACT_MAX_N:
        raise ValueError(f"w2_exact is capped at n = {W2_EXACT_MAX_N}; use sliced_w2")
    cost = _sq_cost(A, B)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def _psd_sqrt(C: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(C)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def w2_gaussian(m1, C1, m2, C2) -> float:
    """Closed-form W2 between N(m1, C1) and N(m2, C2).

    sqrt(||m1 - m2||^2 + tr(C1 + C2 - 2 (C2^{1/2} C1 C2^{1/2})^{1/2})).
    """
    m1 = np.atleast_1d(np.asarray(m1, dtype=np.float64))
    m2 = np.atleast_1d(np.asarray(m2, dtype=np.float64))
    C1 = np.atleast_2d(np.asarray(C1, dtype=np.float64))
    C2 = np.atleast_2d(np.asarray(C2, dtype=np.float64))
    for C in (C1, C2):
        if np.max(np.abs(C - C.T)) > 1e-10:
            raise ValueError("covariances must be symmetric")
        if np.min(np.linalg.eigvalsh(C)) < -1e-10:
            raise ValueError("covariances must be positive semidefinite")
    root2 = _psd_sqrt(C2)
    cross = _psd_sqrt(root2 @ C1 @ root2)
    gap2 = float(np.sum((m1 - m2) ** 2) + np.trace(C1 + C2 - 2.0 * cross))
    return float(np.sqrt(max(gap2, 0.0)))


def sliced_w2(A: np.ndarray, B: np.ndarray, projections: int = 128, seed: int = 0) -> float:
    """Scaled sliced 2-Wasserstein distance over random unit directions.

    Computes the root-mean of the squared 1-D W2 (sorted match) of the
    projections, scaled by sqrt(d): projecting onto a uniform direction
    contracts squared distances by exactly d on isotropic Gaussian families
    (mean shifts and scale changes alike), so the sqrt(d) factor makes the
    estimator calibrate to the exact distance there.  In one dimension the
    factor is 1 and a single projection reproduces w2_exact.  Unequal sizes
    are compared on a common quantile grid.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("point sets must be nonempty")
    if A.shape[1] != B.shape[1]:
        raise ValueError("point sets must share a dimension")
    if projections < 1:
        raise ValueError("projections must be >= 1")
    d = A.shape[1]
    rng = Rng(seed)
    dirs = rng.normal((projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa = np.sort(A @ dirs.T, axis=0)
    pb = np.sort(B @ dirs.T, axis=0)
    if A.shape[0] != B.shape[0]:
        q = (np.arange(max(A.shape[0], B.shape[0])) + 0.5) / max(A.shape[0], B.shape[0])
        pa = np.quantile(pa, q, axis=0)
        pb = np.quantile(pb, q, axis=0)
    sq = np.mean((pa - pb) ** 2, axis=0)
    return float(np.sqrt(d * np.mean(sq)))


def order_fit(points):
    """Least-squares fit of log(err) vs log(h); returns (slope, intercept, r2)."""
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 3:
        raise ValueError("order_fit needs at least 3 points")
    if any(h <= 0 or e <= 0 for h, e in pts):
        raise ValueError("order_fit needs positive step sizes and errors")
    logh = np.log([h for h, _ in pts])
    loge = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(logh, loge, 1)
    fitted = slope * logh + intercept
    ss_res = float(np.sum((loge - fitted) ** 2))
    ss_tot = float(np.sum((loge - loge.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@dataclass
class MetricReport:
    """One named metric value plus the context needed to reproduce it."""

    name: str
    value: float
    sample_sizes: tuple = ()
    seed: int | None = None
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("metric values must be finite")

    def to_line(self) -> str:
        parts = [f"metric={self.name}", f"value={self.value!r}"]
        if self.sample_sizes:
            parts.append("sizes=" + ",".join(str(int(s)) for s in self.sample_sizes))
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        for key in sorted(self.aux):
            parts.append(f"{key}={self.aux[key]!r}")
        return " ".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "MetricReport":
        fields = dict(item.split("=", 1) for item in line.split())
        name = fields.pop("metric")
        value = float(fields.pop("value"))
        sizes = tuple(int(s) for s in fields.pop("sizes").split(",")) if "sizes" in fields else ()
        seed = int(fields.pop("seed")) if "seed" in fields else None
        aux = {k: float(v) for k, v in fields.items()}
        return cls(name=name, value=value, sample_sizes=sizes, seed=seed, aux=aux)


def save_reports(path, reports, provenance: str = "charflow"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {provenance}\n")
        for rep in reports:
            fh.write(rep.to_line() + "\n")


def load_reports(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(MetricReport.from_line(line))
    return out
