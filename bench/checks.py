"""Correctness checks the benchmark applies to every pass, outside the timings.

The W2 numbers here are computed by the benchmark itself, not by
``charflow.metrics``: ``assignment_w2`` builds its own squared-distance
matrix (as |a|^2 + |b|^2 - 2 a.b, so it needs n^2 doubles rather than the
n^2 d difference tensor) and solves it with scipy's assignment solver, and
``w2_to_mixture_1d`` integrates the squared quantile gap between a 1-D
sample and a Gaussian mixture law in closed form, with the law's quantiles
found by root finding on scipy's normal CDF.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.optimize import brentq, linear_sum_assignment
from scipy.special import ndtr

PROVENANCE_HASH = re.compile(rb"config=([0-9a-f]+)")
W2_RATIO = 1.5          # criterion 06: W2(one-step) <= 1.5 W2(Euler-100)
WELL_BELOW_PRIOR = 0.5  # a sampler's W2 to the holdout is at most half the prior draw's
LAW_BELOW_PRIOR = 0.75  # velocity-1d: W2 to the law of X_T, against the prior draw's
PRIOR_SEED_OFFSET = 7919
CHECKS = ("provenance", "nfe", "samples", "losses", "eval", "w2", "reproducible")


def assignment_w2(a: np.ndarray, b: np.ndarray) -> float:
    """Exact W2 between two equal-size point sets via an optimal assignment."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape or a.shape[0] == 0:
        raise ValueError(f"need equal nonempty point sets, got {a.shape} and {b.shape}")
    cost = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(cost, 0.0, out=cost)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


class GaussianMixture1d:
    """The law sum_j w_j N(mean_j, std^2) on the real line."""

    def __init__(self, means, std: float, weights=None):
        self.means = np.asarray(means, dtype=np.float64)
        self.std = float(std)
        self.weights = (np.full(self.means.shape, 1.0 / self.means.size) if weights is None
                        else np.asarray(weights, dtype=np.float64))

    def cdf(self, x):
        z = (np.asarray(x, dtype=np.float64)[..., None] - self.means) / self.std
        return (self.weights * ndtr(z)).sum(-1)

    def quantiles(self, probs) -> np.ndarray:
        """Quantiles at probabilities in (0, 1); -inf / +inf at 0 / 1."""
        lo = float(self.means.min()) - 40.0 * self.std
        hi = float(self.means.max()) + 40.0 * self.std
        out = []
        for p in np.asarray(probs, dtype=np.float64):
            if p <= 0.0:
                out.append(-np.inf)
            elif p >= 1.0:
                out.append(np.inf)
            else:
                out.append(brentq(lambda x: float(self.cdf(x)) - p, lo, hi, xtol=1e-14, rtol=1e-14))
        return np.asarray(out)

    def partial_moments(self, lo, hi):
        """(mass, first, second) moments of the law restricted to [lo, hi]."""
        lo = np.asarray(lo, dtype=np.float64)[..., None]
        hi = np.asarray(hi, dtype=np.float64)[..., None]
        mu, s = self.means, self.std
        zl, zh = (lo - mu) / s, (hi - mu) / s
        phi = lambda z: np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        zphi = lambda z: np.where(np.isfinite(z), z * phi(np.where(np.isfinite(z), z, 0.0)), 0.0)
        mass = ndtr(zh) - ndtr(zl)
        first = mu * mass - s * (phi(zh) - phi(zl))
        second = (mu * mu + s * s) * mass - 2.0 * mu * s * (phi(zh) - phi(zl)) \
            - s * s * (zphi(zh) - zphi(zl))
        return tuple((self.weights * m).sum(-1) for m in (mass, first, second))


def w2_to_mixture_1d(samples, law: GaussianMixture1d) -> float:
    """Exact W2 between the empirical law of a 1-D sample and a mixture law.

    Point i of the sorted sample owns probabilities [i/n, (i+1)/n]; the
    squared gap to the law's quantile function over that interval is
    x_i^2/n - 2 x_i M1_i + M2_i, where M1_i and M2_i are the law's partial
    moments between its quantiles at i/n and (i+1)/n.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = x.size
    edges = law.quantiles(np.arange(n + 1) / n)
    _, first, second = law.partial_moments(edges[:-1], edges[1:])
    gap2 = float(np.sum(x * x / n - 2.0 * x * first + second))
    return float(np.sqrt(max(gap2, 0.0)))


def linear_schedule_law(atoms, sigma: float, T: float) -> GaussianMixture1d:
    """Law of X_T = (1 - T) X_0 + T X_1 for X_0 ~ N(0, 1), X_1 ~ mix of N(atom, sigma^2)."""
    return GaussianMixture1d(T * np.asarray(atoms, dtype=np.float64),
                             float(np.sqrt((1.0 - T) ** 2 + (T * sigma) ** 2)))


def provenance_hash(path) -> str:
    """Config hash from an artifact's provenance line (after a binary magic line)."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if line.startswith(b"CHARFLOW-"):
            line = fh.readline()
    match = PROVENANCE_HASH.search(line) if line.startswith(b"# charflow") else None
    if match is None:
        raise ValueError(f"{path} has no provenance line")
    return match.group(1).decode()


def report_values(path) -> dict:
    """metric name -> value from a key=value report file."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            fields = dict(item.split("=", 1) for item in line.split())
            out[fields["metric"]] = float(fields["value"])
    return out


def loss_log(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=2, usecols=1, ndmin=1)


def loss_decreased(losses: np.ndarray) -> bool:
    """Mean over the last tenth of the log is below the mean over the first tenth."""
    tenth = max(1, losses.size // 10)
    return bool(losses[-tenth:].mean() < losses[:tenth].mean())


def read_points(path) -> np.ndarray:
    """CSV point set: provenance comment, header, then rows."""
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)


class Checker:
    """The per-pass correctness checks of one run; each check is one operation.

    ``config_hashes`` maps each sampler ("one-step", "euler") to the hash of
    the config it ran under, and ``writers`` maps each artifact to the
    sampler whose command wrote it.  Exact W2 values are memoized by the
    sha256 of their inputs: passes reproduce the same bytes, so later passes
    re-check the same numbers at no extra cost.
    """

    def __init__(self, workload, seed: int, config_hashes: dict, writers: dict):
        self.workload = workload
        self.seed = seed
        self.config_hashes = config_hashes
        self.writers = writers
        self.reference = None    # the first pass's artifact hashes
        self.values = {}         # W2 figures of the latest pass
        self._memo = {}

    def run(self, p) -> None:
        """Record every check's outcome in p.ops and its detail line in p.details."""
        digests = p.hashes()
        for name in CHECKS:
            try:
                ok, detail = getattr(self, "check_" + name)(p, digests)
            except Exception as exc:  # noqa: BLE001 - a check that cannot run has failed
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            p.ops["check-" + name] = bool(ok)
            p.details["check-" + name] = detail

    def memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def points(self, p, digests, name):
        return self.memoized(("points", digests[name]), lambda: read_points(p.path(name)))

    def head(self, p, digests, name):
        """The first holdout-size points of a sample, the ones eval compares."""
        return self.points(p, digests, name)[:len(self.points(p, digests, "holdout.csv"))]

    def prior(self, shape) -> np.ndarray:
        """The benchmark's own N(0, I) draw."""
        return self.memoized(("prior", shape), lambda: np.random.default_rng(
            self.seed + PRIOR_SEED_OFFSET).standard_normal(shape))

    def w2(self, p, digests, name):
        """Exact W2 between the head of a sample and the holdout."""
        return self.memoized(("w2", digests[name], digests["holdout.csv"]), lambda: assignment_w2(
            self.head(p, digests, name), self.points(p, digests, "holdout.csv")))

    def check_provenance(self, p, digests):
        stale = [name for name in p.artifacts
                 if provenance_hash(p.path(name)) != self.config_hashes[self.writers[name]]]
        distinct = self.config_hashes["one-step"] != self.config_hashes["euler"]
        return not stale and distinct, f"{len(p.artifacts)} artifacts; stale: {stale or 'none'}"

    def check_nfe(self, p, digests):
        one = report_values(p.path("sample_report_one_step.txt"))["nfe"]
        euler = report_values(p.path("sample_report.txt"))["nfe"]
        return one == 1.0 and euler == 100.0, f"one-step NFE={one:g}, euler NFE={euler:g}"

    def check_samples(self, p, digests):
        dim = self.points(p, digests, "holdout.csv").shape[1]
        want = (self.workload.samples, dim)
        got = [self.points(p, digests, name) for name in ("samples_one_step.csv", "samples.csv")]
        ok = all(x.shape == want and bool(np.isfinite(x).all()) for x in got)
        return ok, f"shapes {[x.shape for x in got]}, want {want}, all finite"

    def check_losses(self, p, digests):
        iterations = {"loss_velocity.csv": self.workload.velocity_iterations,
                      "loss_cg.csv": self.workload.cg_iterations}
        ok, parts = True, []
        for name, count in iterations.items():
            losses = loss_log(p.path(name))
            tenth = max(1, losses.size // 10)
            ok = ok and losses.size == count
            if name in self.workload.checked_losses:
                ok = ok and loss_decreased(losses)
            parts.append(f"{name} {losses[:tenth].mean():.4g} -> {losses[-tenth:].mean():.4g}")
        return ok, "; ".join(parts)

    def check_eval(self, p, digests):
        reported = report_values(p.path("metrics.txt"))["w2_exact"]
        own = self.w2(p, digests, "samples.csv")
        return abs(reported - own) <= 1e-9 * own, f"eval w2_exact {reported!r} vs own {own!r}"

    def check_w2(self, p, digests):
        holdout_shape = self.points(p, digests, "holdout.csv").shape
        if self.workload.law_atoms:
            law = linear_schedule_law(self.workload.law_atoms, self.workload.law_sigma,
                                      self.workload.stop_time)
            to_law = lambda key, x: self.memoized(("law", key), lambda: w2_to_mixture_1d(x, law))
            one, euler = (to_law(digests[name], self.head(p, digests, name))
                          for name in ("samples_one_step.csv", "samples.csv"))
            prior = to_law("prior", self.prior(holdout_shape))
            self.values.update(one_step_vs_law=one, euler_vs_law=euler, prior_vs_law=prior)
            return max(one, euler) <= LAW_BELOW_PRIOR * prior, (
                f"W2 to the law of X_T: one-step {one:.4f}, euler {euler:.4f}; "
                f"both <= {LAW_BELOW_PRIOR} x prior {prior:.4f}")
        one = self.w2(p, digests, "samples_one_step.csv")
        euler = self.w2(p, digests, "samples.csv")
        prior = self.memoized(("w2-prior", digests["holdout.csv"]), lambda: assignment_w2(
            self.prior(holdout_shape), self.points(p, digests, "holdout.csv")))
        self.values.update(one_step_vs_holdout=one, euler_vs_holdout=euler,
                           prior_vs_holdout=prior)
        ok = one <= W2_RATIO * euler and max(one, euler) <= WELL_BELOW_PRIOR * prior
        return ok, (f"W2 to the holdout: one-step {one:.4f} <= {W2_RATIO} x euler {euler:.4f}; "
                    f"both <= {WELL_BELOW_PRIOR} x prior {prior:.4f}")

    def check_reproducible(self, p, digests):
        if "missing" in digests.values():
            return False, "missing artifacts"
        if self.reference is None:
            self.reference = digests
            return True, "first pass: reference hashes"
        differ = [name for name in digests if digests[name] != self.reference[name]]
        return not differ, f"differs from the first pass: {differ or 'nothing'}"
