"""Span tracing of charflow's layers, built from outside the package.

``instrument`` replaces the public functions of each layer with timed
wrappers, at every name the pipeline looks them up by (the home module
and, where a module imported the name, that module too), and ``restore``
puts the originals back.  Spans (name, start, end, parent) are kept in
memory; a layer's self time is the length of its spans minus the part
covered by their child spans.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# span names; each is reported as "<name>.s" (self seconds)
LAYERS = (
    "net.forward", "net.backward", "net.adam", "net.ema", "net.ckpt",
    "velocity.loss", "velocity.batch",
    "cgen.regression", "cgen.semigroup", "cgen.local", "cgen.global", "cgen.teacher_flow",
    "cgen.one_step",
    "sampler.push", "sampler.traj_io",
    "rng.draw",
    "schedule",
    "target.csv_write", "target.csv_read",
    "metrics.w2_exact",
    "config.parse",
)
COUNTS = (
    "net.forward.calls", "net.forward.rows", "net.backward.rows", "net.ckpt.bytes",
    "cgen.regression.pairs", "cgen.semigroup.triples", "cgen.g_apply.calls",
    "sampler.push.particle_steps", "sampler.traj_io.bytes",
    "rng.streams", "rng.draws",
    "schedule.calls",
    "target.csv_write.bytes", "target.csv_read.bytes",
    "metrics.w2_exact.cost_bytes",
)
SCHEDULE_METHODS = ("alpha", "beta", "dalpha", "dbeta", "coeffs", "dlog_alpha", "rate",
                    "ei_coeffs", "kappa")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []
        self._undo = []

    def begin(self, name: str) -> int:
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int):
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def timed(self, fn, name: str | None, after=None):
        """Wrap fn in a span (name=None: count only); after(counts, result, *args, **kw)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
            if after is not None:
                after(tracer.counts, result, *args, **kwargs)
            return result

        return wrapper

    def replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owners, attr: str, name: str | None, after=None):
        for owner in owners:
            self.replace(owner, attr, self.timed(getattr(owner, attr), name, after))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """Seconds per span name, minus the time covered by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = defaultdict(float)
        for (name, _, _, _), seconds in zip(self.spans, own):
            totals[name] += seconds
        return dict(totals)

    def write(self, path: str, label: str):
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{label}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def _add(key, value):
    def after(counts, result, *args, **kwargs):
        counts[key] += value(result, *args, **kwargs)
    return after


def _file_bytes(key):
    return _add(key, lambda result, path, *args, **kwargs: os.path.getsize(path))


def _variates(result, self, shape=None):
    return 1 if shape is None else int(np.prod(shape))


def instrument(tracer: Tracer):
    """Wrap every traced charflow function; undo with tracer.restore()."""
    from charflow import cgen, cli, config, metrics, net, rng, sampler, schedule, target, velocity

    tracer.patch([net], "forward_batch", "net.forward",
                 lambda c, r, n, X, *a, **k: c.update({"net.forward.calls": 1,
                                                       "net.forward.rows": len(X)}))
    tracer.patch([net], "grad_batch", "net.backward", _add("net.backward.rows",
                                                           lambda r, n, X, *a, **k: len(X)))
    tracer.patch([net], "adam_step", "net.adam")
    tracer.patch([net], "ema_update", "net.ema")
    for attr in ("save_net", "load_net"):
        tracer.patch([net, cli], attr, "net.ckpt", _file_bytes("net.ckpt.bytes"))

    tracer.patch([velocity], "velocity_loss", "velocity.loss")
    tracer.patch([velocity], "denoiser_loss", "velocity.loss")
    tracer.patch([velocity, cgen], "draw_batch", "velocity.batch")

    tracer.patch([cgen], "regression_loss", "cgen.regression",
                 _add("cgen.regression.pairs", lambda r, g, b, pairs: len(pairs)))
    tracer.patch([cgen], "semigroup_penalty", "cgen.semigroup",
                 _add("cgen.semigroup.triples", lambda r, g, b, triples: len(triples)))
    tracer.patch([cgen], "local_loss", "cgen.local")
    tracer.patch([cgen], "global_loss", "cgen.global")
    make_flow = cgen.make_teacher_flow
    tracer.replace(cgen, "make_teacher_flow", functools.wraps(make_flow)(
        lambda *a, **k: tracer.timed(make_flow(*a, **k), "cgen.teacher_flow")))
    tracer.patch([cgen], "one_step", "cgen.one_step")
    tracer.patch([cgen], "g_apply", None, _add("cgen.g_apply.calls", lambda r, *a, **k: 1))

    tracer.patch([sampler], "push_samples", "sampler.push",
                 _add("sampler.push.particle_steps",
                      lambda r, method, field, m, dim, grid, *a, **k: m * grid.steps))
    for attr in ("save_trajectories", "load_trajectories"):
        tracer.patch([sampler], attr, "sampler.traj_io", _file_bytes("sampler.traj_io.bytes"))

    tracer.patch([rng.Rng], "__init__", "rng.draw", _add("rng.streams", lambda r, *a, **k: 1))
    tracer.patch([rng.Rng], "uniform", "rng.draw", _add("rng.draws", _variates))
    tracer.patch([rng.Rng], "normal", "rng.draw", _add("rng.draws", _variates))
    tracer.patch([rng.Rng], "integers", "rng.draw")

    one_call = _add("schedule.calls", lambda r, *a, **k: 1)
    for attr in SCHEDULE_METHODS:
        tracer.patch([schedule.Schedule], attr, "schedule", one_call)
    tracer.patch([schedule, velocity, cgen], "denoiser_coeffs", "schedule", one_call)

    tracer.patch([target, cli], "save_points", "target.csv_write",
                 _file_bytes("target.csv_write.bytes"))
    tracer.patch([target, cli], "load_points", "target.csv_read",
                 _file_bytes("target.csv_read.bytes"))
    tracer.patch([metrics, cli], "w2_exact", "metrics.w2_exact",
                 _add("metrics.w2_exact.cost_bytes",
                      lambda r, A, B: A.shape[0] * B.shape[0] * A.shape[1] * 8))
    tracer.patch([config, cli], "parse_config", "config.parse")


def unit(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    return "bytes" if metric.endswith("bytes") else "count"


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of one traced pass, zero where a layer did no work."""
    own = tracer.self_times()
    out = {f"{name}.s": own.get(name, 0.0) for name in LAYERS}
    out.update({key: float(tracer.counts.get(key, 0)) for key in COUNTS})
    return out
