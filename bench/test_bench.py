"""Tests of the benchmark's own helpers: python3 -m pytest bench/test_bench.py"""

import contextlib
import io
import itertools
import os
import sys

import numpy as np
import pytest
from scipy.special import ndtri

import run

sys.path.insert(0, run.SRC)

import charflow.cli as cli  # noqa: E402
import charflow.net  # noqa: E402
from charflow.metrics import w2_gaussian  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload  # noqa: E402


@pytest.mark.parametrize("m1, s1, m2, s2", [(0.0, 1.0, 0.5, 1.3), (-1.2, 0.4, 0.3, 0.25)])
def test_quantile_w2_reproduces_gaussian_closed_form(m1, s1, m2, s2):
    n = 20000
    sample = m1 + s1 * ndtri((np.arange(n) + 0.5) / n)   # N(m1, s1^2) at midpoint quantiles
    got = checks.w2_to_mixture_1d(sample, checks.GaussianMixture1d([m2], s2))
    assert got == pytest.approx(w2_gaussian([m1], [[s1 * s1]], [m2], [[s2 * s2]]), abs=2e-3)


def test_quantile_w2_matches_numeric_integral_on_a_mixture():
    law = checks.GaussianMixture1d([-0.9, 0.9], 0.3, weights=[0.3, 0.7])
    x = np.sort(np.random.default_rng(0).normal(0.2, 1.0, 64))
    u = (np.arange(64 * 2000) + 0.5) / (64 * 2000)   # 2000 midpoints per sample point
    gap = np.repeat(x, 2000) - law.quantiles(u)
    assert checks.w2_to_mixture_1d(x, law) == pytest.approx(np.sqrt(np.mean(gap * gap)), rel=1e-3)


@pytest.mark.parametrize("n, d", [(1, 2), (4, 1), (6, 2), (5, 3)])
def test_assignment_w2_matches_brute_force(n, d):
    rng = np.random.default_rng(n * 10 + d)
    a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    best = min(sum(float(np.sum((a[i] - b[j]) ** 2)) for i, j in enumerate(perm))
               for perm in itertools.permutations(range(n)))
    assert checks.assignment_w2(a, b) == pytest.approx(np.sqrt(best / n), rel=1e-12)


def _tiny_swiss_roll(w, seed):
    return ("[target]\nvariant = swiss-roll\nn = 256\nholdout = 128\n\n"
            f"[velocity]\niterations = {w.velocity_iterations}\nbatch_size = 32\nhidden = 8,8\n\n"
            f"[cg]\nm = 32\nsteps = 10\niterations = {w.cg_iterations}\nbatch_size = 16\n"
            "hidden = 8,8\n")


def test_traced_and_untraced_passes_write_identical_artifacts(tmp_path):
    tiny = Workload("tiny", _tiny_swiss_roll, velocity_iterations=20, cg_iterations=10,
                    samples=64, stop_time=0.99, regression=True)
    artifacts = list(run.ARTIFACTS)
    plain = run.Pass(str(tmp_path / "plain"), artifacts)
    traced = run.Pass(str(tmp_path / "traced"), artifacts)
    original = charflow.net.forward_batch
    run.run_stages(cli, tiny, 3, plain)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        run.run_stages(cli, tiny, 3, traced, tracer)
    finally:
        tracer.restore()

    assert all(plain.ops.values()) and all(traced.ops.values())
    assert plain.hashes() == traced.hashes()
    assert "missing" not in plain.hashes().values()
    assert charflow.net.forward_batch is original
    layers = tracing.layer_metrics(tracer)
    assert set(layers) == {f"{n}.s" for n in tracing.LAYERS} | set(tracing.COUNTS)
    assert layers["net.forward.calls"] > 0
    assert layers["cgen.g_apply.calls"] == tiny.one_step_repeats
    assert layers["sampler.push.particle_steps"] == 32 * 10 + 64 * 100
    assert layers["metrics.w2_exact.cost_bytes"] == 64 * 64 * 2 * 8
    assert layers["cgen.local.s"] == 0.0 and layers["net.ema.s"] == 0.0
    stages = [s for s in tracer.spans if s[0].startswith("stage.")]
    assert len(stages) == 5 + tiny.one_step_repeats
    assert all(s[3] == -1 for s in stages)
