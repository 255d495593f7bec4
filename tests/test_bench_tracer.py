"""bench/tracing.py patches charflow by name: every name must exist, be called, and come back."""

import importlib.util
from pathlib import Path

import numpy as np

from charflow import cgen, sampler, velocity
from charflow.net import NetSpec
from charflow.schedule import Schedule
from charflow.target import atomic_mixture, sample_target


def test_instrument_then_restore_puts_every_original_back():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("charflow_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer, lin = tracing.Tracer(), Schedule("linear")
    try:
        tracing.instrument(tracer)
        patched = list(tracer._undo)
        assert patched and all(getattr(owner, attr) is not fn for owner, attr, fn in patched)
        # two iterations of every caller of the shared training loop
        data = sample_target(atomic_mixture(np.zeros((1, 1)), sigma=0.5), 32, seed=0)
        velocity.train(velocity.TrainConfig(lin, NetSpec(2, (4,), 1), iterations=2, batch_size=8,
                                            loss="denoiser"), data)
        corpus = sampler.push_samples("euler", lambda t, X: -X, 4, 1, sampler.TimeGrid(0.99, 4), 1)
        for mode, inputs in (("regression", {"corpus": corpus}),
                             ("practical", {"data": data, "teacher": lambda t, X: X})):
            cgen.train_cg(cgen.CgTrainConfig(mode, lin, NetSpec(3, (4,), 1), iterations=2,
                                             batch_size=4, lambda_semigroup=0.1, teacher_steps=1),
                          **inputs)
    finally:
        tracer.restore()
    for owner, attr, fn in patched:
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr}"
    seen = tracer.self_times()
    for layer in ("net.forward", "net.backward", "net.adam", "net.ema", "velocity.loss",
                  "velocity.batch", "cgen.regression", "cgen.semigroup", "cgen.local",
                  "cgen.global", "cgen.teacher_flow", "sampler.push", "rng.draw", "schedule"):
        assert layer in seen, f"training never reached the traced {layer}"
