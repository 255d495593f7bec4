#!/usr/bin/env python3
"""charflow pipeline benchmark: one workload, one process, the real CLI.

    python3 bench/run.py --workload swiss-roll --seed 1 --seconds 16 --trace 0

Each pass writes the workload's configs into a fresh output directory and
calls ``charflow.cli.main`` for gen-data, train-velocity, train-cg, sample
(one-step), sample (Euler, 100 steps) and eval, one command after the
other: a closed loop with one client.  eval compares the Euler samples
with the holdout.  The one-step sample command runs ``one_step_repeats``
times per pass (about two seconds of work) in three groups spread over the
pass, and its stage time is the median of them: one run takes only tens of
milliseconds, and load from other tenants of a shared machine moves single
runs, and whole seconds of them, by a quarter either way.  Passes repeat
until their stages have taken ``--seconds``.  Every pass runs the same
configs, so every pass must reproduce the first pass's artifacts bit for
bit.  Correctness checks run after each pass, outside the timed stages.

Before the first pass, an untimed warm-up pass with a quarter of the
iterations runs every command but eval, so that interpreter, allocator and
BLAS start-up costs do not land on the first timed pass alone.

``--trace 0`` prints the end-to-end metrics (medians over passes);
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

The package is imported from ``src/`` of the checkout this file sits in
(what ``PYTHONPATH=src`` does); run output goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import charflow.cli; "
                "print(time.perf_counter() - t)")
IMPORT_PROBES = 2  # fresh interpreters, besides the benchmark's own first import
ONE_STEP_GROUPS = 3  # after train-cg, after the Euler sample, after eval
WARMUP_SHARE = 4  # the warm-up pass runs 1/4 of the training iterations
FLOOR_SEED_OFFSET = 1_000_003

END_TO_END = {
    "setup_s": "s",
    "teacher_it_per_s": "it/s",
    "cg_it_per_s": "it/s",
    "one_step_pts_per_s": "points/s",
    "euler_pts_per_s": "points/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
STAGES = ("train-velocity", "train-cg", "sample-one-step", "sample-euler", "eval")
# every artifact of a pass, with the sampler of the config whose command wrote it
ARTIFACTS = {
    "data.csv": "one-step", "holdout.csv": "one-step", "field.ckpt": "one-step",
    "loss_velocity.csv": "one-step", "student.ckpt": "one-step", "loss_cg.csv": "one-step",
    "samples_one_step.csv": "one-step", "sample_report_one_step.txt": "one-step",
    "samples.csv": "euler", "sample_report.txt": "euler",
    "metrics.txt": "one-step", "config.echo.ini": "one-step", "trajectories.bin": "one-step",
}


def cap_blas_threads():
    """Cap BLAS and OpenMP threads at the CPUs this process may use (before numpy loads)."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cpus) if current.isdigit() and int(current) > 0
                              else cpus)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Pass:
    """One pass: its output directory, stage times and operation outcomes."""

    def __init__(self, directory, artifacts):
        self.dir = directory
        self.artifacts = artifacts
        self.times = {}
        self.ops = {}        # operation -> ok
        self.details = {}    # check -> detail line

    def path(self, name):
        return os.path.join(self.dir, name)

    def hashes(self) -> dict:
        return {name: sha256(self.path(name)) if os.path.exists(self.path(name)) else "missing"
                for name in self.artifacts}

    @property
    def pipeline_s(self) -> float:
        return sum(self.times[stage] for stage in STAGES)


def run_command(cli, argv) -> bool:
    """One CLI command; an exception is a failed operation, not a crashed run."""
    try:
        return cli.main(argv) == 0
    except Exception:  # noqa: BLE001 - keep running and count the failure
        traceback.print_exc()
        return False


def run_stages(cli, workload, seed, p: Pass, tracer=None, evaluate=True):
    """Set-up (config files + gen-data) and the timed stages of one pass.

    The one-step sample command runs in ``ONE_STEP_GROUPS`` groups of
    repeats: after train-cg, after the Euler sample and after eval, so that
    its stage time samples three moments of the pass.  It writes into the
    pass's ``one-step/`` directory, which holds a copy of ``student.ckpt``
    made before the first group, so it never overwrites the Euler samples
    that eval reads; the last group's outputs then move into the pass
    directory as ``samples_one_step.csv`` and ``sample_report_one_step.txt``.
    """
    main_ini, euler_ini = p.path("run.ini"), p.path("euler.ini")
    one_step_dir = p.path("one-step")
    one_step_times = []

    def command(stage, argv, op=None, out=p.dir):
        start = perf_counter()
        span = tracer.begin("stage." + stage) if tracer else None
        p.ops[op or stage] = run_command(cli, argv + ["--out", out])
        if tracer:
            tracer.end(span)
        return perf_counter() - start

    def sample_one_step(group):
        for k in range(workload.one_step_repeats // ONE_STEP_GROUPS):
            one_step_times.append(command("sample-one-step", ["sample", "--config", main_ini],
                                          f"sample-one-step-{group}-{k}", one_step_dir))

    os.makedirs(p.dir)
    with open(p.path("cli.log"), "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = perf_counter()
        with open(main_ini, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(seed, "one-step"))
        with open(euler_ini, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text(seed, "euler"))
        command("gen-data", ["gen-data", "--config", main_ini])
        p.times["setup"] = perf_counter() - start
        for op in ("train-velocity", "train-cg"):
            p.times[op] = command(op, [op, "--config", main_ini])
        os.makedirs(one_step_dir)
        with contextlib.suppress(OSError):  # a missing checkpoint fails the sample commands
            shutil.copyfile(p.path("student.ckpt"), os.path.join(one_step_dir, "student.ckpt"))
        sample_one_step(0)
        p.times["sample-euler"] = command("sample-euler", ["sample", "--config", euler_ini])
        sample_one_step(1)
        if evaluate:
            p.times["eval"] = command("eval", ["eval", "--config", main_ini])
        sample_one_step(2)
        p.times["sample-one-step"] = statistics.median(one_step_times)
        for name, kept in (("samples.csv", "samples_one_step.csv"),
                           ("sample_report.txt", "sample_report_one_step.txt")):
            with contextlib.suppress(OSError):  # a miss fails the checks
                os.replace(os.path.join(one_step_dir, name), p.path(kept))


def import_seconds(first: float) -> float:
    """Median time to import charflow.cli: this process's import and fresh interpreters'."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = [first]
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout))
    return statistics.median(times)


def reference_floor(cli, checks, first: Pass, run_dir, seed) -> str:
    """W2(fresh target draw, holdout): gen-data under another seed against this holdout."""
    floor_dir = os.path.join(run_dir, "floor")
    with open(os.path.join(run_dir, "floor.log"), "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        ok = run_command(cli, ["gen-data", "--config", first.path("run.ini"), "--out", floor_dir,
                               "--seed", str(seed + FLOOR_SEED_OFFSET)])
    if not ok:
        return "unavailable"
    fresh = checks.read_points(os.path.join(floor_dir, "holdout.csv"))
    return f"{checks.assignment_w2(fresh, checks.read_points(first.path('holdout.csv'))):.6f}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("swiss-roll", "manifold-16d", "velocity-1d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "charflow", "cli.py")):
        print(f"error: no charflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = perf_counter()
    import charflow.cli as cli
    first_import_s = perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: charflow was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import tracing
    from charflow.config import config_hash, parse_config_text
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = args.seed
    hashes = {s: config_hash(parse_config_text(workload.config_text(seed, s)))
              for s in ("one-step", "euler")}
    artifacts = [name for name in ARTIFACTS if workload.regression or name != "trajectories.bin"]
    checker = checks.Checker(workload, seed, hashes, ARTIFACTS)
    run_dir = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    import_s = import_seconds(first_import_s)
    warmup = Pass(os.path.join(run_dir, "warmup"), artifacts)
    run_stages(cli, dataclasses.replace(
        workload, velocity_iterations=workload.velocity_iterations // WARMUP_SHARE,
        cg_iterations=workload.cg_iterations // WARMUP_SHARE,
        one_step_repeats=ONE_STEP_GROUPS),
        seed, warmup, evaluate=False)
    timed, tracers, peak_rss_mb, measured = [], {}, None, 0.0
    while True:
        index = len(timed)
        p = Pass(os.path.join(run_dir, f"pass-{index}"), artifacts)
        tracer = tracing.Tracer() if args.trace and index % 2 == 1 else None
        if tracer:
            tracing.instrument(tracer)
        start = perf_counter()
        try:
            run_stages(cli, workload, seed, p, tracer)
        finally:
            if tracer:
                tracer.restore()
        measured += perf_counter() - start
        if peak_rss_mb is None:  # read before any check can raise the high-water mark
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checker.run(p)
        timed.append(p)
        if tracer:
            tracers[index] = tracer
        if index > 0:
            shutil.rmtree(p.dir)
        if measured >= args.seconds and (not args.trace or len(timed) % 2 == 0):
            break

    first = timed[0]
    floor = reference_floor(cli, checks, first, run_dir, seed) if args.trace else "traced runs only"
    for index, tracer in tracers.items():
        tracer.write(os.path.join(run_dir, "spans.tsv"), f"pass-{index}")

    med = statistics.median
    plain = [p for i, p in enumerate(timed) if i not in tracers]
    if args.trace:
        layers = [tracing.layer_metrics(t) for t in tracers.values()]
        metrics = {key: {"value": med([m[key] for m in layers]), "unit": tracing.unit(key)}
                   for key in layers[0]}
        overhead = med([timed[i].pipeline_s for i in tracers]) - med([p.pipeline_s for p in plain])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        stage = lambda name: med([p.times[name] for p in plain])
        values = {
            "setup_s": import_s + stage("setup"),
            "teacher_it_per_s": workload.velocity_iterations / stage("train-velocity"),
            "cg_it_per_s": workload.cg_iterations / stage("train-cg"),
            "one_step_pts_per_s": workload.samples / stage("sample-one-step"),
            "euler_pts_per_s": workload.samples / stage("sample-euler"),
            "pipeline_s": med([p.pipeline_s for p in plain]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    ops = [ok for p in timed for ok in p.ops.values()]
    failed = ops.count(False)
    print(f"workload {workload.name} seed {seed} timed passes {len(timed)} "
          f"(traced {len(tracers)}) import_s {import_s:.4f}")
    for i, p in enumerate(timed):
        print(f"pass {i}{' traced' if i in tracers else ''}: "
              + " ".join(f"{k} {v:.4f}" for k, v in p.times.items()))
    for key, value in sorted(checker.values.items()):
        print(f"w2 {key} {value:.6f}")
    print(f"w2 floor_fresh_target_vs_holdout {floor}")
    for name, digest in first.hashes().items():
        print(f"sha256 {name} {digest}")
    for name, detail in timed[-1].details.items():
        print(f"{name} {'ok' if timed[-1].ops[name] else 'FAILED'}: {detail}")
    failures = sorted({op for p in timed for op, ok in p.ops.items() if not ok})
    if failures:
        print(f"failed operations: {failures}")
    if not all(warmup.ops.values()):
        print(f"warm-up commands failed: {[op for op, ok in warmup.ops.items() if not ok]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
