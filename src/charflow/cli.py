"""Operator surface: reproducible batch runs driven by one config file.

Commands (all take ``--config <path> [--out <dir>] [--seed <u64>]``):

* gen-data        draw training and holdout sets, write data.csv / holdout.csv
* train-velocity  fit the velocity or denoiser field, write field.ckpt + loss CSV
* train-cg        distill a characteristic generator, write student.ckpt + loss CSV
* sample          generate points (one-step / multi-step / euler / ei), write samples.csv
* eval            compare samples.csv to holdout.csv, write metrics.txt
* verify          run the closed-form/exactness check battery; nonzero exit on failure

Artifacts land in the output directory under fixed names, so dependent
commands find their inputs without extra flags; every artifact starts with
a provenance line (tool version, seed, config hash) and is written to a
temporary file that replaces the old one only when complete.  Two runs with
the same effective config produce bit-identical outputs.

A bad run exits 2 with one ``error:`` line on stderr, never a traceback: a
bad config (a float key out of its range, a non-finite float value or
point or float-list entry, or a ``run.seed`` outside
[0, ``config.SEED_MAX``] included; ``config.check_seed`` runs again after
``--seed``), a missing or damaged
input (a point file with no rows or a non-finite coordinate included; a
checkpoint whose header length runs past the end of the file, whose header
is not a JSON object or has no ``extra`` object), a checkpoint of the other
role (a student's over ``field.ckpt`` or the reverse), with a header value
of the wrong type or range (each key the role needs is checked against
``CHECKPOINT_KEYS``: ``role``, ``schedule``, ``stop_time``, ``sigma_data``,
``plain``; the line names the file and the key) or whose output dimension
differs from the config's target (refused before the command writes its
outputs), a training run that diverges (a
non-finite loss, or a loss above ``velocity.DIVERGENCE_FACTOR`` times the
first; the line names the command and the iteration; no checkpoint is
written) and a sampler whose state turns non-finite (every sampler,
one-step and multi-step included, steps through ``sampler.integrate``; the
line names the command and the step; no ``samples.csv`` is written).

A command pays for what it uses: scipy is loaded only by an exact W2 in
two or more dimensions (``eval`` and ``verify``), the training and
sampling loops reuse the network's work arrays (``net.buffer_pool``), and
the Euler/EI ``sample`` keeps only the current (n, d) state, not the
trajectory (``train-cg`` keeps that, as its regression corpus).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, cgen, net as nets, sampler, velocity
from .config import (SEED_CG, SEED_DATA, SEED_EVAL, SEED_HOLDOUT, SEED_SAMPLE, SEED_TRAJ,
                     SEED_VELOCITY, RunConfig, check_seed, config_hash, parse_config,
                     serialize_config)
from .fileio import atomic_open
from .metrics import MetricReport, save_reports, sliced_w2, w2_exact, W2_EXACT_MAX_N
from .net import NetSpec, load_net, save_net
from .schedule import KINDS as SCHEDULE_KINDS, Schedule
from .target import TargetSpec, load_points, sample_target, save_points
from .velocity import (TrainConfig, estimate_sigma_data, make_denoiser, make_velocity,
                       velocity_from_denoiser)

COMMANDS = ("gen-data", "train-velocity", "train-cg", "sample", "eval", "verify")
# the header keys each checkpoint's readers need, as key -> (test, wording); the other role's
# file lacks one of them
_ROLE = (lambda v: v in ("velocity", "denoiser"), "must be velocity or denoiser")
_SCHEDULE = (lambda v: v in SCHEDULE_KINDS, f"must be one of {SCHEDULE_KINDS}")
_STOP_TIME = (lambda v: type(v) is float and 0.0 < v < 1.0, "must be a float in (0, 1)")
_SIGMA_DATA = (lambda v: type(v) is float and 0.0 < v < np.inf, "must be a finite float > 0")
_PLAIN = (lambda v: type(v) is bool, "must be true or false")
CHECKPOINT_KEYS = {
    "field.ckpt": {"role": _ROLE, "schedule": _SCHEDULE, "stop_time": _STOP_TIME,
                   "sigma_data": _SIGMA_DATA},
    "student.ckpt": {"schedule": _SCHEDULE, "stop_time": _STOP_TIME, "sigma_data": _SIGMA_DATA,
                     "plain": _PLAIN},
}
# the [velocity] and [cg] keys read here; every other key of those sections names a field of
# TrainConfig or CgTrainConfig and reaches it as it is
_OWN_KEYS = ("m", "steps", "hidden", "activation", "time_features", "fourier_k")


def _provenance(cfg: RunConfig) -> str:
    return f"charflow {__version__} seed={cfg.seed} config={config_hash(cfg)}"


def _echo_config(cfg: RunConfig, out: str):
    with atomic_open(os.path.join(out, "config.echo.ini")) as fh:
        fh.write(f"# {_provenance(cfg)}\n")
        fh.write(serialize_config(cfg))


def _target_spec(cfg: RunConfig) -> TargetSpec:
    tgt = cfg["target"]
    if tgt["variant"] == "swiss-roll":
        return TargetSpec(variant="swiss_roll", swiss_noise=tgt["swiss_noise"])
    weights = np.asarray(tgt["weights"]) if tgt["weights"] else None
    if tgt["variant"] == "atomic":
        return TargetSpec(variant="atomic", atoms=tgt["atoms"], weights=weights, sigma=tgt["sigma"])
    return TargetSpec(variant="embedded", atoms=tgt["atoms"], weights=weights,
                      sigma=tgt["sigma"], frame=tgt["frame"])


def _require(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing {path}; run `charflow {hint}` first")
    return path


def _save_losses(path, losses, provenance):
    with atomic_open(path) as fh:
        fh.write(f"# {provenance}\n")
        fh.write("iteration,loss\n")
        for i, loss in enumerate(losses):
            fh.write(f"{i},{loss!r}\n")


def cmd_gen_data(cfg: RunConfig, out: str) -> int:
    spec = _target_spec(cfg)
    prov = _provenance(cfg)
    data = sample_target(spec, cfg["target"]["n"], cfg.seed + SEED_DATA)
    holdout = sample_target(spec, cfg["target"]["holdout"], cfg.seed + SEED_HOLDOUT)
    save_points(os.path.join(out, "data.csv"), data, prov)
    save_points(os.path.join(out, "holdout.csv"), holdout, prov)
    print(f"wrote {len(data)} training and {len(holdout)} holdout points to {out}")
    return 0


def _train_config(cls, cfg: RunConfig, name: str, n_times: int, dim: int, **fields):
    """``cls`` from section ``name`` and ``fields``; its net reads n_times times and a dim-D state."""
    section = cfg[name]
    tf_dim = nets.time_feature_dim(section["time_features"], section["fourier_k"])
    spec = NetSpec(n_times * tf_dim + dim, tuple(section["hidden"]), dim,
                   activation=section["activation"], time_features=section["time_features"],
                   fourier_k=section["fourier_k"])
    own = {key: value for key, value in section.items() if key not in _OWN_KEYS}
    return cls(schedule=Schedule(cfg["schedule"]["kind"]), net_spec=spec, **own, **fields)


def cmd_train_velocity(cfg: RunConfig, out: str) -> int:
    data = load_points(_require(os.path.join(out, "data.csv"), "gen-data"))
    tc = _train_config(TrainConfig, cfg, "velocity", 1, data.shape[1],
                       seed=cfg.seed + SEED_VELOCITY, sigma_data=estimate_sigma_data(data))
    net, losses = velocity.train(tc, data)
    lip = nets.lipschitz_bound(net)
    extra = {
        "role": tc.loss,
        "schedule": cfg["schedule"]["kind"],
        "stop_time": tc.stop_time,
        "sigma_data": tc.sigma_data,
        "lipschitz_bound": lip,
    }
    save_net(os.path.join(out, "field.ckpt"), net, extra, _provenance(cfg))
    _save_losses(os.path.join(out, "loss_velocity.csv"), losses, _provenance(cfg))
    final = losses[-1] if losses else float("nan")
    print(f"trained {tc.loss} field for {tc.iterations} iterations (final loss {final:.6f}); "
          f"spectral-norm product {lip:.3f} (monitored, not enforced)")
    return 0


def _load_checked(cfg: RunConfig, out: str, name: str, hint: str):
    """Load a checkpoint; refuse one of the other role, a bad header value or another dimension."""
    path = _require(os.path.join(out, name), hint)
    net, extra = load_net(path)
    missing = [key for key in CHECKPOINT_KEYS[name] if key not in extra]
    if missing:
        raise ValueError(f"{path} is not a {name.split('.')[0]} checkpoint (its header lacks "
                         f"{', '.join(missing)}); rerun `charflow {hint}`")
    for key, (test, wording) in CHECKPOINT_KEYS[name].items():
        if not test(extra[key]):
            raise ValueError(f"{path}: header key extra.{key} {wording}, got {extra[key]!r}; "
                             f"rerun `charflow {hint}`")
    dim = _target_spec(cfg).dim
    if net.spec.output_dim != dim:
        raise ValueError(f"{path} maps to dimension {net.spec.output_dim}, but the config's "
                         f"target has dimension {dim}; rerun `charflow {hint}`")
    return net, extra


def _load_field(cfg: RunConfig, out: str):
    net, extra = _load_checked(cfg, out, "field.ckpt", "train-velocity")
    schedule = Schedule(extra["schedule"])
    if extra["role"] == "denoiser":
        denoiser = make_denoiser(net, schedule, extra["sigma_data"])
        field = lambda t, X: velocity_from_denoiser(denoiser, schedule, t, X)
    else:
        denoiser = None
        field = make_velocity(net)
    return field, denoiser, schedule, extra, net


def cmd_train_cg(cfg: RunConfig, out: str) -> int:
    cgc = cfg["cg"]
    prov = _provenance(cfg)
    data = load_points(_require(os.path.join(out, "data.csv"), "gen-data"))
    dim = data.shape[1]
    config = _train_config(cgen.CgTrainConfig, cfg, "cg", 2, dim, seed=cfg.seed + SEED_CG,
                           sigma_data=estimate_sigma_data(data))
    if config.mode == "regression":
        field, _, _, _, _ = _load_field(cfg, out)
        grid = sampler.TimeGrid(stop_time=cgc["stop_time"], steps=cgc["steps"])
        corpus = sampler.push_samples("euler", field, cgc["m"], dim, grid,
                                      seed=cfg.seed + SEED_TRAJ)
        sampler.save_trajectories(os.path.join(out, "trajectories.bin"), corpus,
                                  cfg["schedule"]["kind"], prov)
        student, losses = cgen.train_cg(config, corpus=corpus)
    elif config.mode == "practical":
        denoiser = _load_field(cfg, out)[1]
        if denoiser is None:
            raise ValueError("practical mode needs a denoiser teacher; train with velocity.loss=denoiser")
        student, losses = cgen.train_cg(config, data=data, teacher=denoiser)
    else:
        student, losses = cgen.train_cg(config, data=data)
    extra = {
        "schedule": cfg["schedule"]["kind"],
        "stop_time": student.stop_time,
        "sigma_data": student.sigma_data,
        "plain": student.plain,
    }
    save_net(os.path.join(out, "student.ckpt"), student.net, extra, prov)
    _save_losses(os.path.join(out, "loss_cg.csv"), losses, prov)
    final = losses[-1] if losses else float("nan")
    print(f"trained characteristic generator ({config.mode}) for {config.iterations} "
          f"iterations (final loss {final:.6f})")
    return 0


def _load_student(cfg: RunConfig, out: str) -> cgen.StudentNet:
    net, extra = _load_checked(cfg, out, "student.ckpt", "train-cg")
    return cgen.StudentNet(net=net, schedule=Schedule(extra["schedule"]),
                           stop_time=extra["stop_time"], sigma_data=extra["sigma_data"],
                           plain=extra["plain"])


def cmd_sample(cfg: RunConfig, out: str) -> int:
    smp = cfg["sample"]
    prov = _provenance(cfg)
    seed = cfg.seed + SEED_SAMPLE
    n = smp["n"]
    reports = []
    if smp["sampler"] in ("one-step", "multi-step"):
        student = _load_student(cfg, out)
        if smp["sampler"] == "one-step":
            nodes = (0.0, student.stop_time)
            points = cgen.one_step(student, n, student.stop_time, seed)
        else:
            nodes = np.asarray(smp["nodes"]) if smp["nodes"] else np.linspace(
                0.0, student.stop_time, smp["steps"] + 1)
            points = cgen.multi_step(student, nodes, n, seed)
        nfe = len(nodes) - 1  # one g evaluation per segment
    else:
        field, denoiser, schedule, extra, field_net = _load_field(cfg, out)
        grid = sampler.TimeGrid(stop_time=extra["stop_time"], steps=smp["steps"])
        dim = field_net.spec.output_dim
        if smp["sampler"] == "euler":
            points = sampler.push_samples("euler", field, n, dim, grid, seed,
                                          keep_trajectories=False)
        else:
            if denoiser is None:
                raise ValueError("ei sampling needs a denoiser field")
            points = sampler.push_samples("ei", denoiser, n, dim, grid, seed, schedule=schedule,
                                          keep_trajectories=False)
        nfe = grid.steps
    save_points(os.path.join(out, "samples.csv"), points, prov)
    reports.append(MetricReport(name="nfe", value=float(nfe), sample_sizes=(n,), seed=seed))
    save_reports(os.path.join(out, "sample_report.txt"), reports, prov)
    print(f"wrote {len(points)} samples ({smp['sampler']}, NFE={nfe}) to {out}")
    return 0


def cmd_eval(cfg: RunConfig, out: str) -> int:
    ev = cfg["eval"]
    prov = _provenance(cfg)
    samples = load_points(_require(os.path.join(out, "samples.csv"), "sample"))
    holdout = load_points(_require(os.path.join(out, "holdout.csv"), "gen-data"))
    seed = cfg.seed + SEED_EVAL
    n = min(len(samples), len(holdout))
    reports = []
    if ev["metric"] == "w2" and n <= W2_EXACT_MAX_N:
        value = w2_exact(samples[:n], holdout[:n])
        reports.append(MetricReport(name="w2_exact", value=value, sample_sizes=(n, n), seed=seed))
    else:
        value = sliced_w2(samples, holdout, ev["projections"], seed)
        reports.append(MetricReport(name="sliced_w2", value=value,
                                    sample_sizes=(len(samples), len(holdout)), seed=seed,
                                    aux={"projections": float(ev["projections"])}))
    save_reports(os.path.join(out, "metrics.txt"), reports, prov)
    print(f"{reports[0].name} = {value:.6f} (n={n})")
    return 0


def cmd_verify(cfg: RunConfig, out: str) -> int:
    from .verify import run_all

    results = run_all()
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{r.name:<{width}}  {status}  {r.detail}"
        lines.append(line)
        print(line)
    failures = [r for r in results if not r.ok]
    with atomic_open(os.path.join(out, "verify_report.txt")) as fh:
        fh.write(f"# {_provenance(cfg)}\n")
        fh.write("\n".join(lines) + "\n")
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


HANDLERS = {
    "gen-data": cmd_gen_data,
    "train-velocity": cmd_train_velocity,
    "train-cg": cmd_train_cg,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="charflow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default="charflow_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.sections["run"]["seed"] = args.seed
            check_seed(cfg)
        os.makedirs(args.out, exist_ok=True)
        _echo_config(cfg, args.out)
        return HANDLERS[args.command](cfg, args.out)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except velocity.TrainingDiverged as exc:
        print(f"error: {args.command} diverged at {exc}", file=sys.stderr)
        return 2
    except sampler.NonFiniteState as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
