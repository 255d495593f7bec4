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
a provenance line (tool version, seed, config hash).  Two runs with the
same effective config produce bit-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, cgen, net as nets, sampler, velocity
from .config import (SEED_CG, SEED_DATA, SEED_EVAL, SEED_HOLDOUT, SEED_SAMPLE, SEED_TRAJ,
                     SEED_VELOCITY, RunConfig, config_hash, parse_config, serialize_config)
from .metrics import MetricReport, save_reports, sliced_w2, w2_exact, W2_EXACT_MAX_N
from .net import NetSpec, load_net, save_net
from .schedule import Schedule
from .target import TargetSpec, load_points, sample_target, save_points
from .velocity import TrainConfig, estimate_sigma_data, make_denoiser, make_velocity

COMMANDS = ("gen-data", "train-velocity", "train-cg", "sample", "eval", "verify")


def _provenance(cfg: RunConfig) -> str:
    return f"charflow {__version__} seed={cfg.seed} config={config_hash(cfg)}"


def _echo_config(cfg: RunConfig, out: str):
    with open(os.path.join(out, "config.echo.ini"), "w", encoding="utf-8") as fh:
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
    with open(path, "w", encoding="utf-8") as fh:
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


def _velocity_train_config(cfg: RunConfig, dim: int) -> TrainConfig:
    vel = cfg["velocity"]
    schedule = Schedule(cfg["schedule"]["kind"])
    tf_dim = nets.time_feature_dim(vel["time_features"], vel["fourier_k"])
    spec = NetSpec(tf_dim + dim, tuple(vel["hidden"]), dim, activation=vel["activation"],
                   time_features=vel["time_features"], fourier_k=vel["fourier_k"])
    return TrainConfig(
        schedule=schedule, net_spec=spec, stop_time=vel["stop_time"],
        iterations=vel["iterations"], batch_size=vel["batch_size"], lr=vel["lr"],
        beta1=vel["beta1"], beta2=vel["beta2"], eps=vel["eps"],
        seed=cfg.seed + SEED_VELOCITY, loss=vel["loss"],
        clip_grad_norm=vel["clip_grad_norm"] or None,
    )


def cmd_train_velocity(cfg: RunConfig, out: str) -> int:
    data = load_points(_require(os.path.join(out, "data.csv"), "gen-data"))
    tc = _velocity_train_config(cfg, data.shape[1])
    sigma_data = estimate_sigma_data(data)
    tc.sigma_data = sigma_data
    net, losses = velocity.train(tc, data)
    lip = nets.lipschitz_bound(net)
    extra = {
        "role": tc.loss,
        "schedule": cfg["schedule"]["kind"],
        "stop_time": tc.stop_time,
        "sigma_data": sigma_data,
        "lipschitz_bound": lip,
    }
    save_net(os.path.join(out, "field.ckpt"), net, extra, _provenance(cfg))
    _save_losses(os.path.join(out, "loss_velocity.csv"), losses, _provenance(cfg))
    final = losses[-1] if losses else float("nan")
    print(f"trained {tc.loss} field for {tc.iterations} iterations (final loss {final:.6f}); "
          f"spectral-norm product {lip:.3f} (monitored, not enforced)")
    return 0


def _load_field(out: str):
    net, extra = load_net(_require(os.path.join(out, "field.ckpt"), "train-velocity"))
    schedule = Schedule(extra["schedule"])
    if extra["role"] == "denoiser":
        denoiser = make_denoiser(net, schedule, extra["sigma_data"])
        field = velocity.denoiser_to_velocity_field(denoiser, schedule)
    else:
        denoiser = None
        field = make_velocity(net)
    return field, denoiser, schedule, extra, net


def cmd_train_cg(cfg: RunConfig, out: str) -> int:
    cgc = cfg["cg"]
    prov = _provenance(cfg)
    schedule = Schedule(cfg["schedule"]["kind"])
    data = load_points(_require(os.path.join(out, "data.csv"), "gen-data"))
    dim = data.shape[1]
    tf_dim = nets.time_feature_dim(cgc["time_features"], cgc["fourier_k"])
    spec = NetSpec(2 * tf_dim + dim, tuple(cgc["hidden"]), dim, activation=cgc["activation"],
                   time_features=cgc["time_features"], fourier_k=cgc["fourier_k"])
    config = cgen.CgTrainConfig(
        mode=cgc["mode"], schedule=schedule, net_spec=spec, stop_time=cgc["stop_time"],
        iterations=cgc["iterations"], batch_size=cgc["batch_size"], lr=cgc["lr"],
        seed=cfg.seed + SEED_CG, lambda_local=cgc["lambda_local"],
        lambda_semigroup=cgc["lambda_semigroup"], ema_rate=cgc["ema_rate"],
        pairs_per_particle=cgc["pairs_per_particle"],
        triples_per_particle=cgc["triples_per_particle"], full_pairs=cgc["full_pairs"],
        teacher_steps=cgc["teacher_steps"], plain=cgc["plain"],
        sigma_data=estimate_sigma_data(data),
        clip_grad_norm=cgc["clip_grad_norm"] or None,
    )
    if config.mode == "regression":
        field, _, _, _, _ = _load_field(out)
        grid = sampler.TimeGrid(stop_time=cgc["stop_time"], steps=cgc["steps"])
        corpus = sampler.push_samples("euler", field, cgc["m"], dim, grid,
                                      seed=cfg.seed + SEED_TRAJ)
        sampler.save_trajectories(os.path.join(out, "trajectories.bin"), corpus,
                                  cfg["schedule"]["kind"], prov)
        student, losses = cgen.train_cg(config, corpus=corpus)
    elif config.mode == "practical":
        _, denoiser, _, extra, _ = _load_field(out)
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


def _load_student(out: str) -> cgen.StudentNet:
    net, extra = load_net(_require(os.path.join(out, "student.ckpt"), "train-cg"))
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
        student = _load_student(out)
        student.eval_count = 0
        if smp["sampler"] == "one-step":
            points = cgen.one_step(student, n, student.stop_time, seed)
        else:
            nodes = np.asarray(smp["nodes"]) if smp["nodes"] else np.linspace(
                0.0, student.stop_time, smp["steps"] + 1)
            points = cgen.multi_step(student, nodes, n, seed)
        nfe = student.eval_count
    else:
        field, denoiser, schedule, extra, field_net = _load_field(out)
        grid = sampler.TimeGrid(stop_time=extra["stop_time"], steps=smp["steps"])
        dim = field_net.spec.output_dim
        if smp["sampler"] == "euler":
            batch = sampler.push_samples("euler", field, n, dim, grid, seed)
        else:
            if denoiser is None:
                raise ValueError("ei sampling needs a denoiser field")
            batch = sampler.push_samples("ei", denoiser, n, dim, grid, seed, schedule=schedule)
        points = batch.endpoints()
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
    with open(os.path.join(out, "verify_report.txt"), "w", encoding="utf-8") as fh:
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
        os.makedirs(args.out, exist_ok=True)
        _echo_config(cfg, args.out)
        return HANDLERS[args.command](cfg, args.out)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
