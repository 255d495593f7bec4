import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from charflow import cli
from charflow.cgen import CgTrainConfig
from charflow.cli import main
from charflow.config import SCHEMA, SEED_MAX, parse_config_text
from charflow.net import Net, NetSpec, load_net, net_init, save_net
from charflow.rng import Rng
from charflow.target import load_points
from charflow.velocity import TrainConfig, clip_gradient, train
from test_net import flipped, length_offset, reframed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TINY_PIPELINE = """
[target]
variant = swiss-roll
n = 256
holdout = 128

[schedule]
kind = follmer

[velocity]
iterations = 80
batch_size = 64
hidden = 16,16

[cg]
m = 48
steps = 12
iterations = 60
batch_size = 32
hidden = 16,16

[sample]
n = 64

[eval]
metric = w2
"""
# the [sample] block above is the replace() anchor for the sampler-variant tests


@pytest.fixture()
def workspace(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_PIPELINE)
    out = tmp_path / "out"
    return str(cfg), str(out)


def _report(path):
    """(metric, value) of the first record in a report file."""
    with open(path) as fh:
        line = next(line for line in fh if not line.startswith("#"))
    fields = dict(item.split("=", 1) for item in line.split())
    return fields["metric"], float(fields["value"])


def _run(cfg, out, command, seed=None):
    argv = [command, "--config", cfg, "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


class TestPipeline:
    def test_full_pipeline_and_artifacts(self, workspace):
        cfg, out = workspace
        for command in ("gen-data", "train-velocity", "train-cg", "sample", "eval"):
            assert _run(cfg, out, command) == 0, command
        for name in ("data.csv", "holdout.csv", "field.ckpt", "loss_velocity.csv",
                     "trajectories.bin", "student.ckpt", "loss_cg.csv", "samples.csv",
                     "sample_report.txt", "metrics.txt", "config.echo.ini"):
            assert os.path.exists(os.path.join(out, name)), name
        name, value = _report(os.path.join(out, "metrics.txt"))
        assert name == "w2_exact"
        assert value >= 0.0
        assert _report(os.path.join(out, "sample_report.txt")) == ("nfe", 1.0)  # one-step sampling

    def test_provenance_headers(self, workspace):
        cfg, out = workspace
        _run(cfg, out, "gen-data")
        first = open(os.path.join(out, "data.csv")).readline()
        assert first.startswith("# charflow 0.1.0 seed=0 config=")

    def test_determinism_across_runs(self, workspace, tmp_path):
        cfg, out = workspace
        out2 = str(tmp_path / "out2")
        for o in (out, out2):
            for command in ("gen-data", "train-velocity", "train-cg", "sample"):
                assert _run(cfg, o, command) == 0
        for name in ("data.csv", "holdout.csv", "samples.csv", "loss_velocity.csv", "loss_cg.csv"):
            a = open(os.path.join(out, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_seed_override_changes_outputs(self, workspace, tmp_path):
        cfg, out = workspace
        out2 = str(tmp_path / "out2")
        _run(cfg, out, "gen-data")
        _run(cfg, out2, "gen-data", seed=7)
        a = load_points(os.path.join(out, "data.csv"))
        b = load_points(os.path.join(out2, "data.csv"))
        assert not np.array_equal(a, b)

    def test_missing_checkpoint_is_descriptive(self, workspace, capsys):
        cfg, out = workspace
        assert _run(cfg, out, "sample") == 2
        err = capsys.readouterr().err
        assert "train-cg" in err or "student.ckpt" in err


class TestSampleVariants:
    def test_multi_step_nfe(self, workspace, tmp_path):
        cfg, out = workspace
        for command in ("gen-data", "train-velocity", "train-cg"):
            _run(cfg, out, command)
        cfg2 = tmp_path / "multi.ini"
        cfg2.write_text(TINY_PIPELINE.replace("[sample]\nn = 64\n",
                                              "[sample]\nn = 64\nsampler = multi-step\nsteps = 4\n"))
        assert _run(str(cfg2), out, "sample") == 0
        assert _report(os.path.join(out, "sample_report.txt")) == ("nfe", 4.0)
        samples = load_points(os.path.join(out, "samples.csv"))
        assert samples.shape == (64, 2)

    def test_euler_and_ei_sampling(self, workspace, tmp_path):
        cfg, out = workspace
        _run(cfg, out, "gen-data")
        _run(cfg, out, "train-velocity")
        for sampler, nfe in (("euler", 12.0), ("ei", 12.0)):
            cfg2 = tmp_path / f"{sampler}.ini"
            cfg2.write_text(TINY_PIPELINE.replace(
                "[sample]\nn = 64\n",
                f"[sample]\nn = 64\nsampler = {sampler}\nsteps = 12\n"))
            assert _run(str(cfg2), out, "sample") == 0
            assert _report(os.path.join(out, "sample_report.txt")) == ("nfe", nfe)


def test_verify_command(tmp_path, capsys):
    cfg = tmp_path / "v.ini"
    cfg.write_text("[target]\nvariant = swiss-roll\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "all 10 checks passed" in text
    assert os.path.exists(out / "verify_report.txt")



def test_truncated_student_checkpoint_fails_with_one_line(workspace, capsys):
    cfg, out = workspace
    path = os.path.join(out, "student.ckpt")
    os.makedirs(out)
    save_net(path, net_init(NetSpec(4, (16, 16), 2), 0))
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 3)
    assert _run(cfg, out, "sample") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and path in lines[0]


def test_cut_samples_file_fails_with_one_line(workspace, capsys):
    cfg, out = workspace
    for command in ("gen-data", "train-velocity", "train-cg", "sample"):
        assert _run(cfg, out, command) == 0
    path = os.path.join(out, "samples.csv")
    text = open(path).read()
    with open(path, "w") as fh:
        fh.write(text[: text.rindex(",")])   # cut the last row inside its first field
    capsys.readouterr()
    assert _run(cfg, out, "eval") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and path in lines[0]


@pytest.mark.parametrize("line, key", [("batch_size = 64", "velocity.batch_size"),
                                       ("n = 256", "target.n")])
def test_zero_size_config_fails_with_one_line(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_PIPELINE.replace(line, line.split("=")[0] + "= 0"))
    assert _run(str(cfg), str(tmp_path / "out"), "gen-data") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and key in lines[0]



def test_diverged_training_fails_with_one_line(tmp_path):
    # a subprocess, so that every stderr line counts, numpy warnings included
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_PIPELINE.replace("iterations = 80", "iterations = 50\nlr = 1e200"))
    out = str(tmp_path / "out")
    assert _run(str(cfg), out, "gen-data") == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "charflow.cli", "train-velocity",
                           "--config", str(cfg), "--out", out],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: train-velocity diverged at iteration ")
    assert sorted(os.listdir(out)) == ["config.echo.ini", "data.csv", "holdout.csv"]


def _blow_up(workspace, tmp_path, sampler):
    """Train what ``sampler`` needs, scale its checkpoint until the state overflows; the config."""
    cfg, out = workspace
    student = sampler in ("one-step", "multi-step")
    for command in ("gen-data", "train-velocity") + (("train-cg",) if student else ()):
        assert _run(cfg, out, command) == 0
    path = os.path.join(out, "student.ckpt" if student else "field.ckpt")
    net, extra = load_net(path)
    save_net(path, Net(net.spec, (1e200 if student else 1e150) * net.params), extra)
    blown = tmp_path / f"{sampler}.ini"
    blown.write_text(TINY_PIPELINE.replace("[sample]\n",
                                           f"[sample]\nsampler = {sampler}\nsteps = 3\n"))
    return str(blown)


@pytest.mark.parametrize("sampler", ["euler", "one-step", "multi-step"])
def test_non_finite_sampler_state_fails_with_one_line(workspace, tmp_path, capsys, sampler):
    cfg = _blow_up(workspace, tmp_path, sampler)
    out = workspace[1]
    capsys.readouterr()
    assert _run(cfg, out, "sample") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: sample: non-finite state at step "), lines
    assert not os.path.exists(os.path.join(out, "samples.csv"))


def test_non_finite_one_step_sample_prints_no_warning(workspace, tmp_path):
    # a subprocess, so that every stderr line counts, numpy warnings included
    cfg = _blow_up(workspace, tmp_path, "one-step")
    out = workspace[1]
    proc = _cli(cfg, out, "sample")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: sample: non-finite state at step 1 (t = 0.990000)"]
    assert not os.path.exists(os.path.join(out, "samples.csv"))


@pytest.mark.parametrize("command, sampler, ckpt", [("sample", "one-step", "student.ckpt"),
                                                    ("sample", "euler", "field.ckpt"),
                                                    ("train-cg", "one-step", "field.ckpt")])
def test_checkpoint_of_another_dimension_is_refused(workspace, tmp_path, capsys,
                                                     command, sampler, ckpt):
    cfg, out = workspace
    for step in ("gen-data", "train-velocity", "train-cg"):
        assert _run(cfg, out, step) == 0
    one_d = tmp_path / "one_d.ini"
    one_d.write_text(TINY_PIPELINE
                     .replace("variant = swiss-roll", "variant = atomic\natoms = -1;1\nsigma = 0.25")
                     .replace("[sample]\n", f"[sample]\nsampler = {sampler}\nsteps = 4\n"))
    assert _run(str(one_d), out, "gen-data") == 0
    before = {name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)}
    capsys.readouterr()
    assert _run(str(one_d), out, command) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and os.path.join(out, ckpt) in lines[0], lines
    assert "dimension 2" in lines[0] and "dimension 1" in lines[0]
    after = {name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)}
    assert after == before


@pytest.mark.parametrize("command, sampler, ckpt", [("sample", "one-step", "student.ckpt"),
                                                    ("sample", "euler", "field.ckpt"),
                                                    ("train-cg", "one-step", "field.ckpt")])
def test_checkpoint_of_the_other_role_is_refused(workspace, tmp_path, capsys,
                                                 command, sampler, ckpt):
    out = workspace[1]
    cfg = tmp_path / "variant.ini"
    cfg.write_text(TINY_PIPELINE.replace("[sample]\n", f"[sample]\nsampler = {sampler}\n"))
    for step in ("gen-data", "train-velocity", "train-cg"):
        assert _run(str(cfg), out, step) == 0
    other = "field.ckpt" if ckpt == "student.ckpt" else "student.ckpt"
    with open(os.path.join(out, other), "rb") as src, open(os.path.join(out, ckpt), "wb") as dst:
        dst.write(src.read())
    before = {name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)}
    capsys.readouterr()
    assert _run(str(cfg), out, command) == 2
    lines = capsys.readouterr().err.splitlines()
    hint = "train-cg" if ckpt == "student.ckpt" else "train-velocity"
    assert len(lines) == 1 and os.path.join(out, ckpt) in lines[0], lines
    assert f"not a {ckpt.split('.')[0]} checkpoint" in lines[0] and f"`charflow {hint}`" in lines[0]
    after = {name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)}
    assert after == before


def _trained(workspace, tmp_path):
    """Train the tiny pipeline; returns {checkpoint: config of the `sample` run that reads it}."""
    cfg, out = workspace
    for step in ("gen-data", "train-velocity", "train-cg"):
        assert _run(cfg, out, step) == 0
    euler = tmp_path / "euler.ini"
    euler.write_text(TINY_PIPELINE.replace("[sample]\n", "[sample]\nsampler = euler\nsteps = 4\n"))
    return {"student.ckpt": cfg, "field.ckpt": str(euler)}


def _with_extra(key, value):
    return lambda header: {**header, "extra": {**header["extra"], key: value}}


HEADER_EDITS = {
    "stop_time-string": ("student.ckpt", "extra.stop_time", _with_extra("stop_time", "0.99")),
    "plain-no": ("student.ckpt", "extra.plain", _with_extra("plain", "no")),
    "role-bogus": ("field.ckpt", "extra.role", _with_extra("role", "bogus")),
    "no-extra": ("student.ckpt", "no extra object",
                 lambda header: {k: v for k, v in header.items() if k != "extra"}),
    "json-list": ("field.ckpt", "not a JSON object", lambda header: [header]),
    "length-bit-62": ("student.ckpt", "bytes left in the file", 62),
    "length-bit-63": ("field.ckpt", "bytes left in the file", 63),
}


@pytest.mark.parametrize("edit", list(HEADER_EDITS))
def test_edited_checkpoint_header_fails_with_one_line(workspace, tmp_path, capsys, edit):
    configs = _trained(workspace, tmp_path)
    ckpt, wording, change = HEADER_EDITS[edit]
    path = os.path.join(workspace[1], ckpt)
    with open(path, "rb") as fh:
        raw = fh.read()
    damaged = (flipped(raw, 8 * length_offset(raw) + change) if isinstance(change, int)
               else reframed(raw, change))
    with open(path, "wb") as fh:
        fh.write(damaged)
    capsys.readouterr()
    assert _run(configs[ckpt], workspace[1], "sample") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and path in lines[0] and wording in lines[0], lines


def test_damaged_checkpoint_headers_fail_with_one_line_or_sample_the_same(workspace, tmp_path,
                                                                         capsys):
    # seeded damage: every third copy is cut short, the others flip 1-3 bits of the frame
    # ahead of the body (magic, provenance, length, JSON header) or one bit of the length
    configs = _trained(workspace, tmp_path)
    out = workspace[1]
    samples = os.path.join(out, "samples.csv")
    rng = Rng(11)
    draw = lambda high: int(rng.integers(high, (1,))[0])
    outcomes = {"refused": 0, "same": 0, "value edited": 0}
    for ckpt, cfg in configs.items():
        path = os.path.join(out, ckpt)
        with open(path, "rb") as fh:
            raw = fh.read()
        net, extra = load_net(path)
        head_bits = 8 * (len(raw) - 8 * net.spec.param_count)
        length_bit = 8 * length_offset(raw)
        assert _run(cfg, out, "sample") == 0
        with open(samples, "rb") as fh:
            reference = fh.read()
        os.remove(samples)
        for i in range(150):
            if i % 3 == 0:
                damaged = raw[:draw(len(raw))]
            elif i % 3 == 1:
                damaged = raw
                for _ in range(1 + draw(3)):
                    damaged = flipped(damaged, draw(head_bits))
            else:
                damaged = flipped(raw, length_bit + draw(64))
            with open(path, "wb") as fh:
                fh.write(damaged)
            capsys.readouterr()
            code = _run(cfg, out, "sample")
            err = capsys.readouterr().err.splitlines()
            if code == 2:
                assert len(err) == 1 and err[0].startswith(f"error: {path}"), (ckpt, i, err)
                outcomes["refused"] += 1
                continue
            assert code == 0 and err == [], (ckpt, i, code, err)
            with open(samples, "rb") as fh:
                same = fh.read() == reference
            os.remove(samples)
            if not same:
                # the frame carries no digest: a flipped digit of a float the command reads
                # is read as another valid value; nothing else may change what is sampled
                got_net, got_extra = load_net(path)
                assert got_net.spec == net.spec and np.array_equal(got_net.params, net.params)
                edited = [key for key in cli.CHECKPOINT_KEYS[ckpt] if got_extra[key] != extra[key]]
                assert all(type(extra[key]) is float for key in edited), (ckpt, i, got_extra)
            outcomes["same" if same else "value edited"] += 1
        with open(path, "wb") as fh:
            fh.write(raw)
    print(f"damaged checkpoint outcomes: {outcomes}")
    assert outcomes["refused"] > outcomes["same"] + outcomes["value edited"]


@pytest.mark.parametrize("seed", [-1, SEED_MAX + 1, 2**64 - 1])
def test_seed_outside_the_u64_key_range_fails_with_one_line(workspace, capsys, seed):
    cfg, out = workspace
    assert _run(cfg, out, "gen-data", seed=seed) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: run.seed must lie in [0, {SEED_MAX}], got {seed}"]
    assert not os.path.exists(out)


def test_seed_from_the_config_file_is_bounded_too(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_PIPELINE + "\n[run]\nseed = -3\n")
    assert _run(str(cfg), str(tmp_path / "out"), "gen-data") == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: run.seed must lie in [0, {SEED_MAX}], got -3"]


def test_largest_seed_runs(workspace):
    # every purpose offset up to SEED_EVAL still fits the u64 Philox key
    cfg, out = workspace
    assert _run(cfg, out, "gen-data", seed=SEED_MAX) == 0
    first = open(os.path.join(out, "holdout.csv")).readline()
    assert first.startswith(f"# charflow 0.1.0 seed={SEED_MAX} config=")


def _cli(cfg, out, command):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "charflow.cli", command,
                           "--config", str(cfg), "--out", out],
                          capture_output=True, text=True, env=env)


def test_header_only_data_file_fails_with_one_line(workspace):
    cfg, out = workspace
    assert _run(cfg, out, "gen-data") == 0
    path = os.path.join(out, "data.csv")
    with open(path) as fh:
        head = [next(fh), next(fh)]   # provenance and header, no rows
    with open(path, "w") as fh:
        fh.writelines(head)
    proc = _cli(cfg, out, "train-velocity")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and path in lines[0] and "no points" in lines[0], proc.stderr
    assert not os.path.exists(os.path.join(out, "field.ckpt"))


def test_negative_learning_rate_fails_with_one_line(tmp_path):
    # before the bound, lr = -1e-3 trained by gradient ascent and exited 0
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_PIPELINE.replace("iterations = 80", "iterations = 80\nlr = -1e-3"))
    out = str(tmp_path / "out")
    proc = _cli(cfg, out, "train-velocity")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "velocity.lr must be finite and > 0" in lines[0], proc.stderr
    assert not os.path.exists(os.path.join(out, "field.ckpt"))


@pytest.mark.parametrize("entry, key", [("atoms = -1;nan", "target.atoms"),
                                        ("atoms = -1;1\nweights = nan,1", "target.weights")],
                         ids=["atoms", "weights"])
def test_non_finite_config_value_fails_with_one_line(tmp_path, entry, key):
    # before the check, both ran gen-data to exit 0: NaN rows, or every point from one atom
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_PIPELINE.replace("variant = swiss-roll",
                                         f"variant = atomic\n{entry}\nsigma = 0.25"))
    out = str(tmp_path / "out")
    proc = _cli(cfg, out, "gen-data")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and f"{key} must be finite, got " in lines[0], proc.stderr
    assert not os.path.exists(os.path.join(out, "data.csv"))


def test_finite_loss_blow_up_fails_with_one_line(tmp_path):
    # lr = 1e6 took the loss from 2.41 to 1.99e38 at iteration 1, yet the run exited 0
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_PIPELINE.replace("iterations = 80", "iterations = 80\nlr = 1e6"))
    out = str(tmp_path / "out")
    assert _run(str(cfg), out, "gen-data") == 0
    proc = _cli(cfg, out, "train-velocity")
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: train-velocity diverged at iteration 1: loss ")
    assert "exceeds 1e+06 times the first loss" in lines[0]
    assert not os.path.exists(os.path.join(out, "field.ckpt"))


def test_euler_sample_keeps_no_trajectory(tmp_path):
    # n = 4096 points in 16-D over 100 steps: the trajectory tensor alone would be
    # 4096 x 101 x 16 x 8 B = 53 MB (traced peak 60 MB when the sampler kept it,
    # 4 MB streamed)
    import tracemalloc

    atoms = ";".join(",".join(str(float(sign * (i == j))) for i in range(16))
                     for j, sign in ((0, 1), (1, -1)))
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[target]\nvariant = atomic\natoms = {atoms}\nsigma = 0.25\nn = 256\n"
                   "holdout = 64\n\n[velocity]\niterations = 20\nbatch_size = 64\nhidden = 8,8\n\n"
                   "[sample]\nsampler = euler\nn = 4096\nsteps = 100\n")
    out = str(tmp_path / "out")
    for command in ("gen-data", "train-velocity"):
        assert _run(str(cfg), out, command) == 0
    tracemalloc.start()
    try:
        assert _run(str(cfg), out, "sample") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_points(os.path.join(out, "samples.csv")).shape == (4096, 16)
    assert peak < 16e6, peak


SECTION_CONFIGS = {"velocity": (TrainConfig, 1), "cg": (CgTrainConfig, 2)}


def _off_default(kind, default, allowed):
    """A valid value of a schema key other than its default."""
    if allowed is not None:
        return next(value for value in allowed if value != default)
    if kind == "float":
        return float(np.nextafter(default, 0.0 if default > 0.0 else 1.0))
    if kind == "ints":
        return tuple(h + 1 for h in default)
    return not default if kind == "bool" else default + 1


@pytest.mark.parametrize("section", SECTION_CONFIGS)
def test_each_section_key_is_a_config_field_or_read_by_the_cli(section):
    fields = {field.name for field in dataclasses.fields(SECTION_CONFIGS[section][0])}
    stray = [key for key in SCHEMA[section] if key not in fields and key not in cli._OWN_KEYS]
    assert stray == []


@pytest.mark.parametrize("section", SECTION_CONFIGS)
def test_each_section_key_set_off_its_default_reaches_the_config(section):
    cls, n_times = SECTION_CONFIGS[section]
    for key, (kind, default, allowed) in SCHEMA[section].items():
        if key in ("m", "steps"):  # the corpus size, read by train-cg itself
            continue
        cfg = parse_config_text("")
        value = _off_default(kind, default, allowed)
        cfg.sections[section][key] = value
        built = cli._train_config(cls, cfg, section, n_times, 3, seed=0)
        where = built.net_spec if key in cli._OWN_KEYS else built
        name = {"hidden": "hidden_dims"}.get(key, key)
        assert getattr(where, name) == value, key


def test_a_zero_clip_norm_leaves_gradients_unclipped():
    cfg = parse_config_text("")
    tc = cli._train_config(TrainConfig, cfg, "velocity", 1, 2, seed=0)
    assert tc.clip_grad_norm == 0.0
    grad = np.full(4, 1e6)
    assert clip_gradient(grad, tc.clip_grad_norm) is grad
    data = Rng(3).normal((64, 2))
    runs = [train(dataclasses.replace(tc, iterations=5, batch_size=16, clip_grad_norm=norm), data)
            for norm in (0.0, np.inf)]
    assert runs[0][0].params.tobytes() == runs[1][0].params.tobytes()
