import os

import numpy as np
import pytest

from charflow.cli import main
from charflow.metrics import load_reports
from charflow.net import NetSpec, net_init, save_net
from charflow.target import load_points

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
        reports = load_reports(os.path.join(out, "metrics.txt"))
        assert reports[0].name == "w2_exact"
        assert reports[0].value >= 0.0
        nfe = load_reports(os.path.join(out, "sample_report.txt"))[0]
        assert nfe.name == "nfe" and nfe.value == 1.0  # one-step sampling

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
        nfe = load_reports(os.path.join(out, "sample_report.txt"))[0]
        assert nfe.value == 4.0
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
            assert load_reports(os.path.join(out, "sample_report.txt"))[0].value == nfe


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
