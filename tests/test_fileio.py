import errno
import os

import numpy as np
import pytest

from charflow import cli, fileio, metrics, net, target, verify
from charflow.config import parse_config
from charflow.fileio import atomic_open
from charflow.metrics import MetricReport
from charflow.net import NetSpec, net_init
from charflow.verify import CheckResult


class _FullDisk:
    """A file whose second write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _config(tmp_path, seed):
    path = tmp_path / f"run{seed}.ini"
    path.write_text(f"[run]\nseed = {seed}\n\n[target]\nvariant = swiss-roll\n")
    return parse_config(str(path))


def _write_points(tmp_path, version):
    path = tmp_path / "data.csv"
    target.save_points(path, np.full((5, 2), float(version)), f"v{version}")
    return path


def _write_checkpoint(tmp_path, version):
    path = tmp_path / "field.ckpt"
    net.save_net(path, net_init(NetSpec(3, (4,), 2), version), {"v": version})
    return path


def _write_reports(tmp_path, version):
    path = tmp_path / "metrics.txt"
    metrics.save_reports(path, [MetricReport(name="w2", value=float(version)),
                                MetricReport(name="nfe", value=1.0)])
    return path


def _write_losses(tmp_path, version):
    path = tmp_path / "loss.csv"
    cli._save_losses(path, [float(version), 0.5, 0.25], f"v{version}")
    return path


def _write_echo(tmp_path, version):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    cli._echo_config(_config(tmp_path, version), str(out))
    return out / "config.echo.ini"


def _write_verify_report(tmp_path, version):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    results = [CheckResult(name=f"check{version}", ok=True, detail=f"value {version}")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run_all", lambda: results)
        assert cli.cmd_verify(_config(tmp_path, version), str(out)) == 0
    return out / "verify_report.txt"


WRITERS = [_write_points, _write_checkpoint, _write_reports, _write_losses, _write_echo,
           _write_verify_report]


@pytest.mark.parametrize("write", WRITERS, ids=lambda w: w.__name__[len("_write_"):])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, write):
    path = write(tmp_path, 1)
    old = path.read_bytes()
    names = sorted(os.listdir(path.parent))
    monkeypatch.setattr(fileio, "open", lambda *a, **k: _FullDisk(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(tmp_path, 2)
    assert path.read_bytes() == old
    assert sorted(os.listdir(path.parent)) == names   # no temporary file left behind
    monkeypatch.undo()
    assert write(tmp_path, 2).read_bytes() != old


def test_atomic_open_writes_the_plain_bytes(tmp_path):
    for mode, data in (("w", "# héllo\nx0\n1.5\n"), ("wb", b"\x00\x01binary\n")):
        plain, atomic = tmp_path / f"plain{mode}", tmp_path / f"atomic{mode}"
        with open(plain, mode, **({} if "b" in mode else {"encoding": "utf-8"})) as fh:
            fh.write(data)
        with atomic_open(atomic, mode) as fh:
            fh.write(data)
        assert atomic.read_bytes() == plain.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["atomicw", "atomicwb", "plainw", "plainwb"]
