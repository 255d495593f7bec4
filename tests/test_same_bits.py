"""Same bits: three miniature CLI pipelines and ``charflow verify`` against pinned sha256s.

Each miniature has the shape of one bench workload and runs ``gen-data``
through ``eval`` in process, with a few dozen iterations on a few hundred
points: a Swiss roll with a SiLU denoiser teacher and a regression generator,
a 16-D embedded target with a practical generator and EMA, and a 1-D atomic
target with a ReLU velocity teacher.  The sha256 of every file a run leaves
is pinned, so a change that moves a bit of any artifact fails here.  A change
that moves bits on purpose updates ``PINS`` in the same commit and names
each moved hash in CHANGES.md.  The pins hold for numpy 2.4.6 with OpenBLAS
0.3.31, at one and at two BLAS threads.
"""

import hashlib
import os

import numpy as np
import pytest

from charflow.cli import main

PIPELINE = ("gen-data", "train-velocity", "train-cg", "sample", "eval")


def _points(rows):
    return ";".join(",".join(repr(v) for v in row) for row in rows)


# a 16x2 frame with orthonormal columns and its four unit-circle atoms, every entry exact
_FRAME = [(0.25, 0.25 * (-1) ** i) for i in range(16)]
_ATOMS = [[sign * col[k] for col in _FRAME] for k, sign in ((0, 1), (1, 1), (0, -1), (1, -1))]

MINIATURES = {
    "swiss-roll": """
[target]
variant = swiss-roll
n = 256
holdout = 128

[velocity]
iterations = 40
batch_size = 64
hidden = 16,16

[cg]
m = 48
steps = 12
iterations = 30
batch_size = 32
hidden = 16,16

[sample]
n = 64
""",
    "manifold-16d": f"""
[target]
variant = embedded
atoms = {_points(_ATOMS)}
frame = {_points(_FRAME)}
sigma = 0.1
n = 256
holdout = 128

[velocity]
iterations = 40
batch_size = 64
hidden = 32,32

[cg]
mode = practical
iterations = 30
batch_size = 32
hidden = 32,32
teacher_steps = 4
ema_rate = 0.99

[sample]
n = 64
""",
    "velocity-1d": """
[target]
variant = atomic
atoms = -1.0;1.0
sigma = 0.25
n = 256
holdout = 128

[schedule]
kind = linear

[velocity]
loss = velocity
stop_time = 0.9
activation = relu
iterations = 60
batch_size = 64
hidden = 16,16

[cg]
stop_time = 0.9
activation = relu
m = 48
steps = 12
iterations = 40
batch_size = 32
hidden = 16,16

[sample]
n = 64
""",
    "verify": "[run]\nseed = 1\n",
}

PINS = {
    "swiss-roll": {
        "config.echo.ini": "8f339e31d1efa622ac7de3b568eb81ea5255496f9eb52b6014413eaf55c50901",
        "data.csv": "bb745d983b736d79f7d9d45f47235cc7b657f6c697a306004f6abe5380fb9e79",
        "field.ckpt": "ee0e9c0aef8a54c38699123d7bfa5249f525f7f0f8d1b3a28db4c708c71dfad2",
        "holdout.csv": "75665a4fbcb2a8d2163028209c0923074acd08ed1d5727c944df64737ebc20e7",
        "loss_cg.csv": "8ec3f840ebb71fd8956159893281e5f5318174e5199ece0da2359998f8a0d51e",
        "loss_velocity.csv": "e11cbc4f949d9752f043de432554a30a81b7905772f8f80d745350e81c772623",
        "metrics.txt": "60509cb015d7f8d890073bfe02361014c5f57a8adae827dc0451a8002f4cfa73",
        "sample_report.txt": "bc809afc49a7a14e40b068228e52a24e0d8e6cad0191488ec02fecf8f1c9f29d",
        "samples.csv": "ab8fe5e4d8c8d4d9b961a6d99f21551cc835757659cae6069c1485424c60af52",
        "student.ckpt": "25a49a56796cc84edbf05afaf361681cb72da469887110ffe0cbd736921069ae",
        "trajectories.bin": "13be326c14c3e9f779317aeadc167e4bb554bfe6a693fb5260ae1f0638b356b8",
    },
    "manifold-16d": {
        "config.echo.ini": "f33b0c2d4636433a3c592b116efc8594de24cf90f2926115adda04f5c7c1b596",
        "data.csv": "99af682af5430549649a034df86d005969dbeff45d81654d3cb957b8e7e2c6f0",
        "field.ckpt": "98727c48e363d4571c06bfc125560bca6097df7797f9948f514143526a39a128",
        "holdout.csv": "596300ce4dc44a7b737d69415a5c028fd1781074a8428198bcf173c571f55914",
        "loss_cg.csv": "23816ff7daff8a954ddc0ca3e8097cee028f459f1bde4c36b58c3958ce172198",
        "loss_velocity.csv": "636644ac176716c119f139045a75522fa7bde386e793ae3f99cd2ad1244e48f1",
        "metrics.txt": "09a1b3ac8f7296d2559e24eb1f6dd7d0dabc02128960755e3a829fe5e12c27fa",
        "sample_report.txt": "833b0d80bc6d8daf5ba25b1c19dad0ab312546922745f81944ac30f0c2124d5a",
        "samples.csv": "4c619723a25b09311c086d8ea914b0ac2c9e60761b4fa2f1bf7d63515723fe92",
        "student.ckpt": "c025c459a51a918e64957d365e5053a7a6f02955f626d671af02abfc4cd759de",
    },
    "velocity-1d": {
        "config.echo.ini": "93694f412fce02ff0998a94d65efd6d69f3009ed86fe3e00da076274e827ea06",
        "data.csv": "4af1be72d4a4c33e25509b9aa958a741585fac8f25e2c74aa1286948f090bd54",
        "field.ckpt": "ef1e0cd81f98340fef0b5538cb2cfaecb989b9fc1cc165c57b4f9419c50b2ba5",
        "holdout.csv": "f788b21f27946dcce1eb02c0d3c7153badc550a12528824cf54b055c734c87ae",
        "loss_cg.csv": "844a9cbd87b5433a8f1d93954022665b4531a58c62f3694142faa2204952114e",
        "loss_velocity.csv": "c5a73e3521c66744e48f8cad0d0200600989af81fb23514d3e5be54fc55823c6",
        "metrics.txt": "ad7f0f1458ab7f57f448d7820b36997529d6581f01a45f97523d6ef94d12b251",
        "sample_report.txt": "27f7a5dda7454e7b27983df2b5254147868acf068579604c1b11809d55a62d55",
        "samples.csv": "5167e245d64fb3cc6fce49b10cb66be45e61adf52917900f1f0cc0bf6dfc5e9a",
        "student.ckpt": "7ffd6cee6ba8c06d97cac11d21e7af96bee361e3486cd65708215780ee3137cb",
        "trajectories.bin": "8a4c65c3e6025e08354195f02b6285c7783ef7980da29f932448490cff5f6f9b",
    },
    "verify": {
        "config.echo.ini": "4bb7f99c9174939159e1ec7a58d1c39e39a613db71ec71525467796084dc2def",
        "verify_report.txt": "fc8468e67be35fcc50486c815af66a29fcf13c1fbd28a11d6c9e4001d36f2990",
    },
}


def _versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


@pytest.mark.parametrize("name", MINIATURES)
def test_every_artifact_keeps_its_pinned_bits(name, tmp_path):
    cfg, out = tmp_path / "run.ini", tmp_path / "out"
    cfg.write_text(MINIATURES[name])
    for command in ("verify",) if name == "verify" else PIPELINE:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in os.listdir(out)}
    pins = PINS[name]
    moved = [f"  {f}: pinned {pins.get(f)}, got {got.get(f)}"
             for f in sorted(set(got) | set(pins)) if got.get(f) != pins.get(f)]
    if moved:
        pytest.fail(f"{name}: artifacts moved under {_versions()}\n" + "\n".join(moved))
