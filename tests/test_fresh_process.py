"""What a fresh process pays: the modules it loads and the page faults of its loops.

Each probe runs in its own interpreter, so earlier tests cannot have loaded a
module or warmed the allocator for it.  The checks count modules and faults,
never time.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

IMPORT_PROBE = r"""
import json, os, sys
import charflow, charflow.cli
from charflow.cli import main
seen = {"import": "scipy" in sys.modules}
one_d = '''
[target]
variant = atomic
atoms = -1;1
sigma = 0.25
n = 256
holdout = 128

[velocity]
iterations = 20
batch_size = 64
hidden = 8,8

[cg]
m = 32
steps = 8
iterations = 20
batch_size = 16
hidden = 8,8

[sample]
n = 64

[eval]
metric = w2
'''
cfg = os.path.join(sys.argv[1], "run.ini")
out = os.path.join(sys.argv[1], "out")
with open(cfg, "w") as fh:
    fh.write(one_d)
for command in ("gen-data", "train-velocity", "train-cg", "sample", "eval"):
    assert main([command, "--config", cfg, "--out", out]) == 0, command
    seen[command] = "scipy" in sys.modules

import numpy as np
from charflow.metrics import w2_exact
from charflow.rng import Rng
A, B = Rng(1).normal((64, 2)), 0.5 + Rng(2).normal((64, 2))
value = w2_exact(A, B)
seen["w2_exact 2-D"] = "scipy.optimize" in sys.modules
from scipy.optimize import linear_sum_assignment
cost = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
rows, cols = linear_sum_assignment(cost)
seen["same bits"] = value.hex() == float(np.sqrt(cost[rows, cols].mean())).hex()
print(json.dumps(seen))
"""

FAULT_PROBE = r"""
import resource
from charflow.net import NetSpec
from charflow.rng import Rng
from charflow.schedule import Schedule
from charflow.velocity import TrainConfig, train

data = Rng(0).normal((4096, 2))
spec = NetSpec(3, (64, 64), 2, activation="silu")


def faults(iterations):
    config = TrainConfig(schedule=Schedule("follmer"), net_spec=spec, iterations=iterations,
                         batch_size=2048, seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(config, data)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


short = faults(20)
print((faults(120) - short) / 100)
"""

ONE_STEP_FAULT_PROBE = r"""
import resource
from charflow.cgen import StudentNet, one_step
from charflow.net import NetSpec, net_init
from charflow.schedule import Schedule

spec = NetSpec(4, (64, 64), 2, activation="silu")
student = StudentNet(net_init(spec, 1), Schedule("follmer"), 0.99)


def faults(calls):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k in range(calls):
        one_step(student, 8192, 0.99, seed=k)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


short = faults(5)
print((faults(25) - short) / 20)
"""


def _python(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_only_an_exact_w2_in_two_or_more_dimensions_loads_scipy(tmp_path):
    seen = json.loads(_python(IMPORT_PROBE, str(tmp_path)))
    assert seen == {"import": False, "gen-data": False, "train-velocity": False,
                    "train-cg": False, "sample": False, "eval": False,
                    "w2_exact 2-D": True, "same bits": True}


def test_training_loop_steady_state_makes_few_page_faults():
    # 2048-row batches through a 64x64 SiLU net: each activation is 1 MB, which
    # the allocator maps and unmaps per use unless the loop reuses it (about
    # 450 faults per iteration without the buffer pool)
    pytest.importorskip("resource")
    per_iteration = float(_python(FAULT_PROBE))
    assert per_iteration < 50, per_iteration


def test_one_step_sampling_faults_in_only_tile_sized_work_arrays():
    # each one_step call opens its own buffer pool, so its work arrays are
    # faulted in on every call.  8192 rows through a 64x64 SiLU student: in
    # 2048-row tiles 765 faults per call; one (8192, 64) pass made
    # 1,318-1,765.  The bound leaves 30% over the tiled count.
    pytest.importorskip("resource")
    per_call = float(_python(ONE_STEP_FAULT_PROBE))
    assert per_call < 1000, per_call
