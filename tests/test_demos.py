"""Smoke test: the quick demos run to the end and print nothing on stderr.

Each demo is copied into a temporary directory and run there as a script, so
the files it writes next to itself (``out/``) stay out of the checkout.
Demos 04 and 05 take from 11 s to minutes; the acceptance tests exercise
the same code paths.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
QUICK_DEMOS = (
    "01_interpolant_schedules.py",
    "02_closed_form_oracles.py",
    "03_euler_vs_exponential_integrator.py",
    "06_practical_and_self_distillation.py",
)


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs_cleanly(tmp_path, name):
    script = shutil.copy(os.path.join(ROOT, "demos", name), tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
