"""A time is a scalar or one entry per row: ``target.as_times`` decides it for every entry point.

A time array of the wrong length used to fail with numpy's unnamed broadcast
error, and a NaN time passed the schedule's range check; both are now
refused by name.
"""

import re

import numpy as np
import pytest

from charflow.cgen import StudentNet, g_apply, global_loss, make_teacher_flow, student_denoiser
from charflow.net import NetSpec, net_init, time_feature_dim
from charflow.oracle import OracleContext, velocity_exact
from charflow.rng import Rng
from charflow.schedule import Schedule
from charflow.target import as_times, atomic_mixture
from charflow.velocity import draw_batch, make_denoiser, velocity_from_denoiser

LINEAR = Schedule("linear")
CTX = OracleContext(atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.25), LINEAR)
FIELD_NET = net_init(NetSpec(2, (4,), 1), 0)
STUDENT = StudentNet(net_init(NetSpec(3, (4,), 1), 0), LINEAR, 0.9)
BATCH = draw_batch(np.zeros((4, 1)), LINEAR, 0.5, 2, seed=0)
X = np.zeros((2, 1))
T3 = np.array([0.1, 0.2, 0.3])


def _teacher_flow():
    return make_teacher_flow(make_denoiser(FIELD_NET, LINEAR, 1.0), LINEAR, 2)


# name -> (argument named in the error, call with a (3,) time for the 2 rows of X)
WRONG_LENGTH = {
    "velocity_from_denoiser": ("t", lambda: velocity_from_denoiser(lambda t, X: X, LINEAR, T3, X)),
    "make_denoiser": ("t", lambda: make_denoiser(FIELD_NET, LINEAR, 1.0)(T3, X)),
    "make_teacher_flow": ("u", lambda: _teacher_flow()(0.1, T3, X)),
    "g_apply": ("s", lambda: g_apply(STUDENT, 0.1, T3, X)),
    "global_loss": ("u", lambda: global_loss(STUDENT, STUDENT, _teacher_flow(), BATCH, T3, 0.8)),
    "velocity_exact": ("t", lambda: velocity_exact(CTX, T3, X)),
}


@pytest.mark.parametrize("name, call", WRONG_LENGTH.values(), ids=WRONG_LENGTH.keys())
def test_a_time_of_the_wrong_length_is_refused_by_name(name, call):
    expected = re.escape(f"{name} must be a scalar or an (2,) array, got shape (3,)")
    with pytest.raises(ValueError, match=expected):
        call()


# each entry point answers a NaN time with a ValueError naming t, not with a NaN or a state error
NAN_TIME = {
    "Schedule.alpha": lambda: LINEAR.alpha(np.nan),
    "velocity_exact": lambda: velocity_exact(CTX, np.nan, X),
    "teacher flow": lambda: _teacher_flow()(np.nan, 0.5, X),
}


@pytest.mark.parametrize("call", NAN_TIME.values(), ids=NAN_TIME.keys())
def test_a_nan_time_is_refused_by_name(call):
    with pytest.raises(ValueError, match=r"^t must lie in \[0.0, 1.0\]"):
        call()


def test_as_times_broadcasts_a_scalar_to_a_read_only_row_view():
    t = as_times(0.25, 3)
    assert t.shape == (3,) and t.dtype == np.float64 and not t.flags.writeable
    assert np.array_equal(t, [0.25, 0.25, 0.25])


def test_as_times_keeps_a_per_row_array_uncopied():
    rows = np.array([0.1, 0.2, 0.3])
    t = as_times(rows, 3)
    assert np.shares_memory(t, rows) and not t.flags.writeable
    assert np.array_equal(as_times([0, 1], 2), [0.0, 1.0])


@pytest.mark.parametrize("t", [np.array([0.5]), np.zeros((2, 1)), np.zeros((1, 2))],
                         ids=["(1,)", "(2, 1)", "(1, 2)"])
def test_as_times_refuses_every_other_shape(t):
    expected = re.escape(f"nodes must be a scalar or an (2,) array, got shape {t.shape}")
    with pytest.raises(ValueError, match=expected):
        as_times(t, 2, "nodes")


@pytest.mark.parametrize("features", ["raw", "fourier"])
@pytest.mark.parametrize("kind", ["linear", "follmer"])
def test_a_scalar_step_time_has_the_bits_of_its_row_broadcast(kind, features):
    # a solver step's scalar time evaluates the schedule once instead of on m equal entries
    schedule, f = Schedule(kind), time_feature_dim(features, 3)
    spec = lambda n_times: NetSpec(n_times * f + 2, (16,), 2, activation="silu",
                                   time_features=features, fourier_k=3)
    denoiser = make_denoiser(net_init(spec(1), 1), schedule, 0.6)
    anchored = StudentNet(net_init(spec(2), 2), schedule, 0.9, 0.6)
    plain = StudentNet(net_init(spec(2), 2), schedule, 0.9, 0.6, plain=True)
    X = 1.5 * Rng(3).normal((33, 2))
    for t, s in ((0.0, 0.9), (0.3, 0.8), (0.45, 0.45)):
        calls = [lambda t, s: denoiser(t, X),
                 lambda t, s: velocity_from_denoiser(denoiser, schedule, t, X),
                 lambda t, s: student_denoiser(anchored, t, s, X),
                 lambda t, s: g_apply(anchored, t, s, X),
                 lambda t, s: g_apply(plain, t, s, X)]
        for call in calls:
            assert call(t, s).tobytes() == call(np.full(33, t), np.full(33, s)).tobytes()
