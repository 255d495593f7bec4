"""Every point set is (m, d): a 1-D array is refused by name, never reshaped.

A 1-D array of n scalars used to be read as one n-dimensional point; these
tests pin the one error every entry point raises instead.
"""

import os
import re

import numpy as np
import pytest

from charflow.cgen import (CgTrainConfig, StudentNet, g_apply, global_loss, make_teacher_flow,
                           regression_loss, self_distill_reference, student_denoiser, train_cg)
from charflow.metrics import sliced_w2, w2_exact
from charflow.net import NetSpec, net_init
from charflow.oracle import (OracleContext, conditional_cov_exact, denoiser_exact, flow_exact,
                             manifold_decompose, score_exact, velocity_exact)
from charflow.sampler import TimeGrid, TrajectoryBatch, integrate, push_samples
from charflow.schedule import Schedule
from charflow.target import TargetSpec, as_points, atomic_mixture, embed_target, save_points
from charflow.velocity import (TrainConfig, draw_batch, estimate_sigma_data, make_denoiser,
                               make_velocity, train, velocity_from_denoiser)

LINEAR = Schedule("linear")
TWO_1D = atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.25)
CTX = OracleContext(TWO_1D, LINEAR)
EMB = OracleContext(embed_target(TWO_1D, np.array([[0.6], [0.8], [0.0]])), LINEAR)
FIELD_NET = net_init(NetSpec(2, (4,), 1), 0)
STUDENT = StudentNet(net_init(NetSpec(3, (4,), 1), 0), LINEAR, 0.9)
TRAIN = TrainConfig(schedule=LINEAR, net_spec=NetSpec(2, (4,), 1), stop_time=0.9,
                    iterations=1, batch_size=4)
SELF_DISTILL = CgTrainConfig(mode="self-distill", schedule=LINEAR, net_spec=NetSpec(3, (4,), 1),
                             stop_time=0.9, iterations=1, batch_size=4)
GRID = TimeGrid(0.9, 2)
CORPUS = TrajectoryBatch(GRID, np.zeros((3, 3, 1)), seed=0)
BATCH = draw_batch(np.zeros((4, 1)), LINEAR, 0.9, 3, seed=0)


def _drop_column(fn):
    """A callable that answers an (m, 1) batch with an (m,) vector."""
    return lambda *args: fn(*args)[:, 0]


# name -> call with a 1-D array x of three scalars; callables that return a
# point set are fed the matching (3, 1) column and answer with a 1-D vector
ENTRY_POINTS = {
    "as_points": as_points,
    "w2_exact": lambda x: w2_exact(x, x),
    "sliced_w2": lambda x: sliced_w2(x, x),
    "TargetSpec atoms": lambda x: TargetSpec(variant="atomic", atoms=x, sigma=0.5),
    "save_points": lambda x: save_points(os.devnull, x),
    "denoiser_exact": lambda x: denoiser_exact(CTX, 0.5, x),
    "velocity_exact": lambda x: velocity_exact(CTX, 0.5, x),
    "score_exact": lambda x: score_exact(CTX, 0.5, x),
    "conditional_cov_exact": lambda x: conditional_cov_exact(CTX, 0.5, x),
    "flow_exact": lambda x: flow_exact(CTX, 0.1, 0.5, x),
    "manifold_decompose": lambda x: manifold_decompose(EMB, 0.5, x),
    "draw_batch": lambda x: draw_batch(x, LINEAR, 0.9, 4, seed=0),
    "estimate_sigma_data": estimate_sigma_data,
    "train": lambda x: train(TRAIN, x),
    "make_velocity": lambda x: make_velocity(FIELD_NET)(0.5, x),
    "make_denoiser": lambda x: make_denoiser(FIELD_NET, LINEAR, 1.0)(0.5, x),
    "velocity_from_denoiser": lambda x: velocity_from_denoiser(lambda t, X: X, LINEAR, 0.5, x),
    "velocity_from_denoiser output": lambda x: velocity_from_denoiser(
        _drop_column(lambda t, X: X), LINEAR, 0.5, x[:, None]),
    "g_apply": lambda x: g_apply(STUDENT, 0.1, 0.5, x),
    "student_denoiser": lambda x: student_denoiser(STUDENT, 0.1, 0.5, x),
    "self_distill_reference": lambda x: self_distill_reference(STUDENT, 0.1, 0.5, x),
    "g output": lambda x: self_distill_reference(
        _drop_column(lambda t, s, X: X), 0.1, 0.5, x[:, None]),
    "regression g output": lambda x: regression_loss(
        _drop_column(lambda t, s, X: X), CORPUS, np.array([[0, 0, 1], [1, 0, 0], [2, 1, 1]])),
    "make_teacher_flow": lambda x: make_teacher_flow(lambda t, X: X, LINEAR, 2)(0.1, 0.5, x),
    "teacher denoiser output": lambda x: make_teacher_flow(
        _drop_column(lambda t, X: X), LINEAR, 2)(0.1, 0.5, x[:, None]),
    "global_loss teacher output": lambda x: global_loss(
        STUDENT, STUDENT, _drop_column(lambda t, u, X: X), BATCH, BATCH.t, BATCH.t),
    "train_cg": lambda x: train_cg(SELF_DISTILL, data=x),
    "integrate": lambda x: integrate(lambda t, t_next, X: X, x, GRID.nodes),
    "streamed euler velocity output": lambda x: push_samples(
        "euler", _drop_column(lambda t, X: X), 3, 1, GRID, 0, keep_trajectories=False),
    "streamed ei denoiser output": lambda x: push_samples(
        "ei", _drop_column(lambda t, X: X), 3, 1, GRID, 0, LINEAR, keep_trajectories=False),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_one_dimensional_input_is_refused_by_shape(call):
    with pytest.raises(ValueError, match=r"must be an \(m, d\) array, got shape \(3,\)"):
        call(np.array([1.0, 2.0, 3.0]))


def test_w2_exact_refuses_scalars_it_used_to_read_as_one_point():
    # as one 3-D point each, the two sets were 2.83 apart; as three scalars they coincide
    a, b = np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])
    assert w2_exact(a[:, None], b[:, None]) == 0.0
    with pytest.raises(ValueError, match=r"got shape \(3,\)"):
        w2_exact(a, b)


@pytest.mark.parametrize("x", [np.float64(1.0), np.zeros((2, 2, 2))], ids=["0-d", "3-d"])
def test_as_points_refuses_every_other_rank(x):
    expected = re.escape(f"data must be an (m, d) array, got shape {x.shape}")
    with pytest.raises(ValueError, match=expected):
        as_points(x, "data")


def test_as_points_passes_a_float_batch_through_uncopied():
    X = np.zeros((4, 2))
    assert as_points(X) is X
    converted = as_points([[1, 2], [3, 4]])
    assert converted.dtype == np.float64 and converted.shape == (2, 2)
