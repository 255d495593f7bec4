import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from charflow import metrics
from charflow.metrics import (MetricReport, order_fit, save_reports, sliced_w2,
                              w2_exact, w2_gaussian)
from charflow.rng import Rng


def _brute_force_w2(A, B):
    n = len(A)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean([np.sum((A[i] - B[p]) ** 2) for i, p in enumerate(perm)])
        best = min(best, cost)
    return np.sqrt(best)


class TestW2Exact:
    def test_point_masses(self):
        assert w2_exact(np.array([[0.0]]), np.array([[1.0]])) == 1.0

    def test_identical_sets(self):
        A = Rng(0).normal((50, 3))
        assert w2_exact(A, A) == 0.0

    def test_two_point_example_against_brute_force(self):
        A = np.array([[0.0], [2.0]])
        B = np.array([[1.0], [3.0]])
        assert w2_exact(A, B) == pytest.approx(_brute_force_w2(A, B), abs=1e-12)
        assert w2_exact(A, B) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_on_small_sets(self, n, seed):
        rng = Rng(seed)
        A = rng.normal((n, 2))
        B = rng.normal((n, 2))
        assert w2_exact(A, B) == pytest.approx(_brute_force_w2(A, B), rel=1e-12)

    def test_metric_axioms(self):
        rng = Rng(7)
        x, y, z = (rng.normal((40, 2)) for _ in range(3))
        assert w2_exact(x, y) == w2_exact(y, x)
        assert w2_exact(x, z) <= w2_exact(x, y) + w2_exact(y, z) + 1e-10
        assert w2_exact(x, x) == 0.0

    def test_size_mismatch_and_cap(self):
        with pytest.raises(ValueError):
            w2_exact(np.zeros((3, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            w2_exact(np.zeros((4097, 1)), np.zeros((4097, 1)))

    def test_converges_to_gaussian_w2(self):
        # empirical W2 between two gaussian samples approaches the closed form
        true = w2_gaussian(np.zeros(2), np.eye(2), np.array([1.0, 0.0]), 0.25 * np.eye(2))
        med_gap = []
        for n in (64, 256, 1024):
            gaps = []
            for seed in range(5):
                rng = Rng(seed + 10 * n)
                A = rng.normal((n, 2))
                B = np.array([1.0, 0.0]) + 0.5 * rng.normal((n, 2))
                gaps.append(abs(w2_exact(A, B) - true))
            med_gap.append(np.median(gaps))
        assert med_gap[0] > med_gap[1] > med_gap[2]


def _assignment_w2(A, B):
    """The assignment path that every dimension took before the sorted 1-D matching."""
    cost = metrics._sq_cost(A, B)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def _padded(A):
    return np.hstack([A, np.zeros_like(A)])


class TestW2ExactOneDimensional:
    @given(st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=400, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_sorted_matching_is_bitwise_the_assignment(self, values):
        # distinct dyadic values; the zero column sends the padded call through the assignment
        n = len(values) // 2
        pts = np.asarray(values[: 2 * n], dtype=np.float64)[:, None] / 1024.0
        A, B = pts[:n], pts[n:]
        value = w2_exact(A, B)
        assert value == w2_exact(_padded(A), _padded(B))
        assert value == _assignment_w2(A, B)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 203, 512])
    def test_gaussian_two_mode_draws_bitwise(self, n):
        rng = Rng(n)
        A = np.where(rng.uniform(n)[:, None] < 0.5, -1.0, 1.0) + 0.25 * rng.normal((n, 1))
        B = 1.3 * rng.normal((n, 1))
        value = w2_exact(A, B)
        assert value == w2_exact(_padded(A), _padded(B))
        assert value == _assignment_w2(A, B)

    @pytest.mark.parametrize("seed", range(4))
    def test_ties_and_duplicates_match_the_assignment(self, seed):
        # two optimal matchings may sum their costs in a different order
        rng = Rng(seed)
        A = np.round(rng.normal((300, 1)), 1)
        B = np.repeat(np.round(rng.normal((100, 1)), 0), 3, axis=0)
        assert w2_exact(A, B) == pytest.approx(_assignment_w2(A, B), rel=1e-12)
        assert w2_exact(A, A[::-1]) == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, d, bad):
        A = Rng(1).normal((8, d))
        B = Rng(2).normal((8, d))
        A_bad = A.copy()
        A_bad[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            w2_exact(A_bad, B)
        with pytest.raises(ValueError, match="finite"):
            w2_exact(B, A_bad)

    def test_cap_holds_on_the_line(self):
        A = Rng(3).normal((4097, 1))
        with pytest.raises(ValueError, match="capped"):
            w2_exact(A, A)


class TestW2Gaussian:
    def test_one_dimensional_scale(self):
        for sigma in (0.25, 0.5, 2.0):
            assert w2_gaussian([0.0], [[1.0]], [0.0], [[sigma**2]]) == pytest.approx(abs(1 - sigma))

    def test_equal_gaussians(self):
        # the cancelled trace is ~1e-15; the outer sqrt amplifies that to ~1e-8
        C = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert w2_gaussian(np.ones(2), C, np.ones(2), C) == pytest.approx(0.0, abs=1e-7)

    def test_mean_shift_only(self):
        assert w2_gaussian(np.zeros(3), np.eye(3), np.eye(3)[0], np.eye(3)) == pytest.approx(1.0)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            w2_gaussian([0.0], [[-1.0]], [0.0], [[1.0]])
        with pytest.raises(ValueError):
            w2_gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]), np.zeros(2), np.eye(2))


class TestSlicedW2:
    def test_identical_sets(self):
        A = Rng(3).normal((200, 3))
        assert sliced_w2(A, A, projections=16, seed=0) == 0.0

    def test_one_dimensional_single_projection_matches_exact(self):
        rng = Rng(4)
        A, B = rng.normal((64, 1)), rng.normal((64, 1))
        assert sliced_w2(A, B, projections=1, seed=5) == pytest.approx(w2_exact(A, B), rel=1e-12)

    def test_calibrates_against_gaussian_w2(self):
        rng = Rng(6)
        A = rng.normal((4096, 2))
        B = np.array([0.6, -0.4]) + rng.normal((4096, 2))
        fitted = w2_gaussian(A.mean(0), np.cov(A.T), B.mean(0), np.cov(B.T))
        est = sliced_w2(A, B, projections=256, seed=7)
        assert abs(est - fitted) / fitted < 0.10

    def test_unequal_sizes_supported(self):
        rng = Rng(8)
        val = sliced_w2(rng.normal((100, 2)), rng.normal((150, 2)), projections=8, seed=0)
        assert np.isfinite(val) and val >= 0


class TestOrderFit:
    def test_linear_rate(self):
        pts = [(h, 3.0 * h) for h in (0.1, 0.05, 0.025, 0.0125)]
        slope, intercept, r2 = order_fit(pts)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(3.0)
        assert r2 == pytest.approx(1.0)

    def test_quadratic_rate(self):
        pts = [(h, 0.5 * h**2) for h in (0.1, 0.05, 0.025)]
        assert order_fit(pts)[0] == pytest.approx(2.0, abs=1e-12)

    def test_constant_error(self):
        pts = [(h, 0.7) for h in (0.1, 0.05, 0.025)]
        assert order_fit(pts)[0] == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            order_fit([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(ValueError):
            order_fit([(0.1, 1.0), (0.05, 0.5), (0.025, -0.2)])


def test_report_round_trip(tmp_path):
    reports = [
        MetricReport(name="w2_exact", value=0.123456789012345, sample_sizes=(2048, 2048), seed=7),
        MetricReport(name="order", value=1.02, aux={"slope": 1.02, "intercept": -0.5, "r2": 0.999}),
    ]
    path = tmp_path / "metrics.txt"
    save_reports(path, reports, provenance="charflow test")
    # values via repr, so each float reads back exactly; aux keys in sorted order
    assert path.read_text() == ("# charflow test\n"
                                "metric=w2_exact value=0.123456789012345 sizes=2048,2048 seed=7\n"
                                "metric=order value=1.02 intercept=-0.5 r2=0.999 slope=1.02\n")
    with pytest.raises(ValueError):
        MetricReport(name="bad", value=float("nan"))


@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_blocked_cost_equals_the_one_shot_formula(monkeypatch, d):
    n = 203   # not a multiple of the 16-row blocks
    A, B = Rng(8).normal((n, d)), 2.0 * Rng(9).normal((n, d))
    one_shot = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
    monkeypatch.setattr(metrics, "COST_BLOCK_BYTES", 16 * 8 * n * d)
    assert metrics._sq_cost(A, B).tobytes() == one_shot.tobytes()
    monkeypatch.undo()
    assert metrics._sq_cost(A, B).tobytes() == one_shot.tobytes()
