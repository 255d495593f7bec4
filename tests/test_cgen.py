import numpy as np
import pytest

from charflow.cgen import (CgTrainConfig, StudentNet, g_apply, global_loss, local_loss,
                           make_teacher_flow, multi_step, one_step, regression_loss,
                           sample_index_pairs, self_distill_reference, semigroup_penalty,
                           student_denoiser, train_cg)
from charflow import cgen, net as nets
from charflow.net import TILE_ROWS, Net, NetSpec, net_init
from charflow.oracle import OracleContext, denoiser_exact, flow_exact, velocity_exact
from charflow.rng import Rng
from charflow.sampler import NonFiniteState, TimeGrid, push_samples
from charflow.schedule import Schedule, denoiser_coeffs
from charflow.target import atomic_mixture, sample_target
from charflow.velocity import TrainingDiverged, draw_batch, make_denoiser
from charflow.verify import trajectory_lookup

LINEAR = Schedule("linear")
FOLLMER = Schedule("follmer")
GAUSS1 = atomic_mixture(np.zeros((1, 1)), sigma=0.5)


def _student(seed=0, d=1, hidden=(8, 8), plain=False, T=0.9, schedule=LINEAR, sigma_data=1.0):
    spec = NetSpec(2 + d, hidden, d, activation="silu")
    return StudentNet(net=net_init(spec, seed), schedule=schedule, stop_time=T,
                      sigma_data=sigma_data, plain=plain)


def _gauss_corpus(m=16, K=12, T=0.9, seed=0):
    ctx = OracleContext(GAUSS1, LINEAR)
    grid = TimeGrid(stop_time=T, steps=K)
    return push_samples("euler", lambda t, X: velocity_exact(ctx, t, X), m, 1, grid, seed=seed)


def _affine_g_hand(params, sigma_d, t, s, x):
    """g(t, s, x) by hand for a linear-schedule student with no hidden layer."""
    c_in, c_skip, c_out, _, _ = denoiser_coeffs(LINEAR, np.array([t]), sigma_d)
    f = params[0] * t + params[1] * s + params[2] * (c_in[0] * x) + params[3]
    phi, psi = LINEAR.ei_coeffs(t, s)
    return phi * x + psi * (c_skip[0] * x + c_out[0] * f)


def _exact_g(t, s, X, sigma=0.5):
    """Closed-form flow map of the GAUSS1 target under the linear schedule."""
    X = np.atleast_2d(X)
    t = np.broadcast_to(np.asarray(t, dtype=float), (X.shape[0],))
    s = np.broadcast_to(np.asarray(s, dtype=float), (X.shape[0],))
    fac = np.sqrt((LINEAR.alpha(s) ** 2 + sigma**2 * LINEAR.beta(s) ** 2)
                  / (LINEAR.alpha(t) ** 2 + sigma**2 * LINEAR.beta(t) ** 2))
    return fac[:, None] * X


class TestGApply:
    def test_identity_on_the_diagonal(self):
        student = _student()
        x = Rng(1).normal((32, 1))
        for t in (0.0, 0.3, 0.9):
            assert np.array_equal(g_apply(student, t, t, x), x)

    def test_anchored_decomposition(self):
        # g is exactly phi x + psi D_S, and with a zero network D_S = c_skip x
        student = _student(seed=2, sigma_data=0.7)
        x = Rng(2).normal((16, 1))
        t, s = 0.2, 0.7
        phi, psi = LINEAR.ei_coeffs(t, s)
        d_s = student_denoiser(student, t, s, x)
        assert np.array_equal(g_apply(student, t, s, x), phi * x + psi * d_s)

        zero = _student(seed=0, sigma_data=0.7)
        zero.net = Net(zero.net.spec, np.zeros_like(zero.net.params))
        _, c_skip, _, _, _ = denoiser_coeffs(LINEAR, np.array([t]), 0.7)
        assert np.allclose(g_apply(zero, t, s, x), (phi + psi * c_skip[0]) * x, atol=1e-15)

    def test_path_averaged_denoiser_reproduces_exact_flow(self):
        # the anchoring identity: with D_S = (g* - phi x)/psi the map equals g*
        ctx = OracleContext(GAUSS1, LINEAR)
        rng = Rng(3)
        for _ in range(10):
            t = 0.8 * rng.uniform()
            s = t + (0.9 - t) * rng.uniform() + 1e-6
            x = 2.0 * rng.normal((4, 1))
            phi, psi = LINEAR.ei_coeffs(t, s)
            d_bar = (_exact_g(t, s, x) - phi * x) / psi
            reference = flow_exact(ctx, t, min(s, 0.999), x, tol=1e-11)
            assert np.max(np.abs(phi * x + psi * d_bar - reference)) < 1e-8

    def test_ordering_error(self):
        with pytest.raises(ValueError, match=r"t <= s"):
            g_apply(_student(), 0.5, 0.4, np.zeros((1, 1)))

    @pytest.mark.parametrize("t, s", [(0.0, np.nan), (np.nan, 0.5), (np.nan, np.nan)])
    def test_nan_time_is_refused(self, t, s):
        # a NaN time used to pass both checks and return NaN rows
        with pytest.raises(ValueError, match=r"times must lie in \[0, stop_time\]"):
            g_apply(_student(), t, s, np.zeros((2, 1)))

    def test_input_dim_invariant(self):
        with pytest.raises(ValueError):
            StudentNet(net=net_init(NetSpec(3, (4,), 2), 0), schedule=LINEAR, stop_time=0.9)

    def test_plain_student_has_no_denoiser_slice(self):
        with pytest.raises(ValueError):
            student_denoiser(_student(plain=True), 0.1, 0.2, np.zeros((1, 1)))


def _square_root_index_pairs(j):
    """The (k, l) of triangle entry j by the float square-root inversion sample_index_pairs used."""
    ell = ((np.sqrt(8.0 * j + 1.0) - 1.0) / 2.0).astype(np.int64)
    ell = np.where(ell * (ell + 1) // 2 > j, ell - 1, ell)
    ell = np.where((ell + 1) * (ell + 2) // 2 <= j, ell + 1, ell)
    return np.stack([j - ell * (ell + 1) // 2, ell], axis=1)


class TestSampleIndexPairs:
    def test_lookup_matches_the_square_root_inversion_on_every_entry(self):
        for steps in range(1, 400):
            ell, k = np.tril_indices(steps)
            old = _square_root_index_pairs(np.arange(ell.shape[0]))
            assert np.array_equal(np.stack([k, ell], axis=1), old), steps

    @pytest.mark.parametrize("steps", [1, 2, 12, 48, 399])
    def test_draws_the_same_pairs(self, steps):
        pairs = sample_index_pairs(Rng(5), 4096, steps)
        j = Rng(5).integers(steps * (steps + 1) // 2, 4096)
        assert np.array_equal(pairs, _square_root_index_pairs(j))
        assert pairs.dtype == np.int64
        assert np.all((0 <= pairs[:, 0]) & (pairs[:, 0] <= pairs[:, 1]) & (pairs[:, 1] < steps))


class TestRegressionLoss:
    def test_lookup_map_zero_loss(self):
        corpus = _gauss_corpus()
        rng = Rng(4)
        pairs = np.concatenate([
            rng.integers(corpus.particles, (80,))[:, None],
            sample_index_pairs(rng, 80, corpus.grid.steps),
        ], axis=1)
        loss, grad = regression_loss(trajectory_lookup(corpus), corpus, pairs)
        assert loss == 0.0
        assert grad is None

    def test_diagonal_pairs_free_for_anchored_student(self):
        corpus = _gauss_corpus()
        student = _student(seed=5)
        k = np.arange(corpus.grid.steps)
        pairs = np.stack([np.zeros_like(k), k, k], axis=1)
        loss, grad = regression_loss(student, corpus, pairs)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_gradient_finite_difference(self):
        corpus = _gauss_corpus()
        student = _student(seed=6)
        rng = Rng(7)
        pairs = np.concatenate([
            rng.integers(corpus.particles, (24,))[:, None],
            sample_index_pairs(rng, 24, corpus.grid.steps),
        ], axis=1)
        _, grad = regression_loss(student, corpus, pairs)
        _assert_student_fd(student, grad, lambda: regression_loss(student, corpus, pairs)[0])

    def test_pair_validation(self):
        corpus = _gauss_corpus()
        with pytest.raises(ValueError):
            regression_loss(_student(), corpus, np.array([[0, 3, 1]]))  # k > l
        with pytest.raises(ValueError):
            regression_loss(_student(), corpus, np.array([[0, 0, corpus.grid.steps]]))  # l = K
        with pytest.raises(ValueError):
            regression_loss(_student(), corpus, np.array([[99, 0, 1]]))  # particle range


def _assert_student_fd(student, grad, loss_fn, n_dirs=4, h=1e-6, tol=1e-4):
    rng = Rng(55)
    params = student.net.params
    for _ in range(n_dirs):
        v = rng.normal(params.shape)
        v /= np.linalg.norm(v)
        saved = params.copy()
        params[:] = saved + h * v
        up = loss_fn()
        params[:] = saved - h * v
        dn = loss_fn()
        params[:] = saved
        fd = (up - dn) / (2 * h)
        an = float(grad @ v)
        assert abs(fd - an) <= tol * max(abs(fd), abs(an), 1e-9)


class TestSemigroupPenalty:
    def test_lookup_map_zero_penalty(self):
        corpus = _gauss_corpus()
        rng = Rng(8)
        raw = rng.integers(corpus.grid.steps, (60, 3))
        raw.sort(axis=1)
        triples = np.concatenate([rng.integers(corpus.particles, (60,))[:, None], raw], axis=1)
        pen, grad = semigroup_penalty(trajectory_lookup(corpus), corpus, triples)
        assert pen == 0.0 and grad is None

    def test_k_equals_j_contributes_zero(self):
        corpus = _gauss_corpus()
        student = _student(seed=9)
        triples = np.array([[0, 2, 2, 7], [1, 5, 5, 9]])
        pen, grad = semigroup_penalty(student, corpus, triples)
        assert pen == 0.0
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_time_dependent_offset_hand_computed(self):
        # g = lookup + c*t: the branches disagree by exactly c*(t_k - t_j)
        corpus = _gauss_corpus(m=2, K=3)
        nodes = corpus.grid.nodes
        lookup = trajectory_lookup(corpus)
        c = 0.37

        def shifted(t, s, X):
            t = np.broadcast_to(np.asarray(t, dtype=float), (np.atleast_2d(X).shape[0],))
            return lookup(t, s, X) + c * t[:, None]

        triples = np.array([[0, 0, 1, 2], [1, 0, 2, 2]])
        pen, _ = semigroup_penalty(shifted, corpus, triples)
        expected = np.mean([(c * (nodes[0] - nodes[1])) ** 2, (c * (nodes[0] - nodes[2])) ** 2])
        assert pen == pytest.approx(expected, rel=1e-12)
        # a time-independent offset cancels between the branches
        pen0, _ = semigroup_penalty(lambda t, s, X: lookup(t, s, X) + c, corpus, triples)
        assert pen0 == 0.0

    def test_gradient_finite_difference(self):
        corpus = _gauss_corpus()
        student = _student(seed=10)
        rng = Rng(11)
        raw = rng.integers(corpus.grid.steps, (20, 3))
        raw.sort(axis=1)
        triples = np.concatenate([rng.integers(corpus.particles, (20,))[:, None], raw], axis=1)
        _, grad = semigroup_penalty(student, corpus, triples)
        _assert_student_fd(student, grad, lambda: semigroup_penalty(student, corpus, triples)[0])

    def test_ordering_validation(self):
        corpus = _gauss_corpus()
        with pytest.raises(ValueError):
            semigroup_penalty(_student(), corpus, np.array([[0, 2, 1, 3]]))


class TestLocalLoss:
    def test_gradient_finite_difference(self):
        data = sample_target(GAUSS1, 256, seed=12)
        batch = draw_batch(data, LINEAR, 0.9, 24, seed=13)
        student = _student(seed=14, sigma_data=0.5)
        _, grad = local_loss(student, batch)
        _assert_student_fd(student, grad, lambda: local_loss(student, batch)[0])

    def test_empty_batch_rejected(self):
        from charflow.velocity import InterpolantBatch

        empty = InterpolantBatch(t=np.empty(0), x0=np.empty((0, 1)), x1=np.empty((0, 1)),
                                 xt=np.empty((0, 1)), yt=np.empty((0, 1)))
        with pytest.raises(ValueError):
            local_loss(_student(), empty)

    def test_plain_student_rejected(self):
        data = sample_target(GAUSS1, 64, seed=15)
        batch = draw_batch(data, LINEAR, 0.9, 8, seed=16)
        with pytest.raises(ValueError):
            local_loss(_student(plain=True), batch)

    def test_exact_diagonal_minimizes(self):
        # evaluating the F-space risk at the oracle denoiser beats perturbations
        ctx = OracleContext(GAUSS1, LINEAR)
        sigma_d = 0.5
        data = sample_target(GAUSS1, 30_000, seed=17)
        batch = draw_batch(data, LINEAR, 0.9, 30_000, seed=18)
        _, c_skip, c_out, _, _ = denoiser_coeffs(LINEAR, batch.t, sigma_d)
        target = (batch.x1 - c_skip[:, None] * batch.xt) / c_out[:, None]
        f_star = (denoiser_exact(ctx, batch.t, batch.xt) - c_skip[:, None] * batch.xt) / c_out[:, None]
        base = float(np.mean(np.sum((f_star - target) ** 2, axis=1)))
        rng = Rng(19)
        for scale in (0.05, 0.3):
            noisy = f_star + scale * rng.normal(f_star.shape)
            assert float(np.mean(np.sum((noisy - target) ** 2, axis=1))) > base


def _teacher_flow_loop(denoiser, schedule, steps, t, u, X):
    """Reference: the hand-written per-row EI loop the teacher flow used to run."""
    m = X.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (m,))
    u = np.broadcast_to(np.asarray(u, dtype=np.float64), (m,))
    Y = X.copy()
    for j in range(steps):
        tj = t + (u - t) * (j / steps)
        tj1 = t + (u - t) * ((j + 1) / steps)
        phi, psi = schedule.ei_coeffs(tj, tj1)
        Y = phi[:, None] * Y + psi[:, None] * denoiser(tj, Y)
    return Y


class TestTeacherFlow:
    TWO_2D = atomic_mixture(np.array([[0.1, 0.2], [0.9, 0.7]]), sigma=0.3,
                            weights=np.array([0.4, 0.6]))

    @pytest.mark.parametrize("teacher", ["exact", "net"])
    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    @pytest.mark.parametrize("steps", [1, 2, 8])
    def test_bit_identical_to_the_per_row_loop(self, teacher, schedule, steps):
        if teacher == "exact":
            ctx = OracleContext(self.TWO_2D, schedule)
            denoiser = lambda t, X: denoiser_exact(ctx, t, X)
        else:
            net = net_init(NetSpec(3, (16, 16), 2, activation="silu"), seed=61)
            denoiser = make_denoiser(net, schedule, 0.5)
        rng = Rng(62)
        X = rng.normal((40, 2))
        t = 0.9 * rng.uniform(40)
        u = t + (0.95 - t) * rng.uniform(40)
        u[:5] = t[:5]
        flow = make_teacher_flow(denoiser, schedule, steps)(t, u, X)
        assert np.array_equal(flow, _teacher_flow_loop(denoiser, schedule, steps, t, u, X))
        assert np.array_equal(flow[:5], X[:5])


class TestGlobalLoss:
    def test_exact_flow_everywhere_gives_zero(self):
        data = sample_target(GAUSS1, 64, seed=20)
        batch = draw_batch(data, LINEAR, 0.9, 16, seed=21)
        rng = Rng(22)
        u = batch.t + (0.9 - batch.t) * rng.uniform(16)
        s = u + (0.9 - u) * rng.uniform(16)

        # use the closed-form flow for student, offline and teacher path alike
        loss, grad = global_loss(_exact_g, _exact_g, _exact_g, batch, u, s, stop_time=0.9)
        assert loss < 1e-24
        assert grad is None

    def test_offline_equals_student_and_degenerate_teacher(self):
        # u = t makes the teacher path the identity; offline == student gives 0 exactly
        data = sample_target(GAUSS1, 64, seed=23)
        batch = draw_batch(data, LINEAR, 0.9, 12, seed=24)
        student = _student(seed=25, sigma_data=0.5)
        offline = student.copy()
        teacher = make_teacher_flow(lambda t, X: denoiser_exact(OracleContext(GAUSS1, LINEAR), t, X),
                                    LINEAR, steps=3)
        u = batch.t.copy()
        s = u + (0.9 - u) * Rng(26).uniform(12)
        loss, grad = global_loss(student, offline, teacher, batch, u, s)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_affine_student_matches_hand_rolled_evaluation(self):
        sch = LINEAR
        sigma_d = 0.8
        spec = NetSpec(3, (), 1)
        w_s = np.array([0.11, -0.07, 0.45, 0.02])   # [w_t, w_s, w_x, b]
        w_o = np.array([-0.2, 0.3, 0.8, -0.05])
        student = StudentNet(Net(spec, w_s.copy()), sch, 0.9, sigma_d)
        offline = StudentNet(Net(spec, w_o.copy()), sch, 0.9, sigma_d)
        c_teacher = 0.31
        teacher = make_teacher_flow(lambda t, X: np.full_like(np.atleast_2d(X), c_teacher),
                                    sch, steps=2)
        g_hand = lambda params, t, s, x: _affine_g_hand(params, sigma_d, t, s, x)

        def teacher_hand(t, u, x):
            y = x
            for j in range(2):
                tj = t + (u - t) * j / 2
                tj1 = t + (u - t) * (j + 1) / 2
                phi, psi = sch.ei_coeffs(tj, tj1)
                y = phi * y + psi * c_teacher
            return y

        data = sample_target(GAUSS1, 16, seed=27)
        batch = draw_batch(data, sch, 0.9, 4, seed=28)
        rng = Rng(29)
        u = batch.t + (0.9 - batch.t) * rng.uniform(4)
        s = u + (0.9 - u) * rng.uniform(4)
        loss, _ = global_loss(student, offline, teacher, batch, u, s)
        T = 0.9
        hand = 0.0
        for i in range(4):
            x = batch.xt[i, 0]
            b1 = g_hand(w_o, s[i], T, g_hand(w_s, u[i], s[i], teacher_hand(batch.t[i], u[i], x)))
            b2 = g_hand(w_o, s[i], T, g_hand(w_o, batch.t[i], s[i], x))
            hand += (b1 - b2) ** 2
        assert loss == pytest.approx(hand / 4, rel=1e-12)

    def test_gradient_finite_difference(self):
        ctx = OracleContext(GAUSS1, LINEAR)
        data = sample_target(GAUSS1, 128, seed=30)
        batch = draw_batch(data, LINEAR, 0.9, 12, seed=31)
        student = _student(seed=32, sigma_data=0.5)
        offline = _student(seed=33, sigma_data=0.5)
        teacher = make_teacher_flow(lambda t, X: denoiser_exact(ctx, t, X), LINEAR, steps=2)
        rng = Rng(34)
        u = batch.t + (0.9 - batch.t) * rng.uniform(12)
        s = u + (0.9 - u) * rng.uniform(12)
        _, grad = global_loss(student, offline, teacher, batch, u, s)
        _assert_student_fd(student, grad,
                           lambda: global_loss(student, offline, teacher, batch, u, s)[0])

    @pytest.mark.parametrize("student_kind", ["callable", "student"])
    def test_non_finite_loss_raises(self, student_kind):
        # the value-only path once returned (nan, None) here instead of raising
        nan_g = lambda t, s, X: np.full_like(X, np.nan)
        data = sample_target(GAUSS1, 16, seed=35)
        batch = draw_batch(data, LINEAR, 0.9, 3, seed=36)
        student = nan_g if student_kind == "callable" else _student(sigma_data=0.5)
        u = batch.t.copy()
        s = np.full(3, 0.9)
        with pytest.raises(RuntimeError, match="non-finite global loss"):
            global_loss(student, nan_g, lambda t, u, X: X, batch, u, s, stop_time=0.9)

    def test_ordering_validated(self):
        data = sample_target(GAUSS1, 16, seed=35)
        batch = draw_batch(data, LINEAR, 0.9, 4, seed=36)
        student = _student(sigma_data=0.5)
        with pytest.raises(ValueError):
            global_loss(student, student.copy(), lambda t, u, X: X, batch,
                        batch.t - 0.01, np.full(4, 0.9))


def _reference_g(student, t, s, X, denoiser=False):
    """g_apply (or student_denoiser) as written out before _GParts evaluated every g."""
    m = X.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (m,))
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), (m,))
    spec = student.net.spec
    ft = nets.time_features(t, spec.time_features, spec.fourier_k)
    fs = nets.time_features(s, spec.time_features, spec.fourier_k)
    if student.plain:
        return nets.forward_batch(student.net, np.concatenate([ft, fs, X], axis=1))
    c_in, c_skip, c_out, _, _ = denoiser_coeffs(student.schedule, t, student.sigma_data)
    f = nets.forward_batch(student.net, np.concatenate([ft, fs, c_in[:, None] * X], axis=1))
    d_s = c_skip[:, None] * X + c_out[:, None] * f
    if denoiser:
        return d_s
    phi, psi = student.schedule.ei_coeffs(t, s)
    return phi[:, None] * X + psi[:, None] * d_s


def _feature_student(schedule, plain, features, d=2, seed=70):
    f = nets.time_feature_dim(features, 3)
    spec = NetSpec(2 * f + d, (16, 16), d, activation="silu", time_features=features, fourier_k=3)
    student = StudentNet(net=net_init(spec, seed), schedule=schedule, stop_time=0.9,
                         sigma_data=0.6, plain=plain)
    student.net.params *= 2.0
    return student


class TestOneEvaluator:
    """Every loss and sampler evaluates g through one object; the bits stay put."""

    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    @pytest.mark.parametrize("plain", [False, True], ids=["anchored", "plain"])
    @pytest.mark.parametrize("features", ["raw", "fourier"])
    def test_matches_the_written_out_formulas(self, schedule, plain, features):
        student = _feature_student(schedule, plain, features)
        rng = Rng(71)
        t = 0.9 * rng.uniform(33)
        t[:3] = (0.0, 0.9, 0.45)
        s = t + (0.9 - t) * rng.uniform(33)
        s[:3] = (0.0, 0.9, 0.45)
        X = 1.5 * rng.normal((33, 2))
        assert np.array_equal(g_apply(student, t, s, X), _reference_g(student, t, s, X))
        if not plain:
            assert np.array_equal(student_denoiser(student, t, s, X),
                                  _reference_g(student, t, s, X, denoiser=True))

    @pytest.mark.parametrize("plain", [False, True], ids=["anchored", "plain"])
    def test_student_and_callable_give_the_same_loss(self, plain):
        # a StudentNet and the callable wrapping its g_apply take one path to one value
        student = _feature_student(FOLLMER, plain, "raw", d=1)
        as_callable = lambda t, s, X: g_apply(student, t, s, X)
        corpus = _gauss_corpus(m=8, K=6)
        rng = Rng(72)
        pairs = np.concatenate([rng.integers(8, (40,))[:, None],
                                sample_index_pairs(rng, 40, 6)], axis=1)
        triples = np.concatenate([rng.integers(8, (40,))[:, None],
                                  np.sort(rng.integers(6, (40, 3)), axis=1)], axis=1)
        for loss, rows in ((regression_loss, pairs), (semigroup_penalty, triples)):
            value, grad = loss(student, corpus, rows)
            assert grad is not None
            assert loss(as_callable, corpus, rows) == (value, None)
        if plain:
            return
        batch = draw_batch(sample_target(GAUSS1, 32, seed=73), FOLLMER, 0.9, 12, seed=74)
        u = batch.t + (0.9 - batch.t) * rng.uniform(12)
        s = u + (0.9 - u) * rng.uniform(12)
        offline = _feature_student(FOLLMER, plain, "raw", d=1, seed=75)
        teacher = lambda t, u, X: 0.9 * X
        value, grad = global_loss(student, offline, teacher, batch, u, s)
        assert grad is not None
        off_callable = lambda t, s, X: g_apply(offline, t, s, X)
        for pair in ((as_callable, offline), (student, off_callable), (as_callable, off_callable)):
            assert global_loss(*pair, teacher, batch, u, s, stop_time=0.9) == (value, None)

    @pytest.mark.parametrize("plain", [False, True], ids=["anchored", "plain"])
    def test_sampling_keeps_no_forward_cache(self, monkeypatch, plain):
        # a cache on the 8192-row one-step sample would hold every layer's arrays
        flags = []
        forward = nets.forward_batch

        def spy(net, X, want_cache=False):
            flags.append(want_cache)
            return forward(net, X, want_cache=want_cache)

        monkeypatch.setattr(nets, "forward_batch", spy)
        student = _feature_student(LINEAR, plain, "raw")
        g_apply(student, 0.1, 0.6, Rng(76).normal((5, 2)))
        one_step(student, 64, 0.9, seed=77)
        multi_step(student, [0.0, 0.3, 0.9], 64, seed=78)
        assert len(flags) >= 4 and not any(flags)


class TestSelfDistill:
    def test_exact_flow_is_fixed_point(self):
        x = Rng(37).normal((8, 1))
        ref = self_distill_reference(_exact_g, 0.1, 0.8, x)
        assert np.max(np.abs(ref - _exact_g(0.1, 0.8, x))) < 1e-12

    def test_identity_at_equal_times(self):
        student = _student(seed=38)
        x = Rng(39).normal((8, 1))
        assert np.array_equal(self_distill_reference(student, 0.4, 0.4, x), x)

    def test_affine_two_hop_hand_composed(self):
        sch = LINEAR
        sigma_d = 0.6
        spec = NetSpec(3, (), 1)
        w = np.array([0.2, -0.1, 0.5, 0.03])
        student = StudentNet(Net(spec, w.copy()), sch, 0.9, sigma_d)
        t, s, x = 0.15, 0.75, 1.3
        u = 0.5 * (t + s)
        out = self_distill_reference(student, t, s, np.array([[x]]))[0]
        hand = _affine_g_hand(w, sigma_d, u, s, _affine_g_hand(w, sigma_d, t, u, x))
        assert out[0] == pytest.approx(hand, rel=1e-12)


class TestTrainCg:
    def test_zero_iterations_returns_init(self):
        corpus = _gauss_corpus()
        spec = NetSpec(3, (8,), 1)
        config = CgTrainConfig(mode="regression", schedule=LINEAR, net_spec=spec,
                               stop_time=0.9, iterations=0, seed=40)
        student, losses = train_cg(config, corpus=corpus)
        assert losses == []
        assert np.array_equal(student.net.params, net_init(spec, 40).params)

    def test_mode_requirements(self):
        spec = NetSpec(3, (8,), 1)
        config = CgTrainConfig(mode="regression", schedule=LINEAR, net_spec=spec, stop_time=0.9)
        with pytest.raises(ValueError):
            train_cg(config, corpus=None)
        config2 = CgTrainConfig(mode="practical", schedule=LINEAR, net_spec=spec, stop_time=0.9)
        with pytest.raises(ValueError):
            train_cg(config2, data=np.zeros((4, 1)), teacher=None)
        config3 = CgTrainConfig(mode="self-distill", schedule=LINEAR, net_spec=spec, stop_time=0.9)
        with pytest.raises(ValueError):
            train_cg(config3, data=np.zeros((4, 1)), teacher=lambda t, X: X)
        with pytest.raises(ValueError):
            CgTrainConfig(mode="practical", schedule=LINEAR, net_spec=spec, plain=True)
        with pytest.raises(ValueError):
            CgTrainConfig(mode="regression", schedule=LINEAR, net_spec=spec, lambda_local=-1.0)

    def test_regression_deterministic_and_finite(self):
        corpus = _gauss_corpus(m=32, K=10)
        spec = NetSpec(3, (16,), 1, activation="silu")
        config = CgTrainConfig(mode="regression", schedule=LINEAR, net_spec=spec,
                               stop_time=0.9, iterations=30, batch_size=16,
                               lambda_semigroup=0.1, seed=41)
        s1, l1 = train_cg(config, corpus=corpus)
        s2, l2 = train_cg(config, corpus=corpus)
        assert l1 == l2
        assert np.array_equal(s1.net.params, s2.net.params)
        assert np.all(np.isfinite(l1))

    def test_full_pairs_loss_covers_every_pair_of_the_drawn_particles(self):
        corpus = _gauss_corpus(m=16, K=6)
        spec = NetSpec(3, (8,), 1, activation="silu")
        config = CgTrainConfig(mode="regression", schedule=LINEAR, net_spec=spec, stop_time=0.9,
                               iterations=1, batch_size=4, lambda_semigroup=0.0,
                               full_pairs=True, seed=42, sigma_data=0.5)
        _, losses = train_cg(config, corpus=corpus)
        idx = Rng(42, stream=1).integers(16, 4)
        pairs = [(i, k, ell) for i in idx for k in range(6) for ell in range(k, 6)]
        init = StudentNet(net_init(spec, 42), LINEAR, 0.9, sigma_data=0.5)
        assert len(pairs) == 4 * 21
        assert losses == [regression_loss(init, corpus, pairs)[0]]

    def test_practical_mode_learns_the_gaussian_denoiser(self):
        # exact teacher; the student's diagonal slice must approach the oracle denoiser
        ctx = OracleContext(GAUSS1, LINEAR)
        data = sample_target(GAUSS1, 4096, seed=42)
        spec = NetSpec(3, (32, 32), 1, activation="silu")
        config = CgTrainConfig(mode="practical", schedule=LINEAR, net_spec=spec,
                               stop_time=0.9, iterations=1200, batch_size=128,
                               lr=1e-3, seed=43, teacher_steps=4, sigma_data=0.5)
        student, losses = train_cg(config, data=data,
                                   teacher=lambda t, X: denoiser_exact(ctx, t, X))
        assert np.all(np.isfinite(losses))
        probe = draw_batch(data, LINEAR, 0.9, 4096, seed=44)
        diag = student_denoiser(student, probe.t, probe.t, probe.xt)
        exact = denoiser_exact(ctx, probe.t, probe.xt)
        rmse = float(np.sqrt(np.mean((diag - exact) ** 2)))
        assert rmse < 0.05

    def test_self_distill_runs_and_stays_finite(self):
        data = sample_target(GAUSS1, 1024, seed=45)
        spec = NetSpec(3, (16, 16), 1, activation="silu")
        config = CgTrainConfig(mode="self-distill", schedule=LINEAR, net_spec=spec,
                               stop_time=0.9, iterations=100, batch_size=64, seed=46,
                               sigma_data=0.5)
        student, losses = train_cg(config, data=data)
        assert np.all(np.isfinite(losses))

    @pytest.mark.parametrize("mode, iteration, loss", [("regression", 4, "regression"),
                                                        ("practical", 3, "global")])
    def test_divergence_keeps_partial_log(self, mode, iteration, loss):
        # regression: particle 0's path overflows the residual, and seed 3's one-particle
        # batches first draw it in iteration 4; practical: the teacher (two flow substeps
        # per iteration) turns non-finite in iteration 3
        corpus = _gauss_corpus(m=4, K=6)
        corpus.states[0] = 1e200
        calls = []

        def teacher(t, X):
            calls.append(t)
            return X if len(calls) <= 6 else np.full_like(X, np.nan)

        config = CgTrainConfig(mode=mode, schedule=LINEAR, net_spec=NetSpec(3, (8,), 1),
                               stop_time=0.9, iterations=50, batch_size=1, seed=3,
                               teacher_steps=2, sigma_data=0.5)
        inputs = ({"corpus": corpus} if mode == "regression" else
                  {"data": sample_target(GAUSS1, 64, seed=51), "teacher": teacher})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as info:
            train_cg(config, **inputs)
        assert len(info.value.losses) == iteration and np.all(np.isfinite(info.value.losses))
        assert str(info.value) == f"iteration {iteration}: non-finite {loss} loss"

    def test_plain_student_learns_the_diagonal(self):
        # nothing anchors g(t,t,.) = x for a plain net; the half-weighted diagonal
        # terms of the regression risk must teach it
        corpus = _gauss_corpus(m=256, K=16, seed=47)
        spec = NetSpec(3, (32, 32), 1, activation="silu")
        config = CgTrainConfig(mode="regression", schedule=LINEAR, net_spec=spec,
                               stop_time=0.9, iterations=1500, batch_size=128,
                               pairs_per_particle=8, seed=48, plain=True)
        student, _ = train_cg(config, corpus=corpus)
        assert student.plain
        rng = Rng(49)
        t = 0.9 * rng.uniform(2048)
        x = rng.normal((2048, 1))
        diag_rmse = float(np.sqrt(np.mean((g_apply(student, t, t, x) - x) ** 2)))
        assert diag_rmse < 0.05


class TestSampling:
    def test_one_step_empty(self):
        assert one_step(_student(), 0, 0.9, seed=0).shape == (0, 1)

    def test_one_step_marginal_after_regression_on_exact_trajectories(self):
        # the distilled (0, T) slice pushes N(0,1) near the exact flow marginal
        # N(0, alpha_T^2 + sigma^2 beta_T^2); at this small budget the student
        # carries a few-percent contraction on top of the Euler-grid bias, so
        # the two error links are asserted separately (the tight end-to-end
        # gate is the swiss-roll acceptance criterion)
        corpus = _gauss_corpus(m=1024, K=48, seed=60)
        spec = NetSpec(3, (32, 32), 1, activation="silu")
        config = CgTrainConfig(mode="regression", schedule=LINEAR, net_spec=spec,
                               stop_time=0.9, iterations=2000, batch_size=128,
                               pairs_per_particle=8, seed=61, sigma_data=0.5)
        student, _ = train_cg(config, corpus=corpus)
        samples = one_step(student, 8192, 0.9, seed=62)
        target = float(np.sqrt(LINEAR.alpha(0.9) ** 2 + 0.25 * LINEAR.beta(0.9) ** 2))
        corpus_std = float(corpus.endpoints().std())
        assert abs(corpus_std - target) / target < 0.03       # Euler bias + MC
        assert abs(samples.std() - corpus_std) / corpus_std < 0.08  # distillation
        assert abs(samples.mean()) < 0.02

    def test_one_step_deterministic(self):
        student = _student(seed=50)
        a = one_step(student, 16, 0.9, seed=1)
        b = one_step(student, 16, 0.9, seed=1)
        assert np.array_equal(a, b)

    def test_two_node_multi_step_reproduces_one_step(self):
        student = _student(seed=51)
        a = one_step(student, 32, 0.9, seed=2)
        b = multi_step(student, [0.0, 0.9], 32, seed=2)
        assert np.array_equal(a, b)

    @staticmethod
    def _g_calls(monkeypatch):
        # a spy on cgen.g_apply, the name the sampler looks up and the bench tracer counts
        calls = []
        g = cgen.g_apply
        monkeypatch.setattr(cgen, "g_apply", lambda *a: calls.append(1) or g(*a))
        return calls

    def test_nfe_counts_segments(self, monkeypatch):
        student = _student(seed=52)
        calls = self._g_calls(monkeypatch)
        multi_step(student, [0.0, 0.3, 0.6, 0.9], 8, seed=3)
        assert len(calls) == 3
        calls.clear()
        one_step(student, 8, 0.9, seed=3)
        assert len(calls) == 1

    def test_nfe_counts_g_calls_not_forward_tiles(self, monkeypatch):
        # each g evaluation runs forward_batch over three row tiles here
        m = 2 * TILE_ROWS + 1
        student = _student(seed=52)
        calls = self._g_calls(monkeypatch)
        one_step(student, m, 0.9, seed=3)
        assert len(calls) == 1
        calls.clear()
        multi_step(student, [0.0, 0.3, 0.6, 0.9], m, seed=3)
        assert len(calls) == 3

    @pytest.mark.parametrize("plain", [False, True])
    @pytest.mark.parametrize("m", [0, 1, 5, 4097])
    def test_bitwise_equal_to_the_chained_loop(self, plain, m):
        # one_step and multi_step as they were before they stepped through
        # sampler.integrate: g_apply on the prior draws, then a plain chain
        student = _student(seed=54, d=2, hidden=(16, 16), plain=plain)
        student.net.params *= 2.0
        nodes = np.array([0.0, 0.1, 0.45, 0.9])
        z0 = Rng(7).normal((m, 2))
        one = g_apply(student, 0.0, 0.9, z0) if m else np.empty((0, 2))
        multi = z0
        for k in range(3):
            multi = g_apply(student, nodes[k], nodes[k + 1], multi) if m else multi
        got = one_step(student, m, 0.9, seed=7)
        assert got.shape == (m, 2) and got.tobytes() == one.tobytes()
        assert multi_step(student, nodes, m, seed=7).tobytes() == multi.tobytes()

    def test_non_finite_sample_names_the_step(self):
        student = _student(seed=55)
        student.net.params *= 1e200
        with pytest.raises(NonFiniteState, match=r"step 1 \(t = 0\.900000\)"):
            one_step(student, 8, 0.9, seed=0)
        with pytest.raises(NonFiniteState, match=r"step 1 \(t = 0\.300000\)"):
            multi_step(student, [0.0, 0.3, 0.6, 0.9], 8, seed=0)

    def test_negative_sample_size_is_refused(self):
        student = _student(seed=56)
        with pytest.raises(ValueError, match="nonnegative"):
            one_step(student, -1, 0.9, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            multi_step(student, [0.0, 0.9], -1, seed=0)

    def test_node_validation(self):
        student = _student(seed=53)
        with pytest.raises(ValueError):
            multi_step(student, [0.1, 0.9], 4, seed=0)      # must start at 0
        with pytest.raises(ValueError):
            multi_step(student, [0.0, 0.5, 0.5, 0.9], 4, seed=0)  # strictly increasing
        with pytest.raises(ValueError):
            multi_step(student, [0.0, 0.8], 4, seed=0)      # must end at stop time

    def test_nan_node_is_refused(self):
        # a NaN node used to reach the sampler, which blamed the state (t = nan)
        with pytest.raises(ValueError, match="strictly increasing"):
            multi_step(_student(seed=53), [0.0, np.nan, 0.9], 4, seed=0)
