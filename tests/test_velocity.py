import numpy as np
import pytest

from charflow import net as nets
from charflow.net import AdamState, Net, NetSpec, net_init
from charflow.oracle import OracleContext, denoiser_exact, velocity_exact
from charflow.rng import Rng
from charflow.schedule import Schedule, denoiser_coeffs
from charflow.target import atomic_mixture, sample_target
from charflow.velocity import (DIVERGENCE_FACTOR, InterpolantBatch, TrainConfig,
                               TrainingDiverged, clip_gradient, denoiser_loss, draw_batch,
                               estimate_sigma_data, fit, make_denoiser, make_velocity,
                               residual_loss, train, velocity_from_denoiser, velocity_loss)

LINEAR = Schedule("linear")
FOLLMER = Schedule("follmer")
TWO_1D = atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.25)


def _data(n=512, seed=0):
    return sample_target(TWO_1D, n, seed)


class TestDrawBatch:
    def test_interpolant_recomputes_bit_exactly(self):
        batch = draw_batch(_data(), LINEAR, 0.9, 128, seed=1)
        a, b, da, db = LINEAR.coeffs(batch.t)
        assert np.array_equal(batch.xt, a[:, None] * batch.x0 + b[:, None] * batch.x1)
        assert np.array_equal(batch.yt, da[:, None] * batch.x0 + db[:, None] * batch.x1)
        assert np.all(batch.t <= 0.9)

    def test_t_zero_row(self):
        # at t = 0 the interpolant is the prior draw and the linear target is x1 - x0
        x0, x1 = np.array([[0.7]]), np.array([[-0.2]])
        a, b, da, db = LINEAR.coeffs(np.zeros(1))
        xt = a[:, None] * x0 + b[:, None] * x1
        yt = da[:, None] * x0 + db[:, None] * x1
        assert np.array_equal(xt, x0)
        assert np.array_equal(yt, x1 - x0)

    def test_deterministic(self):
        b1 = draw_batch(_data(), FOLLMER, 0.99, 64, seed=5)
        b2 = draw_batch(_data(), FOLLMER, 0.99, 64, seed=5)
        for name in ("t", "x0", "x1", "xt", "yt"):
            assert np.array_equal(getattr(b1, name), getattr(b2, name))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            draw_batch(np.empty((0, 1)), LINEAR, 0.9, 8, seed=0)


def _single_row_batch(schedule, t, x0, x1):
    t = np.array([t])
    x0, x1 = np.atleast_2d(x0), np.atleast_2d(x1)
    a, b, da, db = schedule.coeffs(t)
    return InterpolantBatch(t=t, x0=x0, x1=x1,
                            xt=a[:, None] * x0 + b[:, None] * x1,
                            yt=da[:, None] * x0 + db[:, None] * x1)


class TestVelocityLoss:
    def test_perfect_net_zero_loss_zero_grad(self):
        batch = _single_row_batch(LINEAR, 0.4, [0.3], [-0.6])
        spec = NetSpec(2, (), 1)
        w = np.zeros((1, 2))
        net = Net(spec, np.concatenate([w.ravel(), batch.yt[0]]))  # constant output = target
        loss, grad = velocity_loss(net, batch)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(net.params))

    def test_zero_net_gives_mean_squared_target(self):
        batch = draw_batch(_data(), LINEAR, 0.9, 64, seed=2)
        spec = NetSpec(2, (4,), 1)
        net = Net(spec, np.zeros(spec.param_count))
        loss, _ = velocity_loss(net, batch)
        assert abs(loss - np.mean(np.sum(batch.yt**2, axis=1))) < 1e-12

    def test_gradient_finite_difference(self):
        batch = draw_batch(_data(), LINEAR, 0.9, 16, seed=3)
        spec = NetSpec(2, (8,), 1, activation="silu")
        net = net_init(spec, 4)
        _, grad = velocity_loss(net, batch)
        _assert_fd_matches(net, grad, lambda n: velocity_loss(n, batch)[0])


def _assert_fd_matches(net, grad, loss_fn, n_dirs=5, h=1e-5, tol=1e-4):
    rng = Rng(99)
    for _ in range(n_dirs):
        v = rng.normal(net.params.shape)
        v /= np.linalg.norm(v)
        saved = net.params.copy()
        net.params[:] = saved + h * v
        up = loss_fn(net)
        net.params[:] = saved - h * v
        dn = loss_fn(net)
        net.params[:] = saved
        fd = (up - dn) / (2 * h)
        an = float(grad @ v)
        assert abs(fd - an) <= tol * max(abs(fd), abs(an), 1e-8)


class TestDenoiserLoss:
    def test_perfect_net_zero_loss(self):
        batch = _single_row_batch(FOLLMER, 0.6, [0.2], [0.9])
        sigma_d = 0.8
        _, c_skip, c_out, _, _ = denoiser_coeffs(FOLLMER, batch.t, sigma_d)
        target = (batch.x1 - c_skip[:, None] * batch.xt) / c_out[:, None]
        spec = NetSpec(2, (), 1)
        net = Net(spec, np.concatenate([np.zeros(2), target[0]]))
        loss, grad = denoiser_loss(net, batch, sigma_d, FOLLMER)
        assert loss < 1e-28
        assert np.max(np.abs(grad)) < 1e-13

    def test_target_variance_is_one_per_time_stratum(self):
        spec = atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.5)
        data = sample_target(spec, 60_000, seed=8)
        sigma_d = estimate_sigma_data(data)
        batch = draw_batch(data, LINEAR, 0.99, 60_000, seed=9)
        _, c_skip, c_out, _, _ = denoiser_coeffs(LINEAR, batch.t, sigma_d)
        target = ((batch.x1 - c_skip[:, None] * batch.xt) / c_out[:, None]).ravel()
        for lo in np.arange(0.0, 0.99, 0.11):
            sel = (batch.t >= lo) & (batch.t < lo + 0.11)
            assert abs(np.var(target[sel]) - 1.0) < 0.08

    def test_exact_denoiser_minimizes_population_loss(self):
        # conditional-mean optimality: any perturbation of F* increases the risk
        ctx = OracleContext(TWO_1D, LINEAR)
        sigma_d = float(np.sqrt(1.0 + 0.25**2))  # exact per-coordinate std of the mixture
        data = sample_target(TWO_1D, 40_000, seed=10)
        batch = draw_batch(data, LINEAR, 0.9, 40_000, seed=11)
        c_in, c_skip, c_out, _, _ = denoiser_coeffs(LINEAR, batch.t, sigma_d)
        target = (batch.x1 - c_skip[:, None] * batch.xt) / c_out[:, None]

        def risk(f_values):
            return float(np.mean(np.sum((f_values - target) ** 2, axis=1)))

        f_star = (denoiser_exact(ctx, batch.t, batch.xt) - c_skip[:, None] * batch.xt) / c_out[:, None]
        base = risk(f_star)
        rng = Rng(12)
        for scale in (0.05, 0.2, 1.0):
            perturbed = risk(f_star + scale * rng.normal(f_star.shape))
            assert perturbed > base
        assert risk(f_star + 0.1) > base  # constant shift also hurts

    def test_gradient_finite_difference(self):
        batch = draw_batch(_data(), FOLLMER, 0.95, 16, seed=13)
        spec = NetSpec(2, (8,), 1, activation="silu")
        net = net_init(spec, 14)
        _, grad = denoiser_loss(net, batch, 0.9, FOLLMER)
        _assert_fd_matches(net, grad, lambda n: denoiser_loss(n, batch, 0.9, FOLLMER)[0])


class TestTrain:
    def test_zero_iterations_returns_init(self):
        spec = NetSpec(2, (8,), 1)
        config = TrainConfig(schedule=LINEAR, net_spec=spec, stop_time=0.9, iterations=0, seed=3)
        net, losses = train(config, _data())
        assert losses == []
        assert np.array_equal(net.params, net_init(spec, 3).params)

    def test_loss_curve_finite_and_deterministic(self):
        spec = NetSpec(2, (16,), 1, activation="silu")
        config = TrainConfig(schedule=LINEAR, net_spec=spec, stop_time=0.9,
                             iterations=40, batch_size=32, seed=5)
        net1, losses1 = train(config, _data())
        net2, losses2 = train(config, _data())
        assert np.all(np.isfinite(losses1))
        assert losses1 == losses2
        assert np.array_equal(net1.params, net2.params)

    def test_config_validation(self):
        spec = NetSpec(2, (8,), 1)
        with pytest.raises(ValueError):
            TrainConfig(schedule=LINEAR, net_spec=spec, stop_time=0.4)
        with pytest.raises(ValueError):
            TrainConfig(schedule=LINEAR, net_spec=spec, iterations=-1)
        with pytest.raises(ValueError):
            TrainConfig(schedule=LINEAR, net_spec=spec, loss="score")

    def test_divergence_aborts_with_partial_log(self):
        spec = NetSpec(2, (8,), 1, activation="silu")
        config = TrainConfig(schedule=LINEAR, net_spec=spec, stop_time=0.9,
                             iterations=50, batch_size=16, seed=6)
        bad = np.full((32, 1), 1e200)  # squared residuals overflow immediately
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as info:
            train(config, bad)
        assert isinstance(info.value.losses, list)
        assert len(info.value.losses) < 50

    @staticmethod
    def _fit_losses(losses):
        net = net_init(NetSpec(2, (3,), 1), 0)
        feed = iter(losses)
        return fit(net, lambda rng: (next(feed), np.zeros_like(net.params)), len(losses), 0,
                   AdamState())

    def test_a_finite_blow_up_is_a_divergence(self):
        first = 2.0
        losses = [first, 0.5, DIVERGENCE_FACTOR * first, 2.0 * DIVERGENCE_FACTOR * first, 1.0]
        with pytest.raises(TrainingDiverged) as info:
            self._fit_losses(losses)
        assert str(info.value) == "iteration 3: loss 4e+06 exceeds 1e+06 times the first loss 2"
        assert info.value.losses == losses[:4]

    def test_no_blow_up_check_after_a_zero_first_loss(self):
        assert self._fit_losses([0.0, 1e300, 5.0]) == [0.0, 1e300, 5.0]

    def test_gradient_clipping(self):
        g = np.array([3.0, 4.0])
        assert np.allclose(clip_gradient(g, 1.0), g / 5.0)
        assert np.array_equal(clip_gradient(g, 10.0), g)
        assert np.array_equal(clip_gradient(g, None), g)
        spec = NetSpec(2, (8,), 1, activation="silu")
        cfg_clip = TrainConfig(schedule=LINEAR, net_spec=spec, stop_time=0.9,
                               iterations=20, batch_size=16, seed=7, clip_grad_norm=0.1)
        cfg_free = TrainConfig(schedule=LINEAR, net_spec=spec, stop_time=0.9,
                               iterations=20, batch_size=16, seed=7)
        net_c, _ = train(cfg_clip, _data())
        net_f, _ = train(cfg_free, _data())
        assert not np.array_equal(net_c.params, net_f.params)


class TestVelocityFromDenoiser:
    def test_exact_denoiser_gives_exact_velocity(self):
        ctx = OracleContext(TWO_1D, LINEAR)
        den = lambda t, X: denoiser_exact(ctx, t, X)
        rng = Rng(15)
        for _ in range(20):
            t = 0.98 * rng.uniform()
            x = 2.0 * rng.normal((5, 1))
            lhs = velocity_from_denoiser(den, LINEAR, t, x)
            assert np.max(np.abs(lhs - velocity_exact(ctx, t, x))) < 1e-12

    def test_follmer_limit_at_zero(self):
        den = lambda t, X: np.full_like(X, 0.7)
        out = velocity_from_denoiser(den, FOLLMER, 0.0, np.array([[2.0]]))[0]
        # coefficient of x -> 0 and coefficient of D -> 1, so b(0, x) = D(0, x)
        assert abs(out[0] - 0.7) < 1e-15

    def test_zero_denoiser(self):
        den = lambda t, X: np.zeros_like(X)
        x = np.array([[1.5]])
        out = velocity_from_denoiser(den, LINEAR, 0.25, x)[0]
        assert abs(out[0] - LINEAR.dlog_alpha(0.25) * 1.5) < 1e-15


def test_single_atom_gaussian_trains_to_oracle():
    # the canonical smoke target: near-affine velocity, tight oracle tolerance
    spec_target = atomic_mixture(np.zeros((1, 1)), sigma=0.5)
    ctx = OracleContext(spec_target, LINEAR)
    data = sample_target(spec_target, 8192, seed=60)
    config = TrainConfig(schedule=LINEAR, net_spec=NetSpec(2, (64, 64), 1, activation="relu"),
                         stop_time=0.9, iterations=5000, batch_size=256, lr=1e-3, seed=0,
                         loss="velocity")
    net, _ = train(config, data)
    field = make_velocity(net)
    probe = draw_batch(sample_target(spec_target, 8192, seed=61), LINEAR, 0.9, 8192, seed=62)
    ref = velocity_exact(ctx, probe.t, probe.xt)
    err = float(np.sqrt(np.mean(np.sum((field(probe.t, probe.xt) - ref) ** 2, axis=1))))
    assert err <= 0.05


class TestEquivalenceAndMonotonicity:
    def test_denoiser_route_within_2x_of_velocity_route(self):
        # same budget, two-atom 1-D target, median over 3 seeds
        data_err = {"velocity": [], "denoiser": []}
        ctx = OracleContext(TWO_1D, LINEAR)
        probe = draw_batch(sample_target(TWO_1D, 4096, seed=100), LINEAR, 0.9, 4096, seed=101)
        b_star = velocity_exact(ctx, probe.t, probe.xt)
        for seed in (0, 1, 2):
            data = sample_target(TWO_1D, 4096, seed=seed + 50)
            for loss_kind in ("velocity", "denoiser"):
                spec = NetSpec(2, (32, 32), 1, activation="silu")
                config = TrainConfig(schedule=LINEAR, net_spec=spec, stop_time=0.9,
                                     iterations=1500, batch_size=128, seed=seed, loss=loss_kind)
                net, _ = train(config, data)
                if loss_kind == "velocity":
                    field = make_velocity(net)
                else:
                    den = make_denoiser(net, LINEAR, estimate_sigma_data(data))
                    field = lambda t, X: velocity_from_denoiser(den, LINEAR, t, X)
                err = np.sqrt(np.mean(np.sum((field(probe.t, probe.xt) - b_star) ** 2, axis=1)))
                data_err[loss_kind].append(float(err))
        med_v = np.median(data_err["velocity"])
        med_d = np.median(data_err["denoiser"])
        assert med_d <= 2.0 * med_v
        assert med_v <= 2.0 * med_d


@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_residual_loss_runs_one_forward_with_the_two_forward_bits(monkeypatch, activation):
    spec = NetSpec(3, (16, 16), 2, activation=activation)
    net = net_init(spec, 2)
    inp, target = Rng(3).normal((64, 3)), Rng(4).normal((64, 2))
    resid = nets.forward_batch(net, inp) - target
    ref_loss = float(np.sum(resid * resid)) / 64
    ref_grad, _ = nets.grad_batch(net, inp, (2.0 / 64) * resid,   # a second forward
                                  nets.forward_batch(net, inp, want_cache=True)[1])
    calls = []
    forward = nets.forward_batch
    monkeypatch.setattr(nets, "forward_batch", lambda *a, **k: calls.append(1) or forward(*a, **k))
    loss, grad = residual_loss(net, inp, target, "test")
    assert len(calls) == 1
    assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()
