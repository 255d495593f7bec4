import numpy as np
import pytest

from charflow import net as nets
from charflow.net import (AdamState, Net, NetSpec, adam_step, ema_update, forward_batch,
                          grad_batch, lipschitz_bound, load_net, net_forward, net_grad,
                          net_init, save_net, time_features)
from charflow.rng import Rng
from charflow.sampler import TimeGrid, TrajectoryBatch, load_trajectories, save_trajectories


class TestInit:
    def test_deterministic(self):
        spec = NetSpec(3, (16, 16), 2)
        assert np.array_equal(net_init(spec, 9).params, net_init(spec, 9).params)
        assert not np.array_equal(net_init(spec, 9).params, net_init(spec, 10).params)

    def test_biases_zero(self):
        spec = NetSpec(3, (4,), 2)
        net = net_init(spec, 0)
        # layout: W0 (4x3), b0 (4), W1 (2x4), b1 (2)
        assert np.array_equal(net.params[12:16], np.zeros(4))
        assert np.array_equal(net.params[24:26], np.zeros(2))

    def test_param_count_example(self):
        assert NetSpec(3, (64, 64), 2).param_count == 4546

    def test_glorot_range(self):
        spec = NetSpec(10, (20,), 5)
        net = net_init(spec, 1)
        w0 = net.params[:200]
        limit = np.sqrt(6.0 / 30)
        assert np.max(np.abs(w0)) <= limit

    def test_param_length_validated(self):
        with pytest.raises(ValueError):
            Net(NetSpec(2, (3,), 1), np.zeros(5))


class TestForward:
    def test_zero_net_zero_output(self):
        spec = NetSpec(3, (8, 8), 2)
        net = Net(spec, np.zeros(spec.param_count))
        assert np.array_equal(net_forward(net, np.ones(3)), np.zeros(2))

    def test_affine_net(self):
        spec = NetSpec(2, (), 2)
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([0.5, -0.5])
        net = Net(spec, np.concatenate([w.ravel(), b]))
        x = np.array([1.0, -1.0])
        assert np.array_equal(net_forward(net, x), w @ x + b)

    def test_relu_kills_negative_first_layer(self):
        spec = NetSpec(1, (4, 3), 2, activation="relu")
        net = net_init(spec, 3)
        # make every first-layer pre-activation negative for x = 1
        layers = nets._unpack(net)
        w0, b0 = layers[0]
        w0[:] = -np.abs(w0) - 0.1
        b0[:] = 0.0
        out = net_forward(net, np.array([1.0]))
        # equals the remaining layers applied to the zero vector
        rest = forward_batch(Net(NetSpec(4, (3,), 2), net.params[spec.input_dim * 4 + 4:]),
                             np.zeros((1, 4)))[0]
        assert np.array_equal(out, rest)

    def test_dimension_mismatch(self):
        net = net_init(NetSpec(3, (4,), 2), 0)
        with pytest.raises(ValueError):
            net_forward(net, np.ones(4))


class TestGrad:
    @pytest.mark.parametrize("activation", ["relu", "silu"])
    def test_finite_difference_property(self, activation):
        # >= 20 random configurations, central differences, 1e-4 relative
        rng = Rng(123)
        checked = 0
        for trial in range(20):
            dims = tuple(int(2 + 6 * rng.uniform()) for _ in range(int(1 + 2 * rng.uniform())))
            spec = NetSpec(int(2 + 3 * rng.uniform()), dims, int(1 + 3 * rng.uniform()),
                           activation=activation)
            net = net_init(spec, trial)
            x = rng.normal((spec.input_dim,))
            up = rng.normal((spec.output_dim,))
            pg, ig = net_grad(net, x, up)
            h = 1e-5
            for _ in range(3):
                v = rng.normal(net.params.shape)
                v /= np.linalg.norm(v)
                plus = Net(spec, net.params + h * v)
                minus = Net(spec, net.params - h * v)
                fd = (up @ net_forward(plus, x) - up @ net_forward(minus, x)) / (2 * h)
                an = float(pg @ v)
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)
            for _ in range(2):
                v = rng.normal(x.shape)
                v /= np.linalg.norm(v)
                fd = (up @ net_forward(net, x + h * v) - up @ net_forward(net, x - h * v)) / (2 * h)
                an = float(ig @ v)
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)
            checked += 1
        assert checked == 20

    def test_affine_param_grad_outer_product(self):
        spec = NetSpec(3, (), 2)
        net = net_init(spec, 5)
        x = np.array([1.0, 2.0, 3.0])
        up = np.array([0.5, -1.5])
        pg, ig = net_grad(net, x, up)
        assert np.array_equal(pg[:6].reshape(2, 3), np.outer(up, x))
        assert np.array_equal(pg[6:], up)
        assert np.allclose(ig, nets._unpack(net)[0][0].T @ up)

    def test_zero_upstream(self):
        net = net_init(NetSpec(3, (5,), 2), 1)
        pg, ig = net_grad(net, np.ones(3), np.zeros(2))
        assert np.array_equal(pg, np.zeros_like(net.params))
        assert np.array_equal(ig, np.zeros(3))

    def test_batched_grad_matches_row_sum(self):
        spec = NetSpec(4, (8,), 3, activation="silu")
        net = net_init(spec, 2)
        X = Rng(3).normal((6, 4))
        U = Rng(4).normal((6, 3))
        pg, ig = grad_batch(net, X, U)
        pg_rows = sum(net_grad(net, X[i], U[i])[0] for i in range(6))
        assert np.max(np.abs(pg - pg_rows)) < 1e-12
        for i in range(6):
            assert np.allclose(ig[i], net_grad(net, X[i], U[i])[1])


class TestAdam:
    def test_first_step_is_sign_scaled(self):
        net = net_init(NetSpec(2, (3,), 1), 0)
        g = Rng(9).normal(net.params.shape)
        before = net.params.copy()
        state = AdamState(lr=1e-3).for_net(net)
        adam_step(state, net, g)
        expected = before - 1e-3 * g / (np.abs(g) + 1e-8)
        assert np.max(np.abs(net.params - expected)) < 1e-12

    def test_zero_grad_is_noop(self):
        net = net_init(NetSpec(2, (3,), 1), 0)
        before = net.params.copy()
        state = AdamState().for_net(net)
        adam_step(state, net, np.zeros_like(before))
        assert np.array_equal(net.params, before)
        assert np.array_equal(state.m, np.zeros_like(before))

    def test_deterministic_trajectories(self):
        def run():
            net = net_init(NetSpec(2, (4,), 1), 7)
            state = AdamState(lr=3e-3).for_net(net)
            rng = Rng(1)
            for _ in range(50):
                adam_step(state, net, rng.normal(net.params.shape))
            return net.params

        assert np.array_equal(run(), run())

    def test_non_finite_grad_aborts(self):
        net = net_init(NetSpec(2, (3,), 1), 0)
        state = AdamState().for_net(net)
        bad = np.zeros_like(net.params)
        bad[0] = np.nan
        with pytest.raises(RuntimeError):
            adam_step(state, net, bad)


class TestEma:
    def test_rate_one_keeps_ema(self):
        a, b = net_init(NetSpec(2, (3,), 1), 0), net_init(NetSpec(2, (3,), 1), 1)
        before = a.params.copy()
        ema_update(a, b, 1.0)
        assert np.array_equal(a.params, before)

    def test_rate_zero_copies_live(self):
        a, b = net_init(NetSpec(2, (3,), 1), 0), net_init(NetSpec(2, (3,), 1), 1)
        ema_update(a, b, 0.0)
        assert np.array_equal(a.params, b.params)

    def test_geometric_decay(self):
        a, b = net_init(NetSpec(2, (3,), 1), 0), net_init(NetSpec(2, (3,), 1), 1)
        gap0 = np.linalg.norm(a.params - b.params)
        for _ in range(1000):
            ema_update(a, b, 0.999)
        ratio = np.linalg.norm(a.params - b.params) / gap0
        assert abs(ratio - 0.999**1000) < 1e-12
        assert abs(ratio - np.exp(-1.0)) < 1e-3

    def test_spec_mismatch(self):
        with pytest.raises(ValueError):
            ema_update(net_init(NetSpec(2, (3,), 1), 0), net_init(NetSpec(2, (4,), 1), 0), 0.5)


class TestLipschitz:
    def test_relu_bound_holds_on_random_pairs(self):
        net = net_init(NetSpec(4, (16, 16), 3, activation="relu"), 11)
        L = lipschitz_bound(net)
        rng = Rng(12)
        for _ in range(50):
            x, y = rng.normal((4,)), rng.normal((4,))
            fx, fy = net_forward(net, x), net_forward(net, y)
            assert np.linalg.norm(fx - fy) <= L * np.linalg.norm(x - y) * (1 + 1e-9)

    def test_power_iteration_close_to_svd(self):
        net = net_init(NetSpec(5, (8,), 2, activation="relu"), 3)
        layers = nets._unpack(net)
        exact = np.prod([np.linalg.svd(w, compute_uv=False)[0] for w, _ in layers])
        assert abs(lipschitz_bound(net) - exact) / exact < 1e-8


class TestTimeFeatures:
    def test_raw(self):
        f = time_features(np.array([0.1, 0.7]), "raw")
        assert np.array_equal(f, np.array([[0.1], [0.7]]))

    def test_fourier_shape_and_values(self):
        f = time_features(np.array([0.25]), "fourier", fourier_k=2)
        expected = [np.sin(np.pi / 2), np.sin(np.pi), np.cos(np.pi / 2), np.cos(np.pi)]
        assert f.shape == (1, 4)
        assert np.allclose(f[0], expected)


def test_checkpoint_round_trip(tmp_path):
    spec = NetSpec(5, (8, 8), 2, activation="silu", time_features="fourier", fourier_k=3)
    net = net_init(spec, 21)
    extra = {"role": "denoiser", "stop_time": 0.99, "sigma_data": 0.5}
    path = tmp_path / "net.ckpt"
    save_net(path, net, extra, provenance="charflow test")
    loaded, got_extra = load_net(path)
    assert loaded.spec == spec
    assert np.array_equal(loaded.params, net.params)  # bit-exact round trip
    assert got_extra == extra
    with pytest.raises(ValueError):
        load_net(__file__)



def _framed_file(kind, path):
    """Write a small framed file; returns its loader and its float64 body length."""
    if kind == "checkpoint":
        save_net(path, net_init(NetSpec(3, (5,), 2), 1))
        return load_net, 32
    save_trajectories(path, TrajectoryBatch(TimeGrid(0.9, 4), np.zeros((3, 5, 2)), seed=0))
    return load_trajectories, 30


@pytest.mark.parametrize("kind", ["checkpoint", "trajectories"])
@pytest.mark.parametrize("damage", ["cut-3-bytes", "cut-16-bytes", "header-only", "8-extra-bytes",
                                    "json-cut"])
def test_damaged_frame_error_names_the_file(tmp_path, kind, damage):
    path = tmp_path / "framed.bin"
    load, floats = _framed_file(kind, path)
    raw = path.read_bytes()
    body_start = len(raw) - 8 * floats
    damaged = {"cut-3-bytes": raw[:-3], "cut-16-bytes": raw[:-16], "header-only": raw[:body_start],
               "8-extra-bytes": raw + bytes(8), "json-cut": raw[:body_start - 5]}[damage]
    path.write_bytes(damaged)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(path) in str(info.value)
    found = (len(damaged) - body_start) / 8
    assert ("unreadable" if damage == "json-cut" else
            f"promises {floats} float64 values, found {found:.10g}") in str(info.value)


def _two_exp_act(z, kind):
    # the activation pair forward_batch / grad_batch used before the sigmoid cache
    if kind == "relu":
        return np.maximum(z, 0.0)
    sig = 1.0 / (1.0 + np.exp(-z))
    return z * sig


def _two_exp_act_grad(z, kind):
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    sig = 1.0 / (1.0 + np.exp(-z))
    return sig * (1.0 + z * (1.0 - sig))


def _reference_forward(net, X):
    layers = nets._unpack(net)
    pre, post = [], [X]
    for w, b in layers[:-1]:
        pre.append(post[-1] @ w.T + b)
        post.append(_two_exp_act(pre[-1], net.spec.activation))
    w, b = layers[-1]
    return post[-1] @ w.T + b, pre, post


def _reference_grad(net, X, upstream):
    _, pre, post = _reference_forward(net, X)
    layers = nets._unpack(net)
    grads = [None] * len(layers)
    delta = upstream
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = np.concatenate([(delta.T @ post[i]).ravel(), delta.sum(axis=0)])
        delta = delta @ layers[i][0]
        if i > 0:
            delta = delta * _two_exp_act_grad(pre[i - 1], net.spec.activation)
    return np.concatenate(grads), delta


@pytest.mark.parametrize("activation", ["relu", "silu"])
@pytest.mark.parametrize("hidden", [(), (7,), (16, 16), (32, 8, 24)])
def test_forward_and_grad_bitwise_equal_the_two_exp_reference(activation, hidden):
    spec = NetSpec(3, hidden, 2, activation=activation)
    net = net_init(spec, 4)
    net.params += 0.3 * Rng(5).normal((spec.param_count,))   # nonzero biases
    X = 3.0 * Rng(6).normal((37, 3))
    upstream = Rng(7).normal((37, 2))
    ref_out, _, _ = _reference_forward(net, X)
    ref_pg, ref_ig = _reference_grad(net, X, upstream)
    out, cache = forward_batch(net, X, want_cache=True)
    assert forward_batch(net, X).tobytes() == ref_out.tobytes()
    assert out.tobytes() == ref_out.tobytes()
    for passed in (None, cache):
        pg, ig = grad_batch(net, X, upstream, cache=passed)
        assert pg.tobytes() == ref_pg.tobytes()
        assert ig.tobytes() == ref_ig.tobytes()


def test_forward_leaves_its_input_untouched():
    spec = NetSpec(2, (4, 4), 2, activation="silu")
    X = Rng(1).normal((5, 2))
    before = X.copy()
    forward_batch(net_init(spec, 0), X)
    assert np.array_equal(X, before)
