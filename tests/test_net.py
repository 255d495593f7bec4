import contextlib
import json

import numpy as np
import pytest

from charflow import net as nets
from charflow.net import (TILE_ROWS, AdamState, Net, NetSpec, adam_step, buffer_pool,
                          ema_update, forward_batch, grad_batch, lipschitz_bound, load_net,
                          net_init, net_input, save_net, time_features)
from charflow.rng import Rng
from charflow.sampler import TimeGrid, TrajectoryBatch, load_trajectories, save_trajectories


def _grad(net, X, upstream):
    """grad_batch on a fresh forward cache of X."""
    return grad_batch(net, X, upstream, forward_batch(net, X, want_cache=True)[1])


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
        assert np.array_equal(forward_batch(net, np.ones((1, 3)))[0], np.zeros(2))

    def test_affine_net(self):
        spec = NetSpec(2, (), 2)
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([0.5, -0.5])
        net = Net(spec, np.concatenate([w.ravel(), b]))
        x = np.array([1.0, -1.0])
        assert np.array_equal(forward_batch(net, x[None, :])[0], w @ x + b)

    def test_relu_kills_negative_first_layer(self):
        spec = NetSpec(1, (4, 3), 2, activation="relu")
        net = net_init(spec, 3)
        # make every first-layer pre-activation negative for x = 1
        layers = nets._unpack(net)
        w0, b0 = layers[0]
        w0[:] = -np.abs(w0) - 0.1
        b0[:] = 0.0
        out = forward_batch(net, np.array([[1.0]]))[0]
        # equals the remaining layers applied to the zero vector
        rest = forward_batch(Net(NetSpec(4, (3,), 2), net.params[spec.input_dim * 4 + 4:]),
                             np.zeros((1, 4)))[0]
        assert np.array_equal(out, rest)

    def test_dimension_mismatch(self):
        net = net_init(NetSpec(3, (4,), 2), 0)
        with pytest.raises(ValueError):
            forward_batch(net, np.ones((1, 4)))


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
            pg, ig = _grad(net, x[None, :], up[None, :])
            ig = ig[0]
            h = 1e-5
            for _ in range(3):
                v = rng.normal(net.params.shape)
                v /= np.linalg.norm(v)
                plus = Net(spec, net.params + h * v)
                minus = Net(spec, net.params - h * v)
                fd = (up @ forward_batch(plus, x[None, :])[0]
                      - up @ forward_batch(minus, x[None, :])[0]) / (2 * h)
                an = float(pg @ v)
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)
            for _ in range(2):
                v = rng.normal(x.shape)
                v /= np.linalg.norm(v)
                fd = (up @ forward_batch(net, (x + h * v)[None, :])[0]
                      - up @ forward_batch(net, (x - h * v)[None, :])[0]) / (2 * h)
                an = float(ig @ v)
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-8)
            checked += 1
        assert checked == 20

    def test_affine_param_grad_outer_product(self):
        spec = NetSpec(3, (), 2)
        net = net_init(spec, 5)
        x = np.array([1.0, 2.0, 3.0])
        up = np.array([0.5, -1.5])
        pg, ig = _grad(net, x[None, :], up[None, :])
        ig = ig[0]
        assert np.array_equal(pg[:6].reshape(2, 3), np.outer(up, x))
        assert np.array_equal(pg[6:], up)
        assert np.allclose(ig, nets._unpack(net)[0][0].T @ up)

    def test_zero_upstream(self):
        net = net_init(NetSpec(3, (5,), 2), 1)
        pg, ig = _grad(net, np.ones((1, 3)), np.zeros((1, 2)))
        ig = ig[0]
        assert np.array_equal(pg, np.zeros_like(net.params))
        assert np.array_equal(ig, np.zeros(3))

    def test_batched_grad_matches_row_sum(self):
        spec = NetSpec(4, (8,), 3, activation="silu")
        net = net_init(spec, 2)
        X = Rng(3).normal((6, 4))
        U = Rng(4).normal((6, 3))
        pg, ig = _grad(net, X, U)
        pg_rows = sum(_grad(net, X[i:i + 1], U[i:i + 1])[0] for i in range(6))
        assert np.max(np.abs(pg - pg_rows)) < 1e-12
        for i in range(6):
            assert np.allclose(ig[i], _grad(net, X[i:i + 1], U[i:i + 1])[1][0])


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

    def test_state_without_moments_is_refused_untouched(self):
        net = net_init(NetSpec(2, (3,), 1), 0)
        before = net.params.copy()
        state = AdamState()
        with pytest.raises(ValueError, match=r"AdamState\.for_net"):
            adam_step(state, net, np.ones_like(before))
        assert state.step == 0 and state.m is None and state.v is None
        assert np.array_equal(net.params, before)


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
            fx, fy = forward_batch(net, x[None, :])[0], forward_batch(net, y[None, :])[0]
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


def _one_time_input(spec, t, X):
    """The one-time input as the velocity module built it by hand (reference)."""
    tf = time_features(t, spec.time_features, spec.fourier_k)
    if tf.shape[0] == 1 and X.shape[0] > 1:
        tf = np.broadcast_to(tf, (X.shape[0], tf.shape[1]))
    return np.concatenate([tf, X], axis=1)


def _two_time_input(spec, t, s, X):
    """The two-time input as the generator module built it from (m,) times (reference)."""
    ft = time_features(t, spec.time_features, spec.fourier_k)
    fs = time_features(s, spec.time_features, spec.fourier_k)
    return np.concatenate([ft, fs, X], axis=1)


@pytest.mark.parametrize("kind", ["raw", "fourier"])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
def test_net_input_has_the_bits_of_the_hand_built_inputs(kind, per_row):
    spec = NetSpec(1, (4,), 3, time_features=kind, fourier_k=3)
    X = Rng(4).normal((5, 3))
    t, s = (Rng(5).uniform(5), Rng(6).uniform(5)) if per_row else (0.3, 0.7)
    one = net_input(spec, (t,), X)
    assert one.tobytes() == _one_time_input(spec, t, X).tobytes()
    t_rows, s_rows = np.broadcast_to(t, (5,)), np.broadcast_to(s, (5,))
    two = net_input(spec, (t, s), X)
    assert two.tobytes() == _two_time_input(spec, t_rows, s_rows, X).tobytes()
    f = 1 if kind == "raw" else 6
    assert one.shape == (5, f + 3) and two.shape == (5, 2 * f + 3)


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


def length_offset(raw):
    """Offset of a frame's 8-byte header length: after the magic and provenance lines."""
    return raw.index(b"\n", raw.index(b"\n") + 1) + 1


def reframed(raw, edit):
    """The frame ``raw`` with its JSON header replaced by ``edit(header)``, length rewritten."""
    at = length_offset(raw)
    end = at + 8 + int.from_bytes(raw[at:at + 8], "little")
    blob = json.dumps(edit(json.loads(raw[at + 8:end]))).encode()
    return raw[:at] + len(blob).to_bytes(8, "little") + blob + raw[end:]


def flipped(raw, bit):
    """``raw`` with bit ``bit`` (counted from the first byte's low bit) inverted."""
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.mark.parametrize("kind", ["checkpoint", "trajectories"])
@pytest.mark.parametrize("damage", ["cut-3-bytes", "cut-16-bytes", "header-only", "8-extra-bytes",
                                    "json-cut", "length-bit-62", "length-bit-63", "json-list"])
def test_damaged_frame_error_names_the_file(tmp_path, kind, damage):
    path = tmp_path / "framed.bin"
    load, floats = _framed_file(kind, path)
    raw = path.read_bytes()
    body_start = len(raw) - 8 * floats
    length_bit = 8 * length_offset(raw)
    damaged = {"cut-3-bytes": raw[:-3], "cut-16-bytes": raw[:-16], "header-only": raw[:body_start],
               "8-extra-bytes": raw + bytes(8), "json-cut": raw[:body_start - 5],
               "length-bit-62": flipped(raw, length_bit + 62),
               "length-bit-63": flipped(raw, length_bit + 63),
               "json-list": reframed(raw, lambda header: [header])}[damage]
    path.write_bytes(damaged)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(path) in str(info.value)
    found = (len(damaged) - body_start) / 8
    expected = {"json-cut": "unreadable", "json-list": "not a JSON object",
                "length-bit-62": "bytes left in the file", "length-bit-63": "bytes left in the file"}
    assert expected.get(damage, f"promises {floats} float64 values, found {found:.10g}") in str(info.value)


def test_checkpoint_without_extra_is_refused(tmp_path):
    path = tmp_path / "net.ckpt"
    save_net(path, net_init(NetSpec(3, (5,), 2), 1))
    path.write_bytes(reframed(path.read_bytes(),
                              lambda header: {k: v for k, v in header.items() if k != "extra"}))
    with pytest.raises(ValueError, match="no extra object") as info:
        load_net(path)
    assert str(path) in str(info.value)


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
    pg, ig = grad_batch(net, X, upstream, cache)
    assert pg.tobytes() == ref_pg.tobytes()
    assert ig.tobytes() == ref_ig.tobytes()


def test_forward_leaves_its_input_untouched():
    spec = NetSpec(2, (4, 4), 2, activation="silu")
    X = Rng(1).normal((5, 2))
    before = X.copy()
    forward_batch(net_init(spec, 0), X)
    assert np.array_equal(X, before)


# forward_batch / grad_batch / adam_step / ema_update as they were before the
# buffer pool: every intermediate a fresh array, the gradient concatenated
def _alloc_forward(net, X):
    layers = nets._unpack(net)
    silu = net.spec.activation == "silu"
    h = X
    pre, post, sigs = [], [X], []
    for w, b in layers[:-1]:
        z = h @ w.T
        z += b
        sig = 1.0 / (1.0 + np.exp(-z)) if silu else None
        h = z * sig if silu else np.maximum(z, 0.0)
        pre.append(z)
        post.append(h)
        sigs.append(sig)
    w, b = layers[-1]
    out = h @ w.T
    out += b
    return out, (pre, post, sigs)


def _alloc_grad(net, X, upstream):
    layers = nets._unpack(net)
    _, (pre, post, sigs) = _alloc_forward(net, X)
    grads = [None] * len(layers)
    delta = upstream
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        grads[i] = (delta.T @ post[i], delta.sum(axis=0))
        delta = delta @ w
        if i > 0:
            z, sig = pre[i - 1], sigs[i - 1]
            act = (z > 0.0).astype(np.float64) if sig is None else sig * (1.0 + z * (1.0 - sig))
            delta = delta * act
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads]), delta


def _alloc_adam(state, params, grad):
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    mhat = state.m / (1.0 - state.beta1**state.step)
    vhat = state.v / (1.0 - state.beta2**state.step)
    return params - state.lr * mhat / (np.sqrt(vhat) + state.eps)


def _alloc_ema(ema_params, live_params, rate):
    return ema_params * rate + (1.0 - rate) * live_params


# (16, 2): a hidden width equal to the output width, so a pooled output would be reused
POOL_LAYOUTS = [(), (7,), (16, 2), (64, 64), (64, 32, 64)]


def _noisy_net(hidden, activation):
    spec = NetSpec(3, hidden, 2, activation=activation)
    net = net_init(spec, 4)
    net.params += 0.3 * Rng(5).normal((spec.param_count,))   # nonzero biases
    return net


@pytest.mark.parametrize("scoped", [True, False], ids=["in-pool", "no-pool"])
@pytest.mark.parametrize("activation", ["relu", "silu"])
@pytest.mark.parametrize("hidden", POOL_LAYOUTS)
def test_pooled_passes_bitwise_equal_the_allocating_reference(hidden, activation, scoped):
    net = _noisy_net(hidden, activation)
    results = []
    with buffer_pool() if scoped else contextlib.nullcontext():
        # the repeats recycle the first call's buffers; 5 and 64 rows change every shape
        for call, m in enumerate((37, 37, 5, 37, 64, 5)):
            X = 3.0 * Rng(10 + call).normal((m, 3))
            upstream = Rng(30 + call).normal((m, 2))
            ref_out, _ = _alloc_forward(net, X)
            ref_pg, ref_ig = _alloc_grad(net, X, upstream)
            out, cache = forward_batch(net, X, want_cache=True)
            # the second cache is built while the first one's work arrays are in use
            got = [forward_batch(net, X), out, *_grad(net, X, upstream),
                   *grad_batch(net, X, upstream, cache)]
            want = [ref_out, ref_out, ref_pg, ref_ig, ref_pg, ref_ig]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            results.append((got, want))
    # no returned array is a pool buffer that a later call overwrote
    for got, want in results:
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert nets._POOL.get() is None


@pytest.mark.parametrize("scoped", [True, False], ids=["in-pool", "no-pool"])
def test_adam_and_ema_update_in_place_with_the_reference_bits(scoped):
    live, ema = _noisy_net((16, 8), "silu"), _noisy_net((16, 8), "silu")
    ema.params *= 0.5
    state = AdamState(lr=3e-3).for_net(live)
    ref = AdamState(lr=3e-3).for_net(live)
    ref_params, ref_ema = live.params.copy(), ema.params.copy()
    m_array = state.m
    with buffer_pool() if scoped else contextlib.nullcontext():
        for k in range(25):
            grad = Rng(40 + k).normal(live.params.shape) * (10.0 if k % 7 == 0 else 1.0)
            adam_step(state, live, grad)
            ema_update(ema, live, 0.9)
            ref_params = _alloc_adam(ref, ref_params, grad)
            ref_ema = _alloc_ema(ref_ema, ref_params, 0.9)
            assert live.params.tobytes() == ref_params.tobytes()
            assert ema.params.tobytes() == ref_ema.tobytes()
            assert state.m.tobytes() == ref.m.tobytes() and state.v.tobytes() == ref.v.tobytes()
    assert state.m is m_array   # the moments are updated in place


def test_a_spent_cache_is_refused_inside_and_outside_a_pool():
    net = _noisy_net((8, 8), "silu")
    X, upstream = Rng(1).normal((6, 3)), Rng(2).normal((6, 2))
    with buffer_pool():
        _, cache = forward_batch(net, X, want_cache=True)
        first = grad_batch(net, X, upstream, cache)
        with pytest.raises(ValueError, match="already spent"):
            grad_batch(net, X, upstream, cache)
        with buffer_pool():   # a nested block shares the outer pool
            assert nets._POOL.get() is not None
    assert nets._POOL.get() is None
    _, cache = forward_batch(net, X, want_cache=True)
    again = grad_batch(net, X, upstream, cache)
    assert [a.tobytes() for a in again] == [f.tobytes() for f in first]
    with pytest.raises(ValueError, match="already spent"):
        grad_batch(net, X, upstream, cache)


# (m, width) work arrays a fresh pool holds after one cached forward pass and its
# backward pass on two hidden layers of that width.  ReLU: each layer's activation,
# written over its pre-activation, plus two backward arrays.  SiLU: the activation
# and the derivative per layer, the sigmoid's array (reused) and one more backward array.
@pytest.mark.parametrize("activation, arrays", [("relu", 4), ("silu", 6)])
def test_cached_pass_pools_only_what_the_backward_pass_reads(activation, arrays):
    net = _noisy_net((16, 16), activation)   # input 3 and output 2: only hidden layers are 16 wide
    X, upstream = Rng(1).normal((9, 3)), Rng(2).normal((9, 2))
    with buffer_pool():
        _, cache = forward_batch(net, X, want_cache=True)
        grad_batch(net, X, upstream, cache)
        pooled = [a.shape for free in nets._POOL.get().values() for a in free]
    assert pooled == [(9, 16)] * arrays


# (input_dim, hidden, output_dim, activation) of the shipped configs' generators:
# Swiss roll, the 1-D two-atom mixture and the 16-D manifold mixture
SHIPPED_SHAPES = [(4, (64, 64), 2, "silu"), (3, (64, 64), 1, "relu"), (18, (128, 128), 16, "silu")]
SHIPPED_IDS = ["silu-4-64-64-2", "relu-3-64-64-1", "silu-18-128-128-16"]


def _shipped_net(shape):
    input_dim, hidden, output_dim, activation = shape
    spec = NetSpec(input_dim, hidden, output_dim, activation=activation)
    net = net_init(spec, 4)
    net.params += 0.3 * Rng(5).normal((spec.param_count,))   # nonzero biases
    return net


def _rows_in(shape, m):
    return 3.0 * Rng(6).normal((m, shape[0]))


@pytest.mark.parametrize("shape", SHIPPED_SHAPES, ids=SHIPPED_IDS)
def test_tiled_forward_equals_one_untiled_pass(shape):
    net, X = _shipped_net(shape), _rows_in(shape, 4 * TILE_ROWS)
    assert forward_batch(net, X).tobytes() == _alloc_forward(net, X)[0].tobytes()


@pytest.mark.parametrize("shape", SHIPPED_SHAPES, ids=SHIPPED_IDS)
def test_each_tile_equals_the_forward_pass_of_its_slice(shape):
    net, X = _shipped_net(shape), _rows_in(shape, 3 * TILE_ROWS + 5)
    out = forward_batch(net, X)
    assert out.shape == (X.shape[0], net.spec.output_dim)
    for i in range(0, X.shape[0], TILE_ROWS):
        alone = forward_batch(net, X[i:i + TILE_ROWS])
        assert out[i:i + TILE_ROWS].tobytes() == alone.tobytes()


@pytest.mark.parametrize("shape", SHIPPED_SHAPES, ids=SHIPPED_IDS)
def test_tiled_forward_pools_only_tile_sized_work_arrays(shape):
    net, X = _shipped_net(shape), _rows_in(shape, 4 * TILE_ROWS)
    with buffer_pool():
        forward_batch(net, X)
        pooled = [a.shape for free in nets._POOL.get().values() for a in free]
    assert pooled and max(rows for rows, _ in pooled) <= TILE_ROWS, pooled
