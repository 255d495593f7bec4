import numpy as np
import pytest

from charflow.rng import Rng, stream_normals


def test_same_seed_same_stream():
    a = Rng(123).normal((100,))
    b = Rng(123).normal((100,))
    assert np.array_equal(a, b)


def test_streams_differ():
    a = Rng(123, stream=0).uniform(64)
    b = Rng(123, stream=1).uniform(64)
    assert not np.array_equal(a, b)


def test_normal_is_box_muller_on_uniform_stream():
    # the gaussian stream is literally Box-Muller applied to the raw uniforms
    n = 10
    u = Rng(7).uniform(10)  # the same 10 uniforms normal() will consume
    u1, u2 = 1.0 - u[:5], u[5:]
    r = np.sqrt(-2.0 * np.log(u1))
    expected = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    assert np.array_equal(Rng(7).normal((n,)), expected)


def test_normal_moments():
    z = Rng(0).normal((200_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_integers_range_and_determinism():
    idx = Rng(5).integers(10, (1000,))
    assert idx.min() >= 0 and idx.max() <= 9
    assert np.array_equal(idx, Rng(5).integers(10, (1000,)))


def test_bad_args():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(0).integers(0, (1,))


@pytest.mark.parametrize("dim", [1, 2, 3, 16, 17])
def test_stream_normals_equal_the_per_stream_loop(dim):
    # the batched draw against the loop it replaced in push_samples
    m = 300
    loop = np.stack([Rng(41, stream=i).normal((dim,)) for i in range(m)])
    batched = stream_normals(41, m, dim)
    assert batched.shape == (m, dim)
    assert batched.tobytes() == loop.tobytes()


def test_stream_normals_bad_seed():
    with pytest.raises(ValueError):
        stream_normals(-1, 4, 2)
