"""Minimal fully-connected network with explicit reverse-mode gradients.

The network is a plain MLP in double precision, stored as one flat parameter
vector so optimizers and checkpoints stay trivial.  Parameter layout is
layer-major: for each layer, the weight matrix W (out, in) in row-major
order, followed by the bias (out,).  Gradients are computed by hand-rolled
backprop; ``grad_batch`` returns both the parameter gradient of
``sum_i <upstream_i, f(x_i)>`` and the per-row input gradients, which is all
the vector-Jacobian machinery the training losses need.  Each hidden layer
adds the bias and applies the activation in place, so the layer lives in
one work array.  The forward cache (``forward_batch(..., want_cache=True)``)
holds only what ``grad_batch`` reads: per hidden layer the activation h
and, for SiLU, the derivative sig * (1 + z * (1 - sig)), formed while the
sigmoid is at hand; the ReLU derivative is the mask h > 0.  With a cache
or without, the pass gives the same bits as ``z = h @ W.T + b`` followed by
``z * (1 / (1 + exp(-z)))`` or ``max(z, 0)``.

``net_input`` builds the input of every time-conditioned net: the features
of each time, then the state.  ``time_features`` embeds times either raw or
as Fourier pairs [sin(2*pi*k*t), cos(2*pi*k*t)], k = 1..K.  Inputs are row
batches (m, input_dim).

Checkpoints and trajectory files share one binary frame (``write_frame`` /
``read_frame``): magic, provenance line, length-prefixed JSON header (here
the spec plus caller extras), then a little-endian float64 body (here the
parameters).  Checkpoints round-trip bit-exactly.

Work arrays come from ``buffer_pool``.  Only the loops open a block: the
training loop ``velocity.fit`` and the sampling loop ``sampler.integrate``.
While a block is open, ``forward_batch``, ``grad_batch``, ``adam_step`` and
``ema_update`` take their (m, width) and parameter-sized work arrays from a
free list per shape and give them back when spent, so the loop stops
allocating after its first iteration; the free lists are dropped when the
outermost block closes and nothing is kept after it.  Outside a block each
work array is a fresh ``np.empty``.  The cache-free pass runs in
consecutive slices of ``TILE_ROWS`` rows, so its work arrays are
(min(m, TILE_ROWS), width) however many rows it is given.  No function
returns an array that belongs to the pool: outputs, parameter gradients and
input gradients are fresh arrays.  The exception is the forward cache,
which holds its work arrays until ``grad_batch`` spends it: a cache feeds
one backward pass, inside a block or outside, and passing a spent one
raises ValueError.  Pooled or not, every result has the same bits, because
the same operations run in the same order.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_open
from .rng import Rng
from .target import as_times_or_scalar

__all__ = [
    "NetSpec",
    "Net",
    "AdamState",
    "buffer_pool",
    "time_features",
    "time_feature_dim",
    "net_input",
    "net_init",
    "forward_batch",
    "grad_batch",
    "adam_step",
    "ema_update",
    "lipschitz_bound",
    "save_net",
    "load_net",
    "write_frame",
    "read_frame",
]

ACTIVATIONS = ("relu", "silu")
TIME_FEATURE_KINDS = ("raw", "fourier")

CHECKPOINT_MAGIC = b"CHARFLOW-NET-1\n"

# rows per slice of the cache-free forward pass: its work arrays stay (2048, width)
TILE_ROWS = 2048


@dataclass(frozen=True)
class NetSpec:
    input_dim: int
    hidden_dims: tuple
    output_dim: int
    activation: str = "relu"
    time_features: str = "raw"
    fourier_k: int = 4

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError("all layer dimensions must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.time_features not in TIME_FEATURE_KINDS:
            raise ValueError(f"unknown time feature kind {self.time_features!r}")
        if self.time_features == "fourier" and self.fourier_k < 1:
            raise ValueError("fourier_k must be >= 1")

    @property
    def layer_dims(self) -> tuple:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass
class Net:
    spec: NetSpec
    params: np.ndarray

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (self.spec.param_count,):
            raise ValueError(
                f"params length {self.params.shape} does not match spec ({self.spec.param_count},)"
            )

    def copy(self) -> "Net":
        return Net(self.spec, self.params.copy())


def time_feature_dim(kind: str, fourier_k: int = 4) -> int:
    return 1 if kind == "raw" else 2 * fourier_k


def time_features(t, kind: str, fourier_k: int = 4) -> np.ndarray:
    """Embed times (m,) as (m, f): raw -> t itself, fourier -> sin/cos pairs."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if kind == "raw":
        return t[:, None]
    if kind != "fourier":
        raise ValueError(f"unknown time feature kind {kind!r}")
    k = np.arange(1, fourier_k + 1)
    ang = 2.0 * np.pi * t[:, None] * k[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def net_input(spec: NetSpec, times, X: np.ndarray) -> np.ndarray:
    """[features of each time, X] for the m rows of X; a scalar time is embedded once."""
    m = X.shape[0]
    feats = [time_features(as_times_or_scalar(t, m), spec.time_features, spec.fourier_k)
             for t in times]
    return np.concatenate([f if f.shape[0] == m else np.broadcast_to(f, (m, f.shape[1]))
                           for f in feats] + [X], axis=1)


def _unpack(net: Net, flat: np.ndarray | None = None):
    """Per-layer (W, b) views of ``flat`` (the parameters by default) in the net's layout."""
    flat = net.params if flat is None else flat
    dims = net.spec.layer_dims
    layers = []
    off = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = flat[off : off + fan_in * fan_out].reshape(fan_out, fan_in)
        off += fan_in * fan_out
        b = flat[off : off + fan_out]
        off += fan_out
        layers.append((w, b))
    return layers


def net_init(spec: NetSpec, seed: int) -> Net:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = Rng(seed)
    dims = spec.layer_dims
    chunks = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = limit * (2.0 * rng.uniform((fan_out, fan_in)) - 1.0)
        chunks.append(w.ravel())
        chunks.append(np.zeros(fan_out))
    return Net(spec, np.concatenate(chunks))


# The open pool: shape -> list of free work arrays; None outside every block.
_POOL = contextvars.ContextVar("charflow_net_buffer_pool", default=None)


@contextlib.contextmanager
def buffer_pool():
    """Recycle the network's work arrays until the block ends (see the module docstring).

    A block opened inside another one shares the outer pool; the free lists
    go when the outermost block closes.
    """
    if _POOL.get() is not None:
        yield
        return
    token = _POOL.set({})
    try:
        yield
    finally:
        _POOL.reset(token)


def _take(pool, shape) -> np.ndarray:
    """An uninitialised float64 work array: a recycled one when the pool has it."""
    free = pool.get(shape) if pool is not None else None
    return free.pop() if free else np.empty(shape)


def _give(pool, *arrays):
    """Hand spent work arrays back to the pool (nothing happens without one)."""
    if pool is not None:
        for a in arrays:
            pool.setdefault(a.shape, []).append(a)


class _Cache:
    """Per hidden layer what ``grad_batch`` reads: the activation (post[0] is the input)
    and, for SiLU, the activation derivative (dacts[i] is None for ReLU)."""

    __slots__ = ("post", "dacts", "pool")

    def __init__(self, post, dacts, pool):
        self.post, self.dacts, self.pool = post, dacts, pool


def _sigmoid(z, out):
    """1 / (1 + exp(-z)) with one exp, written into ``out``."""
    s = np.negative(z, out=out)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _silu_grad(z, sig, out):
    """SiLU derivative sig * (1 + z * (1 - sig)) at z, each product and sum in that order."""
    np.subtract(1.0, sig, out=out)
    out *= z
    out += 1.0
    out *= sig
    return out


def forward_batch(net: Net, X: np.ndarray, want_cache: bool = False):
    """MLP forward pass on rows of X (m, input_dim); returns a fresh (m, output_dim) array.

    The bias and the activation are applied in place, so each hidden layer
    lives in one work array.  With ``want_cache`` also returns the cache
    ``grad_batch`` consumes: per hidden layer the activation and, for SiLU,
    the activation derivative, formed while the sigmoid is at hand.
    Without it the layers alternate between two work arrays of
    (min(m, TILE_ROWS), width): more than ``TILE_ROWS`` rows run slice by
    slice, each slice's output written into its rows of the result.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.spec.input_dim:
        raise ValueError(f"input shape {X.shape} does not match input_dim {net.spec.input_dim}")
    if not want_cache and X.shape[0] > TILE_ROWS:
        out = np.empty((X.shape[0], net.spec.output_dim))
        for i in range(0, X.shape[0], TILE_ROWS):
            out[i:i + TILE_ROWS] = forward_batch(net, X[i:i + TILE_ROWS])
        return out
    pool = _POOL.get()
    layers = _unpack(net)
    silu = net.spec.activation == "silu"
    h = X
    post, dacts = [X], []
    for w, b in layers[:-1]:
        z = np.matmul(h, w.T, out=_take(pool, (X.shape[0], w.shape[0])))
        z += b
        if not want_cache and h is not X:
            _give(pool, h)
        dact = None
        if silu:
            sig = _sigmoid(z, out=_take(pool, z.shape))
            if want_cache:
                dact = _silu_grad(z, sig, _take(pool, z.shape))
            h = np.multiply(z, sig, out=z)
            _give(pool, sig)
        else:
            h = np.maximum(z, 0.0, out=z)
        if want_cache:
            post.append(h)
            dacts.append(dact)
    w, b = layers[-1]
    out = h @ w.T
    out += b
    if want_cache:
        return out, _Cache(post, dacts, pool)
    if h is not X:
        _give(pool, h)
    return out


def grad_batch(net: Net, X: np.ndarray, upstream: np.ndarray, cache):
    """Reverse-mode gradients of sum_i <upstream_i, f(X_i)>.

    Returns ``(param_grad, input_grads)`` where param_grad is the flat
    gradient summed over the batch (fixed accumulation order: one matmul per
    layer, written straight into its slice of the flat vector) and
    input_grads has one row per input; both are fresh arrays.  ``cache`` is
    what ``forward_batch(net, X, want_cache=True)`` returned: it feeds this
    one backward pass, its arrays go back to the pool if one is open, and
    passing it again raises ValueError.  The ReLU derivative is the mask
    h > 0 of the cached activation h = max(z, 0), which is z > 0 for every
    float z (-0.0 and NaN included); multiplying by the boolean mask gives
    the bits of multiplying by 1.0 / 0.0.
    """
    X = np.asarray(X, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (X.shape[0], net.spec.output_dim):
        raise ValueError(f"upstream shape {upstream.shape} does not match output_dim")
    if cache.post is None:
        raise ValueError("this forward cache was already spent by grad_batch; "
                         "run forward_batch again")
    post, dacts, pool = cache.post, cache.dacts, cache.pool
    layers = _unpack(net)
    param_grad = np.empty(net.spec.param_count)
    grads = _unpack(net, param_grad)
    delta = upstream
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw, gb = grads[i]
        np.matmul(delta.T, post[i], out=gw)
        np.sum(delta, axis=0, out=gb)
        below = np.matmul(delta, w, out=_take(pool, (X.shape[0], w.shape[1])) if i > 0 else None)
        if delta is not upstream:
            _give(pool, delta)
        if i > 0:
            below *= post[i] > 0.0 if dacts[i - 1] is None else dacts[i - 1]
        delta = below
    _give(pool, *post[1:], *(d for d in dacts if d is not None))
    cache.post = cache.dacts = None
    return param_grad, delta


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0

    def for_net(self, net: Net) -> "AdamState":
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self.step = 0
        return self


def adam_step(state: AdamState, net: Net, grad: np.ndarray):
    """One Adam update with bias correction; mutates state (moments from ``for_net``) and net."""
    if state.m is None or state.v is None:
        raise ValueError("AdamState has no moments; call AdamState.for_net(net) first")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != net.params.shape:
        raise ValueError("gradient length must match parameter count")
    if not np.all(np.isfinite(grad)):
        raise RuntimeError("non-finite gradient entries; training aborted")
    state.step += 1
    # in place, as m <- b1 m + (1 - b1) g, v <- b2 v + ((1 - b2) g) g and
    # params <- params - (lr mhat) / (sqrt(vhat) + eps), operation for operation
    pool = _POOL.get()
    mhat, vhat = _take(pool, grad.shape), _take(pool, grad.shape)
    state.m *= state.beta1
    state.m += np.multiply(1.0 - state.beta1, grad, out=mhat)
    np.multiply(1.0 - state.beta2, grad, out=vhat)
    vhat *= grad
    state.v *= state.beta2
    state.v += vhat
    np.divide(state.m, 1.0 - state.beta1**state.step, out=mhat)
    np.divide(state.v, 1.0 - state.beta2**state.step, out=vhat)
    mhat *= state.lr
    np.sqrt(vhat, out=vhat)
    vhat += state.eps
    mhat /= vhat
    net.params -= mhat
    _give(pool, mhat, vhat)
    return state, net


def ema_update(ema: Net, live: Net, rate: float) -> Net:
    """ema <- rate * ema + (1 - rate) * live, elementwise on parameters."""
    if ema.spec != live.spec:
        raise ValueError("ema and live nets must share a spec")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    pool = _POOL.get()
    step = np.multiply(1.0 - rate, live.params, out=_take(pool, live.params.shape))
    ema.params *= rate
    ema.params += step
    _give(pool, step)
    return ema


def lipschitz_bound(net: Net, n_iter: int = 64, seed: int = 0) -> float:
    """Product of per-layer spectral norms, estimated by power iteration.

    For ReLU (1-Lipschitz) this bounds the input-output Lipschitz constant;
    SiLU contributes an extra 1.1 factor per hidden layer (its derivative
    peaks just below 1.1).  Monitored, never enforced.
    """
    rng = Rng(seed)
    prod = 1.0
    for w, _ in _unpack(net):
        v = rng.normal((w.shape[1],))
        v /= np.linalg.norm(v)
        for _ in range(n_iter):
            u = w @ v
            nu = np.linalg.norm(u)
            if nu == 0.0:
                break
            v = w.T @ (u / nu)
            v /= np.linalg.norm(v)
        prod *= float(np.linalg.norm(w @ v))
    if net.spec.activation == "silu":
        prod *= 1.1 ** len(net.spec.hidden_dims)
    return prod


def write_frame(path, magic: bytes, provenance: str, header: dict, body: np.ndarray):
    """Binary frame: magic, provenance line, length-prefixed JSON header, <f8 body.

    A body that is already C-contiguous little-endian float64 is written
    from its own memory, without a copy.
    """
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    body = np.ascontiguousarray(body, dtype="<f8")
    with atomic_open(path, "wb") as fh:
        fh.write(magic)
        fh.write(f"# {provenance}\n".encode("utf-8"))
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(body.data)


def read_frame(path, magic: bytes, kind: str, body_count):
    """Read a frame written by write_frame; returns (header, flat float64 body).

    ``body_count(header)`` gives the number of float64 values the header
    promises; a header length beyond the end of the file, a header that
    cannot be read or is not a JSON object, or a body of any other length,
    raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise ValueError(f"{path} is not a charflow {kind}")
        fh.readline()  # provenance
        size = int.from_bytes(fh.read(8), "little")
        here = fh.tell()
        left = fh.seek(0, 2) - here
        if size > left:
            raise ValueError(f"{path}: unreadable {kind} header (its length {size} exceeds the "
                             f"{left} bytes left in the file)")
        fh.seek(here)
        blob = fh.read(size)
        body = fh.read()
    try:
        header = json.loads(blob.decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"not a JSON object but a {type(header).__name__}")
        expected = body_count(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable {kind} header ({exc})") from exc
    if len(body) != 8 * expected:
        raise ValueError(f"{path}: {kind} header promises {expected} float64 values, "
                         f"found {len(body) / 8:.10g}")
    return header, np.frombuffer(body, dtype="<f8").copy()


def save_net(path, net: Net, extra: dict | None = None, provenance: str = "charflow"):
    """Binary checkpoint: the spec fields and extras as header, the params as body."""
    header = {**dataclasses.asdict(net.spec), "extra": extra or {}}
    write_frame(path, CHECKPOINT_MAGIC, provenance, header, net.params)


def load_net(path):
    """Read a checkpoint written by save_net; returns (net, extra)."""
    spec = lambda header: NetSpec(**{k: v for k, v in header.items() if k != "extra"})
    header, params = read_frame(path, CHECKPOINT_MAGIC, "net checkpoint",
                                lambda h: spec(h).param_count)
    if not isinstance(header.get("extra"), dict):
        raise ValueError(f"{path}: net checkpoint header has no extra object")
    return Net(spec(header), params), header["extra"]
