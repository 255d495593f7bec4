"""Minimal fully-connected network with explicit reverse-mode gradients.

The network is a plain MLP in double precision, stored as one flat parameter
vector so optimizers and checkpoints stay trivial.  Parameter layout is
layer-major: for each layer, the weight matrix W (out, in) in row-major
order, followed by the bias (out,).  Gradients are computed by hand-rolled
backprop; ``grad_batch`` returns both the parameter gradient of
``sum_i <upstream_i, f(x_i)>`` and the per-row input gradients, which is all
the vector-Jacobian machinery the training losses need.  The forward cache
(``forward_batch(..., want_cache=True)``) holds each hidden layer's
pre-activation, activation and, for SiLU, the sigmoid, which ``grad_batch``
reuses instead of recomputing it; without a cache the forward pass adds the
bias and applies the activation in place.  Both paths give the same bits as
``z = h @ W.T + b`` followed by ``z * (1 / (1 + exp(-z)))`` or ``max(z, 0)``.

Time conditioning is the caller's job: ``time_features`` embeds scalar times
either raw or as Fourier pairs [sin(2*pi*k*t), cos(2*pi*k*t)], k = 1..K, and
the velocity / generator modules concatenate those features with the state
before calling ``forward``.

Checkpoints and trajectory files share one binary frame (``write_frame`` /
``read_frame``): magic, provenance line, length-prefixed JSON header (here
the spec plus caller extras), then a little-endian float64 body (here the
parameters).  Checkpoints round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .rng import Rng

__all__ = [
    "NetSpec",
    "Net",
    "AdamState",
    "time_features",
    "time_feature_dim",
    "net_init",
    "net_forward",
    "forward_batch",
    "net_grad",
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


def _unpack(net: Net):
    dims = net.spec.layer_dims
    layers = []
    off = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = net.params[off : off + fan_in * fan_out].reshape(fan_out, fan_in)
        off += fan_in * fan_out
        b = net.params[off : off + fan_out]
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


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)) with one exp, written into ``out`` (a new array by default)."""
    s = np.negative(z, out=out)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _act_grad(z, sig):
    """Activation derivative at z; sig is the cached sigmoid (None for ReLU)."""
    if sig is None:
        return (z > 0.0).astype(np.float64)
    return sig * (1.0 + z * (1.0 - sig))


def forward_batch(net: Net, X: np.ndarray, want_cache: bool = False):
    """MLP forward pass on rows of X (m, input_dim).

    With ``want_cache`` also returns ``(pre, post, sigs)`` for ``grad_batch``:
    per hidden layer the pre-activation, the activation (post[0] is X) and
    the SiLU sigmoid (None for ReLU).  Without it the bias and activation
    are applied in place, so each layer allocates only its matmul output.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.spec.input_dim:
        raise ValueError(f"input shape {X.shape} does not match input_dim {net.spec.input_dim}")
    layers = _unpack(net)
    silu = net.spec.activation == "silu"
    h = X
    pre, post, sigs = [], [X], []
    buf = None
    for w, b in layers[:-1]:
        z = h @ w.T
        z += b
        if want_cache:
            sig = _sigmoid(z) if silu else None
            h = z * sig if silu else np.maximum(z, 0.0)
            pre.append(z)
            post.append(h)
            sigs.append(sig)
        elif silu:
            if buf is None or buf.shape != z.shape:
                buf = np.empty_like(z)
            h = np.multiply(z, _sigmoid(z, out=buf), out=z)
        else:
            h = np.maximum(z, 0.0, out=z)
    w, b = layers[-1]
    out = h @ w.T
    out += b
    if want_cache:
        return out, (pre, post, sigs)
    return out


def net_forward(net: Net, x: np.ndarray) -> np.ndarray:
    """Forward pass on one input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("net_forward expects a single input vector")
    return forward_batch(net, x[None, :])[0]


def grad_batch(net: Net, X: np.ndarray, upstream: np.ndarray, cache=None):
    """Reverse-mode gradients of sum_i <upstream_i, f(X_i)>.

    Returns ``(param_grad, input_grads)`` where param_grad is the flat
    gradient summed over the batch (fixed accumulation order: one matmul per
    layer) and input_grads has one row per input.  Pass the cache from
    ``forward_batch(..., want_cache=True)`` to skip the re-forward.
    """
    X = np.asarray(X, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (X.shape[0], net.spec.output_dim):
        raise ValueError(f"upstream shape {upstream.shape} does not match output_dim")
    layers = _unpack(net)
    if cache is None:
        _, cache = forward_batch(net, X, want_cache=True)
    pre, post, sigs = cache

    grads = [None] * len(layers)
    delta = upstream
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw = delta.T @ post[i]
        gb = delta.sum(axis=0)
        grads[i] = (gw, gb)
        delta = delta @ w
        if i > 0:
            delta = delta * _act_grad(pre[i - 1], sigs[i - 1])
    param_grad = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return param_grad, delta


def net_grad(net: Net, x: np.ndarray, upstream: np.ndarray):
    """Gradients of <upstream, f(x)> w.r.t. params and the input vector."""
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (net.spec.output_dim,):
        raise ValueError("upstream length must equal output_dim")
    pg, ig = grad_batch(net, x[None, :], upstream[None, :])
    return pg, ig[0]


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
    """One Adam update with bias correction; mutates state and net in place."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != net.params.shape:
        raise ValueError("gradient length must match parameter count")
    if not np.all(np.isfinite(grad)):
        raise RuntimeError("non-finite gradient entries; training aborted")
    if state.m is None:
        state.for_net(net)
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    mhat = state.m / (1.0 - state.beta1**state.step)
    vhat = state.v / (1.0 - state.beta2**state.step)
    net.params -= state.lr * mhat / (np.sqrt(vhat) + state.eps)
    return state, net


def ema_update(ema: Net, live: Net, rate: float) -> Net:
    """ema <- rate * ema + (1 - rate) * live, elementwise on parameters."""
    if ema.spec != live.spec:
        raise ValueError("ema and live nets must share a spec")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    ema.params *= rate
    ema.params += (1.0 - rate) * live.params
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
    """Binary frame: magic, provenance line, length-prefixed JSON header, <f8 body."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(f"# {provenance}\n".encode("utf-8"))
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(body.astype("<f8").tobytes())


def read_frame(path, magic: bytes, kind: str, body_count):
    """Read a frame written by write_frame; returns (header, flat float64 body).

    ``body_count(header)`` gives the number of float64 values the header
    promises; a header that cannot be read, or a body of any other length,
    raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise ValueError(f"{path} is not a charflow {kind}")
        fh.readline()  # provenance
        size = int.from_bytes(fh.read(8), "little")
        blob = fh.read(size)
        body = fh.read()
    try:
        header = json.loads(blob.decode("utf-8"))
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
    return Net(spec(header), params), header["extra"]
