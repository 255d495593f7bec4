"""Closed-form ground truth for smoothed atomic-mixture targets.

For a target ``mixture of atoms u_j convolved with N(0, sigma^2 I)`` and an
interpolant ``X_t = alpha X_0 + beta X_1`` with Gaussian prior, the law of
``X_1`` given ``X_t = x`` is available in closed form: it is a Gaussian
mixture whose atom posterior has log-weights

    log w_j - ||x - beta u_j||^2 / (2 (alpha^2 + sigma^2 beta^2)),

computed here with max-subtracted log-sum-exp (atom separations of a few
sigma already underflow naive exponentials).  Everything else follows:

* denoiser  E[X_1|X_t=x] = (a^2 E[U] + sigma^2 b x) / (a^2 + sigma^2 b^2)
* velocity  b*(t,x) = c_u(t) E[U_{t,x}] + gamma(t) x, with
  gamma = (a da + sigma^2 b db)/(a^2 + sigma^2 b^2) and
  c_u = a (a db - da b)/(a^2 + sigma^2 b^2)
* score     (beta * denoiser - x)/alpha^2
* conditional covariance
  (a^2/(a^2+s^2 b^2))^2 cov(U) + s^2 a^2/(a^2+s^2 b^2) I.

The reference flow map runs classical RK4 steps of the exact velocity
through ``sampler.integrate``, with Richardson step halving; it is the
ground truth against which every learned or discretized flow is measured.
``gaussian_factors`` is the closed form of Euler, EI and the exact flow on
the origin Gaussian target.

All evaluators take a batch ``x`` of shape (m, d) (any other shape raises
ValueError) and a scalar time or a per-row time array of shape (m,)
(``target.as_times``), and reads its coefficients and atom posterior from one
``_posterior`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import integrate
from .schedule import Schedule
from .target import TargetSpec, as_points, as_times, atomic_mixture

__all__ = [
    "OracleContext",
    "gamma_coefficient",
    "denoiser_exact",
    "velocity_exact",
    "score_exact",
    "conditional_cov_exact",
    "flow_exact",
    "gaussian_factors",
    "manifold_decompose",
]


@dataclass(frozen=True)
class OracleContext:
    """A mixture target paired with a schedule; no Swiss-roll closed form exists."""

    spec: TargetSpec
    schedule: Schedule

    def __post_init__(self):
        if self.spec.variant == "swiss_roll":
            raise ValueError("oracles require a mixture target")


def _posterior(ctx: OracleContext, t, x, allow_zero: bool = True):
    """One call's rows, coefficients (a, b, da, db), a^2 + sigma^2 b^2 and (m, J) atom posterior."""
    X = as_points(x, "x")
    t = as_times(t, X.shape[0])
    if np.any(t >= 1.0):
        raise ValueError("t must be strictly below 1")
    if not allow_zero and np.any(t <= 0.0):
        raise ValueError("t must be strictly above 0")
    a, b, da, db = ctx.schedule.coeffs(t)
    den = a * a + ctx.spec.sigma**2 * b * b
    diff = X[:, None, :] - b[:, None, None] * ctx.spec.atoms[None, :, :]
    logw = np.log(ctx.spec.weights)[None, :] - 0.5 * np.sum(diff * diff, axis=2) / den[:, None]
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return X, a, b, da, db, den, w / w.sum(axis=1, keepdims=True)


def gamma_coefficient(schedule: Schedule, sigma: float, t):
    """(a da + sigma^2 b db)/(a^2 + sigma^2 b^2): the linear-in-x velocity factor."""
    a, b, da, db = schedule.coeffs(t)
    return (a * da + sigma * sigma * b * db) / (a * a + sigma * sigma * b * b)


def _denoiser(ctx: OracleContext, post) -> np.ndarray:
    """E[X_1 | X_t = x] from one ``_posterior`` result."""
    X, a, b, _, _, den, w = post
    s2 = ctx.spec.sigma**2
    return (a * a / den)[:, None] * (w @ ctx.spec.atoms) + (s2 * b / den)[:, None] * X


def denoiser_exact(ctx: OracleContext, t, x) -> np.ndarray:
    """E[X_1 | X_t = x] for the mixture target."""
    return _denoiser(ctx, _posterior(ctx, t, x))


def velocity_exact(ctx: OracleContext, t, x) -> np.ndarray:
    """Probability-flow velocity, in the cancellation-free mixture form."""
    X, a, b, da, db, den, w = _posterior(ctx, t, x)
    s2 = ctx.spec.sigma**2
    c_u = a * (a * db - da * b) / den
    gam = (a * da + s2 * b * db) / den
    return c_u[:, None] * (w @ ctx.spec.atoms) + gam[:, None] * X


def score_exact(ctx: OracleContext, t, x) -> np.ndarray:
    """grad log rho_t(x) = (beta * E[X_1|X_t=x] - x)/alpha^2; singular at t = 0."""
    post = _posterior(ctx, t, x, allow_zero=False)
    X, a, b = post[:3]
    return (b[:, None] * _denoiser(ctx, post) - X) / (a * a)[:, None]


def conditional_cov_exact(ctx: OracleContext, t, x) -> np.ndarray:
    """cov(X_1 | X_t = x), one (d, d) matrix per input row."""
    _, a, _, _, _, den, w = _posterior(ctx, t, x)
    atoms = ctx.spec.atoms
    mean_u = w @ atoms
    second = np.einsum("mj,jp,jq->mpq", w, atoms, atoms)
    cov_u = second - np.einsum("mp,mq->mpq", mean_u, mean_u)
    ratio = (a * a / den)[:, None, None]
    gauss = (ctx.spec.sigma**2 * a * a / den)[:, None, None]
    eye = np.eye(ctx.spec.dim)[None, :, :]
    return ratio * ratio * cov_u + gauss * eye


def flow_exact(ctx: OracleContext, t: float, s: float, x, tol: float = 1e-10,
               max_doublings: int = 18) -> np.ndarray:
    """Reference flow map g*(t, s, x) by RK4 with Richardson step halving.

    Integrates dx/dtau = velocity_exact(tau, x) from t to s, doubling the
    step count until two successive refinements agree within tol in the
    max norm.  Raises if the budget of doublings is exhausted.
    """
    if not 0.0 <= t <= s <= 0.999:
        raise ValueError("flow_exact requires 0 <= t <= s <= 0.999")
    X = as_points(x, "x")
    if s == t:
        return X.copy()
    prev = _rk4(ctx, t, s, X, 8)
    steps = 16
    for _ in range(max_doublings):
        cur = _rk4(ctx, t, s, X, steps)
        if float(np.max(np.abs(cur - prev))) < tol:
            return cur
        prev = cur
        steps *= 2
    raise RuntimeError(f"flow_exact did not converge to tol={tol} within {steps // 2} steps")


def _rk4(ctx, t, s, X, steps):
    h = (s - t) / steps

    def step(tk, _, y):
        k1 = velocity_exact(ctx, tk, y)
        k2 = velocity_exact(ctx, tk + 0.5 * h, y + 0.5 * h * k1)
        k3 = velocity_exact(ctx, tk + 0.5 * h, y + 0.5 * h * k2)
        k4 = velocity_exact(ctx, tk + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return integrate(step, X, t + h * np.arange(steps + 1))


def gaussian_factors(schedule: Schedule, sigma: float, T: float, K: int):
    """Linear-map factors of K Euler / EI steps and the exact flow to T, origin Gaussian."""
    nodes = np.linspace(0.0, T, K + 1)
    f_euler = 1.0
    f_ei = 1.0
    for k in range(K):
        t, t1 = nodes[k], nodes[k + 1]
        a, b, da, db = schedule.coeffs(t)
        den = a * a + sigma * sigma * b * b
        gam = (a * da + sigma * sigma * b * db) / den
        f_euler *= 1.0 + (t1 - t) * gam
        phi, psi = schedule.ei_coeffs(t, t1)
        f_ei *= phi + psi * (sigma * sigma * b / den)
    a_T, b_T = schedule.alpha(T), schedule.beta(T)
    f_exact = float(np.sqrt(a_T**2 + sigma**2 * b_T**2))
    return float(f_euler), float(f_ei), f_exact


def manifold_decompose(ctx: OracleContext, t, x):
    """Split the velocity of an embedded target into tangential and normal parts.

    Returns ``(tangential, normal, gamma)``, shaped (m, d), (m, d) and (m,), with

        tangential = P b_low(t, P^T x)   (low-dim oracle on the pre-embedding mixture)
        normal     = gamma(t) (I - P P^T) x

    whose sum equals ``velocity_exact`` on the embedded target.
    """
    if ctx.spec.variant != "embedded" or ctx.spec.frame is None:
        raise ValueError("manifold_decompose requires an embedded target with a frame")
    P = ctx.spec.frame
    X = as_points(x, "x")
    t = as_times(t, X.shape[0])
    low_spec = atomic_mixture(ctx.spec.atoms @ P, sigma=ctx.spec.sigma, weights=ctx.spec.weights)
    low_ctx = OracleContext(low_spec, ctx.schedule)
    tangential = velocity_exact(low_ctx, t, X @ P) @ P.T
    gam = gamma_coefficient(ctx.schedule, ctx.spec.sigma, t)
    normal = gam[:, None] * (X - (X @ P) @ P.T)
    return tangential, normal, gam
