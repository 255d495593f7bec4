"""Interpolant coefficient schedules and derived kernels.

A schedule supplies the interpolant coefficients (alpha, beta) of
``X_t = alpha(t) X_0 + beta(t) X_1`` together with everything derived from
them in closed form:

* time derivatives ``dalpha``, ``dbeta``;
* the exponential-integrator kernels ``phi(t, s) = alpha(s)/alpha(t)`` and
  ``psi(t, s) = integral_t^s phi(tau, s) * rate(tau) dtau``, where
  ``rate(t) = beta(t) * (dbeta/beta - dalpha/alpha)(t)`` is the coefficient
  multiplying the denoiser in the semi-linear probability-flow ODE;
* the denoiser input/output scalings (c_in, c_skip, c_out, c_noise, omega)
  that normalize denoiser regression to unit-variance inputs and targets.

Two schedules are supported:

==========  ============  =========
kind        alpha(t)      beta(t)
==========  ============  =========
"linear"    1 - t         t
"follmer"   sqrt(1-t^2)   t
==========  ============  =========

The phi/psi integrals are hard-coded per kind (linear: phi = (1-s)/(1-t),
psi = 1 - phi; follmer: phi = sqrt((1-s^2)/(1-t^2)), psi = s - t*phi); the
test suite re-derives them by numeric quadrature.  All functions accept
scalars or numpy arrays and evaluate elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Schedule",
    "denoiser_coeffs",
    "validate_schedule",
]

KINDS = ("linear", "follmer")


def _check_time_range(t, lo=0.0, hi=1.0, name="t"):
    t = np.asarray(t, dtype=np.float64)
    if not (np.all(t >= lo) and np.all(t <= hi)):  # a NaN time fails here
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {t}")
    return t


@dataclass(frozen=True)
class Schedule:
    """A spatially linear interpolant schedule, selected by kind."""

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {KINDS}")

    # The closed forms below take a t that _check_time_range has already
    # validated; the public methods check it first, and coeffs checks it once
    # for all four.

    def _alpha(self, t):
        return 1.0 - t if self.kind == "linear" else np.sqrt(1.0 - t * t)

    def _dalpha(self, t):
        if self.kind == "linear":
            return np.full_like(t, -1.0)
        if np.any(t >= 1.0):
            raise ValueError("follmer dalpha is singular at t = 1")
        return -t / np.sqrt(1.0 - t * t)

    def alpha(self, t):
        return self._alpha(_check_time_range(t))

    def beta(self, t):
        t = _check_time_range(t)
        return t + 0.0

    def dalpha(self, t):
        return self._dalpha(_check_time_range(t))

    def dbeta(self, t):
        t = _check_time_range(t)
        return np.ones_like(t)

    def coeffs(self, t):
        """(alpha, beta, dalpha, dbeta) at time t."""
        t = _check_time_range(t)
        return self._alpha(t), t + 0.0, self._dalpha(t), np.ones_like(t)

    def dlog_alpha(self, t):
        """dalpha/alpha in closed form (finite on [0, 1))."""
        t = _check_time_range(t)
        if np.any(t >= 1.0):
            raise ValueError("dalpha/alpha is singular at t = 1")
        if self.kind == "linear":
            return -1.0 / (1.0 - t)
        return -t / (1.0 - t * t)

    def rate(self, t):
        """beta*(dbeta/beta - dalpha/alpha), pre-simplified to avoid 0/0 at t=0.

        linear: 1/(1-t); follmer: 1/(1-t^2).
        """
        t = _check_time_range(t)
        if np.any(t >= 1.0):
            raise ValueError("rate is singular at t = 1")
        if self.kind == "linear":
            return 1.0 / (1.0 - t)
        return 1.0 / (1.0 - t * t)

    def ei_coeffs(self, t, s):
        """Exponential-integrator kernels (phi, psi) for a step t -> s.

        Requires 0 <= t <= s < 1.
        """
        t = _check_time_range(t, name="t")
        s = _check_time_range(s, name="s")
        if np.any(s < t):
            raise ValueError("ei_coeffs requires t <= s")
        if np.any(s >= 1.0):
            raise ValueError("ei_coeffs is singular at s = 1")
        if self.kind == "linear":
            phi = (1.0 - s) / (1.0 - t)
            psi = 1.0 - phi
        else:
            phi = np.sqrt((1.0 - s * s) / (1.0 - t * t))
            psi = s - t * phi
        return phi, psi

    def kappa(self, T):
        """sup over [0, T] of dalpha^2/alpha^2 + |ddalpha|/alpha, in closed form.

        Diagnostic only: it scales the theory's time-derivative bound and
        diverges as T -> 1 (linear: 1/(1-T)^2; follmer: (1+T^2)/(1-T^2)^2).
        Both expressions are increasing in t, so the sup sits at T.
        """
        T = float(_check_time_range(T, name="T"))
        if T >= 1.0:
            raise ValueError("kappa diverges at T = 1")
        if self.kind == "linear":
            return 1.0 / (1.0 - T) ** 2
        return (1.0 + T * T) / (1.0 - T * T) ** 2


def denoiser_coeffs(schedule: Schedule, t, sigma_data: float):
    """Denoiser scalings (c_in, c_skip, c_out, c_noise, omega) at time t.

    Solves the four normalization requirements under the convention that X_0
    is the unit-variance prior and X_1 the data with per-coordinate std
    ``sigma_data``:

    * Var[c_in X_t] = 1           -> c_in   = 1/sqrt(a^2 + b^2 sd^2)
    * Var[(X_1 - c_skip X_t)/c_out] = 1 with c_skip minimizing c_out
                                   -> c_skip = b sd^2/(a^2 + b^2 sd^2),
                                      c_out  = a sd/sqrt(a^2 + b^2 sd^2)
    * uniform effective loss weight -> omega = 1/c_out^2
    * c_noise(t) = t (free choice, raw time).

    Singular at a = 0 (t = 1), where c_out vanishes.
    """
    if sigma_data <= 0:
        raise ValueError("sigma_data must be positive")
    t = _check_time_range(t)
    a, b = schedule._alpha(t), t + 0.0
    if np.any(a == 0.0):
        raise ValueError("denoiser coefficients are singular where alpha = 0 (t = 1)")
    sd2 = sigma_data * sigma_data
    var = a * a + b * b * sd2
    c_in = 1.0 / np.sqrt(var)
    c_skip = b * sd2 / var
    c_out = a * sigma_data / np.sqrt(var)
    omega = var / (a * a * sd2)
    c_noise = t + 0.0
    return c_in, c_skip, c_out, c_noise, omega


def validate_schedule(schedule: Schedule, grid_size: int) -> list:
    """Check the interpolant conditions on a uniform grid over [0, 1].

    Returns one (clause, ok, worst) row per condition: the boundary values
    (worst absolute error), alpha^2 + beta^2 > 0 (smallest value) and the
    monotonicity of alpha and beta (largest step against it).
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    t = np.linspace(0.0, 1.0, grid_size)
    a, b = schedule.alpha(t), schedule.beta(t)
    boundary = max(abs(float(a[0]) - 1.0), abs(float(b[-1]) - 1.0), abs(float(a[-1])),
                   abs(float(b[0])))
    positivity = float(np.min(a * a + b * b))
    monotone = max(float(np.max(np.diff(a), initial=-np.inf)),
                   float(np.max(-np.diff(b), initial=-np.inf)))
    return [
        ("alpha(0)=beta(1)=1, alpha(1)=beta(0)=0", boundary == 0.0, boundary),
        ("alpha^2+beta^2 > 0 on grid", positivity > 0.0, positivity),
        ("alpha decreasing, beta increasing", monotone < 0.0, monotone),
    ]
