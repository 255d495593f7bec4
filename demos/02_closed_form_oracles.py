"""Closed-form oracles for Gaussian-smoothed atomic mixtures.

For mixture targets every quantity the learned pipeline approximates exists
in closed form: the denoiser (conditional mean of the data given a noisy
interpolant state), the probability-flow velocity, the score, and - through
high-accuracy RK4 integration - the flow map itself.  This script evaluates
them on a two-atom mixture, checks the algebraic identities tying them
together, and demonstrates the tangential/normal split of the velocity for
a target embedded in a higher-dimensional space.
"""

import numpy as np

from charflow.oracle import (OracleContext, denoiser_exact, flow_exact, manifold_decompose,
                             score_exact, velocity_exact)
from charflow.rng import Rng
from charflow.schedule import Schedule
from charflow.target import atomic_mixture, embed_target
from charflow.velocity import velocity_from_denoiser

sch = Schedule("linear")
spec = atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.25)
ctx = OracleContext(spec, sch)

print("== pointwise oracle values on the two-atom mixture (sigma = 0.25)")
for t, x in ((0.3, 0.5), (0.7, -0.4), (0.9, 0.1)):
    xv = np.array([[x]])
    print(f"  t={t:.1f} x={x:+.1f}:  D*={denoiser_exact(ctx, t, xv)[0, 0]:+.4f}  "
          f"b*={velocity_exact(ctx, t, xv)[0, 0]:+.4f}  s*={score_exact(ctx, t, xv)[0, 0]:+.4f}")

print("\n== cross identities (velocity from denoiser / from score)")
rng = Rng(0)
t = 0.01 + 0.97 * rng.uniform(2000)
x = 2.5 * rng.normal((2000, 1))
a, b, da, db = sch.coeffs(t)
b_star = velocity_exact(ctx, t, x)
via_d = velocity_from_denoiser(lambda tt, X: denoiser_exact(ctx, tt, X), sch, t, x)
via_s = (db / b)[:, None] * x + (a * a * (db / b - da / a))[:, None] * score_exact(ctx, t, x)
print(f"  max |b* - (denoiser route)| = {np.max(np.abs(b_star - via_d)):.2e}")
print(f"  max |b* - (score route)|    = {np.max(np.abs(b_star - via_s)):.2e}")

print("\n== reference flow map (RK4 with step halving)")
x0 = np.array([[1.5]])
mid = flow_exact(ctx, 0.0, 0.5, x0, tol=1e-11)
end_direct = flow_exact(ctx, 0.0, 0.95, x0, tol=1e-11)
end_hopped = flow_exact(ctx, 0.5, 0.95, mid, tol=1e-11)
print(f"  g*(0, 0.95, 1.5) = {end_direct[0, 0]:.8f}")
print(f"  semigroup gap |g*(0,.95) - g*(.5,.95) o g*(0,.5)| = "
      f"{abs(end_direct[0, 0] - end_hopped[0, 0]):.1e}")

print("\n== manifold decomposition (1-D mixture embedded in R^3)")
frame = np.linalg.qr(Rng(7).normal((3, 1)))[0]
emb_ctx = OracleContext(embed_target(spec, frame), sch)
t = 0.95 * Rng(1).uniform(500)
x3 = 2.0 * Rng(2).normal((500, 3))
tang, norm, gam = manifold_decompose(emb_ctx, t, x3)
gap = np.max(np.abs(tang + norm - velocity_exact(emb_ctx, t, x3)))
print(f"  tangential + normal reproduces the velocity to {gap:.2e}")
print(f"  normal part is the simple linear contraction gamma(t) (I - PP^T) x; gamma(0.5) = "
      f"{manifold_decompose(emb_ctx, 0.5, np.ones((1, 3)))[2][0]:+.4f}")
