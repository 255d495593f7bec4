"""Interpolant schedules and their derived kernels.

Walks the two built-in coefficient schedules (linear: alpha = 1-t, beta = t;
follmer: alpha = sqrt(1-t^2), beta = t) through everything the rest of the
pipeline consumes: boundary/monotonicity validation, the exponential-
integrator kernels phi/psi with their semigroup identity, the unit-variance
denoiser scalings, and the kappa diagnostic that quantifies how fast the
time-regularity degenerates as the stop time approaches 1.

Writes demos/out/schedule_curves.csv with one row per (kind, t).
"""

import os

import numpy as np

from charflow.schedule import Schedule, denoiser_coeffs, validate_schedule

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

print("== validation of the interpolant conditions (grid of 101 points)")
for kind in ("linear", "follmer"):
    for clause, ok, worst in validate_schedule(Schedule(kind), 101):
        print(f"  {kind:8s} {clause:40s} {'ok' if ok else 'FAIL'} (worst {worst:+.2e})")

print("\n== exponential-integrator kernels")
for kind in ("linear", "follmer"):
    sch = Schedule(kind)
    phi, psi = sch.ei_coeffs(0.2, 0.7)
    prod = sch.ei_coeffs(0.2, 0.5)[0] * sch.ei_coeffs(0.5, 0.7)[0]
    print(f"  {kind:8s} phi(0.2,0.7)={phi:.6f} psi={psi:.6f} "
          f"| semigroup gap |phi(0.2,0.5)phi(0.5,0.7)-phi(0.2,0.7)| = {abs(prod - phi):.1e}")
print("  linear satisfies phi + psi = 1 identically:",
      np.max(np.abs(sum(Schedule('linear').ei_coeffs(np.linspace(0, 0.9, 100), 0.95)) - 1.0)))

print("\n== kappa diagnostic (blows up as T -> 1; motivates stopping early)")
for T in (0.5, 0.9, 0.99, 0.999):
    print(f"  T={T:6.3f}  linear kappa={Schedule('linear').kappa(T):12.1f}  "
          f"follmer kappa={Schedule('follmer').kappa(T):12.1f}")

path = os.path.join(OUT, "schedule_curves.csv")
with open(path, "w") as fh:
    fh.write("# charflow demo: schedule coefficient curves\n")
    fh.write("kind,t,alpha,beta,dalpha,dbeta,c_in,c_skip,c_out,omega\n")
    t = np.linspace(0.0, 0.99, 100)
    for kind in ("linear", "follmer"):
        sch = Schedule(kind)
        a, b, da, db = sch.coeffs(t)
        c_in, c_skip, c_out, _, omega = denoiser_coeffs(sch, t, 0.5)
        for row in zip(t, a, b, da, db, c_in, c_skip, c_out, omega):
            fh.write(kind + "," + ",".join(f"{v:.10g}" for v in row) + "\n")
print(f"\nwrote {path}")
