"""Release-gate verification: every fast closed-form and exactness check.

Each check returns a ``CheckResult`` with a pass flag, a one-line detail and
its raw values; ``run_all`` executes the whole battery.  The CLI ``verify``
command renders the table and exits nonzero if anything fails.  These are
the checks with closed-form or bit-exact answers.  Each runs one fixed
protocol (targets, seeds, sizes) and takes no arguments, so ``charflow
verify`` certifies exactly what acceptance criteria 01/02/03/05/07/08
certify: those criteria call the same checks and add only their time
budgets and report lines.  Training-quality criteria live in the acceptance
suite, where their multi-minute budgets belong.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import cgen, metrics, net as nets, sampler, velocity
from .oracle import (OracleContext, denoiser_exact, gaussian_factors, manifold_decompose,
                     score_exact, velocity_exact)
from .rng import Rng
from .schedule import Schedule, validate_schedule
from .target import as_times, atomic_mixture, embed_target

__all__ = ["CheckResult", "run_all", "trajectory_lookup"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    values: dict = dataclasses.field(default_factory=dict)


def check_schedule_conditions() -> CheckResult:
    worst = []
    for kind in ("linear", "follmer"):
        rows = validate_schedule(Schedule(kind), 101)
        worst.append((kind, all(ok for _, ok, _ in rows)))
    ok = all(flag for _, flag in worst)
    return CheckResult("schedule-conditions", ok, f"grid=101 {worst}")


def check_kernel_identities() -> CheckResult:
    errs = []
    for kind in ("linear", "follmer"):
        sch = Schedule(kind)
        ts = np.linspace(0.0, 0.9, 7)
        for t in ts:
            for u in ts[ts >= t]:
                for s in ts[ts >= u]:
                    p_tu, _ = sch.ei_coeffs(t, u)
                    p_us, _ = sch.ei_coeffs(u, s)
                    p_ts, _ = sch.ei_coeffs(t, s)
                    errs.append(abs(p_tu * p_us - p_ts))
        for t in (0.0, 0.25, 0.5, 0.75, 0.85):
            phi, psi = sch.ei_coeffs(t, t + 1e-6)
            if not (abs(psi) < 1e-5 and abs(phi - 1.0) < 1e-5):
                return CheckResult("kernel-identities", False, f"{kind} limit at t={t} failed")
        if kind == "linear":
            phi, psi = sch.ei_coeffs(np.linspace(0, 0.9, 50), 0.95)
            errs.append(float(np.max(np.abs(phi + psi - 1.0))))
        if not np.all(np.isfinite(sch.rate(np.linspace(0.0, 0.999, 200)))):
            return CheckResult("kernel-identities", False, f"{kind} rate not finite")
    worst = max(errs)
    return CheckResult("kernel-identities", worst < 1e-12, f"worst identity error {worst:.2e}")


def _families():
    """The (target, schedule) pairs the oracle identities are checked on."""
    lin, fol = Schedule("linear"), Schedule("follmer")
    two_1d = atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.25)
    three_2d = atomic_mixture(np.array([[0.1, 0.2], [0.8, 0.6], [0.4, 0.9]]), sigma=0.5,
                              weights=np.array([0.5, 0.3, 0.2]))
    frame = np.linalg.qr(Rng(7).normal((3, 1)))[0]
    emb = embed_target(atomic_mixture(np.array([[0.0], [1.0]]), sigma=0.4), frame)
    return [(two_1d, lin), (three_2d, fol), (emb, lin)]


def check_oracle_identities() -> CheckResult:
    """Velocity via the score and via velocity_from_denoiser vs velocity_exact."""
    rng, n_probe = Rng(1001), 1000
    families = _families()
    worst = 0.0
    for spec, sch in families:
        ctx = OracleContext(spec, sch)
        t = 0.01 + 0.98 * rng.uniform(n_probe)
        x = 3.0 * rng.normal((n_probe, spec.dim))
        a, b, da, db = sch.coeffs(t)
        b_star = velocity_exact(ctx, t, x)
        # velocity from score (conditional-mean identity, both closed form)
        via_score = (db / b)[:, None] * x + (a * a * (db / b - da / a))[:, None] * score_exact(ctx, t, x)
        via_den = velocity.velocity_from_denoiser(lambda tt, X: denoiser_exact(ctx, tt, X), sch, t, x)
        worst = max(worst, float(np.max(np.abs(via_score - b_star))),
                    float(np.max(np.abs(via_den - b_star))))
    return CheckResult("oracle-identities", worst < 1e-10,
                       f"max deviation {worst:.2e} over {n_probe} probes x {len(families)} families",
                       {"worst": worst})


def check_euler_order() -> CheckResult:
    sch = Schedule("linear")
    ks = [10, 20, 40, 80, 160]
    pts = []
    for K in ks:
        f_e, _, f_star = gaussian_factors(sch, 0.5, 0.9, K)
        err = metrics.w2_gaussian(np.zeros(2), f_e**2 * np.eye(2), np.zeros(2), f_star**2 * np.eye(2))
        pts.append((1.0 / K, err))
    slope, _, r2 = metrics.order_fit(pts)
    ok = 0.9 <= slope <= 1.1
    return CheckResult("euler-order", ok, f"slope {slope:.3f} (r2 {r2:.4f}) over K={ks}",
                       {"slope": slope, "r2": r2})


def check_ei_beats_euler() -> CheckResult:
    # For the linear schedule on the origin Gaussian the two step maps agree
    # exactly (the frozen-denoiser update reproduces Euler algebraically), so
    # the comparison carries a 1e-12 relative guard against float tie-breaks;
    # the follmer schedule separates the methods and is checked strictly.
    rows = []
    for K in [10, 20, 40, 80, 160]:
        f_e, f_i, f_star = gaussian_factors(Schedule("linear"), 0.5, 0.9, K)
        rows.append((K, abs(f_i - f_star), abs(f_e - f_star)))
    ok = all(ei <= eu * (1.0 + 1e-12) for _, ei, eu in rows)
    strict = []
    for K in [10, 20, 40, 80, 160]:
        f_e, f_i, f_star = gaussian_factors(Schedule("follmer"), 0.5, 0.9, K)
        strict.append(abs(f_i - f_star) < abs(f_e - f_star))
    ok = ok and all(strict)
    detail = "; ".join(f"K={k}: EI {ei:.2e} vs Euler {eu:.2e}" for k, ei, eu in rows[:3])
    return CheckResult("ei-beats-euler", ok, detail + "; follmer strictly better at every K",
                       {"rows": rows})


def check_gaussian_marginal() -> CheckResult:
    """8192 draws of N(0, 0.5^2 I) in 2-D pushed by 200 Euler steps to T = 0.99."""
    sch, T = Schedule("linear"), 0.99
    ctx = OracleContext(atomic_mixture(np.zeros((1, 2)), sigma=0.5), sch)
    ends = sampler.push_samples("euler", lambda t, X: velocity_exact(ctx, t, X), 8192, 2,
                                sampler.TimeGrid(stop_time=T, steps=200), seed=77,
                                keep_trajectories=False)
    std = np.std(ends, axis=0)
    target = np.sqrt(sch.alpha(T) ** 2 + 0.25 * sch.beta(T) ** 2)
    rel = float(np.max(np.abs(std - target) / target))
    return CheckResult("gaussian-marginal", rel < 0.03,
                       f"per-coordinate std within {rel * 100:.2f}% of {target:.5f}",
                       {"std": std, "target": float(target), "rel": rel})


def check_semigroup_exactness() -> CheckResult:
    ctx = OracleContext(atomic_mixture(np.zeros((1, 2)), sigma=0.5), Schedule("linear"))
    field = lambda t, X: velocity_exact(ctx, t, X)
    grid = sampler.TimeGrid(stop_time=0.9, steps=24)
    x0 = Rng(3).normal((8, 2))
    full = sampler.euler_flow(field, x0, grid)
    j = 10
    # restart from the stored intermediate state and finish on the same nodes
    resumed = full[j].copy()
    nodes = grid.nodes
    for k in range(j, 24):
        resumed = resumed + (nodes[k + 1] - nodes[k]) * field(nodes[k], resumed)
    bit_exact = np.array_equal(resumed, full[-1])

    student = cgen.StudentNet(
        net=nets.net_init(nets.NetSpec(4, (8,), 2), seed=1),
        schedule=Schedule("linear"), stop_time=0.9, sigma_data=1.0)
    x = Rng(4).normal((64, 2))
    diag_exact = all(np.array_equal(cgen.g_apply(student, t, t, x), x) for t in (0.0, 0.45, 0.9))

    batch = sampler.push_samples("euler", field, 6, 2, grid, seed=9)
    lookup = trajectory_lookup(batch)
    raw = Rng(5).integers(24, (60, 3))
    raw.sort(axis=1)
    triples = np.concatenate([Rng(6).integers(6, (60,))[:, None], raw], axis=1)
    pen, _ = cgen.semigroup_penalty(lookup, batch, triples)
    return CheckResult(
        "semigroup-exactness",
        bit_exact and diag_exact and pen == 0.0,
        f"euler bit-exact={bit_exact} g(t,t)=x exact={diag_exact} lookup penalty={pen}",
        {"euler_exact": bit_exact, "diag_exact": diag_exact, "penalty": pen},
    )


def trajectory_lookup(batch: sampler.TrajectoryBatch):
    """Adapter mapping (t_k, t_l, Z_k rows) to the stored Z_l rows."""
    nodes = batch.grid.nodes

    def lookup(t, s, X):
        t, s = as_times(t, X.shape[0], "t"), as_times(s, X.shape[0], "s")
        out = np.empty_like(X)
        for r in range(X.shape[0]):
            k = int(np.argmin(np.abs(nodes - t[r])))
            ell = int(np.argmin(np.abs(nodes - s[r])))
            hits = np.where(np.all(batch.states[:, k, :] == X[r], axis=1))[0]
            out[r] = batch.states[hits[0], ell, :]
        return out

    return lookup


def check_manifold_decomposition() -> CheckResult:
    rng, n_probe = Rng(1313), 1000
    frame = np.linalg.qr(rng.normal((3, 1)))[0]
    emb = embed_target(atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.5), frame)
    ctx = OracleContext(emb, Schedule("linear"))
    t = 0.99 * rng.uniform(n_probe)
    x = 2.0 * rng.normal((n_probe, 3))
    tangential, normal, _ = manifold_decompose(ctx, t, x)
    direct = velocity_exact(ctx, t, x)
    worst = float(np.max(np.abs(tangential + normal - direct)))
    return CheckResult("manifold-decomposition", worst < 1e-8, f"max deviation {worst:.2e}",
                       {"worst": worst})


def check_gradients() -> CheckResult:
    from .target import sample_target

    sch = Schedule("linear")
    data = sample_target(atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.25), 128, seed=21)
    spec = nets.NetSpec(2, (8, 8), 1, activation="silu")
    net = nets.net_init(spec, seed=2)
    batch = velocity.draw_batch(data, sch, 0.9, 32, seed=3)
    _, grad = velocity.velocity_loss(net, batch)
    rel = _fd_rel_error(lambda p: _loss_at(net, p, lambda n: velocity.velocity_loss(n, batch)[0]),
                        net.params, grad)
    return CheckResult("gradient-spot-check", rel < 1e-4, f"velocity-loss FD relative error {rel:.2e}")


def _loss_at(net, params, fn):
    saved = net.params.copy()
    net.params[:] = params
    try:
        return fn(net)
    finally:
        net.params[:] = saved


def _fd_rel_error(loss_fn, params, grad, n_dirs: int = 6, h: float = 1e-5):
    rng = Rng(17)
    worst = 0.0
    for _ in range(n_dirs):
        v = rng.normal(params.shape)
        v /= np.linalg.norm(v)
        up = loss_fn(params + h * v)
        dn = loss_fn(params - h * v)
        fd = (up - dn) / (2.0 * h)
        an = float(grad @ v)
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
    return worst


def check_w2_sanity() -> CheckResult:
    a = np.array([[0.0], [2.0]])
    b = np.array([[1.0], [3.0]])
    ok = abs(metrics.w2_exact(a, b) - 1.0) < 1e-12
    ok &= metrics.w2_exact(a, a) == 0.0
    ok &= abs(metrics.w2_gaussian([0.0], [[1.0]], [0.0], [[0.25]]) - 0.5) < 1e-12
    rng = Rng(23)
    x, y, z = (rng.normal((32, 2)) for _ in range(3))
    tri = metrics.w2_exact(x, z) <= metrics.w2_exact(x, y) + metrics.w2_exact(y, z) + 1e-10
    sym = abs(metrics.w2_exact(x, y) - metrics.w2_exact(y, x)) < 1e-12
    return CheckResult("w2-sanity", bool(ok and tri and sym), "axioms and closed forms")


ALL_CHECKS = [
    check_schedule_conditions,
    check_kernel_identities,
    check_oracle_identities,
    check_euler_order,
    check_ei_beats_euler,
    check_gaussian_marginal,
    check_semigroup_exactness,
    check_manifold_decomposition,
    check_gradients,
    check_w2_sanity,
]


def run_all():
    return [fn() for fn in ALL_CHECKS]
