"""Acceptance gate: one test per release criterion, each printing a verdict line.

Every criterion has one fixed protocol (target, seeds, budgets) so a green
run certifies the stated tolerances, not a lucky configuration.  The
closed-form criteria (01, 02, 03, 05, 07, 08) run the ``charflow verify``
checks, which hold their protocol themselves and take no arguments, so
``charflow verify`` passing certifies the same facts; their budgets and
report lines are kept here.  The training criteria are implemented here.
A budget bounds the process CPU time (``time.process_time``), which other
processes on a shared machine cannot stretch as they stretch wall time.
"""

import time

import numpy as np

from charflow import verify
from charflow.cgen import CgTrainConfig, StudentNet, multi_step, one_step, train_cg
from charflow.metrics import w2_exact
from charflow.net import NetSpec, net_init
from charflow.oracle import OracleContext, denoiser_exact, velocity_exact
from charflow.rng import Rng
from charflow.sampler import TimeGrid, push_samples
from charflow.schedule import Schedule
from charflow.target import atomic_mixture, sample_target, swiss_roll
from charflow.velocity import (TrainConfig, denoiser_loss, draw_batch, estimate_sigma_data,
                               make_denoiser, make_velocity, train, velocity_from_denoiser,
                               velocity_loss)

LINEAR = Schedule("linear")
FOLLMER = Schedule("follmer")


def _report(num, name, ok, detail, start, budget):
    """Print the verdict line; ``start`` is the criterion's ``time.process_time()`` at entry."""
    elapsed = time.process_time() - start
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{name}] {status}  {detail}  ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_01_oracle_identity_suite():
    start = time.process_time()
    res = verify.check_oracle_identities()
    _report(1, "oracle-identities", res.ok,
            f"max cross-identity deviation {res.values['worst']:.2e} "
            f"(tol 1e-10, 1000 probes x 3 families)",
            start, 5.0)


def test_02_euler_discretization_order():
    start = time.process_time()
    res = verify.check_euler_order()
    _report(2, "euler-order", res.ok,
            f"W2 endpoint error slope {res.values['slope']:.3f} (r2 {res.values['r2']:.5f}) "
            f"over K in 10..160",
            start, 10.0)


def test_03_exponential_integrator_superiority():
    start = time.process_time()
    res = verify.check_ei_beats_euler()
    rows = [f"K={K}:{ei:.2e}<={eu:.2e}" for K, ei, eu in res.values["rows"]]
    _report(3, "ei-beats-euler", res.ok,
            "linear ties within 1e-12, follmer strictly better at every K; " + " ".join(rows[:2]),
            start, 10.0)


def _velocity_oracle_rmse(field, ctx, n_probe=8192, seed=900, T=0.9):
    data = sample_target(ctx.spec, n_probe, seed=seed)
    probe = draw_batch(data, ctx.schedule, T, n_probe, seed=seed + 1)
    b_star = velocity_exact(ctx, probe.t, probe.xt)
    b_hat = field(probe.t, probe.xt)
    return float(np.sqrt(np.mean(np.sum((b_hat - b_star) ** 2, axis=1))))


def _velocity_training_errors(n, data_seed, iterations):
    """Oracle RMSE of ReLU 64x64 velocity fits on the two-atom target, training seeds 0, 1, 2."""
    ctx = OracleContext(atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.25), LINEAR)
    errs = []
    for seed in (0, 1, 2):
        data = sample_target(ctx.spec, n, seed=seed + data_seed)
        config = TrainConfig(schedule=LINEAR, net_spec=NetSpec(2, (64, 64), 1, activation="relu"),
                             stop_time=0.9, iterations=iterations, batch_size=512, lr=1e-3,
                             seed=seed, loss="velocity")
        net, _ = train(config, data)
        errs.append(_velocity_oracle_rmse(make_velocity(net), ctx))
    return errs


def test_04_velocity_training_vs_oracle():
    start = time.process_time()
    errs = _velocity_training_errors(16384, data_seed=200, iterations=5000)
    med = float(np.median(errs))
    _report(4, "velocity-training", med <= 0.1,
            f"median time-averaged L2 error {med:.4f} over seeds 0,1,2 (tol 0.1; errs {np.round(errs, 4)})",
            start, 120.0)


def test_05_gaussian_end_to_end_marginal():
    start = time.process_time()
    res = verify.check_gaussian_marginal()
    std, target, rel = res.values["std"], res.values["target"], res.values["rel"]
    _report(5, "gaussian-marginal", res.ok,
            f"per-coordinate std {np.round(std, 5)} vs {target:.5f} (worst rel {rel:.4f}, tol 3%)",
            start, 5.0)


def _swiss_roll_run(seed):
    T, K = 0.99, 100
    spec_target = swiss_roll()
    data = sample_target(spec_target, 4096, seed=seed * 100)
    holdout = sample_target(spec_target, 2048, seed=seed * 100 + 1)

    teacher_spec = NetSpec(3, (64, 64), 2, activation="silu")
    teacher_cfg = TrainConfig(schedule=FOLLMER, net_spec=teacher_spec, stop_time=T,
                              iterations=4000, batch_size=256, lr=1e-3, seed=seed * 100 + 2,
                              loss="denoiser")
    teacher_net, _ = train(teacher_cfg, data)
    sigma_data = estimate_sigma_data(data)
    denoiser = make_denoiser(teacher_net, FOLLMER, sigma_data)
    field = lambda t, X: velocity_from_denoiser(denoiser, FOLLMER, t, X)

    grid = TimeGrid(stop_time=T, steps=K)
    corpus = push_samples("euler", field, 2048, 2, grid, seed=seed * 100 + 3)
    euler_samples = corpus.endpoints()

    student_spec = NetSpec(4, (64, 64), 2, activation="silu")
    cg_cfg = CgTrainConfig(mode="regression", schedule=FOLLMER, net_spec=student_spec,
                           stop_time=T, iterations=3000, batch_size=128, lr=1e-3,
                           lambda_semigroup=0.1, pairs_per_particle=8,
                           triples_per_particle=4, seed=seed * 100 + 4,
                           sigma_data=sigma_data)
    student, _ = train_cg(cg_cfg, corpus=corpus)

    one = one_step(student, 2048, T, seed=seed * 100 + 5)
    multi = multi_step(student, np.array([0.0, T / 3, 2 * T / 3, T]), 2048, seed=seed * 100 + 5)
    return (w2_exact(one, holdout), w2_exact(euler_samples, holdout), w2_exact(multi, holdout))


def test_06_swiss_roll_one_step():
    start = time.process_time()
    results = np.array([_swiss_roll_run(seed) for seed in (1, 2, 3)])
    w2_one, w2_euler, w2_multi = np.median(results, axis=0)
    ok = (w2_one <= 1.5 * w2_euler) and (w2_multi <= w2_one + 0.02)
    _report(6, "swiss-roll-one-step", ok,
            f"median W2: one-step {w2_one:.4f} vs 1.5x euler-100 {1.5 * w2_euler:.4f}; "
            f"multi(4 nodes) {w2_multi:.4f} <= one-step + 0.02 "
            f"(per-seed rows {np.round(results, 4).tolist()})",
            start, 600.0)


def test_07_semigroup_exactness():
    start = time.process_time()
    res = verify.check_semigroup_exactness()
    _report(7, "semigroup-exactness", res.ok,
            "euler composition bit-exact={euler_exact}, g(t,t,x)=x exact={diag_exact}, "
            "lookup penalty={penalty}".format(**res.values),
            start, 1.0)


def test_08_manifold_decomposition():
    start = time.process_time()
    res = verify.check_manifold_decomposition()
    _report(8, "manifold-decomposition", res.ok,
            "max |tangential + normal - velocity| = {worst:.2e} over 1000 probes (tol 1e-8)"
            .format(**res.values),
            start, 5.0)


def test_09_gradient_correctness():
    from charflow.cgen import (global_loss, local_loss, make_teacher_flow, regression_loss,
                               sample_index_pairs, semigroup_penalty)

    start = time.process_time()
    rng = Rng(4242)
    target = atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.25)
    ctx = OracleContext(target, LINEAR)
    data = sample_target(target, 512, seed=500)
    worst = 0.0
    checked = 0

    def fd_check(params, loss_at, grad, h=1e-6):
        nonlocal worst, checked
        v = rng.normal(params.shape)
        v /= np.linalg.norm(v)
        saved = params.copy()
        params[:] = saved + h * v
        up = loss_at()
        params[:] = saved - h * v
        dn = loss_at()
        params[:] = saved
        fd = (up - dn) / (2 * h)
        an = float(grad @ v)
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-9)
        worst = max(worst, rel)
        checked += 1
        return rel

    for trial in range(4):
        hidden = (int(4 + 8 * rng.uniform()), int(4 + 8 * rng.uniform()))
        act = "silu" if rng.uniform() < 0.5 else "relu"
        batch = draw_batch(data, LINEAR, 0.9, 16, seed=600 + trial)

        net = net_init(NetSpec(2, hidden, 1, activation=act), trial)
        _, grad = velocity_loss(net, batch)
        fd_check(net.params, lambda: velocity_loss(net, batch)[0], grad)

        net2 = net_init(NetSpec(2, hidden, 1, activation=act), trial + 50)
        _, grad2 = denoiser_loss(net2, batch, 0.9, LINEAR)
        fd_check(net2.params, lambda: denoiser_loss(net2, batch, 0.9, LINEAR)[0], grad2)

        student = StudentNet(net_init(NetSpec(3, hidden, 1, activation=act), trial + 100),
                             LINEAR, 0.9, sigma_data=0.9)
        corpus = push_samples("euler", lambda t, X: velocity_exact(ctx, t, X), 8, 1,
                              TimeGrid(0.9, 10), seed=700 + trial)
        pairs = np.concatenate([rng.integers(8, (12,))[:, None],
                                sample_index_pairs(rng, 12, 10)], axis=1)
        _, grad3 = regression_loss(student, corpus, pairs)
        fd_check(student.net.params, lambda: regression_loss(student, corpus, pairs)[0], grad3)

        raw = rng.integers(10, (12, 3))
        raw.sort(axis=1)
        triples = np.concatenate([rng.integers(8, (12,))[:, None], raw], axis=1)
        _, grad4 = semigroup_penalty(student, corpus, triples)
        if grad4 is not None and np.linalg.norm(grad4) > 0:
            fd_check(student.net.params, lambda: semigroup_penalty(student, corpus, triples)[0], grad4)

        _, grad5 = local_loss(student, batch)
        fd_check(student.net.params, lambda: local_loss(student, batch)[0], grad5)

        offline = StudentNet(net_init(NetSpec(3, hidden, 1, activation=act), trial + 150),
                             LINEAR, 0.9, sigma_data=0.9)
        teacher = make_teacher_flow(lambda t, X: denoiser_exact(ctx, t, X), LINEAR, steps=2)
        u = batch.t + (0.9 - batch.t) * rng.uniform(16)
        s = u + (0.9 - u) * rng.uniform(16)
        _, grad6 = global_loss(student, offline, teacher, batch, u, s)
        fd_check(student.net.params, lambda: global_loss(student, offline, teacher, batch, u, s)[0],
                 grad6)

    _report(9, "gradient-correctness", worst <= 1e-4 and checked >= 20,
            f"{checked} loss-gradient checks, worst FD relative error {worst:.2e} (tol 1e-4)",
            start, 30.0)


def test_10_sample_size_monotonicity():
    start = time.process_time()
    medians = [float(np.median(_velocity_training_errors(n, data_seed=300, iterations=3000)))
               for n in (1024, 4096, 16384)]
    ok = medians[0] > medians[1] > medians[2]
    _report(10, "sample-size-monotonicity", ok,
            f"median oracle error by n: 1024 -> {medians[0]:.4f}, 4096 -> {medians[1]:.4f}, "
            f"16384 -> {medians[2]:.4f} (must strictly decrease)",
            start, 360.0)
