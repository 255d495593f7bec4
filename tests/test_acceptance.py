"""Acceptance gate: one test per release criterion, each printing a verdict line.

Every criterion has one fixed protocol (target, seeds, budgets) so a green
run certifies the stated tolerances, not a lucky configuration.  The
closed-form and exactness criteria (01, 02, 03, 05, 07, 08, 09) run the
``charflow verify`` checks, which hold their protocol themselves and take no arguments, so
``charflow verify`` passing certifies the same facts; their budgets and
report lines are kept here.  The training criteria are implemented here.
A budget bounds the process CPU time (``time.process_time``), which other
processes on a shared machine cannot stretch as they stretch wall time.
"""

import time

import numpy as np

from charflow import verify
from charflow.cgen import CgTrainConfig, multi_step, one_step, train_cg
from charflow.metrics import w2_exact
from charflow.net import NetSpec
from charflow.oracle import OracleContext, velocity_exact
from charflow.sampler import TimeGrid, push_samples
from charflow.schedule import Schedule
from charflow.target import atomic_mixture, sample_target, swiss_roll
from charflow.velocity import (TrainConfig, draw_batch, estimate_sigma_data, make_denoiser,
                               make_velocity, train, velocity_from_denoiser)

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
    start = time.process_time()
    res = verify.check_gradients()
    _report(9, "gradient-correctness", res.ok, res.detail, start, 30.0)


def test_10_sample_size_monotonicity():
    start = time.process_time()
    medians = [float(np.median(_velocity_training_errors(n, data_seed=300, iterations=3000)))
               for n in (1024, 4096, 16384)]
    ok = medians[0] > medians[1] > medians[2]
    _report(10, "sample-size-monotonicity", ok,
            f"median oracle error by n: 1024 -> {medians[0]:.4f}, 4096 -> {medians[1]:.4f}, "
            f"16384 -> {medians[2]:.4f} (must strictly decrease)",
            start, 360.0)
