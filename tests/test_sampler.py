import json

import numpy as np
import pytest

from charflow import net as nets
from charflow.oracle import OracleContext, denoiser_exact, flow_exact, velocity_exact
from charflow.rng import Rng
from charflow.rng import stream_normals
from charflow.sampler import (TRAJECTORY_MAGIC, NonFiniteState, TimeGrid, TrajectoryBatch,
                              _ei_step, euler_flow, integrate, load_trajectories, push_samples,
                              save_trajectories)
from charflow.schedule import Schedule
from charflow.target import atomic_mixture
from charflow.velocity import make_denoiser, make_velocity

LINEAR = Schedule("linear")
FOLLMER = Schedule("follmer")
GAUSS2 = atomic_mixture(np.zeros((1, 2)), sigma=0.5)


def _field(ctx):
    return lambda t, X: velocity_exact(ctx, t, X)


class TestTimeGrid:
    def test_nodes_exact_endpoints(self):
        grid = TimeGrid(stop_time=0.9, steps=10)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 0.9
        assert np.max(np.abs(np.diff(grid.nodes) - 0.9 / 10)) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(stop_time=0.9, steps=0)
        with pytest.raises(ValueError):
            TimeGrid(stop_time=1.0, steps=10)


class TestEulerFlow:
    def test_constant_field_exact(self):
        c = np.array([0.3, -0.7])
        for K in (1, 7, 64):
            grid = TimeGrid(stop_time=0.9, steps=K)
            traj = euler_flow(lambda t, X: np.broadcast_to(c, X.shape), np.zeros((1, 2)), grid)[:, 0, :]
            assert traj.shape == (K + 1, 2)
            assert np.max(np.abs(traj[-1] - 0.9 * c)) < 1e-12

    def test_first_order_error_halves(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        x0 = np.array([[1.3, -0.4]])
        exact = flow_exact(ctx, 0.0, 0.99, x0, tol=1e-12)
        errs = []
        for K in (100, 200, 400):
            end = euler_flow(_field(ctx), x0, TimeGrid(0.99, K))[-1]
            errs.append(np.linalg.norm(end - exact))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)

    def test_composition_bit_exact(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        grid = TimeGrid(0.9, 32)
        x0 = Rng(1).normal((3, 2))
        full = euler_flow(_field(ctx), x0, grid)
        resumed = full[12].copy()
        for k in range(12, 32):
            resumed = resumed + (grid.nodes[k + 1] - grid.nodes[k]) * _field(ctx)(grid.nodes[k], resumed)
        assert np.array_equal(resumed, full[-1])

    def test_non_finite_state_reports_step(self):
        def bad(t, X):
            return np.full_like(X, np.inf)

        with pytest.raises(RuntimeError, match="step 1"):
            euler_flow(bad, np.zeros((1, 2)), TimeGrid(0.9, 4))


class TestEiFlow:
    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    def test_frozen_denoiser_step_is_exact(self, schedule):
        # one EI step must match RK4 on dx/dt = dlog_alpha x + rate(t) c exactly
        c = np.array([0.4])
        t0, t1 = 0.2, 0.55

        def rhs(t, x):
            return schedule.dlog_alpha(t) * x + schedule.rate(t) * c

        x = np.array([1.7])
        steps = 4096
        h = (t1 - t0) / steps
        y = x.copy()
        for k in range(steps):
            tk = t0 + k * h
            k1 = rhs(tk, y)
            k2 = rhs(tk + h / 2, y + h / 2 * k1)
            k3 = rhs(tk + h / 2, y + h / 2 * k2)
            k4 = rhs(tk + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        phi, psi = schedule.ei_coeffs(t0, t1)
        assert np.max(np.abs((phi * x + psi * c) - y)) < 1e-8

    def test_single_step_t_to_t(self):
        assert LINEAR.ei_coeffs(0.3, 0.3) == (1.0, 0.0)
        assert FOLLMER.ei_coeffs(0.3, 0.3) == (1.0, 0.0)

    def test_ei_endpoint_error_not_worse_than_euler(self):
        # follmer separates the schemes strictly; linear ties them exactly
        spec = atomic_mixture(np.zeros((1, 1)), sigma=0.5)
        for schedule, strict in ((FOLLMER, True), (LINEAR, False)):
            ctx = OracleContext(spec, schedule)
            den = lambda t, X: denoiser_exact(ctx, t, X)
            vel = lambda t, X: velocity_exact(ctx, t, X)
            x0 = np.array([[1.0]])
            exact = flow_exact(ctx, 0.0, 0.9, x0, tol=1e-12)
            for K in (10, 40, 160):
                grid = TimeGrid(0.9, K)
                err_eu = np.linalg.norm(euler_flow(vel, x0, grid)[-1] - exact)
                err_ei = np.linalg.norm(integrate(_ei_step(den, schedule), x0, grid.nodes) - exact)
                if strict:
                    assert err_ei < err_eu
                else:
                    assert err_ei <= err_eu * (1 + 1e-12)


class TestPushSamples:
    def test_single_particle_matches_euler_flow(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        grid = TimeGrid(0.9, 16)
        batch = push_samples("euler", _field(ctx), 1, 2, grid, seed=3)
        x0 = Rng(3, stream=0).normal((2,))
        direct = euler_flow(_field(ctx), x0[None, :], grid)
        assert np.array_equal(batch.states[0], np.swapaxes(direct, 0, 1)[0])

    def test_deterministic(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        grid = TimeGrid(0.9, 8)
        a = push_samples("euler", _field(ctx), 5, 2, grid, seed=4)
        b = push_samples("euler", _field(ctx), 5, 2, grid, seed=4)
        assert np.array_equal(a.states, b.states)

    def test_ei_needs_schedule(self):
        with pytest.raises(ValueError):
            push_samples("ei", lambda t, X: X, 2, 1, TimeGrid(0.9, 4), seed=0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            push_samples("heun", lambda t, X: X, 2, 1, TimeGrid(0.9, 4), seed=0)


def test_trajectory_file_round_trip(tmp_path):
    ctx = OracleContext(GAUSS2, FOLLMER)
    den = lambda t, X: denoiser_exact(ctx, t, X)
    batch = push_samples("ei", den, 6, 2, TimeGrid(0.95, 12), seed=9, schedule=FOLLMER)
    path = tmp_path / "traj.bin"
    save_trajectories(path, batch, "follmer", provenance="charflow test")
    again, kind = load_trajectories(path)
    assert kind == "follmer"
    assert again.seed == 9
    assert again.grid == batch.grid
    assert np.array_equal(again.states, batch.states)
    with pytest.raises(ValueError):
        load_trajectories(__file__)


def test_trajectory_batch_validation():
    grid = TimeGrid(0.9, 4)
    with pytest.raises(ValueError):
        TrajectoryBatch(grid=grid, states=np.zeros((2, 3, 1)), seed=0)
    bad = np.zeros((2, 5, 1))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        TrajectoryBatch(grid=grid, states=bad, seed=0)


def _net_field(method, dim):
    """A small SiLU network as the Euler velocity or the EI denoiser of dimension dim."""
    spec = nets.NetSpec(1 + dim, (8, 8), dim, activation="silu")
    net = nets.net_init(spec, seed=dim)
    net.params *= 2.0  # a field that moves the particles visibly
    if method == "euler":
        return make_velocity(net), None
    return make_denoiser(net, FOLLMER, 0.7), FOLLMER


def _reference_push(method, field, m, dim, grid, seed, schedule):
    """The trajectory tensor as the recording integrator built it before streaming, (K+1, m, d)."""
    X = stream_normals(seed, m, dim)
    nodes = grid.nodes
    out = np.empty((grid.steps + 1, m, dim))
    out[0] = X
    with nets.buffer_pool():
        for k in range(grid.steps):
            t, t_next = nodes[k], nodes[k + 1]
            if method == "euler":
                X = X + (t_next - t) * field(t, X)
            else:
                phi, psi = schedule.ei_coeffs(t, t_next)
                X = phi * X + psi * field(t, X)
            out[k + 1] = X
    return out


class TestStreamedEndpoints:
    @pytest.mark.parametrize("method", ["euler", "ei"])
    @pytest.mark.parametrize("dim", [1, 2, 16])
    @pytest.mark.parametrize("m", [1, 5, 4097])
    def test_bitwise_equal_to_kept_trajectories(self, method, dim, m):
        field, schedule = _net_field(method, dim)
        grid = TimeGrid(0.95, 7)
        batch = push_samples(method, field, m, dim, grid, seed=12, schedule=schedule)
        ends = push_samples(method, field, m, dim, grid, seed=12, schedule=schedule,
                            keep_trajectories=False)
        assert ends.shape == (m, dim)
        assert ends.tobytes() == np.ascontiguousarray(batch.endpoints()).tobytes()
        reference = _reference_push(method, field, m, dim, grid, 12, schedule)
        assert ends.tobytes() == reference[-1].tobytes()

    @pytest.mark.parametrize("method", ["euler", "ei"])
    def test_non_finite_state_names_the_step(self, method):
        def blows_up_at_third_step(t, X):
            return np.full_like(X, np.inf if t > 0.3 else 0.1)

        with pytest.raises(NonFiniteState, match=r"step 3 \(t = 0\.600000\)"):
            push_samples(method, blows_up_at_third_step, 4, 2, TimeGrid(0.8, 4), seed=1,
                         schedule=FOLLMER, keep_trajectories=False)

    def test_validation_matches_push_samples(self):
        for kwargs in ({"method": "ei"}, {"method": "heun"}, {"method": "euler", "m": 0}):
            args = {"method": "euler", "field": lambda t, X: X, "m": 2, "dim": 1,
                    "grid": TimeGrid(0.9, 4), "seed": 0, **kwargs}
            with pytest.raises(ValueError):
                push_samples(**args, keep_trajectories=False)
            with pytest.raises(ValueError):
                push_samples(**args)


class TestIntegrate:
    NODES = np.array([0.0, 0.05, 0.2, 0.5, 0.95])  # not uniform

    def test_non_finite_state_names_the_time_of_its_node(self):
        def blows_up_past_0_3(t, t_next, X):
            return X + (np.inf if t_next > 0.3 else t_next - t)

        with pytest.raises(NonFiniteState, match=r"step 3 \(t = 0\.500000\)"):
            integrate(blows_up_past_0_3, np.zeros((3, 2)), self.NODES)

    def test_steps_and_records_every_node(self):
        record = np.empty((5, 2, 1))
        ends = integrate(lambda t, t_next, X: X + (t_next - t), np.zeros((2, 1)), self.NODES,
                         record=record)
        assert np.array_equal(record[:, 0, 0], np.cumsum(np.diff(self.NODES, prepend=0.0)))
        assert np.array_equal(ends, record[-1])

    def test_per_row_non_finite_state_names_the_step_and_the_row_time(self):
        # rows 0 and 2 stay finite; row 1 blows up once its own time passes 0.3
        nodes = np.stack([0.5 * self.NODES, self.NODES, 0.9 * self.NODES], axis=1)

        def row_1_blows_up(t, t_next, X):
            return X + np.where(t_next > 0.3, [0.0, np.inf, 0.0], 0.0)[:, None]

        with pytest.raises(NonFiniteState, match=r"step 3 \(t = 0\.500000\)"):
            integrate(row_1_blows_up, np.zeros((3, 2)), nodes)


@pytest.mark.parametrize("method", ["euler", "ei"])
def test_corpus_is_stored_in_its_file_layout(tmp_path, method):
    field, schedule = _net_field(method, 3)
    grid = TimeGrid(0.9, 6)
    batch = push_samples(method, field, 9, 3, grid, seed=4, schedule=schedule)
    assert batch.states.shape == (9, 7, 3) and batch.states.flags.c_contiguous
    reference = np.swapaxes(_reference_push(method, field, 9, 3, grid, 4, schedule), 0, 1)
    assert batch.states.tobytes() == reference.tobytes()
    path = tmp_path / "traj.bin"
    save_trajectories(path, batch, "follmer", provenance="charflow test")
    header = json.dumps({"m": 9, "K": 6, "d": 3, "T": 0.9, "schedule": "follmer", "seed": 4},
                        sort_keys=True).encode("utf-8")
    old_writer = (TRAJECTORY_MAGIC + b"# charflow test\n" + len(header).to_bytes(8, "little")
                  + header + reference.astype("<f8").tobytes())
    assert path.read_bytes() == old_writer
