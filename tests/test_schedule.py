import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from charflow import schedule as schedule_module
from charflow.rng import Rng
from charflow.schedule import Schedule, denoiser_coeffs, validate_schedule

LINEAR = Schedule("linear")
FOLLMER = Schedule("follmer")


class TestCoeffs:
    def test_linear_quarter(self):
        assert LINEAR.coeffs(0.25) == (0.75, 0.25, -1.0, 1.0)

    def test_follmer_point_six(self):
        a, b, da, db = FOLLMER.coeffs(0.6)
        assert abs(a - 0.8) < 1e-15
        assert b == 0.6
        assert abs(da - (-0.75)) < 1e-15
        assert db == 1.0

    def test_linear_origin_boundary(self):
        assert LINEAR.coeffs(0.0) == (1.0, 0.0, -1.0, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LINEAR.coeffs(-0.1)
        with pytest.raises(ValueError):
            FOLLMER.coeffs(1.2)

    def test_follmer_derivative_singular_at_one(self):
        with pytest.raises(ValueError):
            FOLLMER.coeffs(1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Schedule("cosine")


def _count_time_checks(monkeypatch):
    calls = []
    check = schedule_module._check_time_range

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(schedule_module, "_check_time_range", counted)
    return calls


@pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
def test_coefficient_sets_check_time_once_with_the_same_bits(schedule, monkeypatch):
    t = np.concatenate([[0.0, 0.5], Rng(2).uniform(64) * 0.999])
    # references from the one-coefficient methods, each with its own check
    singles = (schedule.alpha(t), schedule.beta(t), schedule.dalpha(t), schedule.dbeta(t))
    a, b, sd = schedule.alpha(t), schedule.beta(t), 0.7
    var = a * a + b * b * (sd * sd)
    by_formula = (1.0 / np.sqrt(var), b * (sd * sd) / var, a * sd / np.sqrt(var), t + 0.0,
                  var / (a * a * (sd * sd)))
    calls = _count_time_checks(monkeypatch)
    got = schedule.coeffs(t)
    assert len(calls) == 1
    assert [x.tobytes() for x in got] == [x.tobytes() for x in singles]
    den = denoiser_coeffs(schedule, t, sd)
    assert len(calls) == 2
    assert [x.tobytes() for x in den] == [x.tobytes() for x in by_formula]


def test_coefficient_sets_keep_their_error_messages():
    with pytest.raises(ValueError, match=r"t must lie in \[0.0, 1.0\]"):
        LINEAR.coeffs(np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="follmer dalpha is singular at t = 1"):
        FOLLMER.coeffs(np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="follmer dalpha is singular at t = 1"):
        FOLLMER.dalpha(1.0)
    with pytest.raises(ValueError, match=r"t must lie in \[0.0, 1.0\]"):
        denoiser_coeffs(FOLLMER, -0.5, 0.5)
    with pytest.raises(ValueError, match="singular where alpha = 0"):
        denoiser_coeffs(FOLLMER, 1.0, 0.5)


def _psi_quadrature(schedule, t, s):
    # independent oracle: integrate phi(tau, s) * rate(tau) directly
    val, err = quad(lambda tau: schedule.ei_coeffs(tau, s)[0] * schedule.rate(tau), t, s,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


def _phi_quadrature(schedule, t, s):
    val, err = quad(lambda tau: schedule.dlog_alpha(tau), t, s, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return np.exp(val)


class TestEiCoeffs:
    def test_linear_half_against_quadrature(self):
        phi, psi = LINEAR.ei_coeffs(0.0, 0.5)
        assert phi == 0.5 and psi == 0.5  # frozen from the quadrature oracle
        assert abs(phi - _phi_quadrature(LINEAR, 0.0, 0.5)) < 1e-10
        assert abs(psi - _psi_quadrature(LINEAR, 0.0, 0.5)) < 1e-10

    def test_follmer_against_quadrature(self):
        phi, psi = FOLLMER.ei_coeffs(0.0, 0.6)
        assert abs(phi - 0.8) < 1e-15 and abs(psi - 0.6) < 1e-15
        assert abs(phi - _phi_quadrature(FOLLMER, 0.0, 0.6)) < 1e-10
        assert abs(psi - _psi_quadrature(FOLLMER, 0.0, 0.6)) < 1e-10

    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    def test_random_interval_against_quadrature(self, schedule):
        rng = Rng(3)
        for _ in range(10):
            t = 0.9 * rng.uniform()
            s = t + (0.95 - t) * rng.uniform()
            phi, psi = schedule.ei_coeffs(t, s)
            assert abs(phi - _phi_quadrature(schedule, t, s)) < 1e-9
            assert abs(psi - _psi_quadrature(schedule, t, s)) < 1e-9

    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    def test_empty_interval(self, schedule):
        assert schedule.ei_coeffs(0.37, 0.37) == (1.0, 0.0)

    def test_ordering_and_singularity_errors(self):
        with pytest.raises(ValueError):
            LINEAR.ei_coeffs(0.5, 0.4)
        with pytest.raises(ValueError):
            LINEAR.ei_coeffs(0.5, 1.0)


class TestKernelInvariants:
    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    def test_phi_semigroup(self, schedule):
        ts = np.linspace(0.0, 0.95, 9)
        for t in ts:
            for u in ts[ts >= t]:
                for s in ts[ts >= u]:
                    lhs = schedule.ei_coeffs(t, u)[0] * schedule.ei_coeffs(u, s)[0]
                    assert abs(lhs - schedule.ei_coeffs(t, s)[0]) < 1e-12

    @given(st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 0.95), st.floats(0.0, 0.95)),
           st.sampled_from(["linear", "follmer"]))
    @settings(max_examples=60, deadline=None)
    def test_phi_semigroup_property(self, times, kind):
        t, u, s = sorted(times)
        sch = Schedule(kind)
        lhs = sch.ei_coeffs(t, u)[0] * sch.ei_coeffs(u, s)[0]
        assert abs(lhs - sch.ei_coeffs(t, s)[0]) < 1e-12

    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    def test_short_interval_limits(self, schedule):
        for t in (0.0, 0.25, 0.5, 0.75, 0.85):
            phi, psi = schedule.ei_coeffs(t, t + 1e-6)
            assert abs(psi) < 1e-5
            assert abs(phi - 1.0) < 1e-5

    def test_linear_phi_plus_psi_is_one(self):
        t = np.linspace(0.0, 0.95, 200)
        phi, psi = LINEAR.ei_coeffs(t, 0.97)
        assert np.max(np.abs(phi + psi - 1.0)) < 1e-12

    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    def test_rate_finite_up_to_0999(self, schedule):
        t = np.linspace(0.0, 0.999, 500)
        r = schedule.rate(t)
        assert np.all(np.isfinite(r))
        expected = 1.0 / (1.0 - t) if schedule.kind == "linear" else 1.0 / (1.0 - t * t)
        assert np.max(np.abs(r - expected)) == 0.0


class TestDenoiserCoeffs:
    def test_linear_origin_example(self):
        c_in, c_skip, c_out, c_noise, omega = denoiser_coeffs(LINEAR, 0.0, 0.5)
        assert (c_in, c_skip, c_out, c_noise, omega) == (1.0, 0.0, 0.5, 0.0, 4.0)

    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    def test_unit_input_variance_monte_carlo(self, schedule):
        # gaussian target: X_1 = sigma_d * N(0, 1); Var[c_in X_t] must be 1
        rng = Rng(9)
        sigma_d = 0.7
        x0 = rng.normal((200_000,))
        x1 = sigma_d * rng.normal((200_000,))
        for t in (0.1, 0.5, 0.9):
            a, b, _, _ = schedule.coeffs(t)
            c_in, _, _, _, _ = denoiser_coeffs(schedule, t, sigma_d)
            xt = a * x0 + b * x1
            assert abs(np.var(c_in * xt) - 1.0) < 0.02

    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    def test_c_skip_minimizes_c_out(self, schedule):
        # central finite difference of c_out^2 as a function of c_skip
        sigma_d = 0.5
        for t in (0.2, 0.6, 0.9):
            a, b, _, _ = schedule.coeffs(t)

            def c_out_sq(c_skip):
                return (1.0 - b * c_skip) ** 2 * sigma_d**2 + a**2 * c_skip**2

            _, c_skip, c_out, _, _ = denoiser_coeffs(schedule, t, sigma_d)
            h = 1e-6
            deriv = (c_out_sq(c_skip + h) - c_out_sq(c_skip - h)) / (2 * h)
            assert abs(deriv) < 1e-9
            assert abs(c_out_sq(c_skip) - c_out**2) < 1e-15

    def test_omega_inverts_c_out_squared(self):
        for t in (0.1, 0.5, 0.95):
            _, _, c_out, _, omega = denoiser_coeffs(FOLLMER, t, 0.4)
            assert abs(omega * c_out**2 - 1.0) < 1e-12

    def test_singular_at_one(self):
        with pytest.raises(ValueError):
            denoiser_coeffs(LINEAR, 1.0, 0.5)
        with pytest.raises(ValueError):
            denoiser_coeffs(LINEAR, 0.5, 0.0)


class TestValidation:
    @pytest.mark.parametrize("kind", ["linear", "follmer"])
    def test_table_schedules_pass(self, kind):
        rows = validate_schedule(Schedule(kind), 101)
        assert len(rows) == 3
        assert all(ok for _, ok, _ in rows)
        assert rows[0][2] == 0.0  # endpoints exact, zero tolerance

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            validate_schedule(LINEAR, 1)


class TestKappa:
    def test_closed_forms(self):
        assert abs(LINEAR.kappa(0.5) - 4.0) < 1e-12
        assert abs(FOLLMER.kappa(0.5) - 1.25 / 0.5625) < 1e-12

    def test_matches_grid_sup_with_fd_second_derivative(self):
        for sch in (LINEAR, FOLLMER):
            T = 0.9
            t = np.linspace(0.0, T, 2001)
            h = 1e-5
            safe = t[(t > h) & (t < 0.999 - h)]
            dda = (sch.alpha(safe + h) - 2 * sch.alpha(safe) + sch.alpha(safe - h)) / h**2
            vals = sch.dalpha(safe) ** 2 / sch.alpha(safe) ** 2 + np.abs(dda) / sch.alpha(safe)
            assert abs(np.max(vals) - sch.kappa(T)) / sch.kappa(T) < 1e-3

    def test_diverges_toward_one(self):
        assert LINEAR.kappa(0.999) > 100 * LINEAR.kappa(0.9)
