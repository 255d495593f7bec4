import numpy as np
import pytest

from charflow.oracle import (OracleContext, conditional_cov_exact, denoiser_exact, flow_exact,
                             gamma_coefficient, manifold_decompose, score_exact,
                             velocity_exact)
from charflow.rng import Rng
from charflow.schedule import Schedule
from charflow.target import atomic_mixture, embed_target, swiss_roll
from charflow.verify import _families

LINEAR = Schedule("linear")
FOLLMER = Schedule("follmer")

GAUSS2 = atomic_mixture(np.zeros((1, 2)), sigma=0.5)
TWO_1D = atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.25)
CUBE_2D = atomic_mixture(np.array([[0.1, 0.2], [0.8, 0.6], [0.4, 0.9]]), sigma=0.35,
                         weights=np.array([0.5, 0.3, 0.2]))


class TestDenoiser:
    def test_gaussian_point_value(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        out = denoiser_exact(ctx, 0.5, np.array([[1.0, 0.0]]))[0]
        # sigma^2 beta / (alpha^2 + sigma^2 beta^2) = 0.125 / 0.3125 = 0.4
        assert np.allclose(out, [0.4, 0.0], atol=1e-15)

    def test_two_atom_symmetry_at_origin(self):
        ctx = OracleContext(TWO_1D, LINEAR)
        for t in (0.0, 0.3, 0.7, 0.95):
            assert abs(denoiser_exact(ctx, t, np.array([[0.0]]))[0, 0]) < 1e-15

    def test_against_brute_force_conditional_mean(self):
        # independent oracle: E[X_1 | |X_t - x| < h] by rejection over 10^6 draws
        ctx = OracleContext(TWO_1D, LINEAR)
        rng = Rng(42)
        n = 1_000_000
        x0 = rng.normal((n,))
        choice = (rng.uniform(n) < 0.5).astype(np.float64) * 2.0 - 1.0
        x1 = choice + 0.25 * rng.normal((n,))
        for t, x in ((0.4, 0.3), (0.7, -0.8)):
            a, b, _, _ = LINEAR.coeffs(t)
            xt = a * x0 + b * x1
            h = 0.01
            mask = np.abs(xt - x) < h
            count = int(mask.sum())
            assert count > 2000
            est = x1[mask].mean()
            stderr = x1[mask].std() / np.sqrt(count)
            exact = denoiser_exact(ctx, t, np.array([[x]]))[0, 0]
            assert abs(est - exact) < 5 * stderr + 2e-3  # 2e-3 covers the O(h^2) window bias

    def test_rejects_t_at_one(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        with pytest.raises(ValueError, match="strictly below 1"):
            denoiser_exact(ctx, 1.0, np.zeros((1, 2)))


class TestVelocity:
    def test_gaussian_point_value(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        out = velocity_exact(ctx, 0.5, np.array([[1.0, 0.0]]))[0]
        # (alpha dalpha + sigma^2 beta dbeta)/(alpha^2 + sigma^2 beta^2) = -0.375/0.3125
        assert np.allclose(out, [-1.2, 0.0], atol=1e-15)

    def test_odd_symmetry(self):
        ctx = OracleContext(TWO_1D, FOLLMER)
        for t in (0.1, 0.5, 0.9):
            assert abs(velocity_exact(ctx, t, np.array([[0.0]]))[0, 0]) < 1e-15

    @pytest.mark.parametrize("spec,sch", [(TWO_1D, LINEAR), (CUBE_2D, FOLLMER)],
                             ids=["two-1d-linear", "cube-2d-follmer"])
    def test_score_identity(self, spec, sch):
        ctx = OracleContext(spec, sch)
        rng = Rng(8)
        t = 0.01 + 0.98 * rng.uniform(400)
        x = 2.5 * rng.normal((400, spec.dim))
        a, b, da, db = sch.coeffs(t)
        lhs = velocity_exact(ctx, t, x)
        rhs = (db / b)[:, None] * x + (a * a * (db / b - da / a))[:, None] * score_exact(ctx, t, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestScore:
    def test_gaussian_closed_form(self):
        ctx = OracleContext(atomic_mixture(np.zeros((1, 1)), sigma=0.5), LINEAR)
        out = score_exact(ctx, 0.5, np.array([[1.0]]))[0]
        assert abs(out[0] + 3.2) < 1e-14  # -x / (alpha^2 + sigma^2 beta^2)

    def test_symmetric_point(self):
        ctx = OracleContext(TWO_1D, LINEAR)
        assert abs(score_exact(ctx, 0.5, np.array([[0.0]]))[0, 0]) < 1e-15

    def test_against_log_density_finite_difference(self):
        # independent oracle: rho_t is an explicit Gaussian mixture; differentiate its log
        spec = CUBE_2D
        ctx = OracleContext(spec, LINEAR)

        def log_rho(t, x):
            a, b, _, _ = LINEAR.coeffs(t)
            var = a * a + spec.sigma**2 * b * b
            d2 = np.sum((x[None, :] - b * spec.atoms) ** 2, axis=1)
            logs = np.log(spec.weights) - 0.5 * d2 / var - np.log(2 * np.pi * var)
            mx = logs.max()
            return mx + np.log(np.exp(logs - mx).sum())

        rng = Rng(14)
        for _ in range(20):
            t = 0.05 + 0.9 * rng.uniform()
            x = 1.5 * rng.normal((2,))
            h = 1e-6
            fd = np.array([
                (log_rho(t, x + h * e) - log_rho(t, x - h * e)) / (2 * h)
                for e in np.eye(2)
            ])
            assert np.max(np.abs(fd - score_exact(ctx, t, x[None, :])[0])) < 1e-6

    def test_singular_at_zero(self):
        ctx = OracleContext(TWO_1D, LINEAR)
        with pytest.raises(ValueError, match="strictly above 0"):
            score_exact(ctx, 0.0, np.array([[0.5]]))


def _rk4_loop(ctx, t, s, X, steps):
    """Reference: the hand-written RK4 loop flow_exact used to run."""
    h = (s - t) / steps
    y = X.copy()
    for k in range(steps):
        tk = t + k * h
        k1 = velocity_exact(ctx, tk, y)
        k2 = velocity_exact(ctx, tk + 0.5 * h, y + 0.5 * h * k1)
        k3 = velocity_exact(ctx, tk + 0.5 * h, y + 0.5 * h * k2)
        k4 = velocity_exact(ctx, tk + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


class TestFlow:
    @pytest.mark.parametrize("schedule", [LINEAR, FOLLMER], ids=["linear", "follmer"])
    @pytest.mark.parametrize("t, s", [(0.0, 0.5), (0.2, 0.9), (0.1, 0.99)])
    def test_bit_identical_to_doubling_the_rk4_loop(self, schedule, t, s):
        frame = np.linalg.qr(Rng(5).normal((6, 2)))[0]
        ctx = OracleContext(embed_target(CUBE_2D, frame), schedule)
        x = Rng(6).normal((16, 6))
        tol = 1e-8
        prev, steps = _rk4_loop(ctx, t, s, x, 8), 16
        while True:
            cur = _rk4_loop(ctx, t, s, x, steps)
            if float(np.max(np.abs(cur - prev))) < tol:
                break
            prev, steps = cur, 2 * steps
        assert np.array_equal(flow_exact(ctx, t, s, x, tol=tol), cur)

    def test_gaussian_closed_form_factor(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        x = np.array([2.0, 0.0])
        out = flow_exact(ctx, 0.0, 0.999, x[None, :], tol=1e-12)[0]
        factor = np.sqrt(LINEAR.alpha(0.999) ** 2 + 0.25 * LINEAR.beta(0.999) ** 2)
        assert np.max(np.abs(out - factor * x)) < 1e-9
        # 2 * factor = 0.999002...; the limit of the factor as s -> 1 is sigma
        assert abs(out[0] - 0.9990020019999961) < 1e-9
        assert abs(np.sqrt(LINEAR.alpha(1.0) ** 2 + 0.25 * LINEAR.beta(1.0) ** 2) - 0.5) == 0.0

    def test_identity_at_equal_times(self):
        ctx = OracleContext(TWO_1D, LINEAR)
        x = np.array([[0.37]])
        assert np.array_equal(flow_exact(ctx, 0.4, 0.4, x), x)

    def test_semigroup(self):
        ctx = OracleContext(CUBE_2D, FOLLMER)
        x = Rng(2).normal((5, 2))
        tol = 1e-10
        direct = flow_exact(ctx, 0.1, 0.9, x, tol=tol)
        hop = flow_exact(ctx, 0.45, 0.9, flow_exact(ctx, 0.1, 0.45, x, tol=tol), tol=tol)
        assert np.max(np.abs(direct - hop)) < 2 * tol * 100  # RK tails compound slightly

    def test_budget_exhaustion(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        with pytest.raises(RuntimeError):
            flow_exact(ctx, 0.0, 0.9, np.array([[1.0, 1.0]]), tol=1e-16, max_doublings=1)

    def test_ordering_validated(self):
        ctx = OracleContext(GAUSS2, LINEAR)
        with pytest.raises(ValueError):
            flow_exact(ctx, 0.5, 0.4, np.zeros((1, 2)))


class TestManifold:
    def setup_method(self):
        rng = Rng(31)
        self.frame = np.linalg.qr(rng.normal((3, 1)))[0]
        low = atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.5)
        self.ctx = OracleContext(embed_target(low, self.frame), LINEAR)

    def test_parts_sum_to_velocity(self):
        rng = Rng(5)
        t = 0.99 * rng.uniform(200)
        x = 2.0 * rng.normal((200, 3))
        tang, norm, _ = manifold_decompose(self.ctx, t, x)
        assert np.max(np.abs(tang + norm - velocity_exact(self.ctx, t, x))) < 1e-8

    def test_gamma_value(self):
        assert abs(gamma_coefficient(LINEAR, 0.5, 0.5) + 1.2) < 1e-14
        _, _, gam = manifold_decompose(self.ctx, 0.5, np.ones((1, 3)))
        gam = gam[0]
        assert abs(gam + 1.2) < 1e-14

    def test_column_space_has_zero_normal_part(self):
        x = (self.frame @ np.array([[0.7]])).T
        _, norm, _ = manifold_decompose(self.ctx, 0.3, x)
        assert np.max(np.abs(norm)) < 1e-12

    def test_requires_frame(self):
        ctx = OracleContext(TWO_1D, LINEAR)
        with pytest.raises(ValueError):
            manifold_decompose(ctx, 0.3, np.array([[0.0]]))


class TestRegularityBounds:
    def test_velocity_jacobian_envelope(self):
        # Finite-difference Jacobian of b*; its symmetric part must sit between
        # gamma(t) and gamma(t) + d * a b (a db - da b)/(a^2+s^2 b^2)^2 (atoms in the unit cube)
        spec = CUBE_2D
        ctx = OracleContext(spec, LINEAR)
        rng = Rng(77)
        d = 2
        for _ in range(40):
            t = 0.99 * rng.uniform()
            x = 1.5 * rng.normal((d,))
            h = 1e-5 * (1.0 + np.max(np.abs(x)))
            jac = np.zeros((d, d))
            for j, e in enumerate(np.eye(d)):
                jac[:, j] = (velocity_exact(ctx, t, (x + h * e)[None, :])[0]
                             - velocity_exact(ctx, t, (x - h * e)[None, :])[0]) / (2 * h)
            sym = 0.5 * (jac + jac.T)
            eigs = np.linalg.eigvalsh(sym)
            a, b, da, db = LINEAR.coeffs(t)
            den = a * a + spec.sigma**2 * b * b
            lo = (a * da + spec.sigma**2 * b * db) / den
            hi = lo + d * a * b * (a * db - da * b) / den**2
            assert eigs.min() >= lo - 1e-4
            assert eigs.max() <= hi + 1e-4

    def test_conditional_covariance_envelope(self):
        spec = CUBE_2D
        ctx = OracleContext(spec, FOLLMER)
        rng = Rng(78)
        d = 2
        for _ in range(60):
            t = 0.98 * rng.uniform()
            x = 1.5 * rng.normal((d,))
            cov = conditional_cov_exact(ctx, t, x[None, :])[0]
            eigs = np.linalg.eigvalsh(cov)
            a, b, _, _ = FOLLMER.coeffs(t)
            den = a * a + spec.sigma**2 * b * b
            lo = spec.sigma**2 * a * a / den
            hi = lo + d * (a * a / den) ** 2
            assert eigs.min() >= lo - 1e-12
            assert eigs.max() <= hi + 1e-12

    def test_local_velocity_grows_linearly(self):
        ctx = OracleContext(CUBE_2D, LINEAR)
        rng = Rng(79)
        maxima = []
        for R in (1.0, 2.0, 4.0, 8.0):
            x = R * (2.0 * rng.uniform((4000, 2)) - 1.0)  # fills the inf-ball of radius R
            t = 0.99 * rng.uniform(4000)
            vals = np.max(np.abs(velocity_exact(ctx, t, x)), axis=1)
            maxima.append(float(vals.max()))
        assert all(np.isfinite(maxima))
        assert maxima == sorted(maxima)  # monotone growth
        slope = np.polyfit(np.log([1.0, 2.0, 4.0, 8.0]), np.log(maxima), 1)[0]
        assert slope <= 1.1  # at most linear in R

    def test_time_derivative_grows_into_the_corner(self):
        # kappa-style blow-up needs 1 - t >> sigma to be visible, so probe sigma = 0.1
        spec = atomic_mixture(np.zeros((1, 1)), sigma=0.1)
        ctx = OracleContext(spec, LINEAR)
        x = np.array([[1.0]])
        h = 1e-6

        def dbdt(t):
            return (velocity_exact(ctx, t + h, x) - velocity_exact(ctx, t - h, x)) / (2 * h)

        assert np.linalg.norm(dbdt(0.99)) >= 10.0 * np.linalg.norm(dbdt(0.5))


def test_swiss_roll_has_no_oracle():
    with pytest.raises(ValueError):
        OracleContext(swiss_roll(), LINEAR)


def _oracles_by_formula(ctx, t, X):
    """Reference: each evaluator's formula over alpha, beta, dalpha and dbeta called one by one."""
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (X.shape[0],)).astype(np.float64)
    sched, atoms, s2 = ctx.schedule, ctx.spec.atoms, ctx.spec.sigma**2
    a, b = sched.alpha(t), sched.beta(t)
    den = a * a + ctx.spec.sigma**2 * b * b
    diff = X[:, None, :] - b[:, None, None] * atoms[None, :, :]
    logw = np.log(ctx.spec.weights)[None, :] - 0.5 * np.sum(diff * diff, axis=2) / den[:, None]
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    w = w / w.sum(axis=1, keepdims=True)
    mean_u = w @ atoms
    denoiser = (a * a / den)[:, None] * mean_u + (s2 * b / den)[:, None] * X
    da, db = sched.dalpha(t), sched.dbeta(t)
    c_u = a * (a * db - da * b) / den
    gam = (a * da + s2 * b * db) / den
    second = np.einsum("mj,jp,jq->mpq", w, atoms, atoms)
    cov_u = second - np.einsum("mp,mq->mpq", mean_u, mean_u)
    ratio = (a * a / den)[:, None, None]
    gauss = (ctx.spec.sigma**2 * a * a / den)[:, None, None]
    return {
        denoiser_exact: denoiser,
        velocity_exact: c_u[:, None] * mean_u + gam[:, None] * X,
        score_exact: (b[:, None] * denoiser - X) / (a * a)[:, None],
        conditional_cov_exact: ratio * ratio * cov_u + gauss * np.eye(ctx.spec.dim)[None, :, :],
    }


@pytest.mark.parametrize("family", range(3))
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
def test_evaluators_have_the_bits_of_their_formulas(family, per_row):
    spec, schedule = _families()[family]
    ctx = OracleContext(spec, schedule)
    X = 1.5 * Rng(8).normal((40, spec.dim))
    t = 0.05 + 0.9 * Rng(9).uniform(40) if per_row else 0.6
    for fn, expected in _oracles_by_formula(ctx, t, X).items():
        assert fn(ctx, t, X).tobytes() == expected.tobytes(), fn.__name__
