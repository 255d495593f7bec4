import numpy as np
import pytest
from scipy import stats

from charflow.rng import Rng
from charflow import target
from charflow.target import (TargetSpec, atomic_mixture, embed_target, load_points,
                             sample_target, save_points, swiss_roll)


class TestSampling:
    def test_single_atom_moments(self):
        spec = atomic_mixture(np.zeros((1, 2)), sigma=0.5)
        pts = sample_target(spec, 100_000, seed=0)
        assert np.max(np.abs(pts.mean(axis=0))) < 0.01
        assert np.max(np.abs(pts.var(axis=0) - 0.25)) < 0.03 * 0.25

    def test_single_atom_covariance_isotropic(self):
        spec = atomic_mixture(np.zeros((1, 3)), sigma=0.5)
        pts = sample_target(spec, 100_000, seed=1)
        cov = np.cov(pts.T)
        assert np.max(np.abs(cov - 0.25 * np.eye(3))) < 0.03 * 0.25

    def test_two_atom_symmetry(self):
        spec = atomic_mixture(np.array([[-1.0], [1.0]]), sigma=0.3)
        pts = sample_target(spec, 100_000, seed=2)
        # mean of the mixture is 0; MC std of the mean is ~ sqrt(1+sigma^2)/sqrt(n)
        assert abs(pts.mean()) < 4 * np.sqrt(1.09) / np.sqrt(100_000)

    def test_weights_respected(self):
        spec = atomic_mixture(np.array([[0.0], [1.0]]), sigma=0.01,
                              weights=np.array([0.2, 0.8]))
        pts = sample_target(spec, 50_000, seed=3)
        frac_hi = np.mean(pts > 0.5)
        assert abs(frac_hi - 0.8) < 0.01

    def test_deterministic(self):
        spec = swiss_roll()
        assert np.array_equal(sample_target(spec, 500, seed=7), sample_target(spec, 500, seed=7))
        spec2 = atomic_mixture(np.array([[0.0, 1.0]]), sigma=0.5)
        assert np.array_equal(sample_target(spec2, 500, seed=7), sample_target(spec2, 500, seed=7))

    def test_swiss_roll_in_box(self):
        pts = sample_target(swiss_roll(noise=0.05), 20_000, seed=4)
        assert pts.shape == (20_000, 2)
        assert np.max(np.abs(pts)) <= 1.0
        # the spiral occupies a ring, not a blob: radii spread over [~1/3, 1]
        radii = np.linalg.norm(pts, axis=1) * (1.0 + 4 * 0.05)
        assert np.quantile(radii, 0.02) > 0.25
        assert np.quantile(radii, 0.98) < 1.05


class TestEmbedding:
    def test_axis_embedding(self):
        low = atomic_mixture(np.array([[0.0], [1.0]]), sigma=0.4)
        frame = np.array([[1.0], [0.0], [0.0]])
        emb = embed_target(low, frame)
        assert np.array_equal(emb.atoms, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert emb.sigma == 0.4

    def test_non_orthonormal_rejected(self):
        low = atomic_mixture(np.array([[0.0], [1.0]]), sigma=0.4)
        frame = np.array([[1.0 + 1e-3], [0.0], [0.0]])
        with pytest.raises(ValueError):
            embed_target(low, frame)

    def test_identity_frame_is_noop(self):
        low = atomic_mixture(np.array([[0.2, 0.3], [0.7, 0.9]]), sigma=0.5)
        emb = embed_target(low, np.eye(2))
        assert np.array_equal(emb.atoms, low.atoms)

    def test_projection_statistics(self):
        # on-frame projection recovers the low-dim mixture, off-frame is N(0, sigma^2)
        rng = Rng(11)
        frame = np.linalg.qr(rng.normal((3, 1)))[0]
        low = atomic_mixture(np.array([[0.0], [1.0]]), sigma=0.3)
        emb = embed_target(low, frame)
        pts = sample_target(emb, 60_000, seed=5)
        on = pts @ frame
        low_pts = sample_target(low, 60_000, seed=6)
        assert abs(on.mean() - low_pts.mean()) < 0.01
        assert abs(on.var() - low_pts.var()) < 0.02
        # orthogonal complement: two directions of pure N(0, sigma^2)
        basis = np.linalg.svd(np.eye(3) - frame @ frame.T)[0][:, :2]
        off = pts @ basis
        for j in range(2):
            p = stats.kstest(off[:, j] / 0.3, "norm").pvalue
            assert p > 0.01


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            atomic_mixture(np.array([[0.0], [1.0]]), sigma=0.5, weights=np.array([0.5, 0.6]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            atomic_mixture(np.array([[0.0], [1.0]]), sigma=0.5, weights=np.array([-0.1, 1.1]))

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            atomic_mixture(np.array([[0.0]]), sigma=0.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            TargetSpec(variant="ring")

    def test_frame_only_for_embedded(self):
        with pytest.raises(ValueError):
            TargetSpec(variant="atomic", atoms=np.array([[0.0]]), sigma=0.5, frame=np.eye(1))


def test_csv_round_trip(tmp_path):
    pts = Rng(1).normal((37, 3))
    path = tmp_path / "points.csv"
    save_points(path, pts, provenance="charflow test run")
    again = load_points(path)
    assert np.array_equal(pts, again)
    first = path.read_text().splitlines()[0]
    assert first.startswith("# charflow")


def _per_element_writer(path, points, provenance):
    # the writer save_points replaced: one repr call per coordinate
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {provenance}\n")
        fh.write(",".join(f"x{i}" for i in range(points.shape[1])) + "\n")
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.mark.parametrize("points", [
    Rng(2).normal((2 * target.CSV_BLOCK_ROWS + 3, 2)),
    Rng(3).normal((target.CSV_BLOCK_ROWS, 1)),
    1e-300 * Rng(4).normal((5, 16)),
    np.array([[0.0, -0.0], [np.inf, -np.inf], [np.nan, 1e308], [5e-324, -1.5]]),
    Rng(5).normal((6, 6))[:, ::2],
    np.array([0.25, -3.0]),
    np.zeros((0, 3)),
])
def test_block_writer_writes_the_per_element_bytes(tmp_path, points):
    save_points(tmp_path / "block.csv", points, provenance="p")
    _per_element_writer(tmp_path / "ref.csv", points, provenance="p")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("body, line", [
    ("0.5,1.5\n0.2", 4),              # cut mid-row: one field short
    ("0.5,1.5,2.5\n", 3),             # one field too many
    ("0.5,1.5\n0.25,abc\n", 4),       # a field that is not a number
    ("0.5,\n", 3),                    # an empty field
])
def test_damaged_point_file_names_path_and_line(tmp_path, body, line):
    path = tmp_path / "points.csv"
    path.write_text("# charflow\nx0,x1\n" + body)
    with pytest.raises(ValueError) as err:
        load_points(path)
    assert str(path) in str(err.value) and f"line {line}" in str(err.value)
