import re

import numpy as np
import pytest

from charflow.config import SEED_MAX, config_hash, parse_config_text, serialize_config

MINIMAL_SWISS = """
[target]
variant = swiss-roll
"""


class TestParsing:
    def test_minimal_swiss_roll_defaults(self):
        cfg = parse_config_text(MINIMAL_SWISS)
        assert cfg["target"]["variant"] == "swiss-roll"
        assert cfg["schedule"]["kind"] == "follmer"
        assert cfg["velocity"]["stop_time"] == 0.99
        assert cfg["cg"]["stop_time"] == 0.99
        assert cfg["cg"]["steps"] == 100
        assert cfg["cg"]["lambda_semigroup"] == 0.1
        assert cfg.seed == 0

    def test_invalid_enum_value_names_it(self):
        with pytest.raises(ValueError, match="cosine"):
            parse_config_text(MINIMAL_SWISS + "\n[schedule]\nkind = cosine\n")

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="warmup"):
            parse_config_text(MINIMAL_SWISS + "\n[velocity]\nwarmup = 10\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="plotting"):
            parse_config_text("[plotting]\nstyle = dark\n")

    def test_type_errors_are_descriptive(self):
        with pytest.raises(ValueError, match="velocity.iterations"):
            parse_config_text("[velocity]\niterations = many\n")

    def test_atoms_and_frame_parsing(self):
        text = """
[target]
variant = embedded
atoms = 0,0,0;1,0,0
weights = 0.25,0.75
sigma = 0.4
frame = 1,0;0,1;0,0
"""
        cfg = parse_config_text(text)
        assert cfg["target"]["atoms"].shape == (2, 3)
        assert cfg["target"]["frame"].shape == (3, 2)
        assert cfg["target"]["weights"] == (0.25, 0.75)

    def test_mixture_requires_atoms(self):
        with pytest.raises(ValueError, match="atoms"):
            parse_config_text("[target]\nvariant = atomic\n")

    def test_stop_time_range_checked(self):
        for section, value in (("velocity", "0.3"), ("cg", "1.0")):
            line = f"{section}.stop_time must lie in (0.5, 1), got {value}"
            with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
                parse_config_text(f"[{section}]\nstop_time = {value}\n")


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        text = MINIMAL_SWISS + """
[velocity]
iterations = 123
lr = 0.0005
hidden = 32,16
[cg]
mode = practical
lambda_local = 2.5
full_pairs = true
[run]
seed = 99
"""
        cfg = parse_config_text(text)
        again = parse_config_text(serialize_config(cfg))
        assert serialize_config(again) == serialize_config(cfg)
        assert config_hash(cfg) == config_hash(again)

    def test_round_trip_with_points(self):
        text = """
[target]
variant = atomic
atoms = -1;1
sigma = 0.25
"""
        cfg = parse_config_text(text)
        again = parse_config_text(serialize_config(cfg))
        assert serialize_config(again) == serialize_config(cfg)
        assert np.array_equal(again["target"]["atoms"], np.array([[-1.0], [1.0]]))

    def test_hash_tracks_content(self):
        a = parse_config_text(MINIMAL_SWISS)
        b = parse_config_text(MINIMAL_SWISS + "\n[run]\nseed = 1\n")
        assert config_hash(a) != config_hash(b)


class TestBounds:
    @pytest.mark.parametrize("section, key", [
        ("target", "n"), ("target", "holdout"), ("velocity", "batch_size"),
        ("velocity", "fourier_k"), ("cg", "m"), ("cg", "steps"), ("cg", "batch_size"),
        ("cg", "pairs_per_particle"), ("cg", "triples_per_particle"), ("cg", "teacher_steps"),
        ("cg", "fourier_k"), ("sample", "n"), ("sample", "steps"), ("eval", "projections"),
    ])
    def test_sizes_and_counts_below_one_rejected_by_name(self, section, key):
        with pytest.raises(ValueError, match=rf"{section}\.{key} must be >= 1"):
            parse_config_text(f"[{section}]\n{key} = 0\n")

    @pytest.mark.parametrize("section", ["velocity", "cg"])
    def test_iterations_may_be_zero_but_not_negative(self, section):
        assert parse_config_text(f"[{section}]\niterations = 0\n")[section]["iterations"] == 0
        with pytest.raises(ValueError, match=rf"{section}\.iterations must be >= 0"):
            parse_config_text(f"[{section}]\niterations = -1\n")

    def test_seed_is_bounded(self):
        # the CLI checks run.seed again after --seed; a library caller meets the same line
        for seed in (-3, SEED_MAX + 1):
            line = f"run.seed must lie in [0, {SEED_MAX}], got {seed}"
            with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
                parse_config_text(f"[run]\nseed = {seed}\n")
        assert parse_config_text(f"[run]\nseed = {SEED_MAX}\n").seed == SEED_MAX

    @pytest.mark.parametrize("key, lines", [
        ("target.atoms", "variant = atomic\natoms = -1;nan"),
        ("target.atoms", "variant = atomic\natoms = 0,0;inf,1"),
        ("target.weights", "variant = atomic\natoms = -1;1\nweights = nan,1"),
        ("target.frame", "variant = embedded\natoms = 0,0;1,0\nframe = 1;nan"),
        ("sample.nodes", "[sample]\nnodes = 0,nan,0.99"),
        ("target.sigma", "sigma = inf"),
        ("velocity.eps", "[velocity]\neps = inf"),
    ], ids=["atoms-nan", "atoms-inf", "weights-nan", "frame-nan", "nodes-nan", "sigma-inf",
            "eps-inf"])
    def test_non_finite_values_rejected_by_name(self, key, lines):
        # a NaN weight drew every point from one atom; a NaN atom or sigma = inf wrote
        # non-finite rows
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must be finite, got "):
            parse_config_text(f"[target]\n{lines}\n")

    @pytest.mark.parametrize("section, key, value", [
        ("velocity", "lr", "-1e-3"), ("velocity", "lr", "0"), ("velocity", "lr", "inf"),
        ("velocity", "lr", "nan"), ("cg", "lr", "-1e-3"), ("cg", "lr", "inf"),
        ("velocity", "eps", "0"), ("target", "sigma", "0"), ("target", "sigma", "-0.25"),
        ("velocity", "beta1", "1"), ("velocity", "beta1", "-0.1"), ("velocity", "beta2", "1.5"),
        ("cg", "ema_rate", "1"), ("cg", "ema_rate", "-0.5"), ("cg", "ema_rate", "nan"),
        ("velocity", "clip_grad_norm", "-1"), ("cg", "clip_grad_norm", "-1"),
        ("cg", "lambda_local", "-1"), ("cg", "lambda_semigroup", "-0.1"),
        ("target", "swiss_noise", "-0.05"), ("target", "swiss_noise", "nan"),
    ])
    def test_float_out_of_range_rejected_by_name(self, section, key, value):
        with pytest.raises(ValueError, match=rf"^{section}\.{key} must .*, got "):
            parse_config_text(f"[{section}]\n{key} = {value}\n")

    def test_float_bounds_admit_their_edges(self):
        text = """
[target]
swiss_noise = 0
[velocity]
lr = 1e6
beta1 = 0
beta2 = 0
clip_grad_norm = 0
[cg]
lr = 1e-12
ema_rate = 0
lambda_local = 0
lambda_semigroup = 0
clip_grad_norm = 0
"""
        cfg = parse_config_text(text)
        assert cfg["cg"]["ema_rate"] == 0.0 and cfg["target"]["swiss_noise"] == 0.0

    def test_default_config_hash_is_unchanged(self):
        # serialization feeds every artifact's provenance line; bounds must not move it
        assert config_hash(parse_config_text(MINIMAL_SWISS)) == "ddbb9e63fb397bce"

    def test_point_and_float_list_config_hash_is_unchanged(self):
        # serialization writes every kind through one formatter table; the text must not move
        text = """
[target]
variant = embedded
atoms = 0,0,0;1,0,0
weights = 0.25,0.75
sigma = 0.4
frame = 1,0;0,1;0,0
[sample]
sampler = multi-step
nodes = 0,0.5,0.99
"""
        assert config_hash(parse_config_text(text)) == "ec737be9ff8aef8f"
