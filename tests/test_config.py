import numpy as np
import pytest

from charflow.config import (config_hash, configs_equal, parse_config_text, serialize_config)

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
        with pytest.raises(ValueError, match="stop_time"):
            parse_config_text("[velocity]\nstop_time = 0.3\n")


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
        assert configs_equal(cfg, again)
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
        assert configs_equal(cfg, again)
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

    def test_seed_is_not_bounded(self):
        assert parse_config_text("[run]\nseed = -3\n").seed == -3
