"""Run configuration: a strict INI-style grammar with documented defaults.

The file format is standard INI (``[section]`` headers, ``key = value``
lines, ``#`` comments).  Every key has a declared type and default; unknown
sections or keys are rejected by name, and parse -> serialize -> parse is
the identity on effective configurations (serialization writes every key).
Integer sizes and counts must be at least 1 and iteration counts at least
0; ``[run] seed`` must lie in [0, ``SEED_MAX``] (``check_seed``, which the
CLI calls again after applying ``--seed``).  Float keys with a range are
checked against ``FLOAT_BOUNDS``, and every float value, each entry of a
point or float-list key included, must be finite.

Point lists (mixture atoms, frame rows) are written as ';'-separated points
with ','-separated coordinates, e.g. ``atoms = -1;1`` (1-D) or
``atoms = 0,0;1,1`` (2-D).  The frame is written row per ambient dimension.

Seeds: a single ``[run] seed`` drives every command; purpose offsets are
fixed (data +0, holdout +1, velocity training +2, trajectories +3, cg
training +4, sampling +5, evaluation +6) so the full pipeline is
reproducible from one integer.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass

import numpy as np

__all__ = ["RunConfig", "parse_config", "parse_config_text", "serialize_config", "config_hash",
           "check_seed", "SEED_DATA", "SEED_HOLDOUT", "SEED_VELOCITY", "SEED_TRAJ",
           "SEED_CG", "SEED_SAMPLE", "SEED_EVAL", "SEED_MAX"]

SEED_DATA = 0
SEED_HOLDOUT = 1
SEED_VELOCITY = 2
SEED_TRAJ = 3
SEED_CG = 4
SEED_SAMPLE = 5
SEED_EVAL = 6
SEED_MAX = 2**64 - 1 - SEED_EVAL  # every seed + offset must still be a u64 Philox key


def _parse_points(text: str) -> np.ndarray | None:
    text = text.strip()
    if not text:
        return None
    rows = [[float(v) for v in pt.split(",")] for pt in text.split(";") if pt.strip()]
    return np.asarray(rows, dtype=np.float64)


def _format_points(arr) -> str:
    if arr is None:
        return ""
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    return ";".join(",".join(repr(float(v)) for v in row) for row in arr)


def _parse_floats(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# (type, default, allowed-values or None); types: int/float/bool/str/points/floats/ints
SCHEMA = {
    "run": {
        "seed": ("int", 0, None),
    },
    "target": {
        "variant": ("str", "swiss-roll", ("swiss-roll", "atomic", "embedded")),
        "atoms": ("points", None, None),
        "weights": ("floats", (), None),
        "sigma": ("float", 0.25, None),
        "frame": ("points", None, None),
        "swiss_noise": ("float", 0.05, None),
        "n": ("int", 4096, None),
        "holdout": ("int", 2048, None),
    },
    "schedule": {
        "kind": ("str", "follmer", ("linear", "follmer")),
    },
    "velocity": {
        "loss": ("str", "denoiser", ("velocity", "denoiser")),
        "stop_time": ("float", 0.99, None),
        "iterations": ("int", 4000, None),
        "batch_size": ("int", 256, None),
        "lr": ("float", 1e-3, None),
        "beta1": ("float", 0.9, None),
        "beta2": ("float", 0.999, None),
        "eps": ("float", 1e-8, None),
        "hidden": ("ints", (64, 64), None),
        "activation": ("str", "silu", ("relu", "silu")),
        "time_features": ("str", "raw", ("raw", "fourier")),
        "fourier_k": ("int", 4, None),
        "clip_grad_norm": ("float", 0.0, None),  # 0 disables the safeguard
    },
    "cg": {
        "mode": ("str", "regression", ("regression", "practical", "self-distill")),
        "m": ("int", 2048, None),
        "steps": ("int", 100, None),
        "stop_time": ("float", 0.99, None),
        "iterations": ("int", 3000, None),
        "batch_size": ("int", 256, None),
        "lr": ("float", 1e-3, None),
        "lambda_local": ("float", 1.0, None),
        "lambda_semigroup": ("float", 0.1, None),
        "ema_rate": ("float", 0.999, None),
        "pairs_per_particle": ("int", 8, None),
        "triples_per_particle": ("int", 8, None),
        "full_pairs": ("bool", False, None),
        "teacher_steps": ("int", 8, None),
        "hidden": ("ints", (64, 64), None),
        "activation": ("str", "silu", ("relu", "silu")),
        "time_features": ("str", "raw", ("raw", "fourier")),
        "fourier_k": ("int", 4, None),
        "plain": ("bool", False, None),
        "clip_grad_norm": ("float", 0.0, None),
    },
    "sample": {
        "sampler": ("str", "one-step", ("one-step", "multi-step", "euler", "ei")),
        "n": ("int", 2048, None),
        "steps": ("int", 100, None),
        "nodes": ("floats", (), None),
    },
    "eval": {
        "metric": ("str", "w2", ("w2", "sliced")),
        "projections": ("int", 128, None),
    },
}

# (keys, test, wording): a value failing its test (NaN fails all) is an error naming section.key
FLOAT_BOUNDS = [
    (("velocity.lr", "cg.lr"), lambda v: 0.0 < v < np.inf, "must be finite and > 0"),
    (("velocity.eps", "target.sigma"), lambda v: v > 0.0, "must be > 0"),
    (("velocity.beta1", "velocity.beta2", "cg.ema_rate"), lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    (("velocity.clip_grad_norm", "cg.clip_grad_norm", "cg.lambda_local", "cg.lambda_semigroup",
      "target.swiss_noise"), lambda v: v >= 0.0, "must be >= 0"),
    (("velocity.stop_time", "cg.stop_time"), lambda v: 0.5 < v < 1.0, "must lie in (0.5, 1)"),
]

_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": lambda s: s.strip(),
    "points": _parse_points,
    "floats": _parse_floats,
    "ints": _parse_ints,
}

_FORMATTERS = {
    "int": str,
    "float": lambda v: repr(float(v)),
    "bool": lambda v: "true" if v else "false",
    "str": str,
    "points": _format_points,
    "floats": lambda v: ",".join(repr(float(x)) for x in v),
    "ints": lambda v: ",".join(str(int(x)) for x in v),
}


@dataclass
class RunConfig:
    """Validated configuration: one dict per section, every key present."""

    sections: dict

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    @property
    def seed(self) -> int:
        return self.sections["run"]["seed"]


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ValueError(f"config parse error in {source}: {exc}") from exc
    sections = {}
    for name, spec in SCHEMA.items():
        sections[name] = {key: default for key, (_, default, _) in spec.items()}
    for name in parser.sections():
        if name not in SCHEMA:
            raise ValueError(f"unknown config section [{name}]")
        for key, raw in parser.items(name):
            if key not in SCHEMA[name]:
                raise ValueError(f"unknown key {key!r} in section [{name}]")
            kind, _, allowed = SCHEMA[name][key]
            try:
                value = _PARSERS[kind](raw)
            except ValueError as exc:
                raise ValueError(f"bad value for {name}.{key}: {exc}") from exc
            if allowed is not None and value not in allowed:
                raise ValueError(f"{name}.{key} must be one of {allowed}, got {value!r}")
            sections[name][key] = value
    cfg = RunConfig(sections)
    _validate(cfg)
    return cfg


def parse_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def check_seed(cfg: RunConfig):
    """Refuse a run.seed for which some seed + purpose offset is not a u64 key."""
    if not 0 <= cfg.seed <= SEED_MAX:
        raise ValueError(f"run.seed must lie in [0, {SEED_MAX}], got {cfg.seed}")


def _validate(cfg: RunConfig):
    check_seed(cfg)
    for name, spec in SCHEMA.items():
        for key, (kind, _, _) in spec.items():
            value = cfg[name][key]
            if (kind in ("float", "points", "floats") and value is not None
                    and not np.isfinite(value).all()):
                raise ValueError(f"{name}.{key} must be finite, got {_FORMATTERS[kind](value)}")
            if kind != "int" or (name, key) == ("run", "seed"):
                continue
            low = 0 if key == "iterations" else 1  # every other int key is a size or a count
            if value < low:
                raise ValueError(f"{name}.{key} must be >= {low}, got {value}")
    for keys, test, wording in FLOAT_BOUNDS:
        for dotted in keys:
            name, key = dotted.split(".")
            if not test(cfg[name][key]):
                raise ValueError(f"{dotted} {wording}, got {cfg[name][key]!r}")
    tgt = cfg["target"]
    if tgt["variant"] in ("atomic", "embedded") and tgt["atoms"] is None:
        raise ValueError("mixture targets require target.atoms")
    if tgt["variant"] == "embedded" and tgt["frame"] is None:
        raise ValueError("embedded targets require target.frame")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text with every effective key; parses back to an equal config."""
    out = io.StringIO()
    for name in SCHEMA:
        out.write(f"[{name}]\n")
        for key, (kind, _, _) in SCHEMA[name].items():
            out.write(f"{key} = {_FORMATTERS[kind](cfg[name][key])}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:16]
