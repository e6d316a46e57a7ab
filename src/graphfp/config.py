"""Experiment configuration: one nested key-value file per experiment,
individual keys overridable from the command line.

Every command embeds the fully resolved config (plus the seed) in each of
its outputs, so a run is reproducible from any artifact it wrote.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import KINDS, IntegratorConfig
from .graph import GraphSpec, build_weights, parse_weight_family
from .metric import GeodesicConfig
from .simplex import Density, gibbs

_DEFAULTS = {
    "graph": {"family": "geometric:q=0.5", "N": 20},
    "potential": {"kind": "constant", "c": 0.0, "slope": 0.1,
                  "low": -1.0, "high": 1.0, "seed": None, "path": None},
    "beta": 1.0,
    "initial": {"kind": "gibbs_perturbed", "epsilon": 0.5, "seed": None, "path": None},
    "dynamics": {"kind": "fpe", "sign": -1.0},
    "integrator": {"t_end": 5.0, "record_every": 0.05, "rel_tol": 1e-8,
                   "abs_tol": 1e-10, "max_step": None, "positivity_floor": 1e-13},
    "geodesic": {"knots": 32, "max_iters": 2000, "grad_tol": 1e-8,
                 "init": "linear", "positivity_floor": 1e-13},
    "outputs": "out",
    "seed": 0,
    "write_states": False,
    "sweep": {},
}

POTENTIAL_KINDS = ("constant", "linear", "random", "file")
INITIAL_KINDS = ("gibbs_perturbed", "uniform", "file")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _deep_update(base: dict, extra: dict) -> dict:
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val
    return base


def _set_dotted(tree: dict, dotted: str, value) -> None:
    """Set one dotted key; a mapping merges into a section, as in a file."""
    parts = dotted.split(".")
    node = tree
    for p in parts[:-1]:
        if not isinstance(node.get(p), dict):
            node[p] = {}
        node = node[p]
    _deep_update(node, {parts[-1]: value})


def _check_keys(tree: dict, defaults: dict, prefix: str = "") -> None:
    """Every key must exist in the defaults and every default key must be
    present, sections must stay mappings and values must not become
    mappings; the entries of ``sweep`` are free-form."""
    missing = [key for key in defaults if key not in tree]
    if missing:
        raise ConfigError(f"config key {prefix + missing[0]!r} is missing")
    for key, val in tree.items():
        name = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(defaults[key], dict):
            if key == "sweep" and val is None:
                continue
            if not isinstance(val, dict):
                raise ConfigError(f"config key {name!r} must be a mapping, got {val!r}")
            if key != "sweep":
                _check_keys(val, defaults[key], f"{name}.")
        elif isinstance(val, dict):
            raise ConfigError(f"config key {name!r} takes a value, not a mapping")


def _parse_yaml(text: str):
    """YAML is imported only here: JSON configs never load it."""
    import yaml
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc


def _parse_config_text(text: str):
    """JSON is a subset of YAML: the json module reads a JSON file without
    importing a YAML parser, and any other text is parsed as YAML."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return _parse_yaml(text)


@dataclass
class ExperimentConfig:
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None = None, overrides: list[str] | None = None,
             values: dict | None = None) -> "ExperimentConfig":
        """Defaults, updated by the config file (YAML or JSON), then by the
        ``key.path=value`` overrides (each value parsed as YAML), then by
        ``values``: dotted keys with values already typed, used as given."""
        tree = copy.deepcopy(_DEFAULTS)
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = _parse_config_text(fh.read()) or {}
            if not isinstance(loaded, dict):
                raise ConfigError(f"{path}: top level must be a mapping")
            _deep_update(tree, loaded)
        for item in overrides or []:
            key, sep, val = item.partition("=")
            if not sep:
                raise ConfigError(f"override {item!r} must look like key.path=value")
            _set_dotted(tree, key.strip(), _parse_yaml(val))
        for key, val in (values or {}).items():
            _set_dotted(tree, key, val)
        cfg = cls(raw=tree)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Reject unknown keys and malformed values; every failure is a
        ConfigError, so the CLI exits 2."""
        _check_keys(self.raw, _DEFAULTS)
        try:
            self._validate()
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc

    def _validate(self) -> None:
        t = self.raw
        if t["potential"]["kind"] not in POTENTIAL_KINDS:
            raise ConfigError(f"unknown potential kind {t['potential']['kind']!r}")
        if t["initial"]["kind"] not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial kind {t['initial']['kind']!r}")
        if t["dynamics"]["kind"] not in KINDS:
            raise ConfigError(f"unknown dynamics kind {t['dynamics']['kind']!r}")
        beta = float(t["beta"])
        if beta < 0.0:
            raise ConfigError("beta must be >= 0")
        if beta == 0.0 and t["initial"]["kind"] == "gibbs_perturbed":
            raise ConfigError("gibbs_perturbed initial state needs beta > 0")
        for section, key in (("potential", "path"), ("initial", "path")):
            if t[section]["kind"] == "file":
                p = t[section].get(key)
                if not p or not os.path.exists(p):
                    raise ConfigError(f"{section} file {p!r} does not exist")
        fam = str(t["graph"]["family"])
        if fam.startswith("explicit:file="):
            p = fam.split("=", 1)[1]
            if not os.path.exists(p):
                raise ConfigError(f"weight file {p!r} does not exist")
        # every value the commands convert later, converted once here
        int(t["graph"]["N"])
        for key in ("c", "slope"):
            float(t["potential"][key])
        # rng.uniform raises OverflowError on an infinite range
        for section, key in (("potential", "low"), ("potential", "high"), ("initial", "epsilon")):
            if not math.isfinite(float(t[section][key])):
                raise ConfigError(f"{section}.{key} must be finite, got {t[section][key]!r}")
        for section in ("potential", "initial"):
            if t[section]["seed"] is not None:
                int(t[section]["seed"])
        int(t["seed"])
        float(t["dynamics"]["sign"])
        self.integrator()
        self.geodesic()

    # -- accessors ---------------------------------------------------------

    @property
    def beta(self) -> float:
        return float(self.raw["beta"])

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def outputs(self) -> str:
        return str(self.raw["outputs"])

    @property
    def dynamics_kind(self) -> str:
        return str(self.raw["dynamics"]["kind"])

    @property
    def dynamics_sign(self) -> float:
        return float(self.raw["dynamics"]["sign"])

    @property
    def write_states(self) -> bool:
        return bool(self.raw["write_states"])

    @property
    def sweep(self) -> dict:
        return dict(self.raw["sweep"] or {})

    def integrator(self) -> IntegratorConfig:
        g = self.raw["integrator"]
        max_step = g.get("max_step")
        return IntegratorConfig(
            t_end=float(g["t_end"]),
            record_every=float(g["record_every"]),
            rel_tol=float(g["rel_tol"]),
            abs_tol=float(g["abs_tol"]),
            max_step=float(max_step) if max_step is not None else float("inf"),
            positivity_floor=float(g["positivity_floor"]),
        )

    def geodesic(self) -> GeodesicConfig:
        g = self.raw["geodesic"]
        return GeodesicConfig(
            knots=int(g["knots"]),
            max_iters=int(g["max_iters"]),
            grad_tol=float(g["grad_tol"]),
            init=str(g["init"]),
            positivity_floor=float(g["positivity_floor"]),
        )

    def resolved(self) -> dict:
        return copy.deepcopy(self.raw)

    # -- instance construction ---------------------------------------------

    def build_spec(self) -> GraphSpec:
        g = self.raw["graph"]
        family = parse_weight_family(str(g["family"]))
        weights = build_weights(family, int(g["N"]))
        phi = self._build_potential(weights.truncation_N)
        return GraphSpec(weights=weights, phi=phi, beta=self.beta)

    def _build_potential(self, n: int) -> np.ndarray:
        p = self.raw["potential"]
        kind = p["kind"]
        if kind == "constant":
            return np.full(n, float(p["c"]))
        if kind == "linear":
            return float(p["slope"]) * np.arange(n, dtype=float)
        if kind == "random":
            seed = p["seed"] if p["seed"] is not None else self.seed
            rng = np.random.default_rng(int(seed))
            return rng.uniform(float(p["low"]), float(p["high"]), n)
        vals = _read_floats(p["path"])
        if len(vals) != n:
            raise ConfigError(f"potential file holds {len(vals)} values, need {n}")
        return np.asarray(vals)

    def build_initial(self, spec: GraphSpec) -> Density:
        p = self.raw["initial"]
        kind = p["kind"]
        if kind == "uniform":
            return Density(np.ones(spec.N), spec.weights)
        if kind == "gibbs_perturbed":
            seed = p["seed"] if p["seed"] is not None else self.seed
            return perturbed_gibbs(spec, float(p["epsilon"]), int(seed))
        vals = _read_floats(p["path"])
        if len(vals) != spec.N:
            raise ConfigError(f"initial file holds {len(vals)} values, need {spec.N}")
        return Density.normalized(np.asarray(vals), spec.weights)


def perturbed_gibbs(spec: GraphSpec, epsilon: float, seed: int) -> Density:
    """Gibbs state with multiplicative log-uniform noise, renormalized; the
    result is always interior, matching the flow's hypotheses."""
    star = gibbs(spec)
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-epsilon, epsilon, spec.N)
    return Density.normalized(star.rho * np.exp(noise), spec.weights)


def _read_floats(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [float(line) for line in fh if line.strip()]
