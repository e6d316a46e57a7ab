"""Experiment configuration: one nested key-value file per experiment,
individual keys overridable from the command line.

Every command embeds the fully resolved config (plus the seed) in each of
its outputs, so a run is reproducible from any artifact it wrote.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .graph import GraphSpec, _read_floats, build_weights, parse_weight_family
from .simplex import Density, gibbs

POTENTIAL_KINDS = ("constant", "linear", "random", "file")
INITIAL_KINDS = ("gibbs_perturbed", "uniform", "file")
# The flow kinds dynamics.integrate runs.
KINDS = ("fpe", "phibar", "beta_zero", "master")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# The dataclasses below are the config schema: each field is one key, its
# annotation the accepted type and its default the value of an absent key.

@dataclass(frozen=True)
class GraphConfig:
    """The ``graph`` section: the weight family and the truncation size N."""

    family: str = "geometric:q=0.5"
    N: int = 20


@dataclass(frozen=True)
class PotentialConfig:
    """The ``potential`` section: how the vertex potential phi is built."""

    kind: str = "constant"
    c: float = 0.0
    slope: float = 0.1
    low: float = -1.0
    high: float = 1.0
    seed: int | None = None
    path: str | None = None


@dataclass(frozen=True)
class InitialConfig:
    """The ``initial`` section: how the start density is built."""

    kind: str = "gibbs_perturbed"
    epsilon: float = 0.5
    seed: int | None = None
    path: str | None = None


@dataclass(frozen=True)
class DynamicsConfig:
    """The ``dynamics`` section: which flow is integrated, and its sign."""

    kind: str = "fpe"
    sign: float = -1.0

    def __post_init__(self):
        if not math.isfinite(self.sign):   # it would make phibar's sort keys nan or inf
            raise ValueError("dynamics.sign must be finite")


# Most record times one trajectory may ask for (t_end / record_every): a run
# keeps nine floats of columns per record and writes a row of
# trajectory.csv for it. Under write_states each record is also a snapshot
# file, written as its span is reduced; their entries, records x N, are
# bounded by dynamics.MAX_RECORD_ENTRIES.
MAX_RECORDS = 10 ** 6


@dataclass(frozen=True)
class IntegratorConfig:
    """The ``integrator`` section: horizon, record spacing, tolerances, floor."""

    t_end: float = 5.0
    record_every: float = 0.05
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    positivity_floor: float = 1e-13

    def __post_init__(self):
        if not (0.0 < self.t_end < math.inf):
            raise ValueError("t_end must be positive and finite")
        if not (0.0 < self.record_every <= self.t_end):
            raise ValueError("record_every must lie in (0, t_end]")
        if self.t_end / self.record_every > MAX_RECORDS:
            raise ValueError(f"t_end / record_every must not exceed {MAX_RECORDS} records")
        for name in ("rel_tol", "abs_tol", "positivity_floor"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")


# Most path entries, (knots + 1) x N, one geodesic call may hold: the
# descent keeps about twenty arrays of that shape, some 350 MB at the bound.
MAX_PATH_ENTRIES = 2 * 10 ** 6


@dataclass(frozen=True)
class GeodesicConfig:
    """The ``geodesic`` section: path knots and the descent's stopping rules."""

    knots: int = 32
    max_iters: int = 2000
    grad_tol: float = 1e-8
    positivity_floor: float = 1e-13

    def __post_init__(self):
        if self.knots < 2:
            raise ValueError("need at least 2 path segments")
        if self.max_iters < 0:
            raise ValueError("geodesic.max_iters must be at least 0")
        if not (0.0 <= self.grad_tol < math.inf):
            raise ValueError("geodesic.grad_tol must be finite and at least 0")
        if not (0.0 < self.positivity_floor < math.inf):
            raise ValueError("geodesic.positivity_floor must be positive and finite")

    def check_size(self, n: int) -> None:
        """ValueError when a path over ``n`` vertices would exceed
        MAX_PATH_ENTRIES."""
        if (self.knots + 1) * n > MAX_PATH_ENTRIES:
            raise ValueError(
                f"geodesic.knots={self.knots} asks for {self.knots + 1} knots x N={n}, "
                f"more than {MAX_PATH_ENTRIES} path entries")


def _integral(v):
    if v != int(v):
        raise ValueError
    return int(v)


# Field annotations are strings (postponed evaluation) and are read as
# written, never evaluated: annotation -> (accepted types, conversion,
# description). PyYAML reads a float without a dot, such as 1e-9, as a
# string, so a number key takes a numeric string.
_TYPES = {
    "float": ((int, float, str), float, "a number"),
    "int": ((int, float), _integral, "an integer"),
    "str": ((str, int, float), str, "a string"),
    "bool": ((bool,), bool, "true or false"),
    "dict": ((dict, type(None)), lambda v: dict(v or {}), "a mapping"),
}


@functools.cache
def _schema(cls) -> dict:
    """Field name -> its section class (a field whose default is a
    dataclass) or its annotation; resolved once per class."""
    return {f.name: type(f.default) if is_dataclass(f.default) else f.type for f in fields(cls)}


def _convert(name: str, annotation: str, val):
    if val is None and annotation.endswith(" | None"):
        return None
    accepted, convert, what = _TYPES[annotation.removesuffix(" | None")]
    if isinstance(val, dict) and dict not in accepted:
        raise ConfigError(f"config key {name!r} takes a value, not a mapping")
    if isinstance(val, accepted) and (bool in accepted or not isinstance(val, bool)):
        try:
            return convert(val)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"config key {name!r} must be {what}, got {val!r}")


def _build(cls, tree, prefix: str = ""):
    """One section from its mapping: unknown keys and values of the wrong
    type are ConfigErrors, absent keys take the field default."""
    if not isinstance(tree, dict):
        raise ConfigError(f"config key {prefix[:-1]!r} must be a mapping, got {tree!r}")
    schema = _schema(cls)
    kwargs = {}
    for key, val in tree.items():
        name = f"{prefix}{key}"
        kind = schema.get(key)
        if kind is None:
            raise ConfigError(f"unknown config key {name!r}")
        kwargs[key] = _convert(name, kind, val) if isinstance(kind, str) else \
            _build(kind, val, f"{name}.")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc


def _set_dotted(tree: dict, dotted: str, value) -> None:
    """Set one dotted key; a mapping merges into a section, as in a file.
    A key below a value that is not a mapping is a ConfigError."""
    *parents, leaf = dotted.split(".")
    node = tree
    for depth, p in enumerate(parents):
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            key = ".".join(parents[:depth + 1])
            raise ConfigError(f"cannot set {dotted!r}: config key {key!r} is not a mapping")
    _merge(node, leaf, value)


def _merge(node: dict, key, value) -> None:
    """node[key] = value, except that a mapping merges into a mapping."""
    if isinstance(value, dict) and isinstance(node.get(key), dict):
        for k, v in value.items():
            _merge(node[key], k, v)
    else:
        node[key] = value


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


@dataclass(frozen=True)
class ExperimentConfig:
    """A whole experiment config: its sections and its top-level keys."""

    graph: GraphConfig = GraphConfig()
    potential: PotentialConfig = PotentialConfig()
    beta: float = 1.0
    initial: InitialConfig = InitialConfig()
    dynamics: DynamicsConfig = DynamicsConfig()
    integrator: IntegratorConfig = IntegratorConfig()
    geodesic: GeodesicConfig = GeodesicConfig()
    outputs: str = "out"
    seed: int = 0
    write_states: bool = False
    sweep: dict = field(default_factory=dict)   # free-form: dotted key -> values

    @classmethod
    def load(cls, path: str | None = None, overrides: list[str] | None = None,
             values: dict | None = None) -> "ExperimentConfig":
        """The config file (YAML or JSON), updated by the ``key.path=value``
        overrides (each value parsed as YAML), then by ``values``: dotted
        keys with values already typed. Absent keys take their defaults;
        every failure is a ConfigError, so the CLI exits 2."""
        tree = {}
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                tree = _parse_config_text(fh.read()) or {}
            if not isinstance(tree, dict):
                raise ConfigError(f"{path}: top level must be a mapping")
        for item in overrides or []:
            key, sep, val = item.partition("=")
            if not sep:
                raise ConfigError(f"override {item!r} must look like key.path=value")
            _set_dotted(tree, key.strip(), _parse_yaml(val))
        for key, val in (values or {}).items():
            _set_dotted(tree, key, val)
        return _build(cls, tree)

    def __post_init__(self):
        if self.potential.kind not in POTENTIAL_KINDS:
            raise ConfigError(f"unknown potential kind {self.potential.kind!r}")
        if self.initial.kind not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial kind {self.initial.kind!r}")
        if self.dynamics.kind not in KINDS:
            raise ConfigError(f"unknown dynamics kind {self.dynamics.kind!r}")
        if not self.beta >= 0.0:
            raise ConfigError("beta must be >= 0")
        if self.beta == 0.0 and self.initial.kind == "gibbs_perturbed":
            raise ConfigError("gibbs_perturbed initial state needs beta > 0")
        for section in ("potential", "initial"):
            sec = getattr(self, section)
            if sec.kind == "file" and not (sec.path and os.path.exists(sec.path)):
                raise ConfigError(f"{section} file {sec.path!r} does not exist")
        if self.graph.family.startswith("explicit:file="):
            p = self.graph.family.split("=", 1)[1]
            if not os.path.exists(p):
                raise ConfigError(f"weight file {p!r} does not exist")
        # rng.uniform raises OverflowError on an infinite bound or range
        low, high, eps = self.potential.low, self.potential.high, self.initial.epsilon
        for name, val in (("potential.low", low), ("potential.high", high),
                          ("initial.epsilon", eps), ("2 * initial.epsilon", 2.0 * eps),
                          ("potential.high - potential.low", high - low)):
            if not math.isfinite(val):
                raise ConfigError(f"{name} must be finite, got {val!r}")
        # checked here, not at the draw: numpy's error names no key, and a
        # seed no draw uses would be written out as given
        for name, seed in (("seed", self.seed), ("potential.seed", self.potential.seed),
                           ("initial.seed", self.initial.seed)):
            if seed is not None and seed < 0:
                raise ConfigError(f"config key {name!r} must be a non-negative integer, "
                                  f"got {seed!r}")

    def resolved(self) -> dict:
        return asdict(self)

    # -- instance construction ---------------------------------------------

    def build_spec(self) -> GraphSpec:
        family = parse_weight_family(self.graph.family)
        weights = build_weights(family, self.graph.N)
        phi = self._build_potential(len(weights))
        return GraphSpec(weights=weights, phi=phi, beta=self.beta)

    def _build_potential(self, n: int) -> np.ndarray:
        p = self.potential
        if p.kind == "constant":
            return np.full(n, p.c)
        if p.kind == "linear":
            return p.slope * np.arange(n, dtype=float)
        if p.kind == "random":
            rng = np.random.default_rng(p.seed if p.seed is not None else self.seed)
            return rng.uniform(p.low, p.high, n)
        vals = _read_floats(p.path)
        if len(vals) != n:
            raise ConfigError(f"potential file holds {len(vals)} values, need {n}")
        return np.asarray(vals)

    def build_initial(self, spec: GraphSpec) -> Density:
        p = self.initial
        if p.kind == "uniform":
            return Density(np.ones(spec.N), spec.weights)
        if p.kind == "gibbs_perturbed":
            seed = p.seed if p.seed is not None else self.seed
            return perturbed_gibbs(spec, p.epsilon, seed)
        vals = _read_floats(p.path)
        if len(vals) != spec.N:
            raise ConfigError(f"initial file holds {len(vals)} values, need {spec.N}")
        return Density.normalized(np.asarray(vals), spec.weights)


def perturbed_gibbs(spec: GraphSpec, epsilon: float, seed: int) -> Density:
    """Gibbs state with multiplicative log-uniform noise, renormalized; the
    result is always interior, matching the flow's hypotheses, or a
    ConfigError names an ``epsilon`` too large for float64."""
    star = gibbs(spec)
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-epsilon, epsilon, spec.N)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        raw = star.rho * np.exp(noise)
        rho = raw / float(np.dot(spec.m, raw))
    if not (np.isfinite(rho).all() and rho.min() > 0.0):
        raise ConfigError(f"initial.epsilon={epsilon!r} is too large: the perturbed "
                          "Gibbs state is not a finite interior density")
    return Density(rho, spec.weights)

