"""Config files: YAML and JSON read alike, malformed text is a ConfigError."""

import json

import pytest
import yaml

from graphfp.config import ConfigError, ExperimentConfig


@pytest.mark.parametrize("name", ["decay.yaml", "master.yaml", "talagrand.yaml", "grad_tol"])
def test_yaml_config_equals_its_json_twin(tmp_path, name):
    if name == "grad_tol":
        # PyYAML reads a float without a dot as a string; the twin holds the float
        path = tmp_path / "c.yaml"
        path.write_text("geodesic: {grad_tol: 1e-9}\n")
        tree = {"geodesic": {"grad_tol": 1e-9}}
    else:
        path = f"configs/{name}"
        with open(path, encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps(tree))
    from_yaml = ExperimentConfig.load(str(path)).resolved()
    assert ExperimentConfig.load(str(twin)).resolved() == from_yaml
    assert type(from_yaml["geodesic"]["grad_tol"]) is float


def test_yaml_only_syntax_is_read(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("# comment\ngraph:\n  N: 12\nwrite_states: yes\n")
    cfg = ExperimentConfig.load(str(path))
    assert cfg.graph.N == 12 and cfg.write_states is True


@pytest.mark.parametrize("text", ["graph: [", "{\"graph\": {\"N\": 12}", "- 1\n- 2\n"])
def test_malformed_or_non_mapping_file_is_config_error(tmp_path, text):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError):
        ExperimentConfig.load(str(path))


def test_typed_values_are_used_as_given():
    cfg = ExperimentConfig.load(None, ["outputs=elsewhere"], {"outputs": "null", "seed": 7})
    assert cfg.outputs == "null" and cfg.seed == 7


def test_defaults_are_the_cli_defaults():
    cfg = ExperimentConfig.load()
    assert cfg == ExperimentConfig()
    assert (cfg.integrator.t_end, cfg.integrator.record_every) == (5.0, 0.05)


@pytest.mark.parametrize("tree", [
    {"graph": {"N": 12.7}}, {"graph": {"N": "12"}}, {"seed": True}, {"write_states": "no"},
    {"write_states": 1}, {"graph": {"family": None}},
    {"outputs": False}, {"integrator": {"rel_tol": None}}, {"sweep": [1]},
    {"potential": {"seed": 0.5}}, {"geodesic": {"grad_tol": float("nan")}},
    {"geodesic": {"grad_tol": -1.0}}, {"geodesic": {"max_iters": -1}},
    {"geodesic": {"positivity_floor": -1.0}}, {"geodesic": {"positivity_floor": 0.0}},
    {"seed": -1}, {"potential": {"seed": -1}}, {"initial": {"seed": -1}},
    {"dynamics": {"sign": float("nan")}}, {"dynamics": {"sign": float("inf")}}])
def test_wrong_type_is_config_error(tree):
    with pytest.raises(ConfigError):
        ExperimentConfig.load(values=tree)


def test_values_are_converted_to_their_declared_type():
    cfg = ExperimentConfig.load(values={"graph": {"N": 12.0}, "beta": 2, "outputs": 7,
                                  "potential": {"seed": 3.0},
                                  "geodesic": {"grad_tol": "1e-9"}, "sweep": None})
    assert type(cfg.graph.N) is int and cfg.graph.N == 12
    assert type(cfg.beta) is float and cfg.beta == 2.0
    assert cfg.outputs == "7" and cfg.potential.seed == 3 and type(cfg.potential.seed) is int
    assert cfg.geodesic.grad_tol == 1e-9 and cfg.sweep == {}
