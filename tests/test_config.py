"""Config files: YAML and JSON read alike, malformed text is a ConfigError."""

import json

import pytest
import yaml

from graphfp.config import ConfigError, ExperimentConfig


@pytest.mark.parametrize("name", ["decay.yaml", "master.yaml", "talagrand.yaml"])
def test_yaml_config_equals_its_json_twin(tmp_path, name):
    with open(f"configs/{name}", encoding="utf-8") as fh:
        tree = yaml.safe_load(fh)
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps(tree))
    from_yaml = ExperimentConfig.load(f"configs/{name}").resolved()
    assert ExperimentConfig.load(str(twin)).resolved() == from_yaml


def test_yaml_only_syntax_is_read(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("# comment\ngraph:\n  N: 12\nwrite_states: yes\n")
    cfg = ExperimentConfig.load(str(path))
    assert cfg.raw["graph"]["N"] == 12 and cfg.write_states is True


@pytest.mark.parametrize("text", ["graph: [", "{\"graph\": {\"N\": 12}", "- 1\n- 2\n"])
def test_malformed_or_non_mapping_file_is_config_error(tmp_path, text):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError):
        ExperimentConfig.load(str(path))


def test_typed_values_are_used_as_given():
    cfg = ExperimentConfig.load(None, ["outputs=elsewhere"], {"outputs": "null", "seed": 7})
    assert cfg.outputs == "null" and cfg.raw["seed"] == 7
