"""Config file parsing, environment overrides, and eager validation."""

from __future__ import annotations

import os
import shutil
from importlib import resources as importlib_resources
from pathlib import Path

import pytest

from polyipa.config import ENV_PREFIX, PipelineConfig, load
from polyipa.errors import ConfigError


@pytest.fixture(autouse=True)
def scrub_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith(ENV_PREFIX):
            monkeypatch.delenv(name)


def _write(tmp_path, text):
    path = tmp_path / "pipeline.conf"
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_without_file():
    cfg = load(None)
    assert cfg == PipelineConfig()
    res = cfg.resources()
    assert res.inventory.bases
    assert res.features.dims == 22


def test_file_values_parsed(tmp_path):
    path = _write(tmp_path, """
# pipeline settings
mining_k = 50
mining_threshold = 2.5
exclude_existing = yes

test_size = 10
eval_size = 20
seed = 7
per_lang_cap = 100
model_order = 4
n_best = 5
""")
    cfg = load(path)
    assert cfg.mining.k == 50
    assert cfg.mining.threshold == 2.5
    assert cfg.mining.exclude_existing is True
    assert cfg.split.test_size == 10
    assert cfg.split.eval_size == 20
    assert cfg.split.seed == 7
    assert cfg.split.per_lang_cap == 100
    assert cfg.model_order == 4
    assert cfg.n_best == 5


def test_per_lang_cap_none_spelling(tmp_path):
    cfg = load(_write(tmp_path, "per_lang_cap = none\n"))
    assert cfg.split.per_lang_cap is None
    cfg = load(_write(tmp_path, "per_lang_cap =\n"))
    assert cfg.split.per_lang_cap is None


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys: minig_k"):
        load(_write(tmp_path, "minig_k = 5\n"))


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load(_write(tmp_path, "just some words\n"))


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seed must be an integer"):
        load(_write(tmp_path, "seed = seven\n"))
    with pytest.raises(ConfigError, match="mining_threshold must be a number"):
        load(_write(tmp_path, "mining_threshold = high\n"))
    with pytest.raises(ConfigError, match="exclude_existing must be a boolean"):
        load(_write(tmp_path, "exclude_existing = maybe\n"))


def test_downstream_validation_becomes_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load(_write(tmp_path, "test_size = -1\n"))
    with pytest.raises(ConfigError):
        load(_write(tmp_path, "model_order = 0\n"))
    with pytest.raises(ConfigError):
        load(_write(tmp_path, "n_best = 0\n"))


def test_env_overrides_file(tmp_path, monkeypatch):
    path = _write(tmp_path, "seed = 1\nmining_k = 10\n")
    monkeypatch.setenv("POLYIPA_SEED", "9")
    cfg = load(path)
    assert cfg.split.seed == 9
    assert cfg.mining.k == 10  # untouched file value survives


def test_env_alone_works(monkeypatch):
    monkeypatch.setenv("POLYIPA_N_BEST", "4")
    assert load(None).n_best == 4


def test_env_value_validated(monkeypatch):
    monkeypatch.setenv("POLYIPA_BOGUS_KEY", "1")
    with pytest.raises(ConfigError, match="bogus_key"):
        load(None)


def test_file_paths_resolve_against_config_dir(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    packaged = importlib_resources.files("polyipa.data") / "ipa_inventory.tsv"
    shutil.copyfile(str(packaged), data_dir / "inv.tsv")
    cfg = load(_write(tmp_path, "inventory = data/inv.tsv\n"))
    assert cfg.inventory == tmp_path.resolve() / "data" / "inv.tsv"
    assert cfg.resources().inventory.bases


def test_env_paths_stay_relative_to_cwd(tmp_path, monkeypatch):
    monkeypatch.setenv("POLYIPA_INVENTORY", "inv.tsv")
    cfg = load(None, validate=False)
    assert cfg.inventory == Path("inv.tsv")


def test_validation_catches_missing_data_file(tmp_path):
    path = _write(tmp_path, "inventory = missing.tsv\n")
    with pytest.raises(ConfigError, match="cannot load configured data file"):
        load(path)
    cfg = load(path, validate=False)  # deferred mode only records the path
    assert cfg.inventory == tmp_path.resolve() / "missing.tsv"


def test_missing_config_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load(tmp_path / "absent.conf")
