"""Pipeline configuration: a small `key = value` file plus environment
overrides, validated eagerly so a bad path fails at startup, not mid-run.

File paths are resolved relative to the config file's directory; values set
through POLYIPA_* environment variables resolve relative to the working
directory. Any key the loader does not know is an error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .features import FeatureTable, default_feature_table
from .ipa import (
    IpaInventory,
    NotationChart,
    TranscriptionSystem,
    _read_lines,
    default_chart,
    default_inventory,
)
from .lexicon import (
    LanguageRegistry,
    ScriptTable,
    default_registry,
    default_scripts,
)
from .mining import MiningParams
from .splits import SplitSpec

__all__ = ["PipelineConfig", "Resources", "load", "ENV_PREFIX"]

ENV_PREFIX = "POLYIPA_"

_PATH_KEYS = ("inventory", "features", "xsampa_chart", "arpabet_chart",
              "iso639", "lang_scripts")
_INT_KEYS = ("mining_k", "test_size", "eval_size", "seed", "max_tokens",
             "model_order", "em_iterations", "n_best")
_OPT_INT_KEYS = ("per_lang_cap", "beam_width")
_FLOAT_KEYS = ("mining_threshold",)
_BOOL_KEYS = ("exclude_existing",)
_ALL_KEYS = frozenset(_PATH_KEYS + _INT_KEYS + _OPT_INT_KEYS + _FLOAT_KEYS + _BOOL_KEYS)


@dataclass(frozen=True)
class Resources:
    """The parsed data tables every subcommand shares."""

    inventory: IpaInventory
    features: FeatureTable
    xsampa: NotationChart
    arpabet: NotationChart
    registry: LanguageRegistry
    scripts: ScriptTable


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings; a None path means the packaged data file."""

    inventory: Path | None = None
    features: Path | None = None
    xsampa_chart: Path | None = None
    arpabet_chart: Path | None = None
    iso639: Path | None = None
    lang_scripts: Path | None = None
    mining: MiningParams = field(default_factory=MiningParams)
    split: SplitSpec = field(default_factory=SplitSpec)
    model_order: int = 6
    em_iterations: int = 6
    n_best: int = 1
    beam_width: int | None = None

    def resources(self) -> Resources:
        """Load every referenced table, falling back to packaged data."""
        try:
            inv = IpaInventory.from_file(self.inventory) if self.inventory else default_inventory()
            feats = FeatureTable.from_file(self.features) if self.features else default_feature_table()
            xs = NotationChart.from_file(self.xsampa_chart) if self.xsampa_chart \
                else default_chart(TranscriptionSystem.XSAMPA)
            ar = NotationChart.from_file(self.arpabet_chart) if self.arpabet_chart \
                else default_chart(TranscriptionSystem.ARPABET)
            reg = LanguageRegistry.from_file(self.iso639) if self.iso639 else default_registry()
            scr = ScriptTable.from_file(self.lang_scripts) if self.lang_scripts else default_scripts()
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load configured data file: {exc}") from exc
        return Resources(inv, feats, xs, ar, reg, scr)


def _parse_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = _read_lines(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        values[key.strip()] = value.strip()
    return values


def _env_values() -> dict[str, str]:
    values: dict[str, str] = {}
    for name, value in os.environ.items():
        if name.startswith(ENV_PREFIX):
            values[name[len(ENV_PREFIX):].lower()] = value
    return values


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _to_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def load(path: str | Path | None = None, validate: bool = True) -> PipelineConfig:
    """Build a PipelineConfig from an optional file and POLYIPA_* overrides.

    With validate (the default) every referenced data file is parsed
    immediately, so misconfiguration surfaces here.
    """
    merged: dict[str, tuple[str, Path | None]] = {}
    if path is not None:
        base = Path(path).resolve().parent
        for key, raw in _parse_file(Path(path)).items():
            merged[key] = (raw, base)
    for key, raw in _env_values().items():
        merged[key] = (raw, None)

    unknown = sorted(set(merged) - _ALL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    paths: dict[str, Path | None] = {k: None for k in _PATH_KEYS}
    ints: dict[str, int] = {}
    opt_ints: dict[str, int | None] = {k: None for k in _OPT_INT_KEYS}
    floats: dict[str, float] = {}
    bools: dict[str, bool] = {}
    for key, (raw, base) in merged.items():
        if key in _PATH_KEYS:
            p = Path(raw)
            if base is not None and not p.is_absolute():
                p = base / p
            paths[key] = p
        elif key in _INT_KEYS:
            ints[key] = _to_int(key, raw)
        elif key in _OPT_INT_KEYS:
            opt_ints[key] = None if raw.lower() in ("", "none") else _to_int(key, raw)
        elif key in _FLOAT_KEYS:
            try:
                floats[key] = float(raw)
            except ValueError:
                raise ConfigError(f"{key} must be a number, got {raw!r}") from None
        elif key in _BOOL_KEYS:
            bools[key] = _to_bool(key, raw)

    try:
        mining = MiningParams(
            k=ints.get("mining_k", 10000),
            threshold=floats.get("mining_threshold", 5.0),
            exclude_existing=bools.get("exclude_existing", False),
        )
        split = SplitSpec(
            test_size=ints.get("test_size", 5000),
            eval_size=ints.get("eval_size", 5000),
            seed=ints.get("seed", 0),
            max_tokens=ints.get("max_tokens", 40),
            per_lang_cap=opt_ints.get("per_lang_cap"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    model_order = ints.get("model_order", 6)
    em_iterations = ints.get("em_iterations", 6)
    n_best = ints.get("n_best", 1)
    if model_order < 1:
        raise ConfigError("model_order must be >= 1")
    if em_iterations < 1:
        raise ConfigError("em_iterations must be >= 1")
    if n_best < 1:
        raise ConfigError("n_best must be >= 1")
    beam_width = opt_ints.get("beam_width")
    if beam_width is not None and beam_width < 1:
        raise ConfigError("beam_width must be >= 1 when given")

    config = PipelineConfig(
        inventory=paths["inventory"],
        features=paths["features"],
        xsampa_chart=paths["xsampa_chart"],
        arpabet_chart=paths["arpabet_chart"],
        iso639=paths["iso639"],
        lang_scripts=paths["lang_scripts"],
        mining=mining,
        split=split,
        model_order=model_order,
        em_iterations=em_iterations,
        n_best=n_best,
        beam_width=beam_width,
    )
    if validate:
        config.resources()
    return config
