"""Pipeline configuration: defaults, a small `key = value` file, POLYIPA_*
environment variables and command-line flags, validated eagerly so a bad
path fails at startup, not mid-run.

Each key is declared once, as a field of PipelineConfig or of the
MiningParams or SplitSpec it holds; the field's annotation and default are
the key's type and default. Values from every source go through the same
conversion and checks, and a later source wins: flag over environment over
file over default. File paths are resolved relative to the config file's
directory; values set through POLYIPA_* variables or flags resolve relative
to the working directory. Any key the loader does not know is an error.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_type_hints

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

__all__ = ["PipelineConfig", "Resources", "load", "ENV_PREFIX", "KEYS"]

ENV_PREFIX = "POLYIPA_"


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
    n_best: int = 1

    def __post_init__(self):
        for key in ("model_order", "n_best"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")

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


# PipelineConfig fields that hold a parameter object, whose fields are keys
# too; _RENAMED names the keys that differ from their field's name.
_SECTIONS = {"mining": MiningParams, "split": SplitSpec}
_RENAMED = {("mining", "k"): "mining_k", ("mining", "threshold"): "mining_threshold"}


def _declare() -> dict[str, tuple[str | None, str, object]]:
    """Config key -> (section or None for PipelineConfig, field, annotation)."""
    keys: dict[str, tuple[str | None, str, object]] = {}
    for f, hint in get_type_hints(PipelineConfig).items():
        cls = _SECTIONS.get(f)
        if cls is None:
            keys[f] = (None, f, hint)
            continue
        for name, sub_hint in get_type_hints(cls).items():
            keys[_RENAMED.get((f, name), name)] = (f, name, sub_hint)
    return keys


_FIELDS = _declare()
KEYS = frozenset(_FIELDS)


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


def _to_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def _convert(key: str, hint, raw, base: Path | None):
    """One key's value, typed by its field's annotation hint, from its raw
    text; a file's relative paths resolve against base, and an optional
    number reads "none" or "" as None."""
    kind, *optional = get_args(hint) or (hint,)
    text = str(raw)
    if kind is Path:
        path = Path(text)
        return base / path if base is not None and not path.is_absolute() else path
    if optional and text.lower() in ("", "none"):
        return None
    if kind is bool:
        return _to_bool(key, text)
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {text!r}") from None


def load(path: str | Path | None = None, validate: bool = True,
         flags: Mapping[str, object] | None = None) -> PipelineConfig:
    """Build a PipelineConfig from an optional file, POLYIPA_* overrides and
    the given command-line flag values, keyed by config key.

    With validate (the default) every referenced data file is parsed
    immediately, so misconfiguration surfaces here.
    """
    merged: dict[str, tuple[object, Path | None]] = {}
    if path is not None:
        base = Path(path).resolve().parent
        for key, raw in _parse_file(Path(path)).items():
            merged[key] = (raw, base)
    for key, raw in [*_env_values().items(), *(flags or {}).items()]:
        merged[key] = (raw, None)

    unknown = sorted(set(merged) - KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    values: dict[str | None, dict[str, object]] = {None: {}, **{s: {} for s in _SECTIONS}}
    for key, (raw, base) in merged.items():
        section, name, hint = _FIELDS[key]
        values[section][name] = _convert(key, hint, raw, base)
    try:
        sections = {s: cls(**values[s]) for s, cls in _SECTIONS.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = PipelineConfig(**values[None], **sections)
    if validate:
        config.resources()
    return config
