"""key=value config files and builders for the typed config objects.

One flat file can carry every section: bare keys (d1, d2, radius, nmax,
seed, ...) configure the network; prefixed keys (scene.*, surrogate.*,
train.*, augment.*) configure the generator, fault injector, schedule and
augmentation.
The keys, their types and their defaults all come from the config
dataclasses; a tuple field is written "lo:hi".  Unknown keys are rejected
so typos surface instead of silently keeping a default, and a float
that is not finite (nan, inf) is rejected.  Loading a file builds every
section of it once, so a bad value is rejected even in a section the
loading command does not use.  A config file is the one way to set these
values from the command line; configs/default.cfg in the repository
lists every key.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from pathlib import Path

from .errors import ConfigError, DataFormatError, read_text
from .network import NetworkConfig
from .synthdata import SceneConfig, SurrogateConfig
from .training import AugmentConfig, TrainConfig

# file prefix -> config dataclass
SECTIONS = (("", NetworkConfig), ("scene.", SceneConfig),
            ("surrogate.", SurrogateConfig), ("train.", TrainConfig),
            ("augment.", AugmentConfig))
# field name -> file key where the two differ
_FILE_KEYS = {"n_max": "nmax", "instances_per_scan": "instances"}


def _keys(cfg) -> dict[str, str]:
    """File key (without section prefix) -> field name of one config object."""
    return {_FILE_KEYS.get(f.name, f.name): f.name for f in fields(cfg)}


def section(cfg) -> dict:
    """One config object as {file key: value}, without the section prefix."""
    return {key: getattr(cfg, name) for key, name in _keys(cfg).items()}


def known_keys() -> set[str]:
    return {prefix + key for prefix, cls in SECTIONS for key in _keys(cls)}


def parse_config(text: str, where: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{where}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise DataFormatError(f"{where}:{lineno}: empty key or value")
        if key in out:
            raise DataFormatError(f"{where}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    path = Path(path)
    try:
        text = read_text(path)
    except OSError as exc:
        raise DataFormatError(f"cannot read config {path}: {exc}")
    mapping = parse_config(text, str(path))
    unknown = sorted(set(mapping) - known_keys())
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    try:
        for build in (net_config, scene_config, surrogate_config, train_config,
                      augment_config):
            build(mapping)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")
    return mapping


def _cast(text: str, default):
    """Parse `text` as the type of `default`; a tuple is written lo:hi."""
    if isinstance(default, tuple):
        parts = text.split(":")
        if len(parts) != len(default):
            raise ValueError(f"expected {len(default)} values written lo:hi")
        return tuple(_cast(part, d) for part, d in zip(parts, default))
    return type(default)(text)


def _build(base, mapping: dict[str, str], prefix: str, **overrides):
    """`base` with the fields its section of `mapping` sets, then every
    override that is not None; each set float must be finite, and the
    result is validated once."""
    changes = {}
    for key, name in _keys(base).items():
        text = mapping.get(prefix + key)
        if text is not None:
            try:
                changes[name] = _cast(text, getattr(base, name))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"config key {prefix}{key}={text!r}: {exc}")
    changes.update((k, v) for k, v in overrides.items() if v is not None)
    for name, value in changes.items():
        members = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in members):
            raise ConfigError(f"{prefix}{name} must be finite, got {_text(value)}")
    return replace(base, **changes)


def net_config(mapping: dict[str, str]) -> NetworkConfig:
    return _build(NetworkConfig(), mapping, "")


def _text(value) -> str:
    # str() of a float is its repr, so floats round-trip exactly
    if isinstance(value, tuple):
        return ":".join(map(str, value))
    return str(value)


def write_net_config(path, cfg: NetworkConfig) -> None:
    """The network section of `cfg`."""
    Path(path).write_text("".join(f"{key}={_text(v)}\n" for key, v in section(cfg).items()))


def scene_config(mapping: dict[str, str], seed=None) -> SceneConfig:
    return _build(SceneConfig(), mapping, "scene.",
                  seed=None if seed is None else int(seed))


def surrogate_config(mapping: dict[str, str], seed=None) -> SurrogateConfig:
    return _build(SurrogateConfig(), mapping, "surrogate.",
                  seed=None if seed is None else int(seed))


def train_config(mapping: dict[str, str], **overrides) -> TrainConfig:
    return _build(TrainConfig(), mapping, "train.", **overrides)


def augment_config(mapping: dict[str, str]) -> AugmentConfig:
    return _build(AugmentConfig(), mapping, "augment.")
