"""Flat key=value experiment configuration and derived seed streams.

Precedence: built-in defaults, then a base such as a checkpoint's stored
configuration, then the config file, then command-line overrides.
Unknown keys are rejected.  Every random decision in the package draws
from a named substream of the single `seed` key so that data splitting,
clustering, training and evaluation can be varied independently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

# substream tags appended to the root seed
STREAM_DATA = 1
STREAM_CLUSTER = 2
STREAM_INIT = 3
STREAM_TRAIN = 4
STREAM_EVAL = 5
STREAM_BASELINE = 6


def substream(seed: int, stream: int, *extra: int) -> list:
    """Seed-sequence key for an independent named random stream."""
    return [int(seed), int(stream), *[int(e) for e in extra]]


_GRANULARITIES = ("subpe", "gpe", "suppe")


@dataclass
class Config:
    embedding_dim: int = 32
    num_subsets: int = 3
    gcn_layers: int = 2
    lambda1: float = 0.5
    margin: float = 1.0
    learning_rate: float = 0.001
    batch_size: int = 256        # positives per batch; negatives ride along
    epochs: int = 100
    train_negatives: int = 1
    eval_negatives: int = 100
    ks: str = "5,10"
    kmeans_max_iters: int = 100
    kmeans_restarts: int = 3
    seed: int = 42
    ablate: str = ""

    def ks_list(self) -> list:
        return [int(k) for k in self.ks.split(",") if k.strip()]

    def ablated(self) -> list:
        return [a.strip() for a in self.ablate.split(",") if a.strip()]

    def resolved(self) -> dict:
        """File-key view of the full configuration, for echo/persistence."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def validate(self) -> None:
        """Reject any out-of-range value, naming the key."""
        if self.embedding_dim > 0 and self.embedding_dim % 2:
            raise ConfigError(f"embedding_dim must be even, got {self.embedding_dim}")
        for key in ("embedding_dim", "num_subsets", "gcn_layers", "learning_rate",
                    "batch_size", "epochs", "eval_negatives", "kmeans_max_iters",
                    "kmeans_restarts"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"configuration key {key!r} must be positive, "
                                  f"got {getattr(self, key)}")
        for key in ("lambda1", "margin", "train_negatives", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        try:
            ks = self.ks_list()
        except ValueError as e:
            raise ConfigError(f"ks must be comma-separated integers, got {self.ks!r}") from e
        if not ks:
            raise ConfigError("ks must name at least one cutoff")
        for k in ks:
            if k < 1:
                raise ConfigError(f"ks entries must be >= 1, got {k}")
        for a in self.ablated():
            if a not in _GRANULARITIES:
                raise ConfigError(f"ablate names unknown granularity {a!r}")
        if set(self.ablated()) == set(_GRANULARITIES):
            raise ConfigError("all three granularities are ablated; nothing to fuse")


# file key -> parser: every key is its attribute name, parsed by the type
# of the attribute's default
_PARSERS = {f.name: type(f.default) for f in fields(Config)}


def _apply(cfg: Config, key: str, raw: str, origin: str) -> None:
    if key not in _PARSERS:
        raise ConfigError(f"{origin}: unknown configuration key {key!r}")
    try:
        setattr(cfg, key, _PARSERS[key](raw.strip()))
    except ValueError as e:
        raise ConfigError(f"{origin}: bad value for {key!r}: {raw!r}") from e


def parse_config(path=None, overrides=(), base=()) -> Config:
    """Resolve defaults <- base <- file <- overrides, validating every key.
    `base` holds (origin, key, value) triples, such as a checkpoint's
    stored configuration; an error names a bad one's `origin`."""
    cfg = Config()
    for origin, key, value in base:
        _apply(cfg, key, str(value), origin)
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected `key = value`, got {line!r}")
            key, raw = line.split("=", 1)
            _apply(cfg, key.strip(), raw, f"{path}: line {lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must have the form key=value")
        key, raw = item.split("=", 1)
        _apply(cfg, key.strip(), raw, "command line")
    cfg.validate()
    return cfg


def write_resolved(cfg: Config, path) -> None:
    """Persist the fully resolved configuration as `key = value` lines."""
    Path(path).write_text(format_resolved(cfg) + "\n", encoding="utf-8")


def format_resolved(cfg: Config) -> str:
    return "\n".join(f"{k} = {v}" for k, v in cfg.resolved().items())
