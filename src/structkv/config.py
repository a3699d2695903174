"""Aggregate engine configuration, read from JSON by :func:`plan.read_record`."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .allocation import AllocationConfig
from .chunking import ChunkConfig
from .errors import ConfigError, SchemaError
from .plan import decode_json, fingerprint, read_record
from .spans import SpanConfig


@dataclass(frozen=True)
class BackendConfig:
    """The fields the scorer and attention sections share."""

    backend: str = "mock"  # "mock" | "http"
    url: str | None = None
    timeout_s: float = 30.0
    retries: int = 2

    def __post_init__(self) -> None:
        if self.backend not in ("mock", "http"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == "http" and not self.url:
            raise ConfigError("http backend requires a url")
        if not self.timeout_s > 0:
            raise ConfigError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.retries < 0:
            raise ConfigError(f"retries must be non-negative, got {self.retries}")


@dataclass(frozen=True)
class ScorerConfig(BackendConfig):
    pass


@dataclass(frozen=True)
class AttentionConfig(BackendConfig):
    window: int = 128
    pool_window: int = 5
    dim: int = 32

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window < 1 or self.dim < 1:
            raise ConfigError("attention window and dim must be positive")
        if self.pool_window < 1 or self.pool_window % 2 == 0:
            raise ConfigError(f"pool_window must be odd, got {self.pool_window}")


@dataclass(frozen=True)
class SelectionConfig:
    k: int = 6
    layers: int = 4

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.layers < 1:
            raise ConfigError(f"layers must be positive, got {self.layers}")


@dataclass(frozen=True)
class PipelineConfig:
    chunking: ChunkConfig = field(default_factory=ChunkConfig)
    allocation: AllocationConfig = field(default_factory=AllocationConfig)
    span: SpanConfig = field(default_factory=SpanConfig)
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    seed: int = 0
    workers: int = 1
    prefix: str = ""
    corpus_dir: str | None = None
    query: str | None = None
    include: tuple[str, ...] = ("**/*.py",)
    external_cpg_file: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be positive, got {self.workers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for pattern in self.include:
            if not pattern or Path(pattern).is_absolute() or ".." in Path(pattern).parts:
                raise ConfigError(f"include pattern {pattern!r} must stay under the corpus root")

    def fingerprint(self) -> str:
        """Hash of every knob that shapes the plan (paths and workers excluded)."""
        return fingerprint(
            {
                f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if f.name not in ("corpus_dir", "external_cpg_file", "workers")
            }
        )

    @classmethod
    def from_dict(cls, doc: object, what: str = "config") -> "PipelineConfig":
        """The config ``doc`` holds; see :func:`read_record`. Any mismatch
        with the records' fields raises :class:`ConfigError`."""
        try:
            return read_record(cls, doc, what)
        except SchemaError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            return cls.from_dict(decode_json(Path(path).read_bytes(), str(path)), str(path))
        except SchemaError as exc:  # from decoding; from_dict raises ConfigError
            raise ConfigError(str(exc)) from None
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
