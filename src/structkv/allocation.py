"""Structure-aware budget allocation: structural scores become capacity
multipliers, and multipliers scale the base retention ratio into per-chunk
token budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, ParameterError


@dataclass(frozen=True)
class AllocationConfig:
    capacity_ratio: float = 0.4  # base retention ratio r
    capacity_ratio_max: float = 1.0
    multiplier_min: float = 0.5
    multiplier_max: float = 1.5
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.capacity_ratio <= 1.0):
            raise ConfigError(f"capacity_ratio must be in (0, 1], got {self.capacity_ratio}")
        if not (0.0 < self.capacity_ratio_max <= 1.0):
            raise ConfigError(
                f"capacity_ratio_max must be in (0, 1], got {self.capacity_ratio_max}"
            )
        if self.capacity_ratio > self.capacity_ratio_max:
            raise ConfigError("capacity_ratio must not exceed capacity_ratio_max")
        for name in ("multiplier_min", "multiplier_max", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.multiplier_min <= self.multiplier_max):
            raise ConfigError(
                "multipliers must satisfy 0 < min <= max, got "
                f"[{self.multiplier_min}, {self.multiplier_max}]"
            )
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


def normalize_scores(sigmas: list[float], cfg: AllocationConfig) -> list[float]:
    """Min-max scale scores over the selected set; a flat profile maps to 0.5."""
    if not sigmas:
        raise ParameterError("cannot normalize an empty score list")
    lo = min(sigmas)
    hi = max(sigmas)
    if hi == lo:
        return [0.5] * len(sigmas)
    span = max(cfg.epsilon, hi - lo)
    return [(s - lo) / span for s in sigmas]


def multiplier(s: float, cfg: AllocationConfig) -> float:
    clipped = min(1.0, max(0.0, s))
    return cfg.multiplier_min + (cfg.multiplier_max - cfg.multiplier_min) * clipped


def budget(chunk_len: int, m: float, cfg: AllocationConfig) -> int:
    if chunk_len <= 0:
        raise ParameterError(f"chunk length must be positive, got {chunk_len}")
    ratio = min(cfg.capacity_ratio_max, cfg.capacity_ratio * m)
    return math.floor(chunk_len * ratio)
