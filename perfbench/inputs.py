"""Inputs for the benchmark workloads: corpora, query streams, configs.

The workload seed picks the order of the stdlib corpora and the queries.
It reaches the program itself only as the mock-backend seed in the config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
import sysconfig
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from structkv import AttentionConfig, PipelineConfig, ScorerConfig, SelectionConfig
from structkv.allocation import AllocationConfig

STDLIB = Path(sysconfig.get_paths()["stdlib"])
ASYNCIO = STDLIB / "asyncio"
# Same pattern as structkv.load_corpus's default include.
PATTERN = "**/*.py"
# k at least the chunk count of any corpus here: every chunk is selected.
ALL_CHUNKS = 100_000

_DEF = re.compile(r"^[ \t]*(?:async[ \t]+)?def[ \t]+([A-Za-z_]\w*)", re.M)


@dataclass(frozen=True)
class Job:
    """One timed plan: a query against a corpus directory."""

    label: str
    query: str
    directory: Path


@dataclass
class Workload:
    name: str
    config: PipelineConfig
    jobs: Iterator[Job]
    # False: plan every job once, however long that takes.
    time_boxed: bool
    # Plans made whatever --seconds says; structure_score averages these,
    # so it depends on the seed only, never on how fast the program is.
    min_plans: int
    # Good plans planned again with the other worker count, to check that
    # plan.json does not depend on it; None: every one.
    swap_plans: int | None = None
    # Jobs planned untimed before the clock starts, each with its own query.
    warmup_plans: int = 0


def corpus_paths(directory: Path) -> list[Path]:
    return sorted(p for p in directory.glob(PATTERN) if p.is_file())


def stdlib_packages() -> list[Path]:
    """Every top-level stdlib package except ``test``, plus
    ``test/encoded_modules``, whose files are not UTF-8."""
    packages = sorted(
        p for p in STDLIB.iterdir() if (p / "__init__.py").is_file() and p.name != "test"
    )
    return packages + [STDLIB / "test" / "encoded_modules"]


def def_names(texts: list[str]) -> list[str]:
    return sorted({m for text in texts for m in _DEF.findall(text)})


def read_texts(directory: Path) -> list[str]:
    return [p.read_bytes().decode("utf-8", errors="replace") for p in corpus_paths(directory)]


def make_query(names: list[str], rng: random.Random, fallback: str) -> str:
    picks = rng.sample(names, k=min(3, len(names))) if names else [fallback]
    return "where does " + " call ".join(picks) + " go wrong"


def query_stream(names: list[str], rng: random.Random) -> Iterator[str]:
    """Distinct queries, each naming corpus functions."""
    seen: set[str] = set()
    while True:
        query = make_query(names, rng, "main")
        if query not in seen:
            seen.add(query)
            yield query


def build(name: str, seed: int, url: str | None = None) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "stdlib_cold":
        dirs = stdlib_packages()
        rng.shuffle(dirs)
        jobs = [
            Job(
                label=str(d.relative_to(STDLIB)),
                query=make_query(def_names(read_texts(d)), rng, d.name),
                directory=d,
            )
            for d in dirs
        ]
        cfg = PipelineConfig(selection=SelectionConfig(k=16, layers=4), seed=seed)
        return Workload(name, cfg, iter(jobs), time_boxed=False, min_plans=len(jobs))
    queries = query_stream(def_names(read_texts(ASYNCIO)), rng)
    jobs = (Job(f"q{i}", q, ASYNCIO) for i, q in enumerate(queries))
    if name == "asyncio_deep":
        cfg = PipelineConfig(
            selection=SelectionConfig(k=ALL_CHUNKS, layers=32),
            allocation=AllocationConfig(capacity_ratio=0.4),
            workers=2,
            seed=seed,
        )
        # One workers=1 re-plan costs more than a timed plan; checking every
        # timed plan would take the run past its time budget.
        return Workload(name, cfg, jobs, time_boxed=True, min_plans=3, swap_plans=1)
    if name == "asyncio_http":
        if url is None:
            raise ValueError("asyncio_http needs the stub server's url")
        # One worker: with two, four busy threads in two processes shared
        # the two cores, and plan time followed how they were scheduled.
        cfg = PipelineConfig(
            selection=SelectionConfig(k=30, layers=4),
            scorer=ScorerConfig(backend="http", url=url),
            attention=AttentionConfig(backend="http", url=url),
            workers=1,
            seed=seed,
        )
        # The warm-up plan fills the stub's cache of lexed token texts.
        return Workload(name, cfg, jobs, time_boxed=True, min_plans=4, warmup_plans=1)
    raise ValueError(f"unknown workload {name!r}")


def mock_twin(cfg: PipelineConfig) -> PipelineConfig:
    """The same config with both backends in-process."""
    return dataclasses.replace(
        cfg,
        scorer=dataclasses.replace(cfg.scorer, backend="mock", url=None),
        attention=dataclasses.replace(cfg.attention, backend="mock", url=None),
    )


SWEEP_CAPACITIES = (0.2, 0.4, 0.6)
SWEEP_QUERIES = 3


def sweep_config(seed: int, capacity: float, spans: bool) -> PipelineConfig:
    """Quality-sweep config: the ROADMAP asyncio table's k=30, 4 layers."""
    cfg = PipelineConfig(
        selection=SelectionConfig(k=30, layers=4),
        allocation=AllocationConfig(capacity_ratio=capacity),
        seed=seed,
    )
    return dataclasses.replace(cfg, span=dataclasses.replace(cfg.span, enabled=spans))


def content_digest(named_bytes: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for name, data in named_bytes:
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()

