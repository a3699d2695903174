import dataclasses
import json
import sysconfig
import threading
from collections import defaultdict
from pathlib import Path

import pytest

from structkv import pipeline, spans
from structkv.allocation import AllocationConfig
from structkv.chunking import ChunkConfig
from structkv.config import PipelineConfig, SelectionConfig
from structkv.cpg import build_cpg, export_cpg_json
from structkv.attention import MockAttentionBackend
from structkv.errors import BackendError, ConfigError, ParameterError, SchemaError, ScoringError
from structkv.lexer import SourceFile, tokenize
from structkv.parsing import parse_subset
from structkv.plan import CompressionPlan, canonical_json, read_record
from structkv.scoring import MockScorer
from structkv.chunking import partition_chunks
from structkv.pipeline import (
    index_corpus,
    load_corpus,
    load_external_cpgs,
    query_position,
    run_pipeline,
)
from plan_helpers import check_plan_invariants
from synth import synth_corpus, synth_query

GOLDEN_FILES = [
    SourceFile(
        "alpha.py",
        "def read_config(path):\n    raw = load(path)\n    cfg = parse(raw)\n"
        "    if cfg:\n        return cfg\n    return None\n",
    ),
    SourceFile(
        "beta.py",
        "def transform(data):\n    out = init()\n    for item in data:\n"
        "        out = push(out, item)\n    return out\n",
    ),
    SourceFile(
        "gamma.py",
        "def unrelated(n):\n    t = n * 2\n    while t > 0:\n"
        "        t = t - 3\n    return t\n",
    ),
]
GOLDEN_QUERY = "why does parse of raw config fail"


def golden_config(**overrides):
    cfg = PipelineConfig(
        chunking=ChunkConfig(min_chunk_tokens=4, target_chunk_tokens=512, max_chunk_tokens=4096),
        allocation=AllocationConfig(capacity_ratio=0.4),
        selection=SelectionConfig(k=2, layers=2),
        seed=7,
    )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def test_index_cuts_each_chunks_own_tokens():
    files = synth_corpus(3, n_files=4)
    index = index_corpus(files, ChunkConfig(min_chunk_tokens=8, target_chunk_tokens=40))
    assert len(index.tokens) == len(index.chunks) > len(files)
    by_file = {f.path: tokenize(f) for f in files}
    for chunk, tokens in zip(index.chunks, index.tokens):
        start, end = chunk.token_range
        assert tokens == by_file[chunk.file][start:end]
    for path, file_tokens in by_file.items():
        own = [t for c, toks in zip(index.chunks, index.tokens) if c.file == path for t in toks]
        assert own == file_tokens


def test_golden_config_round_trips_through_json():
    cfg = golden_config()
    assert read_record(PipelineConfig, json.loads(canonical_json(cfg)), "config") == cfg


class TestQueryPosition:
    def test_formula(self):
        assert query_position(5, [10, 20]) == 25

    def test_zero_prefix(self):
        assert query_position(0, [7]) == 7

    def test_empty_lengths_convention(self):
        assert query_position(4, []) == 4
        assert query_position(0, []) == 0


class TestRunPipeline:
    def test_full_budget_is_identity(self):
        files = [GOLDEN_FILES[0]]
        cfg = golden_config(
            allocation=AllocationConfig(capacity_ratio=1.0),
            selection=SelectionConfig(k=1, layers=2),
        )
        plan, report = run_pipeline(files, GOLDEN_QUERY, cfg)
        (chunk,) = plan.chunks
        for layer in chunk.layers:
            assert list(layer.kept) == list(range(chunk.length))
        assert report.structure_score == 1.0

    def test_zero_ratio_rejected(self):
        with pytest.raises(ConfigError):
            AllocationConfig(capacity_ratio=0.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ParameterError):
            run_pipeline([], "q", golden_config())

    def test_duplicate_paths_rejected(self):
        for second in (GOLDEN_FILES[0].content, "y = 2\n"):  # same file, other contents
            files = [GOLDEN_FILES[0], SourceFile(GOLDEN_FILES[0].path, second)]
            with pytest.raises(ParameterError, match="duplicate path in corpus: alpha.py"):
                run_pipeline(files, GOLDEN_QUERY, golden_config())

    def test_golden_fixture(self):
        plan, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        expected = Path(__file__).parent / "data" / "golden_plan.json"
        assert plan.to_json() + "\n" == expected.read_text(encoding="utf-8")

    def test_determinism_across_workers_and_runs(self):
        texts = set()
        for workers in (1, 8):
            for _ in range(3):
                plan, _ = run_pipeline(
                    GOLDEN_FILES, GOLDEN_QUERY, golden_config(workers=workers)
                )
                texts.add(plan.to_json())
        assert len(texts) == 1

    def test_only_scoring_leaves_the_calling_thread(self, monkeypatch):
        # workers is the number of score requests in flight; graphs, spans and
        # attention run on the caller's thread in chunk-id order
        threads = defaultdict(set)

        def record(name, fn):
            def wrapped(*args, **kwargs):
                threads[name].add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapped

        for owner, attr in [
            (pipeline, "chunk_graph"),
            (spans, "protect_chunk"),
            (MockAttentionBackend, "attention_window"),
            (MockScorer, "score"),
        ]:
            monkeypatch.setattr(owner, attr, record(attr, getattr(owner, attr)))
        cfg = golden_config()
        cfg = dataclasses.replace(cfg, span=dataclasses.replace(cfg.span, enabled=False))
        pooled, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, dataclasses.replace(cfg, workers=4))
        me = threading.get_ident()
        assert threads["chunk_graph"] == threads["protect_chunk"] == {me}
        assert threads["attention_window"] == {me}  # spans off, so attention ran
        assert threads["score"] - {me}
        alone, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        assert pooled.to_json() == alone.to_json()

    def test_kept_indices_map_to_valid_positions(self):
        corpus = synth_corpus(seed=3, n_files=6)
        cfg = golden_config(
            selection=SelectionConfig(k=4, layers=3),
            prefix="system preamble with instructions",
        )
        plan, _ = run_pipeline(corpus, synth_query(3, corpus), cfg)
        assert plan.prefix_len > 0
        for chunk in plan.chunks:
            for layer in chunk.layers:
                assert len(layer.kept) == min(chunk.budget, chunk.length)
                assert set(chunk.protected) <= set(layer.kept)
                for idx, pos in zip(layer.kept, layer.positions):
                    assert 0 <= idx < chunk.length
                    assert pos == plan.prefix_len + idx
                    assert pos < plan.query_start_position

    def test_query_position_exceeds_all_retained_positions(self):
        plan, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        top = max(
            pos for c in plan.chunks for l in c.layers for pos in l.positions
        )
        assert plan.query_start_position > top

    def test_scoring_failure_carries_chunk_id(self):
        cfg = golden_config(
            scorer=dataclasses.replace(golden_config().scorer, backend="http", url="http://127.0.0.1:9"),
        )
        cfg = dataclasses.replace(
            cfg, scorer=dataclasses.replace(cfg.scorer, retries=0, timeout_s=0.05)
        )
        with pytest.raises(ScoringError):
            run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, cfg)

    def test_fully_protected_chunk_skips_attention(self, monkeypatch):
        # golden chunk 0 protects exactly its budget (18 tokens); chunk 1
        # protects nothing and is the only one that needs attention
        calls = []
        fetch = MockAttentionBackend.attention_window

        def recording(self, chunk_id, layer, length):
            calls.append((chunk_id, layer))
            return fetch(self, chunk_id, layer, length)

        monkeypatch.setattr(MockAttentionBackend, "attention_window", recording)
        plan, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        assert sorted(calls) == [(1, 0), (1, 1)]
        full = plan.chunks[0]
        assert full.chunk_id == 0 and len(full.protected) == full.budget
        first, *rest = full.layers
        assert rest and all(
            layer.kept is first.kept and layer.positions is first.positions for layer in rest
        )
        expected = Path(__file__).parent / "data" / "golden_plan.json"
        assert plan.to_json() + "\n" == expected.read_text(encoding="utf-8")

    def test_attention_failure_names_the_chunk_that_asked(self):
        cfg = golden_config()
        cfg = dataclasses.replace(
            cfg,
            attention=dataclasses.replace(
                cfg.attention, backend="http", url="http://127.0.0.1:9", retries=0, timeout_s=0.05
            ),
        )
        with pytest.raises(BackendError) as err:
            run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        assert err.value.chunk_id == 1

    def test_external_cpg_documents_override_builtin(self):
        # export the builtin graphs and feed the documents back in: the plan
        # must match the all-builtin run
        cfg = golden_config()
        baseline, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, cfg)

        docs = {}
        next_id = 0
        for f in sorted(GOLDEN_FILES, key=lambda f: f.path):
            toks = tokenize(f)
            for chunk in partition_chunks(f, toks, cfg.chunking, start_id=next_id):
                next_id = chunk.id + 1
                own = toks[chunk.token_range[0] : chunk.token_range[1]]
                docs[chunk.id] = export_cpg_json(build_cpg(parse_subset(own), chunk, own))

        plan, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=docs)
        assert plan.to_json() == baseline.to_json()

    def test_external_file_without_document_degrades_to_attention_only(self):
        empty = {i: json.dumps({"chunk_id": i, "nodes": [], "edges": []}) for i in range(3)}
        plan, report = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config(), external_cpgs=empty)
        assert len(plan.chunks) == 2
        for chunk in plan.chunks:
            assert chunk.sigma == 0.0
            assert chunk.protected == ()
        assert report.pairs_counted == 0

    def test_sidecar_with_repeated_chunk_id_rejected(self, tmp_path):
        sidecar = tmp_path / "cpgs.json"
        doc = {"chunk_id": 1, "nodes": [], "edges": []}
        sidecar.write_text(json.dumps([doc, {"chunk_id": 0, "nodes": [], "edges": []}, doc]))
        with pytest.raises(SchemaError, match=r"cpgs\.json.*chunk_id 1"):
            load_external_cpgs(sidecar)

    def test_documents_for_chunks_the_corpus_lacks_rejected(self):
        # the golden corpus has chunks 0-2; a renumbered sidecar must not be ignored
        docs = {i: json.dumps({"chunk_id": i, "nodes": [], "edges": []}) for i in (1, 99, -1)}
        with pytest.raises(SchemaError, match=r"chunk ids the corpus lacks: \[-1, 99\]$"):
            run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config(), external_cpgs=docs)

    def test_mock_seed_changes_plan(self):
        a, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config(seed=7))
        b, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config(seed=8))
        assert a.to_json() != b.to_json()

    def test_span_protection_disable_flag(self):
        cfg = golden_config()
        cfg = dataclasses.replace(cfg, span=dataclasses.replace(cfg.span, enabled=False))
        plan, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        for chunk in plan.chunks:
            assert chunk.spans == () and chunk.protected == ()


def test_invariants_hold_on_stdlib_packages():
    """Real code, including sources declared in latin-1 and koi8-r: every
    chunk is planned and every layer keeps the paper's invariants."""
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    cfg = PipelineConfig(selection=SelectionConfig(k=1000, layers=2), seed=5)
    for package in ("json", "test/encoded_modules"):
        corpus = load_corpus(stdlib / package)
        plan, _ = run_pipeline(corpus, "decode the encoded module text", cfg)
        assert {c.file for c in plan.chunks} == {f.path for f in corpus}
        assert check_plan_invariants(plan) == 2 * len(plan.chunks)
        for chunk in plan.chunks:
            # protection fills the whole budget or is empty, and a protected
            # chunk keeps exactly its protected set on every layer
            assert len(chunk.protected) in (0, chunk.budget)
            if chunk.protected:
                assert all(layer.kept == chunk.protected for layer in chunk.layers)
        assert CompressionPlan.from_json(plan.to_json()) == plan
