import dataclasses
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import sysconfig
import threading
from collections import defaultdict
from pathlib import Path

import pytest

import numpy as np

import structkv
from structkv import pipeline, spans
from structkv.allocation import AllocationConfig
from structkv.chunking import ChunkConfig
from structkv.config import PipelineConfig, SelectionConfig
from structkv.cpg import Cpg, CpgEdge, CpgNode, build_cpg, export_cpg_json
from structkv.attention import MockAttentionBackend
from structkv.errors import (
    BackendError,
    ConfigError,
    EncodingError,
    ParameterError,
    SchemaError,
    ScoringError,
)
from structkv.lexer import SourceFile, Token, tokenize
from structkv.parsing import parse_subset
from structkv.plan import CompressionPlan, canonical_json, read_record
from structkv.scoring import MockScorer
from structkv.spans import DEFAULT_SPAN_WEIGHTS, SpanConfig
from structkv.chunking import partition_chunks
from structkv.pipeline import (
    index_corpus,
    load_corpus,
    load_external_cpgs,
    query_position,
    run_pipeline,
)
from plan_helpers import (
    GOLDEN_FILES,
    GOLDEN_QUERY,
    check_plan_invariants,
    golden_config,
    sans_fingerprint,
    stub_config,
)
from synth import synth_corpus, synth_query

# sorts before every golden file, so it shifts their chunk ids by one
FIRST_FILE = SourceFile("aaa.py", "def first(x):\n    y = x + 1\n    return y\n")


def test_index_cuts_each_chunks_own_tokens():
    files = synth_corpus(3, n_files=4)
    chunking = ChunkConfig(min_chunk_tokens=8, target_chunk_tokens=40)
    index = index_corpus(files, chunking, SpanConfig())
    assert len(index.chunks) > len(files)
    by_file = {f.path: tokenize(f) for f in files}
    for chunk in index.chunks:
        start, end = chunk.token_range
        assert index.tokens(chunk.id) == by_file[chunk.file][start:end]
    for path, file_tokens in by_file.items():
        own = [t for c in index.chunks if c.file == path for t in index.tokens(c.id)]
        assert own == file_tokens


def test_golden_config_round_trips_through_json():
    cfg = golden_config()
    assert read_record(PipelineConfig, json.loads(canonical_json(cfg)), "config") == cfg


def test_largest_seed_round_trips_through_the_plan():
    plan, _ = run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config(seed=2**64 - 1))
    assert plan.seed == 2**64 - 1
    assert CompressionPlan.from_json(plan.to_json()) == plan


def test_seed_past_64_bits_refused_before_planning():
    # a plan would record it as a number the plan reader takes for a float
    message = r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"
    with pytest.raises(ConfigError, match=message):
        golden_config(seed=2**64)
    with pytest.raises(ConfigError, match=message):
        PipelineConfig.from_dict({"seed": 2**64})


def test_plans_do_not_depend_on_the_hash_seed():
    """Span scores add weights in one fixed order, so a plan is the same
    bytes under every PYTHONHASHSEED; with these weights the sum of three
    depends on the order of its terms."""
    weights = {**DEFAULT_SPAN_WEIGHTS, "call": 0.1, "control": 0.2, "return": 0.3}
    cfg = golden_config(
        span=SpanConfig(weights=weights), selection=SelectionConfig(k=1000, layers=1)
    )
    script = (
        "import json, sys\n"
        "from structkv.config import PipelineConfig\n"
        "from structkv.lexer import SourceFile\n"
        "from structkv.pipeline import index_corpus, run_pipeline\n"
        "files, query, cfg = json.load(sys.stdin)\n"
        "corpus, cfg = [SourceFile(*f) for f in files], PipelineConfig.from_dict(cfg)\n"
        "plans = [run_pipeline(corpus, query, cfg)[0].to_json() for _ in range(3)]\n"
        "index = index_corpus(corpus, cfg.chunking, cfg.span)\n"
        "names = [index.facts[c.id].names.texts for c in index.chunks]\n"
        "json.dump([plans, names], sys.stdout)\n"
    )
    corpus = [*GOLDEN_FILES, *synth_corpus(seed=9, n_files=3)]
    files = [[f.path, f.content] for f in corpus]
    stdin = json.dumps([files, GOLDEN_QUERY, json.loads(canonical_json(cfg))])
    src = str(Path(structkv.__file__).parents[1])
    outputs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", script],
                input=stdin,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
        )
        for seed in ("0", "1")
    ]
    plan, _ = run_pipeline(corpus, GOLDEN_QUERY, cfg)
    # the third plan of each process is warm: it reads every chunk's kept
    # identifier names, whose order is sorted, not hashed
    assert {text for plans, _ in outputs for text in plans} == {plan.to_json()}
    assert outputs[0][1] == outputs[1][1]
    assert all(names == sorted(names) for names in outputs[0][1])
    assert any(c.spans for c in plan.chunks)


class TestQueryPosition:
    def test_formula(self):
        assert query_position(5, [10, 20]) == 25

    def test_zero_prefix(self):
        assert query_position(0, [7]) == 7

    def test_empty_lengths_convention(self):
        assert query_position(4, []) == 4
        assert query_position(0, []) == 0

    def test_negative_prefix_rejected(self):
        with pytest.raises(ParameterError, match="prefix length must be non-negative"):
            query_position(-1, [7])


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

    @pytest.mark.parametrize(
        "corpus, query, prefix, where",
        [
            (
                [*GOLDEN_FILES[:2], SourceFile("gamma.py", "x = 1\ny = '\ud800'\n")],
                GOLDEN_QUERY,
                "",
                "gamma.py: line 2",
            ),
            (GOLDEN_FILES, "why \ud800", "", "<query>: line 1"),
            (GOLDEN_FILES, GOLDEN_QUERY, "a\nb \udfff", "<prefix>: line 2"),
        ],
        ids=["file", "query", "prefix"],
    )
    def test_lone_surrogate_names_its_input(self, corpus, query, prefix, where):
        # a caller's text may hold a lone surrogate, which has no UTF-8 bytes;
        # the plan fails as an encoding error that names the input, and
        # publishes no memo
        memo = pipeline._MEMO
        with pytest.raises(EncodingError, match=f"^{re.escape(where)}: surrogates not allowed$"):
            run_pipeline(corpus, query, golden_config(prefix=prefix))
        assert pipeline._MEMO is memo

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
        # attention run on the caller's thread in chunk-id order; an empty
        # memo makes the pooled run build every graph
        monkeypatch.setattr(pipeline, "_MEMO", {})
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
        # the fingerprint hashes the documents, so only it differs
        assert sans_fingerprint(plan.to_json()) == sans_fingerprint(baseline.to_json())
        assert plan.config_fingerprint != baseline.config_fingerprint

    def test_sidecar_graphs_shape_the_fingerprint(self):
        cfg = golden_config()
        empty = {"chunk_id": 1, "nodes": [], "edges": []}
        node = {"id": 0, "kind": "call", "token_range": [0, 2], "line": 1}
        docs = [
            None,
            {1: json.dumps(empty)},
            {1: json.dumps(empty)},
            {1: read_record(Cpg, empty, "graph")},  # the same graph as a record
            {1: json.dumps({**empty, "nodes": [node]})},
        ]
        prints = [
            run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=d)[0].config_fingerprint
            for d in docs
        ]
        assert prints[0] == cfg.fingerprint() and len(set(prints)) == 3
        assert prints[0] != prints[1] == prints[2] == prints[3] != prints[4] != prints[0]

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


def cold_plan(*args, **kwargs):
    """The plan and report of a process that has planned nothing yet; the
    memo is left as it was."""
    saved, pipeline._MEMO = pipeline._MEMO, {}
    try:
        plan, report = run_pipeline(*args, **kwargs)
    finally:
        pipeline._MEMO = saved
    return plan.to_json(), report


def planned(*args, **kwargs):
    plan, report = run_pipeline(*args, **kwargs)
    return plan.to_json(), report


def warmed(*args, **kwargs):
    """Plan twice: the first plan sees every file for the first time and
    keeps none unless it selects every chunk, the second fills the memo."""
    planned(*args, **kwargs)
    return planned(*args, **kwargs)


def digest(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


def memo_key(text: str, cfg: PipelineConfig) -> tuple:
    return (digest(text), cfg.chunking, cfg.span.min_span_tokens, cfg.span.merge_gap_lines)


def kept_facts() -> dict[tuple, pipeline._Facts]:
    """The memo's chunk facts by (memo key, token range)."""
    return {
        (key, token_range): facts
        for key, entry in pipeline._MEMO.items()
        if entry is not None
        for token_range, _, facts in entry.chunks
    }


def same(a: dict, b: dict) -> bool:
    """Whether two dicts hold the very same objects under the same keys."""
    return a.keys() == b.keys() and all(a[key] is b[key] for key in a)


class TestGraphMemo:
    """Built-in graphs are reused across plans in one process: the memo
    entry of a chunk's file text holds what a plan reads of every chunk's
    graph from the file's second sight on, or from its first if that plan
    selects every chunk of the corpus; a warm plan equals a cold one."""

    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        """An empty memo, and the chunks whose graphs get built (parse_subset
        calls are counted as ``None``)."""
        monkeypatch.setattr(pipeline, "_MEMO", {})
        calls = []
        parse, build = pipeline.parse_subset, pipeline.build_cpg

        def parse_counted(tokens):
            calls.append(None)
            return parse(tokens)

        def build_counted(ast, chunk, tokens):
            calls.append(chunk)
            return build(ast, chunk, tokens)

        monkeypatch.setattr(pipeline, "parse_subset", parse_counted)
        monkeypatch.setattr(pipeline, "build_cpg", build_counted)
        return calls

    @staticmethod
    def built(calls) -> list[tuple[int, str]]:
        chunks = [c for c in calls if c is not None]
        assert len(calls) == 2 * len(chunks)  # one parse per build
        return [(c.id, c.file) for c in chunks]

    def test_warm_memo_plans_the_golden_fixture(self, builds):
        expected = (Path(__file__).parent / "data" / "golden_plan.json").read_text(encoding="utf-8")
        first, _ = planned(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        assert self.built(builds) == [(0, "alpha.py"), (1, "beta.py")]  # the selected chunks
        builds.clear()
        # the first plan selected 2 of 3 chunks, so it kept no entry; the
        # second sight makes every file's entry from its chunks' graphs
        second, _ = planned(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        assert self.built(builds) == [(0, "alpha.py"), (1, "beta.py"), (2, "gamma.py")]
        builds.clear()
        third, _ = planned(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        assert first + "\n" == expected and second == third == first
        assert builds == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_memo_on_a_synth_corpus(self, builds, workers):
        corpus = synth_corpus(seed=11, n_files=6)
        query = synth_query(11, corpus)
        cfg = golden_config(selection=SelectionConfig(k=1000, layers=2), workers=workers)
        cold = cold_plan(corpus, query, cfg)
        # not index_corpus, which would count as the corpus's first sight
        chunks = len(json.loads(cold[0])["chunks"])
        builds.clear()
        # the first plan selects every chunk and keeps every file's entry
        planned(corpus, "why is the second helper slow", cfg)
        assert len(self.built(builds)) == chunks > 6
        builds.clear()
        planned(corpus, "where is the first helper defined", cfg)
        assert builds == []
        assert planned(corpus, query, cfg) == cold
        assert builds == []

    def test_edited_file_is_rebuilt(self, builds):
        cfg = golden_config(selection=SelectionConfig(k=3, layers=2))
        edited = [
            GOLDEN_FILES[0],
            SourceFile("beta.py", GOLDEN_FILES[1].content.replace("push(", "pull(")),
            GOLDEN_FILES[2],
        ]
        ranges = [
            [(c.file, c.token_range) for c in index_corpus(files, cfg.chunking, cfg.span).chunks]
            for files in (GOLDEN_FILES, edited)
        ]
        assert ranges[0] == ranges[1]
        cold = cold_plan(edited, GOLDEN_QUERY, cfg)
        warmed(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        builds.clear()
        assert planned(edited, GOLDEN_QUERY, cfg) == cold
        assert self.built(builds) == [(1, "beta.py")]

    def test_shifted_chunk_ids_relabel_reused_graphs(self, builds, monkeypatch):
        cfg = golden_config(selection=SelectionConfig(k=4, layers=2))
        shifted = [FIRST_FILE, *GOLDEN_FILES]
        cold = cold_plan(shifted, GOLDEN_QUERY, cfg)
        warmed(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        facts = {}
        select = pipeline._selected_facts

        def recording(*args):
            result = select(*args)
            facts.update(result)
            return result

        monkeypatch.setattr(pipeline, "_selected_facts", recording)
        builds.clear()
        assert planned(shifted, GOLDEN_QUERY, cfg) == cold
        assert self.built(builds) == [(0, "aaa.py")]
        # the kept facts carry no chunk id: the plan files them under the new ids
        assert sorted(facts) == [0, 1, 2, 3]
        kept = [*kept_facts().values()]
        assert all(any(facts[cid] is f for f in kept) for cid in (1, 2, 3))

    def test_a_sidecar_chunk_never_reads_its_entry(self, builds, monkeypatch):
        cfg = golden_config(selection=SelectionConfig(k=3, layers=2))
        docs = {1: json.dumps({"chunk_id": 1, "nodes": [], "edges": []})}
        builtin = cold_plan(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        sidecar = cold_plan(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=docs)
        assert sidecar != builtin
        # entries made by sidecar plans still hold every chunk's facts from
        # its built-in graph
        warmed(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=docs)
        kept = kept_facts()
        assert len(kept) == 3
        builds.clear()
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg) == builtin
        assert builds == []
        # the documented chunk's facts come from its document and its tokens,
        # lexed again: the plan equals the cold one, whose chunk 1 has no
        # candidates, and the kept facts are neither read nor replaced
        lexed = []
        lex = pipeline.tokenize

        def lex_counted(source):
            lexed.append(source.path)
            return lex(source)

        monkeypatch.setattr(pipeline, "tokenize", lex_counted)
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=docs) == sidecar
        assert builds == [] and lexed == ["<query>", "beta.py"] and same(kept_facts(), kept)
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg) == builtin
        assert builds == []

    def test_a_file_with_a_sidecar_chunk_gets_its_builtin_entry_at_first_sight(self, builds):
        cfg = golden_config(selection=SelectionConfig(k=1000, layers=2))
        docs = {1: json.dumps({"chunk_id": 1, "nodes": [], "edges": []})}
        builtin = cold_plan(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        sidecar = cold_plan(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=docs)
        builds.clear()
        # every chunk is selected: beta.py's, which has a document, gets its
        # entry from its built-in graph too
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=docs) == sidecar
        assert self.built(builds) == [(0, "alpha.py"), (1, "beta.py"), (2, "gamma.py")]
        unfilled = [key for key, entry in pipeline._MEMO.items() if entry is None]
        assert unfilled == []
        builds.clear()
        # without the sidecar, beta's chunk is read from its entry
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg) == builtin
        assert builds == []
        builds.clear()
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg) == builtin
        assert builds == []

    def test_an_all_chunk_sidecar_plan_equals_one_that_keeps_nothing(self, builds, monkeypatch):
        cfg = golden_config(selection=SelectionConfig(k=1000, layers=2))
        docs = {1: json.dumps({"chunk_id": 1, "nodes": [], "edges": []})}
        builtin = cold_plan(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        index = pipeline.index_corpus
        with monkeypatch.context() as m:
            # indexed as for a plan of fewer chunks: every selected chunk's
            # facts are built after scoring, from its tokens or its document
            m.setattr(pipeline, "index_corpus", lambda *args: index(*args[:3]))
            unkept = cold_plan(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=docs)
        assert unkept != builtin
        builds.clear()
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=docs) == unkept
        assert len(self.built(builds)) == 3
        builds.clear()
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg) == builtin
        assert builds == []

    def test_a_plan_never_writes_the_published_memo(self, builds, monkeypatch):
        cfg = golden_config(selection=SelectionConfig(k=1000, layers=2))
        index = pipeline.index_corpus
        published = []

        def indexing(*args):
            result = index(*args)
            published.append((pipeline._MEMO, dict(pipeline._MEMO)))
            return result

        monkeypatch.setattr(pipeline, "index_corpus", indexing)
        for docs in (None, {1: json.dumps({"chunk_id": 1, "nodes": [], "edges": []})}):
            pipeline._MEMO = {}
            run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, cfg, external_cpgs=docs)
            (memo, snapshot), = published
            published.clear()
            assert pipeline._MEMO is memo and same(memo, snapshot)
            assert len(memo) == 3 and None not in memo.values()

    def test_an_entry_holds_every_chunks_facts_from_the_second_sight_on(
        self, builds, monkeypatch
    ):
        # at k=1 the golden query selects alpha's chunk and the other query
        # beta's, which no plan has selected yet
        cfg = golden_config(selection=SelectionConfig(k=1, layers=2))
        other = "how does transform push each item"
        cold = {q: cold_plan(GOLDEN_FILES, q, cfg) for q in (GOLDEN_QUERY, other)}
        assert cold[GOLDEN_QUERY][0] != cold[other][0]
        warmed(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        kept = kept_facts()
        assert len(kept) == 3
        published = []
        index, select = pipeline.index_corpus, pipeline._selected_facts

        def indexing(*args):
            result = index(*args)
            published.append((pipeline._MEMO, [*pipeline._MEMO.items()]))
            return result

        def selecting(*args):
            result = select(*args)
            memo, items = published[-1]
            assert pipeline._MEMO is memo and len(memo) == len(items)
            assert all(memo[key] is entry for key, entry in items)
            return result

        monkeypatch.setattr(pipeline, "index_corpus", indexing)
        monkeypatch.setattr(pipeline, "_selected_facts", selecting)
        builds.clear()
        assert planned(GOLDEN_FILES, other, cfg) == cold[other]
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg) == cold[GOLDEN_QUERY]
        assert builds == [] and len(published) == 2 and same(kept_facts(), kept)

    def test_concurrent_plans_each_equal_their_cold_plan(self):
        # small chunks, and threads whose queries or k select different
        # chunks of the same files
        chunking = ChunkConfig(min_chunk_tokens=4, target_chunk_tokens=8)
        asks = [
            (GOLDEN_QUERY, 4),
            ("how does transform push each item", 1),
            ("what does init return", 1),
            ("how does transform push each item", 3),
        ]
        cfgs = [
            golden_config(chunking=chunking, selection=SelectionConfig(k=k, layers=2))
            for _, k in asks
        ]
        corpora = [GOLDEN_FILES, [FIRST_FILE, *GOLDEN_FILES], GOLDEN_FILES[1:]]
        cold = {
            (t, j): cold_plan(corpus, query, cfgs[t])
            for t, (query, _) in enumerate(asks)
            for j, corpus in enumerate(corpora)
        }
        # beta is in every corpus, so its entry, made here, is shared by all plans
        for corpus in corpora[:2]:
            index_corpus(corpus, chunking, cfgs[0].span)
        key = memo_key(GOLDEN_FILES[1].content, cfgs[0])
        beta = pipeline._MEMO[key]
        assert beta is not None
        matched = []

        def plan_in_turn(t):
            for i in range(12):
                j = (i + t) % len(corpora)
                matched.append(planned(corpora[j], asks[t][0], cfgs[t]) == cold[t, j])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=plan_in_turn, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert matched == [True] * 48
        selected = {
            tuple(c["token_range"])
            for text, _ in cold.values()
            for c in json.loads(text)["chunks"]
            if c["file"] == "beta.py"
        }
        assert len(selected) == 4 and selected == {r for r, _, _ in beta.chunks}
        assert pipeline._MEMO[key] is beta

    def test_first_sight_entries_beside_concurrent_indexing(self):
        # every plan selects every chunk and sees one file for the first
        # time, so each index makes that file's entry while other threads
        # plan with the memos they were given
        cfg = golden_config(selection=SelectionConfig(k=1000, layers=2))

        def corpus(t, i):
            zeta = SourceFile("zeta.py", f"def z(v):\n    return v + {100 * t + i}\n")
            return [*GOLDEN_FILES, zeta]

        asks = [(t, i) for t in range(4) for i in range(8)]
        cold = {ask: cold_plan(corpus(*ask), GOLDEN_QUERY, cfg) for ask in asks}
        matched = []

        def plan_in_turn(t):
            for i in range(8):
                matched.append(planned(corpus(t, i), GOLDEN_QUERY, cfg) == cold[t, i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=plan_in_turn, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert matched == [True] * 32
        assert len(pipeline._MEMO) == 4 and None not in pipeline._MEMO.values()

    def test_entries_are_made_whole_and_never_change(self):
        cfg = golden_config(selection=SelectionConfig(k=3, layers=2))
        warmed(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        corpus = synth_corpus(seed=4, n_files=5)
        texts = {f.path: f.content for f in corpus}
        query = synth_query(4, corpus)
        planned(corpus, query, cfg)
        # the memo holds the files of the last indexed corpus; this first
        # sight selects 3 of more chunks, so it keeps none
        assert set(pipeline._MEMO) == {memo_key(text, cfg) for text in texts.values()}
        assert kept_facts() == {}
        plan, _ = run_pipeline(corpus, query, cfg)
        # the second sight keeps the facts of every chunk, selected or not
        index = index_corpus(corpus, cfg.chunking, cfg.span)
        kept = kept_facts()
        chunks = {(memo_key(texts[c.file], cfg), c.token_range) for c in index.chunks}
        assert set(kept) == chunks and len(chunks) > len(plan.chunks) == 3
        assert all(type(f.kinds) is np.ndarray for f in kept.values())
        for q in ("what does the first helper return", "where is the last value stored"):
            run_pipeline(corpus, q, cfg)
            assert same(kept_facts(), kept)
        # an edited file is a new key: its second sight makes a whole entry,
        # and the other entries stay as they were
        old = memo_key(corpus[0].content, cfg)
        edited = [SourceFile(corpus[0].path, corpus[0].content + "z = 1\n"), *corpus[1:]]
        for _ in range(2):
            index_corpus(edited, cfg.chunking, cfg.span)
        new = memo_key(edited[0].content, cfg)
        assert set(pipeline._MEMO) == {memo_key(f.content, cfg) for f in edited}
        assert pipeline._MEMO[new].chunks
        now = {k: f for k, f in kept_facts().items() if k[0] != new}
        assert same(now, {k: f for k, f in kept.items() if k[0] != old})


class TestSpanMemo:
    """A chunk's span candidates are kept in its file's memo entry beside its
    graph facts. The span fields that shape them are part of the memo key,
    so each shape has its own entries, and a warm plan equals a cold one."""

    @pytest.fixture(autouse=True)
    def built(self, monkeypatch):
        """An empty memo, and the chunk id of every chunk whose span
        candidates get built."""
        monkeypatch.setattr(pipeline, "_MEMO", {})
        calls = []
        build = spans.build_spans

        def counted(cpg, cfg, tokens):
            calls.append(cpg.chunk_id)
            return build(cpg, cfg, tokens)

        monkeypatch.setattr(spans, "build_spans", counted)
        return calls

    @pytest.mark.parametrize("corpus, k", [("golden", 1), ("synth", 3)])
    def test_warm_plans_equal_cold_plans(self, built, corpus, k):
        corpus = GOLDEN_FILES if corpus == "golden" else synth_corpus(seed=5, n_files=6)
        cfg = golden_config(selection=SelectionConfig(k=k, layers=2))
        asks = [
            GOLDEN_QUERY if corpus is GOLDEN_FILES else synth_query(5, corpus),
            "how does transform push each item",
            "what does the first helper return",
        ]
        cold = {q: cold_plan(corpus, q, cfg) for q in asks}
        picks = {tuple(c["chunk_id"] for c in json.loads(cold[q][0])["chunks"]) for q in asks}
        assert len(picks) > 1  # the asks select different chunks
        chunks = sum(len(partition_chunks(f, tokenize(f), cfg.chunking)) for f in corpus)
        for i, q in enumerate([*asks, *asks]):
            built.clear()
            assert planned(corpus, q, cfg) == cold[q]
            if i == 0:  # a first sight builds the selected chunks' candidates only
                assert built == [c["chunk_id"] for c in json.loads(cold[q][0])["chunks"]]
            else:  # the second builds those of every chunk, later plans none
                assert len(built) == (chunks if i == 1 else 0)
        assert len(kept_facts()) == chunks > k

    def test_other_span_fields_build_again(self, built):
        cfg = golden_config()
        other = golden_config(span=SpanConfig(min_span_tokens=4, merge_gap_lines=0))
        cfgs = [cfg, other]
        cold = [cold_plan(GOLDEN_FILES, GOLDEN_QUERY, c) for c in cfgs]
        warmed(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        kept = kept_facts()
        # a new shape is a new memo slot, whose first plan builds the 2
        # selected chunks and keeps no entry and whose second makes all 3
        # entries; alternating the two shapes evicts neither
        for i, builds in [(1, 2), (0, 0), (1, 3), (0, 0), (1, 0)]:
            built.clear()
            assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfgs[i]) == cold[i]
            assert len(built) == builds
        assert len(kept_facts()) == 6
        assert same({k: f for k, f in kept_facts().items() if k in kept}, kept)
        # the weights, rho_span and whether spans are on shape no table
        weights = {**DEFAULT_SPAN_WEIGHTS, "call": 0.5}
        for span in (SpanConfig(weights=weights, rho_span=0.9), SpanConfig(enabled=False)):
            c = golden_config(span=span)
            expected = cold_plan(GOLDEN_FILES, GOLDEN_QUERY, c)
            built.clear()
            assert planned(GOLDEN_FILES, GOLDEN_QUERY, c) == expected
            assert built == [] and len(kept_facts()) == 6

    def test_tables_stay_packed(self):
        """Three plans of 30 asyncio chunks keep the facts of all 163, made
        whole at the second plan: one table per chunk, in numpy arrays only,
        under 0.25 MB in all. No entry holds a token or a graph object, nor a
        dict, list or set that a plan could change; the token positions stay
        near the 0.28 MB, and each chunk's names and graph facts together
        near the 1.08 MB measured (CPython 3.11)."""
        corpus = load_corpus(Path(sysconfig.get_paths()["stdlib"]) / "asyncio")
        cfg = PipelineConfig(selection=SelectionConfig(k=30, layers=1))
        for q in ("where is the event loop closed", "why is a task cancelled", "close the pipe"):
            plan, _ = run_pipeline(corpus, q, cfg)
        facts = kept_facts().values()
        assert len(facts) == 163 > len(plan.chunks) == 30
        arrays = [a for f in facts for a in vars(f.spans).values()]
        assert all(type(a) is np.ndarray for a in arrays)
        assert sum(a.nbytes for a in arrays) < 250_000
        entries = [e for e in pipeline._MEMO.values() if e is not None]
        assert len(entries) == len(corpus) == 33
        held = {type(o) for o in reachable(tuple(entries))}
        assert not held & {Token, Cpg, CpgNode, CpgEdge, list, dict, set}, held
        positions = sum(a.itemsize * len(a) for e in entries for a in e.texts)
        assert positions < 300_000, positions
        names = [f.names for f in facts]
        sizes = sum(
            n.ids.nbytes + sys.getsizeof(n.texts) + sys.getsizeof(n.set)
            + sum(map(sys.getsizeof, n.texts))
            for n in names
        ) + sum(f.kinds.nbytes + sys.getsizeof(f) + sys.getsizeof(f.features) for f in facts)
        assert sizes < 1_150_000, sizes


def reachable(root):
    """Every object reachable from ``root`` through containers and records."""
    stack, seen = [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack += obj
        elif dataclasses.is_dataclass(obj):
            stack += vars(obj).values()


class TestFileMemo:
    """A file's token positions and chunks are kept, by its text, chunking
    config and span shape, once two plans in a row have seen it, or once one
    plan has selected every chunk of its corpus; later plans neither lex nor
    chunk it."""

    @pytest.fixture(autouse=True)
    def lexed(self, monkeypatch):
        """An empty memo, and the (stage, path) of every file that gets
        lexed or chunked."""
        monkeypatch.setattr(pipeline, "_MEMO", {})
        calls = []
        lex, partition = pipeline.tokenize, pipeline.partition_chunks

        def lex_counted(source):
            calls.append(("lex", source.path))
            return lex(source)

        def partition_counted(source, *args, **kwargs):
            calls.append(("chunk", source.path))
            return partition(source, *args, **kwargs)

        monkeypatch.setattr(pipeline, "tokenize", lex_counted)
        monkeypatch.setattr(pipeline, "partition_chunks", partition_counted)
        return calls

    @staticmethod
    def lexes(files) -> list[tuple[str, str]]:
        """What a plan lexes and chunks: its query, then ``files`` in path order."""
        paths = sorted(f.path for f in files)
        return [("lex", "<query>")] + [(stage, p) for p in paths for stage in ("lex", "chunk")]

    def test_third_plan_of_an_unchanged_corpus_lexes_nothing(self, lexed):
        plans = set()
        # the first plan selects 2 of 3 chunks and keeps none, so the second lexes all
        for expected in (self.lexes(GOLDEN_FILES), self.lexes(GOLDEN_FILES), self.lexes([])):
            lexed.clear()
            plans.add(planned(GOLDEN_FILES, GOLDEN_QUERY, golden_config())[0])
            assert lexed == expected
        assert len(plans) == 1

    def test_first_sight_below_k_fills_no_entry(self, lexed):
        planned(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        keys = {memo_key(f.content, golden_config()) for f in GOLDEN_FILES}
        assert set(pipeline._MEMO) == keys
        # the plan selects the one chunk of alpha.py and of beta.py, not gamma.py's,
        # so no file is kept, not even the two it selected whole
        unfilled = {key for key, entry in pipeline._MEMO.items() if entry is None}
        assert unfilled == keys
        planned(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        assert set(pipeline._MEMO) == keys and None not in pipeline._MEMO.values()

    def test_a_file_selected_whole_below_k_is_not_kept(self, lexed):
        # at k=1 the golden query selects alpha.py's one chunk of the 3
        cfg = golden_config(selection=SelectionConfig(k=1, layers=2))
        plan, _ = planned(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        assert [c["file"] for c in json.loads(plan)["chunks"]] == ["alpha.py"]
        assert pipeline._MEMO[memo_key(GOLDEN_FILES[0].content, cfg)] is None
        lexed.clear()
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg)[0] == plan
        assert lexed == self.lexes(GOLDEN_FILES)

    def test_edited_file_is_lexed_again(self, lexed):
        edited = [*GOLDEN_FILES[:2], SourceFile("gamma.py", GOLDEN_FILES[2].content + "z = 1\n")]
        cold = cold_plan(edited, GOLDEN_QUERY, golden_config())
        warmed(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        lexed.clear()
        assert planned(edited, GOLDEN_QUERY, golden_config()) == cold
        assert lexed == self.lexes(edited[2:])

    def test_other_chunking_config_chunks_again(self, lexed):
        cfg = golden_config(chunking=ChunkConfig(min_chunk_tokens=2, target_chunk_tokens=8))
        cold = cold_plan(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        warmed(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        lexed.clear()
        assert planned(GOLDEN_FILES, GOLDEN_QUERY, cfg) == cold
        assert lexed == self.lexes(GOLDEN_FILES)

    def test_index_from_the_memo_equals_a_fresh_index(self, lexed):
        # asyncio has 33 files; a synth corpus adds files with tiny chunks;
        # one plan of every asyncio chunk makes all its entries at first sight
        stdlib = Path(sysconfig.get_paths()["stdlib"])
        asyncio = load_corpus(stdlib / "asyncio")
        for corpus, chunking, k in [
            (asyncio, PipelineConfig().chunking, None),
            (synth_corpus(seed=8, n_files=5), golden_config().chunking, None),
            (asyncio, PipelineConfig().chunking, 1000),
        ]:
            pipeline._MEMO = {}
            cfg = dataclasses.replace(golden_config(), chunking=chunking)
            fresh = index_corpus(corpus, chunking, cfg.span)
            assert set(fresh.facts) == {None}
            if k is None:
                warmed(corpus, "where is the event loop closed", cfg)
            else:
                all_chunks = dataclasses.replace(cfg, selection=SelectionConfig(k=k, layers=1))
                pipeline._MEMO = {}  # else the fresh index above makes this a second sight
                plan, _ = run_pipeline(corpus, "where is the event loop closed", all_chunks)
                assert len(plan.chunks) == len(fresh.chunks)
            lexed.clear()
            memo = index_corpus(corpus, chunking, cfg.span)
            assert lexed == []  # index_corpus lexes no query
            assert memo.chunks == fresh.chunks
            for f in corpus:
                packed = pipeline.pack_texts(f.content, fresh.lexed[f.path])
                kept = pipeline._MEMO[memo_key(f.content, cfg)].texts
                assert [(a.typecode, a.tolist()) for a in kept] == [
                    (a.typecode, a.tolist()) for a in packed
                ]
            for chunk in fresh.chunks:
                tokens = fresh.tokens(chunk.id)
                assert memo.tokens(chunk.id) == tokens
                kept = memo.facts[chunk.id]
                made = pipeline.chunk_facts(chunk, tokens, cfg.span)
                assert kept.names.texts == made.names.texts and kept.names.set == made.names.set
                assert kept.names.ids.tolist() == made.names.ids.tolist()
                assert kept.names.ids.dtype == made.names.ids.dtype
                assert kept.features == made.features
                assert kept.kinds.tolist() == made.kinds.tolist()
                for name, column in vars(made.spans).items():
                    assert getattr(kept.spans, name).tolist() == column.tolist(), name
            # the memo's chunks are lexed again only when their tokens are asked for
            assert sorted(set(lexed)) == sorted(("lex", f.path) for f in corpus)

    def test_a_partly_selected_file_keeps_none(self, lexed, monkeypatch):
        # at k=5 the golden query selects the one chunk of each golden file
        # and 2 of mod_00.py's 4; the empty file has no chunk to leave out
        empty = SourceFile("pkg/__init__.py", "")
        synth = synth_corpus(seed=8, n_files=2)
        corpus = [*GOLDEN_FILES, *synth, empty]
        cfg = golden_config(selection=SelectionConfig(k=5, layers=2))
        cold = cold_plan(corpus, GOLDEN_QUERY, cfg)
        picked = [c["file"] for c in json.loads(cold[0])["chunks"]]
        assert picked == ["alpha.py", "beta.py", "gamma.py", "mod_00.py", "mod_00.py"]
        packed = []
        pack = pipeline.pack_texts

        def pack_counted(text, tokens):
            packed.append(text)
            return pack(text, tokens)

        monkeypatch.setattr(pipeline, "pack_texts", pack_counted)
        assert planned(corpus, GOLDEN_QUERY, cfg) == cold
        # 5 of more chunks are selected, so no file is kept, whole or not
        assert packed == []
        unfilled = {key for key, entry in pipeline._MEMO.items() if entry is None}
        assert unfilled == {memo_key(f.content, cfg) for f in corpus}
        # the second sight lexes and packs every file
        packed.clear()
        lexed.clear()
        assert planned(corpus, GOLDEN_QUERY, cfg) == cold
        assert lexed == self.lexes(corpus) and packed == [f.content for f in corpus]
        assert None not in pipeline._MEMO.values()

    def test_identical_files_at_two_paths(self, lexed):
        twin = SourceFile("alpha_copy.py", GOLDEN_FILES[0].content)
        corpus = [*GOLDEN_FILES, twin]
        cfg = golden_config(selection=SelectionConfig(k=4, layers=2))
        cold = cold_plan(corpus, GOLDEN_QUERY, cfg)
        assert planned(corpus, GOLDEN_QUERY, cfg) == cold
        lexed.clear()
        # the first plan selects every file whole and fills one entry for both copies
        assert planned(corpus, GOLDEN_QUERY, cfg) == cold
        assert lexed == self.lexes([])
        assert len(pipeline._MEMO) == 3
        lexed.clear()
        assert planned(corpus, GOLDEN_QUERY, cfg) == cold
        assert lexed == self.lexes([])

    def test_an_empty_file_in_consecutive_corpora(self, lexed):
        # as the empty __init__.py files of consecutive stdlib packages
        empty = SourceFile("pkg/__init__.py", "")
        corpora = [[empty, *GOLDEN_FILES[i : i + 1]] for i in range(3)]
        colds = [cold_plan(corpus, GOLDEN_QUERY, golden_config()) for corpus in corpora]
        for corpus, cold in zip(corpora, colds):
            lexed.clear()
            assert planned(corpus, GOLDEN_QUERY, golden_config()) == cold
        # the third plan reads the empty file from the entry the second filled
        assert lexed == self.lexes(corpora[2][1:])
        entry = pipeline._MEMO[memo_key("", golden_config())]
        assert entry.chunks == () and [len(col) for col in entry.texts] == [0, 0]
        assert index_corpus([empty], golden_config().chunking, golden_config().span).chunks == ()


class TestWarmPath:
    """From the third plan of an unchanged corpus on, or from the second if
    the first selected every chunk, a plan reads every chunk's
    query-independent facts from the memo, whichever chunks it selects: it
    lexes only the query and builds no graph and no span candidates."""

    @pytest.fixture(autouse=True)
    def calls(self, monkeypatch):
        """An empty memo, and every call that makes tokens, graphs or span
        candidates, by (function, file path or chunk id)."""
        monkeypatch.setattr(pipeline, "_MEMO", {})
        calls = []
        lex, build, build_spans = pipeline.tokenize, pipeline.build_cpg, spans.build_spans

        def lex_counted(source):
            calls.append(("tokenize", source.path))
            return lex(source)

        def build_counted(ast, chunk, tokens):
            calls.append(("build_cpg", chunk.id))
            return build(ast, chunk, tokens)

        def build_spans_counted(cpg, cfg, tokens):
            calls.append(("build_spans", cpg.chunk_id))
            return build_spans(cpg, cfg, tokens)

        monkeypatch.setattr(pipeline, "tokenize", lex_counted)
        monkeypatch.setattr(pipeline, "build_cpg", build_counted)
        monkeypatch.setattr(spans, "build_spans", build_spans_counted)
        return calls

    @pytest.mark.parametrize("corpus", ["golden", "asyncio", "golden-http"])
    def test_third_plan_makes_no_tokens_and_no_graphs(self, calls, corpus, request):
        if corpus.startswith("golden"):
            files, query, cfg = GOLDEN_FILES, GOLDEN_QUERY, golden_config()
        else:
            files = load_corpus(Path(sysconfig.get_paths()["stdlib"]) / "asyncio")
            query = "why is a task cancelled when the loop is closed"
            cfg = PipelineConfig(selection=SelectionConfig(k=1000, layers=2))
        if corpus == "golden-http":
            # the HTTP scorer sends each chunk's token texts, sliced from the
            # file content by the kept starts and lengths
            cfg = stub_config(request.getfixturevalue("stub"), files, cfg)
        cold = cold_plan(files, query, cfg)
        warmed(files, query, cfg)
        calls.clear()
        third = planned(files, query, cfg)
        assert calls == [("tokenize", "<query>")]
        assert third[0] == cold[0]
        assert canonical_json(third[1].to_dict()) == canonical_json(cold[1].to_dict())
        if corpus.startswith("golden"):
            expected = (Path(__file__).parent / "data" / "golden_plan.json").read_text("utf-8")
            assert sans_fingerprint(third[0]) == sans_fingerprint(expected)
            assert (third[0] + "\n" == expected) is (corpus == "golden")
        else:
            assert len(json.loads(third[0])["chunks"]) == 163
        assert not hasattr(pipeline, "pickle") and not hasattr(pipeline, "unpack_tokens")

    @pytest.mark.parametrize("corpus", ["golden", "synth"])
    def test_second_plan_after_an_all_chunk_plan_makes_nothing(self, calls, corpus):
        if corpus == "golden":
            files, query = GOLDEN_FILES, GOLDEN_QUERY
        else:
            files = synth_corpus(seed=12, n_files=6)
            query = synth_query(12, files)
        cfg = golden_config(selection=SelectionConfig(k=1000, layers=2))
        cold = cold_plan(files, query, cfg)
        chunks = len(json.loads(cold[0])["chunks"])
        first = planned(files, "where is the first helper defined", cfg)
        assert len(json.loads(first[0])["chunks"]) == chunks
        calls.clear()
        second = planned(files, query, cfg)
        assert calls == [("tokenize", "<query>")]
        assert second[0] == cold[0]
        assert canonical_json(second[1].to_dict()) == canonical_json(cold[1].to_dict())

    def test_a_chunk_no_plan_has_selected_is_read_from_its_entry(self, calls):
        # at k=1 the golden query selects alpha's chunk and the other query
        # beta's, which the two plans before it never selected
        cfg = golden_config(selection=SelectionConfig(k=1, layers=2))
        other = "how does transform push each item"
        cold = cold_plan(GOLDEN_FILES, other, cfg)
        warmed(GOLDEN_FILES, GOLDEN_QUERY, cfg)
        calls.clear()
        third = planned(GOLDEN_FILES, other, cfg)
        assert calls == [("tokenize", "<query>")]
        assert third[0] == cold[0] and json.loads(third[0])["chunks"][0]["file"] == "beta.py"
        assert canonical_json(third[1].to_dict()) == canonical_json(cold[1].to_dict())

    def test_two_chunking_configs_keep_their_entries(self, calls):
        # the memo holds the last corpus of each chunking config, so plans
        # that alternate two configs over one corpus stop lexing and building
        corpus = load_corpus(Path(sysconfig.get_paths()["stdlib"]) / "asyncio")
        query = "where is the event loop closed"
        base = PipelineConfig(selection=SelectionConfig(k=30, layers=1))
        cfgs = [base, dataclasses.replace(base, chunking=ChunkConfig(target_chunk_tokens=256))]
        cold = [cold_plan(corpus, query, cfg) for cfg in cfgs]
        assert cold[0][0] != cold[1][0]
        for round_ in range(4):
            for cfg, expected in zip(cfgs, cold):
                calls.clear()
                plan, report = planned(corpus, query, cfg)
                assert plan == expected[0] and report == expected[1]
                made = [c for c in calls if c != ("tokenize", "<query>")]
                # the first plan under a config keeps no file, the second
                # fills every entry
                assert bool(made) is (round_ < 2), (round_, made[:3])


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


class TestCollectorPause:
    """Planning runs with the cyclic garbage collector paused and leaves it
    as the caller had it, also when planning raises."""

    @pytest.fixture(autouse=True)
    def restore(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_after_a_plan(self, enabled, monkeypatch):
        during = []
        index = pipeline.index_corpus

        def spy(*args):
            during.append(gc.isenabled())
            return index(*args)

        monkeypatch.setattr(pipeline, "index_corpus", spy)
        (gc.enable if enabled else gc.disable)()
        run_pipeline(GOLDEN_FILES, GOLDEN_QUERY, golden_config())
        assert during == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "query, docs, error",
        [
            ("", None, ParameterError),  # no query token
            (GOLDEN_QUERY, {99: json.dumps({"chunk_id": 99, "nodes": [], "edges": []})}, SchemaError),
        ],
        ids=["empty-query", "unknown-sidecar-id"],
    )
    def test_state_is_restored_when_planning_raises(self, enabled, query, docs, error):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(error):
            run_pipeline(GOLDEN_FILES, query, golden_config(), external_cpgs=docs)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("span_on", [True, False], ids=["spans", "no-spans"])
def test_a_plan_makes_no_reference_cycles(workers, span_on):
    """The premise of pausing the collector: reference counting frees all
    of a plan, so a collection after it finds nothing."""
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    synth = synth_corpus(seed=6, n_files=6)
    corpora = [(synth, synth_query(6, synth)), (load_corpus(stdlib / "json"), "decode a json document")]
    cfg = golden_config(selection=SelectionConfig(k=1000, layers=2), workers=workers)
    cfg = dataclasses.replace(cfg, span=dataclasses.replace(cfg.span, enabled=span_on))
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for corpus, query in corpora:
            for _ in range(2):  # the second plan reuses the first one's graphs
                plan, report = run_pipeline(corpus, query, cfg)
                assert plan.chunks
                del plan, report
                gc.collect()
                # DEBUG_SAVEALL keeps what any collection found, automatic ones too
                assert not gc.garbage, sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
