import json
import sysconfig
from pathlib import Path

import pytest

from plan_helpers import single_chunk
from cpg_cases import CASES
from structkv.chunking import ChunkConfig
from structkv.cpg import (
    Cpg,
    EdgeKind,
    NodeKind,
    build_cpg,
    export_cpg_json,
    import_cpg_json,
)
from structkv.errors import SchemaError, TokenRangeError, UnsupportedKindError
from structkv.lexer import TokenKind
from structkv.parsing import parse_subset
from structkv.pipeline import index_corpus, load_corpus, load_external_cpgs
from structkv.spans import SpanConfig


def graph(code):
    chunk, toks = single_chunk(code)
    return build_cpg(parse_subset(toks), chunk, toks), chunk, toks


def kind_counts(cpg):
    counts = {k.value: 0 for k in NodeKind}
    for n in cpg.nodes:
        counts[n.kind.value] += 1
    return counts


def pdg_line_pairs(cpg):
    line = {n.id: n.line for n in cpg.nodes}
    return {
        (line[e.src], line[e.dst]) for e in cpg.edges if e.kind is EdgeKind.PDG
    }


class TestHandAnnotatedCases:
    @pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
    def test_kind_counts(self, case):
        cpg, _, _ = graph(case["code"])
        assert kind_counts(cpg) == case["kinds"]

    @pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
    def test_pdg_edges(self, case):
        cpg, _, _ = graph(case["code"])
        assert pdg_line_pairs(cpg) == case["pdg"]


class TestStructuralProperties:
    def test_straight_line_cfg_edge_count(self):
        for n in (1, 2, 5, 9):
            body = "".join(f"    x{i} = {i}\n" for i in range(n))
            cpg, _, _ = graph("def f():\n" + body)
            cfg = [e for e in cpg.edges if e.kind is EdgeKind.CFG]
            assert len(cfg) == n - 1

    def test_empty_function_body(self):
        cpg, _, _ = graph("def f():\n")
        assert len(cpg.nodes) == 1
        assert cpg.nodes[0].kind is NodeKind.SIGNATURE
        assert cpg.edges == ()

    def test_pdg_source_defines_symbol_in_dst(self):
        for case in CASES:
            cpg, _, toks = graph(case["code"])
            identifiers = [t.text if t.kind is TokenKind.IDENTIFIER else None for t in toks]
            names = {n.id: set(identifiers[slice(*n.token_range)]) - {None} for n in cpg.nodes}
            for e in cpg.edges:
                if e.kind is EdgeKind.PDG:
                    assert e.src != e.dst
                    shared = names[e.src] & names[e.dst]
                    assert shared, f"{case['name']}: edge {e} shares no symbol"

    def test_node_ids_dense_and_ranges_within_chunk(self):
        for case in CASES:
            cpg, chunk, _ = graph(case["code"])
            assert [n.id for n in cpg.nodes] == list(range(len(cpg.nodes)))
            for n in cpg.nodes:
                s, e = n.token_range
                assert 0 <= s < e <= chunk.length

    def test_deterministic_export(self):
        code = CASES[20]["code"]
        a, _, _ = graph(code)
        b, _, _ = graph(code)
        assert export_cpg_json(a) == export_cpg_json(b)

    def test_one_signature_per_function(self):
        cpg, _, _ = graph("def a():\n    return 1\n\ndef b():\n    return 2\n")
        sigs = [n for n in cpg.nodes if n.kind is NodeKind.SIGNATURE]
        assert len(sigs) == 2


class TestInterchange:
    def test_round_trip_identity(self):
        for case in CASES:
            cpg, chunk, _ = graph(case["code"])
            assert import_cpg_json(export_cpg_json(cpg), chunk) == cpg

    def test_round_trip_accepts_bytes(self):
        cpg, chunk, _ = graph(CASES[0]["code"])
        assert import_cpg_json(export_cpg_json(cpg).encode(), chunk) == cpg

    def test_unknown_kind_rejected(self):
        cpg, chunk, _ = graph(CASES[0]["code"])
        doc = json.loads(export_cpg_json(cpg))
        doc["nodes"][0]["kind"] = "lambda"
        with pytest.raises(UnsupportedKindError):
            import_cpg_json(json.dumps(doc), chunk)

    def test_out_of_range_token_range_rejected(self):
        cpg, chunk, _ = graph(CASES[0]["code"])
        doc = json.loads(export_cpg_json(cpg))
        doc["nodes"][0]["token_range"] = [chunk.length + 10, chunk.length + 20]
        with pytest.raises(TokenRangeError):
            import_cpg_json(json.dumps(doc), chunk)

    def test_boolean_line_rejected(self):
        cpg, chunk, _ = graph(CASES[0]["code"])
        doc = json.loads(export_cpg_json(cpg))
        doc["nodes"][0]["line"] = True
        with pytest.raises(SchemaError, match="'line'"):
            import_cpg_json(json.dumps(doc), chunk)

    def test_chunk_id_mismatch_rejected(self):
        cpg, chunk, _ = graph(CASES[0]["code"])
        doc = json.loads(export_cpg_json(cpg))
        doc["chunk_id"] = chunk.id + 99
        with pytest.raises(SchemaError):
            import_cpg_json(json.dumps(doc), chunk)

    def test_sparse_node_ids_rejected(self):
        cpg, chunk, _ = graph(CASES[0]["code"])
        doc = json.loads(export_cpg_json(cpg))
        doc["nodes"][0]["id"] = 100
        with pytest.raises(SchemaError):
            import_cpg_json(json.dumps(doc), chunk)

    def test_pdg_self_loop_rejected(self):
        cpg, chunk, _ = graph(CASES[0]["code"])
        doc = json.loads(export_cpg_json(cpg))
        doc["edges"].append({"src": 0, "dst": 0, "kind": "pdg"})
        with pytest.raises(SchemaError):
            import_cpg_json(json.dumps(doc), chunk)

    def test_malformed_json_rejected(self):
        _, chunk, _ = graph(CASES[0]["code"])
        with pytest.raises(SchemaError):
            import_cpg_json(b"{not json", chunk)

    def test_node_symbols_rejected(self, tmp_path):
        # nodes no longer carry identifier sets; an older document names the key
        cpg, chunk, _ = graph(CASES[0]["code"])
        doc = json.loads(export_cpg_json(cpg))
        doc["nodes"][0]["symbols"] = []
        with pytest.raises(SchemaError, match=r"^graph: unknown key 'symbols' in 'nodes'$"):
            import_cpg_json(json.dumps(doc), chunk)
        sidecar = tmp_path / "cpgs.json"
        sidecar.write_text(json.dumps([doc]))
        with pytest.raises(SchemaError, match=r"cpgs\.json: unknown key 'symbols' in 'nodes'$"):
            load_external_cpgs(sidecar)

    def test_missing_keys_rejected(self):
        _, chunk, _ = graph(CASES[0]["code"])
        with pytest.raises(SchemaError):
            import_cpg_json(json.dumps({"chunk_id": chunk.id, "nodes": []}), chunk)

    def test_empty_graph_round_trips(self):
        _, chunk, _ = graph(CASES[0]["code"])
        empty = Cpg(nodes=(), edges=(), chunk_id=chunk.id)
        assert import_cpg_json(export_cpg_json(empty), chunk) == empty


@pytest.mark.parametrize("package", ["json", "asyncio"])
def test_builtin_graphs_round_trip_on_stdlib(package):
    """Every chunk of real code parses, and its graph passes the interchange
    checks: dense node ids, ranges inside the chunk, no PDG self-loops."""
    corpus = load_corpus(Path(sysconfig.get_paths()["stdlib"]) / package)
    index = index_corpus(corpus, ChunkConfig(), SpanConfig())
    assert len(index.chunks) > 10
    for chunk in index.chunks:
        toks = index.tokens(chunk.id)
        cpg = build_cpg(parse_subset(toks), chunk, toks)
        assert import_cpg_json(export_cpg_json(cpg), chunk) == cpg
