import argparse
import json
from pathlib import Path

import pytest

from structkv.cli import _build_parser, main
from structkv.config import PipelineConfig
from structkv.errors import ConfigError, SchemaError
from structkv.plan import CompressionPlan, canonical_json

ALPHA = (
    "def read_config(path):\n    raw = load(path)\n    cfg = parse(raw)\n"
    "    if cfg:\n        return cfg\n    return None\n"
)
BETA = (
    "def transform(data):\n    out = init()\n    for item in data:\n"
    "        out = push(out, item)\n    return out\n"
)


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    (root / "alpha.py").write_text(ALPHA)
    (root / "beta.py").write_text(BETA)
    return root


@pytest.fixture
def config_file(tmp_path, corpus_dir):
    cfg = {
        "chunking": {"min_chunk_tokens": 4},
        "allocation": {"capacity_ratio": 0.4},
        "selection": {"k": 2, "layers": 2},
        "seed": 3,
        "corpus_dir": str(corpus_dir),
        "query": "parse raw config",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


UNDER_ROOT = "must stay under the corpus root"


def read_json(path):
    return json.loads(Path(path).read_text())


class TestChunkCommand:
    def test_writes_chunk_listing(self, corpus_dir, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["chunk", str(corpus_dir), "--config", str(config_file), "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "chunks.json")
        assert len(doc["chunks"]) == 2
        assert doc["chunks"][0]["id"] == 0
        assert doc["chunks"][0]["file"].endswith("alpha.py")


    def test_ids_match_plan_ids(self, tmp_path):
        # "a.py" sorts before "a/x.py" as a string but after it as a Path
        root = tmp_path / "repo"
        (root / "a").mkdir(parents=True)
        (root / "a.py").write_text(ALPHA)
        (root / "a" / "x.py").write_text(BETA)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chunking": {"min_chunk_tokens": 4}}))
        out = tmp_path / "out"
        common = ["--config", str(cfg), "--out", str(out)]
        assert main(["chunk", str(root), *common]) == 0
        assert main(
            ["compress", "--cap", "0.4", "--k", "9", "--dir", str(root), "--query", "parse",
             *common]
        ) == 0
        chunks = read_json(out / "chunks.json")["chunks"]
        listed = {c["id"]: (c["file"], c["token_range"]) for c in chunks}
        plan = CompressionPlan.from_json((out / "plan.json").read_text())
        planned = {c.chunk_id: (c.file, list(c.token_range)) for c in plan.chunks}
        assert listed == planned
        assert planned[0][0] == "a.py"


class TestCpgCommand:
    def test_emits_sidecar_documents(self, corpus_dir, config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "cpg",
                str(corpus_dir / "alpha.py"),
                "--config",
                str(config_file),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        docs = read_json(out / "cpg.json")
        assert isinstance(docs, list) and docs[0]["chunk_id"] == 0
        kinds = {n["kind"] for n in docs[0]["nodes"]}
        assert "signature" in kinds and "call" in kinds

    def test_corpus_wide_ids_with_dir(self, corpus_dir, config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "cpg",
                str(corpus_dir / "beta.py"),
                "--dir",
                str(corpus_dir),
                "--config",
                str(config_file),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        docs = read_json(out / "cpg.json")
        assert docs[0]["chunk_id"] == 1  # beta sorts after alpha

    def test_corpus_wide_ids_from_config_corpus_dir(self, corpus_dir, config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["cpg", str(corpus_dir / "beta.py"), "--config", str(config_file),
                   "--out", str(out)])
        assert rc == 0
        assert read_json(out / "cpg.json")[0]["chunk_id"] == 1  # as the plan numbers it

    def test_single_file_without_corpus_root(self, corpus_dir, tmp_path):
        cfg = tmp_path / "bare.json"
        cfg.write_text(json.dumps({"chunking": {"min_chunk_tokens": 4}}))
        out = tmp_path / "out"
        rc = main(["cpg", str(corpus_dir / "beta.py"), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert read_json(out / "cpg.json")[0]["chunk_id"] == 0

    def test_file_matched_after_resolving(self, corpus_dir, config_file, tmp_path, monkeypatch):
        monkeypatch.chdir(corpus_dir)
        out = tmp_path / "out"
        rc = main(
            ["cpg", "beta.py", "--dir", str(corpus_dir), "--config", str(config_file),
             "--out", str(out)]
        )
        assert rc == 0
        assert read_json(out / "cpg.json")[0]["chunk_id"] == 1


class TestScoreCommand:
    def test_scores_and_selection(self, corpus_dir, config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "score",
                "--query",
                "parse raw config",
                "--dir",
                str(corpus_dir),
                "--config",
                str(config_file),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = read_json(out / "scores.json")
        assert {s["chunk_id"] for s in doc["scores"]} == {0, 1}
        assert doc["selected"] == [0, 1]
        by_id = {s["chunk_id"]: s["ppl"] for s in doc["scores"]}
        assert by_id[0] < by_id[1]  # alpha mentions the query symbols


class TestCompressCommand:
    def test_plan_and_report_written(self, corpus_dir, config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "compress",
                "--cap",
                "0.4",
                "--k",
                "2",
                "--dir",
                str(corpus_dir),
                "--query",
                "parse raw config",
                "--config",
                str(config_file),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        plan = CompressionPlan.from_json((out / "plan.json").read_text())
        assert len(plan.chunks) == 2
        report = read_json(out / "report.json")
        assert 0.0 <= report["structure_score"] <= 1.0


    def test_dir_spelling_does_not_change_plan(
        self, corpus_dir, config_file, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(corpus_dir.parent)
        plans = []
        for spelling in ("repo", str(corpus_dir)):
            out = tmp_path / f"out{len(plans)}"
            rc = main(
                ["compress", "--cap", "0.4", "--k", "2", "--dir", spelling,
                 "--query", "parse raw config", "--config", str(config_file), "--out", str(out)]
            )
            assert rc == 0
            plans.append((out / "plan.json").read_bytes())
        assert plans[0] == plans[1]
        assert b'"file":"alpha.py"' in plans[0]

    def test_flags_and_config_write_the_same_plan(self, corpus_dir, config_file, tmp_path):
        # the flags are copied into the config, so both spellings plan alike
        doc = read_json(config_file)
        del doc["allocation"], doc["corpus_dir"], doc["query"]
        doc["selection"] = {"layers": 2}
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        flags = tmp_path / "flags"
        assert main(
            ["compress", "--config", str(bare), "--cap", "0.4", "--k", "2",
             "--dir", str(corpus_dir), "--query", "parse raw config", "--out", str(flags)]
        ) == 0
        alone = tmp_path / "alone"
        assert main(["compress", "--config", str(config_file), "--out", str(alone)]) == 0
        for name in ("plan.json", "report.json"):
            assert (flags / name).read_bytes() == (alone / name).read_bytes()

    def test_fingerprint_hashes_the_query(self, corpus_dir, config_file, tmp_path):
        prints = set()
        for query in ("parse raw config", "transform the data"):
            out = tmp_path / query.replace(" ", "_")
            assert main(
                ["compress", "--config", str(config_file), "--query", query, "--out", str(out)]
            ) == 0
            prints.add(read_json(out / "plan.json")["config_fingerprint"])
        assert len(prints) == 2


class TestEvaluateCommand:
    def test_report_matches_pipeline_report(self, corpus_dir, config_file, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "compress", "--cap", "0.4", "--k", "2",
                "--dir", str(corpus_dir), "--query", "parse raw config",
                "--config", str(config_file), "--out", str(out),
            ]
        )
        out2 = tmp_path / "out2"
        rc = main(
            [
                "evaluate",
                "--plan",
                str(out / "plan.json"),
                "--dir",
                str(corpus_dir),
                "--out",
                str(out2),
            ]
        )
        assert rc == 0
        fresh = read_json(out2 / "report.json")
        original = read_json(out / "report.json")
        assert fresh["structure_score"] == original["structure_score"]
        assert fresh["per_category_retention"] == original["per_category_retention"]
        assert "config_fingerprint" in fresh
        assert 0.0 <= fresh["ranking_overlap_top20"] <= 1.0

    def test_plan_files_resolve_against_corpus_dir(
        self, corpus_dir, config_file, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        main(
            [
                "compress", "--cap", "0.4", "--k", "2", "--query", "parse raw config",
                "--config", str(config_file), "--out", str(out),
            ]
        )
        # a same-named file in the working directory must not be picked up
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alpha.py").write_text("x = 1\n")
        rc = main(
            ["evaluate", "--plan", str(out / "plan.json"), "--config", str(config_file),
             "--out", str(tmp_path / "out2")]
        )
        assert rc == 0
        fresh = read_json(tmp_path / "out2" / "report.json")
        assert fresh["structure_score"] == read_json(out / "report.json")["structure_score"]

    def test_gold_file_adds_overlap_and_edit_metrics(
        self, corpus_dir, config_file, tmp_path
    ):
        out = tmp_path / "out"
        main(
            [
                "compress", "--cap", "0.4", "--k", "2",
                "--dir", str(corpus_dir), "--query", "parse raw config",
                "--config", str(config_file), "--out", str(out),
            ]
        )
        gold = tmp_path / "gold.json"
        gold.write_text(
            json.dumps(
                {
                    "predicted": ["a.py", "b.py", "c.py"],
                    "gold": ["b.py", "c.py", "d.py"],
                    "predicted_text": "kitten",
                    "gold_text": "sitting",
                }
            )
        )
        out2 = tmp_path / "out2"
        rc = main(
            [
                "evaluate", "--plan", str(out / "plan.json"),
                "--dir", str(corpus_dir), "--gold", str(gold),
                "--out", str(out2),
            ]
        )
        assert rc == 0
        doc = read_json(out2 / "report.json")
        assert doc["set_metrics"]["jaccard"] == pytest.approx(0.5)
        assert doc["set_metrics"]["f1"] == pytest.approx(2 / 3)
        assert doc["edit_distance"] == pytest.approx(3 / 7)

    def test_config_sidecar_used_without_external_cpgs_flag(self, tmp_path):
        # the sidecar gives alpha's only chunk the empty graph (attention-only);
        # evaluate must read it from the config as compress did, not rebuild it
        root = tmp_path / "golden"
        root.mkdir()
        (root / "alpha.py").write_text(ALPHA)
        sidecar = tmp_path / "cpgs.json"
        sidecar.write_text(json.dumps([{"chunk_id": 0, "nodes": [], "edges": []}]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "chunking": {"min_chunk_tokens": 4},
                    "selection": {"k": 1, "layers": 2},
                    "corpus_dir": str(root),
                    "query": "parse raw config",
                    "external_cpg_file": str(sidecar),
                }
            )
        )
        out = tmp_path / "out"
        assert main(["compress", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(
            ["evaluate", "--plan", str(out / "plan.json"), "--config", str(cfg),
             "--out", str(tmp_path / "out2")]
        ) == 0
        planned = read_json(out / "report.json")["structure_score"]
        assert read_json(tmp_path / "out2" / "report.json")["structure_score"] == planned == 0.0

    def test_graph_source_changed_since_planning_rejected(self, corpus_dir, tmp_path, capsys):
        # alpha's chunk planned with an empty sidecar graph; evaluated without
        # the sidecar, its built-in graph gives another sigma
        sidecar = tmp_path / "cpgs.json"
        sidecar.write_text(json.dumps([{"chunk_id": 0, "nodes": [], "edges": []}]))
        doc = {
            "chunking": {"min_chunk_tokens": 4},
            "selection": {"k": 2, "layers": 2},
            "corpus_dir": str(corpus_dir),
            "query": "parse raw config",
        }
        planning, plain = tmp_path / "planning.json", tmp_path / "plain.json"
        planning.write_text(json.dumps({**doc, "external_cpg_file": str(sidecar)}))
        plain.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["compress", "--config", str(planning), "--out", str(out)]) == 0
        plan, same = str(out / "plan.json"), tmp_path / "same"
        rc = main(["evaluate", "--plan", plan, "--config", str(planning), "--out", str(same)])
        assert rc == 0
        planned = read_json(out / "report.json")["structure_score"]
        assert read_json(same / "report.json")["structure_score"] == planned
        capsys.readouterr()

        other = tmp_path / "other"
        assert main(["evaluate", "--plan", plan, "--config", str(plain), "--out", str(other)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ParameterError"
        assert err["message"].startswith("chunk 0 (alpha.py): its graph gives sigma ")
        assert "the plan 0.0;" in err["message"] and "external_cpg_file" in err["message"]
        assert not (other / "report.json").exists()


class TestPipelineCommand:
    """The whole pipeline from one config: ``compress --config`` alone."""

    def test_runs_from_config_alone(self, config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["compress", "--config", str(config_file), "--out", str(out)])
        assert rc == 0
        assert (out / "plan.json").exists() and (out / "report.json").exists()

    def test_missing_query_is_config_error(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"corpus_dir": str(corpus_dir)}))
        rc = main(["compress", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"


class TestErrorObjects:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"capacity": 0.4}))
        rc = main(["chunk", str(tmp_path), "--config", str(cfg)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "capacity" in err["error"]["message"]

    @pytest.mark.parametrize(
        ("doc", "field", "section"),
        [
            ({"seed": "0"}, "seed", None),
            ({"workers": "2"}, "workers", None),
            ({"prefix": 5}, "prefix", None),
            ({"attention": {"window": 2.5}}, "window", "attention"),
            ({"include": "**/*.py"}, "include", None),
            ({"span": {"enabled": "no"}}, "enabled", "span"),
            ({"selection": {"k": "3"}}, "k", "selection"),
            ({"allocation": {"capacity_ratio": True}}, "capacity_ratio", "allocation"),
            ({"scorer": {"retry": 3}}, "retry", "scorer"),
        ],
        ids=[
            "seed-string", "workers-string", "prefix-number", "window-float", "include-string",
            "enabled-string", "k-string", "capacity-bool", "unknown-section-key",
        ],
    )
    def test_mistyped_config(self, corpus_dir, tmp_path, capsys, doc, field, section):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        rc = main(
            ["compress", "--cap", "0.4", "--k", "2", "--dir", str(corpus_dir), "--query", "q",
             "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert f"'{field}'" in err["message"] and "bad.json" in err["message"]
        if section is not None:
            assert f" in '{section}'" in err["message"]
        else:
            assert " in '" not in err["message"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"allocation": {"epsilon": NaN}, "chunking": {"min_chunk_tokens": 4}}',
            '{"span": {"weights": {"call": NaN, "control": 0.18, "query": 0.18, "return": 0.14,'
            ' "assign": 0.14, "signature": 0.0, "defuse": 0.10}},'
            ' "chunking": {"min_chunk_tokens": 4}}',
            '{"scorer": {"timeout_s": Infinity}}',
        ],
        ids=["nan-epsilon", "nan-span-weight", "infinite-timeout"],
    )
    def test_non_finite_config_rejected(self, corpus_dir, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        rc = main(
            ["compress", "--cap", "0.4", "--k", "2", "--dir", str(corpus_dir), "--query", "q",
             "--config", str(cfg), "--out", str(out)]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError" and "bad.json" in err["message"]
        assert not (out / "plan.json").exists()

    @pytest.mark.parametrize("section", ["scorer", "attention"])
    @pytest.mark.parametrize(
        "limit", [{"timeout_s": 0}, {"timeout_s": -1.5}, {"retries": -1}],
        ids=["zero-timeout", "negative-timeout", "negative-retries"],
    )
    def test_backend_limits_rejected_at_load(self, section, limit):
        doc = {section: {"backend": "http", "url": "http://127.0.0.1:9", **limit}}
        field = next(iter(limit))
        with pytest.raises(ConfigError, match=f"^config: {field} must be .* in '{section}'$"):
            PipelineConfig.from_dict(doc)

    @pytest.mark.parametrize(
        ("doc", "message"),
        [
            ({"allocation": {"epsilon": -1}}, "epsilon must be positive, got -1 in 'allocation'"),
            ({"span": {"b_min": 0}}, "b_min and min_span_tokens must be positive in 'span'"),
            ({"scorer": {"backend": "http"}}, "http backend requires a url in 'scorer'"),
            ({"include": ["/etc/*.conf"]}, "include pattern '/etc/*.conf' " + UNDER_ROOT),
            ({"include": ["**/*.py", ""]}, "include pattern '' " + UNDER_ROOT),
            ({"include": ["../*.py"]}, "include pattern '../*.py' " + UNDER_ROOT),
        ],
        ids=["epsilon", "b-min", "scorer-url", "include-absolute", "include-empty", "include-up"],
    )
    def test_record_checks_name_their_section(self, corpus_dir, tmp_path, capsys, doc, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        rc = main(
            ["compress", "--cap", "0.4", "--k", "1", "--dir", str(corpus_dir), "--query", "q",
             "--config", str(cfg), "--out", str(out)]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ConfigError", "message": f"{cfg}: {message}"}
        assert not (out / "plan.json").exists()

    def test_null_url_accepted(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"attention": {"url": None}, "chunking": {"min_chunk_tokens": 4}}))
        rc = main(
            ["compress", "--cap", "0.4", "--k", "2", "--dir", str(corpus_dir), "--query", "q",
             "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert rc == 0

    def test_invalid_ratio_from_cli(self, corpus_dir, tmp_path, capsys):
        rc = main(
            [
                "compress", "--cap", "0.0", "--k", "2",
                "--dir", str(corpus_dir), "--query", "q",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"

    def test_no_partial_plan_on_failure(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "scorer": {"backend": "http", "url": "http://127.0.0.1:9",
                               "retries": 0, "timeout_s": 0.05},
                    "chunking": {"min_chunk_tokens": 4},
                }
            )
        )
        rc = main(
            [
                "compress", "--cap", "0.4", "--k", "1",
                "--dir", str(corpus_dir), "--query", "q",
                "--config", str(cfg), "--out", str(out),
            ]
        )
        assert rc == 1
        capsys.readouterr()
        assert not (out / "plan.json").exists()

    @pytest.fixture
    def plan_file(self, corpus_dir, config_file, tmp_path):
        out = tmp_path / "planned"
        main(["compress", "--config", str(config_file), "--out", str(out)])
        return out / "plan.json"

    def evaluate_error(self, capsys, plan, *extra):
        rc = main(["evaluate", "--plan", str(plan), *extra, "--out", str(Path(plan).parent / "ev")])
        assert rc == 1
        return json.loads(capsys.readouterr().err)["error"]

    def test_evaluate_plan_not_json(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        err = self.evaluate_error(capsys, plan)
        assert err["type"] == "SchemaError" and "invalid JSON" in err["message"]

    def test_evaluate_plan_not_utf8(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_bytes(b"\xff\xfe{")
        err = self.evaluate_error(capsys, plan)
        assert err["type"] == "SchemaError"
        assert err["message"].startswith(f"{plan}: invalid JSON")

    def test_evaluate_plan_non_finite(self, plan_file, corpus_dir, capsys):
        doc = read_json(plan_file)
        doc["chunks"][0].update(ppl=float("nan"), sigma=float("inf"))
        plan_file.write_text(json.dumps(doc))  # writes NaN and Infinity
        assert "NaN" in plan_file.read_text() and "Infinity" in plan_file.read_text()
        err = self.evaluate_error(capsys, plan_file, "--dir", str(corpus_dir))
        assert err["type"] == "SchemaError" and "invalid JSON" in err["message"]
        assert not (plan_file.parent / "ev" / "report.json").exists()

    def test_evaluate_gold_non_finite(self, plan_file, corpus_dir, tmp_path, capsys):
        gold = tmp_path / "gold.json"
        gold.write_text('{"predicted": [NaN, 1], "gold": [NaN, 1]}')
        err = self.evaluate_error(capsys, plan_file, "--dir", str(corpus_dir), "--gold", str(gold))
        assert err["type"] == "SchemaError" and "invalid JSON" in err["message"]
        assert str(gold) in err["message"]
        assert not (plan_file.parent / "ev" / "report.json").exists()

    def test_evaluate_plan_missing_field(self, plan_file, corpus_dir, capsys):
        doc = read_json(plan_file)
        del doc["chunks"][0]["file"]
        plan_file.write_text(json.dumps(doc))
        err = self.evaluate_error(capsys, plan_file, "--dir", str(corpus_dir))
        assert err["type"] == "SchemaError" and "'file'" in err["message"]

    def test_evaluate_gold_missing_key(self, plan_file, corpus_dir, tmp_path, capsys):
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps({"predicted": ["a.py"]}))
        err = self.evaluate_error(capsys, plan_file, "--dir", str(corpus_dir), "--gold", str(gold))
        assert err["type"] == "SchemaError" and "'gold'" in err["message"]

    @pytest.mark.parametrize(
        ("doc", "field"),
        [
            ({"predicted": [True], "gold": []}, "predicted"),
            ({"predicted": [], "gold": "a.py"}, "gold"),
            ({"predicted": [], "gold": [], "gold_text": 3}, "gold_text"),
            ({"predicted": [], "gold": [], "golden": []}, "golden"),
        ],
        ids=["bool-item", "gold-string", "text-number", "unknown-key"],
    )
    def test_evaluate_gold_mistyped(self, plan_file, corpus_dir, tmp_path, capsys, doc, field):
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps(doc))
        err = self.evaluate_error(capsys, plan_file, "--dir", str(corpus_dir), "--gold", str(gold))
        assert err["type"] == "SchemaError" and f"'{field}'" in err["message"]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: [d],
            lambda d: d["chunks"][0].update(file=3),
            lambda d: d["chunks"][0].update(token_range=[0]),
            lambda d: d["chunks"][0]["layers"][0].update(kept=["1"]),
            lambda d: d.update(seed=True),
            lambda d: d["chunks"][0].update(ppl=True),
            lambda d: d["chunks"][0].update(budget=1.5),
            lambda d: d["chunks"][0]["spans"][0].update(token_range=[0, 1, 2]),
            lambda d: d["chunks"][0].update(token_range=[-40, 5], length=45),
            lambda d: d["chunks"][0].update(token_range=[5, 5], length=0),
            lambda d: d["chunks"][0].update(length=d["chunks"][0]["length"] + 1),
        ],
        ids=[
            "not-an-object", "file-number", "range-not-pair", "kept-strings", "seed-bool",
            "ppl-bool", "budget-float", "span-range-triple", "range-negative", "range-empty",
            "length-not-range",
        ],
    )
    def test_plan_mistyped_field_is_schema_error(self, plan_file, mutate):
        doc = read_json(plan_file)
        doc = mutate(doc) or doc
        with pytest.raises(SchemaError):
            CompressionPlan.from_json(json.dumps(doc))

    def test_evaluate_rejects_negative_chunk_range(self, plan_file, corpus_dir, capsys):
        doc = read_json(plan_file)
        doc["chunks"][0].update(token_range=[-40, 5], length=45)
        plan_file.write_text(json.dumps(doc))
        err = self.evaluate_error(capsys, plan_file, "--dir", str(corpus_dir))
        assert err["type"] == "SchemaError" and "token_range" in err["message"]

    @pytest.mark.parametrize("value", [{1, 2}, object()], ids=["set", "object"])
    def test_canonical_json_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)


def test_readme_cli_block_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    listed = {line.split()[1] for line in block.splitlines() if line.startswith("structkv ")}
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == set(sub.choices)


def test_readme_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(block)
    assert PipelineConfig.from_dict(doc) == PipelineConfig()
    assert doc == json.loads(canonical_json(PipelineConfig()))  # every key is shown
