import json
from pathlib import Path

import pytest

from structkv.cli import main
from structkv.errors import SchemaError
from structkv.plan import CompressionPlan

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


class TestPipelineCommand:
    def test_runs_from_config_alone(self, config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["pipeline", "--config", str(config_file), "--out", str(out)])
        assert rc == 0
        assert (out / "plan.json").exists() and (out / "report.json").exists()

    def test_missing_query_is_config_error(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"corpus_dir": str(corpus_dir)}))
        rc = main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")])
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
        main(["pipeline", "--config", str(config_file), "--out", str(out)])
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
        assert self.evaluate_error(capsys, plan)["type"] == "UnicodeDecodeError"

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
        "mutate",
        [
            lambda d: [d],
            lambda d: d["chunks"][0].update(file=3),
            lambda d: d["chunks"][0].update(token_range=[0]),
            lambda d: d["chunks"][0]["layers"][0].update(kept=["1"]),
            lambda d: d.update(seed=True),
        ],
        ids=["not-an-object", "file-number", "range-not-pair", "kept-strings", "seed-bool"],
    )
    def test_plan_mistyped_field_is_schema_error(self, plan_file, mutate):
        doc = read_json(plan_file)
        doc = mutate(doc) or doc
        with pytest.raises(SchemaError):
            CompressionPlan.from_json(json.dumps(doc))
