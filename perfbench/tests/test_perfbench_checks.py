"""The plan invariant checker accepts real plans and rejects doctored ones."""

import copy
import json
import random

import pytest

from perfbench import inputs
from perfbench.checks import plan_violations
from structkv import PipelineConfig, SelectionConfig, load_corpus, run_pipeline


@pytest.fixture(scope="module")
def plan_doc():
    directory = inputs.STDLIB / "json"
    names = inputs.def_names(inputs.read_texts(directory))
    query = inputs.make_query(names, random.Random(0), "x")
    cfg = PipelineConfig(selection=SelectionConfig(k=3, layers=2))
    plan, _ = run_pipeline(load_corpus(directory), query, cfg)
    return json.loads(plan.to_json())


def first_protected(doc):
    for chunk in doc["chunks"]:
        if chunk["protected"] and chunk["budget"] < chunk["length"]:
            return chunk
    raise AssertionError("fixture plan has no chunk with protected tokens under budget")


def test_real_plan_passes(plan_doc):
    assert plan_violations(plan_doc) == []


def test_dropped_protected_token_is_rejected(plan_doc):
    doc = copy.deepcopy(plan_doc)
    chunk = first_protected(doc)
    chunk["layers"][0]["kept"].remove(chunk["protected"][0])
    chunk["layers"][0]["positions"] = [doc["prefix_len"] + i for i in chunk["layers"][0]["kept"]]
    found = plan_violations(doc)
    assert any("protected tokens dropped" in v for v in found)


def test_budget_off_by_one_is_rejected(plan_doc):
    doc = copy.deepcopy(plan_doc)
    first_protected(doc)["budget"] += 1
    assert any("budget allows exactly" in v for v in plan_violations(doc))


def test_position_at_query_start_is_rejected(plan_doc):
    doc = copy.deepcopy(plan_doc)
    doc["query_start_position"] = max(
        p for c in doc["chunks"] for layer in c["layers"] for p in layer["positions"]
    )
    assert any("at or above query start" in v for v in plan_violations(doc))


def test_position_off_the_prefix_base_is_rejected(plan_doc):
    doc = copy.deepcopy(plan_doc)
    layer = first_protected(doc)["layers"][1]
    layer["positions"] = [p + 1 for p in layer["positions"]]
    assert any("prefix base" in v for v in plan_violations(doc))
