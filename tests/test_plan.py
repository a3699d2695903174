"""The record reader: JSON documents typed by the fields of their records."""

import json
import re
from pathlib import Path

import pytest

from structkv.cli import GoldFile
from structkv.config import AttentionConfig, PipelineConfig, SelectionConfig
from structkv.errors import SchemaError
from structkv.plan import CompressionPlan, read_record
from structkv.spans import SpanConfig

GOLDEN_PLAN = Path(__file__).parent / "data" / "golden_plan.json"


def test_omitted_field_takes_its_default():
    assert read_record(SelectionConfig, {"k": 3}, "config") == SelectionConfig(k=3, layers=4)
    assert read_record(GoldFile, {"predicted": [], "gold": [1]}, "gold").gold_text is None


def test_missing_field_without_default_rejected():
    with pytest.raises(SchemaError, match="gold: missing field 'gold'"):
        read_record(GoldFile, {"predicted": []}, "gold")


@pytest.mark.parametrize("where", ["plan", "chunk", "layer"])
def test_unknown_key_in_plan_rejected(where):
    doc = json.loads(GOLDEN_PLAN.read_text())
    target = {"plan": doc, "chunk": doc["chunks"][0], "layer": doc["chunks"][0]["layers"][0]}
    target[where]["extra"] = 1
    with pytest.raises(SchemaError, match="plan: unknown key 'extra'"):
        CompressionPlan.from_dict(doc)


def test_errors_name_the_record_they_are_in():
    with pytest.raises(SchemaError, match="^config: unknown key 'retry' in 'scorer'$"):
        read_record(PipelineConfig, {"scorer": {"retry": 3}}, "config")
    with pytest.raises(SchemaError, match="field 'window' in 'attention' must be an integer"):
        read_record(PipelineConfig, {"attention": {"window": 2.5}}, "config")
    doc = json.loads(GOLDEN_PLAN.read_text())
    del doc["chunks"][0]["layers"][0]["kept"]
    with pytest.raises(SchemaError, match="^plan: missing field 'kept' in 'chunks.layers'$"):
        CompressionPlan.from_dict(doc)


def test_union_tries_each_alternative():
    as_text = read_record(GoldFile, {"predicted": ["a", 1, 2.5], "gold": [], "gold_text": "ab"}, "g")
    assert as_text.predicted == ("a", 1, 2.5) and as_text.gold_text == "ab"
    as_tokens = read_record(GoldFile, {"predicted": [], "gold": [], "gold_text": ["a", 1]}, "g")
    assert as_tokens.gold_text == ("a", 1)
    assert read_record(AttentionConfig, {"url": None}, "config").url is None
    with pytest.raises(SchemaError, match=re.escape("'url' must be str | None, got int")):
        read_record(AttentionConfig, {"url": 5}, "config")


@pytest.mark.parametrize("value", [1, 0, "true", None])
def test_bool_accepts_only_true_and_false(value):
    with pytest.raises(SchemaError, match="'enabled' must be true or false"):
        read_record(SpanConfig, {"enabled": value}, "config")


def test_bool_reads_false():
    assert read_record(SpanConfig, {"enabled": False}, "config").enabled is False


def test_dict_values_are_typed():
    weights = dict(SpanConfig().weights, call="0.2")
    with pytest.raises(SchemaError, match="'weights' must be a number, got str"):
        read_record(SpanConfig, {"weights": weights}, "config")
    with pytest.raises(SchemaError, match="'weights' must be an object"):
        read_record(SpanConfig, {"weights": [0.2]}, "config")


def test_numbers_are_not_coerced():
    cfg = read_record(AttentionConfig, {"timeout_s": 3}, "config")
    assert type(cfg.timeout_s) is int
    with pytest.raises(SchemaError, match="'window' must be an integer, got float"):
        read_record(AttentionConfig, {"window": 2.0}, "config")
