"""The record writer and reader: canonical JSON of records, and JSON
documents typed by the fields of their records."""

import ctypes
import dataclasses
import enum
import os
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structkv.cli import GoldFile
from structkv.config import AttentionConfig, PipelineConfig, SelectionConfig
from structkv.errors import SchemaError
from structkv.plan import (
    ChunkPlan,
    CompressionPlan,
    LayerPlan,
    _encode,
    canonical_json,
    read_record,
)
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


@pytest.mark.parametrize(
    "kept,expected",
    [([0, "3"], "must be an integer, got str"), ({"0": 3}, "must be an array, got dict")],
    ids=["string-item", "object"],
)
def test_index_arrays_are_typed_item_by_item(kept, expected):
    doc = json.loads(GOLDEN_PLAN.read_text())
    doc["chunks"][0]["layers"][0]["kept"] = kept
    with pytest.raises(SchemaError, match=f"^plan: field 'kept' in 'chunks.layers' {expected}$"):
        CompressionPlan.from_dict(doc)


@pytest.mark.parametrize(
    "kept",
    [[2, 1], [0, 0], [-1, 2], "past-the-end"],
    ids=["descending", "repeated", "negative", "past-the-end"],
)
def test_kept_indices_must_ascend_within_the_chunk(kept):
    # structure_score counts each kept index once, by position in its chunk
    doc = json.loads(GOLDEN_PLAN.read_text())
    chunk = doc["chunks"][0]
    chunk["layers"][0]["kept"] = [0, chunk["length"]] if kept == "past-the-end" else kept
    layer = chunk["layers"][0]["layer"]
    message = (
        f"^plan: chunk {chunk['chunk_id']} layer {layer} keeps indices that do not "
        f"ascend within \\[0, {chunk['length']}\\)$"
    )
    with pytest.raises(SchemaError, match=message):
        CompressionPlan.from_dict(doc)


def reference_json(obj):
    """The stdlib encoder with the options canonical_json promises."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_encode)


class Kind(str, enum.Enum):
    CALL = "call"
    BRANCH = "br\u00e9"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


@dataclasses.dataclass(frozen=True)
class Pair:  # fields declared out of name order
    zeta: object
    alpha: object


@dataclasses.dataclass(frozen=True)
class Layer:
    layer: int
    kept: tuple
    positions: tuple


@dataclasses.dataclass(frozen=True)
class Doc:
    layers: tuple
    protected: tuple
    kept: tuple
    label: object


EDGE_FLOATS = [1e-05, 1e16, -0.0, 5e-324, 0.1, 1.7976931348623157e308, -1.5e-7, 123456789.0]
EDGE_STRINGS = [
    "", "caf\u00e9", "\u65e5\u672c", "\U0001f600", "\x7f", "\x00\x1f\t\n", '"\\/', "\ud800"
]
EDGE_INTS = [0, -1, 2**63, -(2**64) - 1, 10**30]

scalars = st.one_of(
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.text(),
    st.sampled_from(EDGE_STRINGS),
    st.booleans(),
    st.none(),
    st.sampled_from([*Kind, *Level]),
    st.just(Empty()),
)
flat_tuples = st.lists(st.integers() | st.sampled_from(EDGE_FLOATS), max_size=8).map(tuple)


@st.composite
def shared_docs(draw, values):
    """A record whose layers and fields all hold one tuple object."""
    shared = draw(flat_tuples)
    layers = tuple(Layer(i, shared, shared) for i in range(draw(st.integers(0, 4))))
    return Doc(layers=layers, protected=shared, kept=draw(flat_tuples), label=draw(values))


json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.builds(Pair, children, children),
        st.lists(st.builds(Pair, children, children), max_size=3).map(tuple),
        shared_docs(children),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_canonical_json_is_the_stdlib_encoders_text(value):
    assert canonical_json(value) == reference_json(value)


@pytest.mark.parametrize("value", [*EDGE_FLOATS, *EDGE_STRINGS, *EDGE_INTS, *Kind, *Level])
def test_edge_scalars_match_stdlib(value):
    for wrapped in (value, (value,), Pair(value, (value, value)), {"k": value}):
        assert canonical_json(wrapped) == reference_json(wrapped)


def test_shared_tuple_written_at_every_use():
    shared = (3, 1, 2)
    doc = Doc(layers=(Layer(0, shared, shared), Layer(1, shared, ())), protected=shared, kept=(),
              label=None)
    text = canonical_json(doc)
    assert text == reference_json(doc)
    assert text.count("[3,1,2]") == 4


def test_record_without_fields_writes_empty_object():
    assert canonical_json(Empty()) == "{}"
    assert canonical_json((Empty(), Empty())) == "[{},{}]"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_float_raises_value_error(bad):
    for value in (bad, (1, bad), Pair(bad, 0), Layer(0, (bad,), ()), {"x": [bad]}):
        with pytest.raises(ValueError, match="Out of range float values"):
            canonical_json(value)


def test_unknown_type_raises_type_error():
    for value in (object(), (object(),), Pair(0, object()), Layer(0, (), (Empty(), object()))):
        with pytest.raises(TypeError, match="^object is not JSON serializable$"):
            canonical_json(value)


def test_shared_index_tuples_encoded_without_copying_the_plan():
    # 150 chunks x 32 layers, each chunk's layers sharing one 300-index kept
    # tuple, as the layers of a protected chunk do in a real plan
    chunks = []
    for c in range(150):
        kept = tuple(range(c, c + 600, 2))
        positions = tuple(100 + k for k in kept)
        chunks.append(
            ChunkPlan(chunk_id=c, file=f"f{c}.py", token_range=(c * 700, c * 700 + 700),
                      length=700, ppl=1.5 + c, sigma=0.25, normalized_score=c / 150,
                      multiplier=1.0, budget=300, span_budget=150, spans=(), protected=kept,
                      layers=tuple(LayerPlan(layer, kept, positions) for layer in range(32)))
        )
    plan = CompressionPlan(chunks=tuple(chunks), prefix_len=100, query_len=8,
                           query_start_position=150 * 700 + 100, layer_count=32, seed=0,
                           config_fingerprint="0123456789abcdef")
    tracemalloc.start()
    try:
        text = plan.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference_json(plan)
    assert peak < 1.5 * len(text)


def mapped_blocks() -> int | None:
    """How many blocks glibc's malloc has mapped on their own, or None where
    that cannot be read (another C library, or glibc before mallinfo2)."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return None
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (ValueError, OSError, AttributeError):
        return None
    mallinfo2.restype = MallInfo2
    return mallinfo2().hblks


class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


@pytest.mark.skipif(mapped_blocks() is None, reason="needs glibc's mallinfo2")
def test_plan_sized_strings_stay_mapped_after_one_is_freed():
    # glibc's own rule raises its mmap threshold to the size of a freed
    # mapped block, so the slightly smaller second string would come from
    # the heap; importing structkv.plan fixes the threshold instead
    first = "x" * (9 << 20)
    del first
    before = mapped_blocks()
    second = "y" * ((9 << 20) - (256 << 10))
    assert mapped_blocks() == before + 1
    del second
