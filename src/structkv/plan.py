"""Compression plan records and their canonical JSON form.

A plan is the product of the engine: per selected chunk it lists the
budget, span provenance, the per-layer kept token indices, and the
original position index of every kept token. Canonical serialization
(sorted keys, minimal separators) makes plans byte-comparable across
runs and worker counts.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import types
import typing
from dataclasses import dataclass
from enum import Enum
from operator import lt

import orjson

from .errors import ConfigError, SchemaError, UnsupportedKindError


def canonical_json(obj: object) -> str:
    """Exactly the text of ``json.dumps(obj, sort_keys=True, separators=(",",
    ":"), allow_nan=False)``, ASCII-escaped, where a record (dataclass
    instance) is written as the object of its fields; any other type JSON
    lacks (a set, say) raises :class:`TypeError`, and a NaN or infinite
    float :class:`ValueError`. A tuple object that appears more than once
    (the kept indices every layer of a chunk shares) is encoded once per
    call."""
    out: list[str] = []
    _write(obj, out, {})
    return "".join(out)


def _encode(obj: object) -> object:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_ENCODE = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, default=_encode
).encode

# glibc's mallopt parameters (<malloc.h>), and the size from which blocks
# are mapped and unmapped one by one.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MAPPED_BYTES = 4 << 20


def _glibc() -> ctypes.CDLL | None:
    """The C library when it is glibc, whose malloc this module tunes."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (ValueError, OSError):
        return None
    if not libc.startswith("glibc"):
        return None
    c = ctypes.CDLL(None)
    c.mallopt.argtypes, c.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    c.malloc_trim.argtypes, c.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    return c


_LIBC = _glibc()


def _map_large_blocks() -> None:
    """Keep plan-sized strings out of the C heap. A deep plan's text is one
    ~10 MB string, and whoever writes or hashes it makes more of that size.
    glibc maps such a block at first, but each time one is freed it raises
    its mmap threshold past the block's size; later ones are then carved
    from the heap, where the strings still alive split the holes the freed
    ones leave, so the process's peak RSS lands one plan-size higher or not
    at random. A fixed threshold (which also stops those raises) maps every
    block of ``_MAPPED_BYTES`` or more and returns it to the system when it
    is freed; the trim threshold is set to twice it, as glibc's own rule
    would. Other C libraries are left alone."""
    if _LIBC is not None:
        _LIBC.mallopt(_M_TRIM_THRESHOLD, 2 * _MAPPED_BYTES)
        _LIBC.mallopt(_M_MMAP_THRESHOLD, _MAPPED_BYTES)


_map_large_blocks()


def release_free_heap() -> None:
    """Hand the C heap's free pages back to the system (glibc only). A plan
    frees its working arrays and tuples in the middle of the heap, where
    glibc's own trim, which only cuts a free top past its threshold, does
    not reach, so without this the caller would write the plan, with its
    plan-sized strings, on top of up to ~10 MB of free heap. One call takes
    about 0.4 ms after a plan of every ``asyncio`` chunk."""
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def _write(obj: object, out: list[str], memo: dict[int, str]) -> None:
    """Append the canonical text of ``obj`` to ``out``. Records and tuples of
    records are written here; every other value goes to the stdlib encoder,
    and a flat tuple's text is kept in ``memo`` by ``id``: each tuple is
    reachable from the value being written, so no id is reused in one call."""
    cls = type(obj)
    if cls is int:
        out.append(int.__repr__(obj))
    elif cls is tuple:
        if obj and _record_keys(type(obj[0])) is not None:
            out.append("[")
            for i, item in enumerate(obj):
                if i:
                    out.append(",")
                _write(item, out, memo)
            out.append("]")
        else:
            text = memo.get(id(obj))
            if text is None:
                text = memo[id(obj)] = _ENCODE(obj)
            out.append(text)
    elif (keys := _record_keys(cls)) is not None:
        for name, key in keys:
            out.append(key)
            _write(getattr(obj, name), out, memo)
        out.append("}" if keys else "{}")
    else:
        out.append(_ENCODE(obj))


@functools.cache
def _record_keys(cls: type) -> tuple[tuple[str, str], ...] | None:
    """For a record class, its field names in sorted order, each with the
    text written before its value (``{"name":`` for the first, ``,"name":``
    after); None for any other class."""
    if not dataclasses.is_dataclass(cls):
        return None
    names = sorted(f.name for f in dataclasses.fields(cls))
    return tuple(
        (name, ("," if i else "{") + json.dumps(name) + ":") for i, name in enumerate(names)
    )


def decode_json(data: str | bytes, what: str) -> object:
    """The JSON value ``data`` holds, read strictly: UTF-8 only, and no
    ``NaN`` or ``Infinity``. Anything else raises :class:`SchemaError`
    ``"<what>: invalid JSON: ..."``."""
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise SchemaError(f"{what}: invalid JSON: {exc}") from None


def fingerprint(obj: object) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SpanRecord:
    anchor_node: int
    stage: int
    score: float
    token_range: tuple[int, int]


@dataclass(frozen=True)
class LayerPlan:
    layer: int
    kept: tuple[int, ...]  # ascending chunk-local indices
    positions: tuple[int, ...]  # original position index per kept token


@dataclass(frozen=True)
class ChunkPlan:
    chunk_id: int
    file: str
    token_range: tuple[int, int]
    length: int  # pre-compression token count
    ppl: float
    sigma: float
    normalized_score: float
    multiplier: float
    budget: int
    span_budget: int
    spans: tuple[SpanRecord, ...]
    protected: tuple[int, ...]
    layers: tuple[LayerPlan, ...]


@dataclass(frozen=True)
class CompressionPlan:
    chunks: tuple[ChunkPlan, ...]
    prefix_len: int
    query_len: int
    query_start_position: int
    layer_count: int
    seed: int
    config_fingerprint: str

    def to_json(self) -> str:
        return canonical_json(self)

    def to_dict(self) -> dict:
        return decode_json(self.to_json(), "plan")

    @classmethod
    def from_dict(cls, doc: object) -> "CompressionPlan":
        """Inverse of :meth:`to_dict`. A missing or mistyped field, or a chunk
        whose ``token_range`` is not ``[start, start + length)`` with
        ``0 <= start`` and ``0 < length``, or a layer whose ``kept`` indices
        do not ascend within ``[0, length)``, raises :class:`SchemaError`."""
        plan = read_record(cls, doc, "plan")
        for c in plan.chunks:
            start, end = c.token_range
            if not 0 <= start < end or c.length != end - start:
                raise SchemaError(
                    f"plan: chunk {c.chunk_id} has token_range {list(c.token_range)} "
                    f"and length {c.length}"
                )
            for layer in c.layers:
                kept = layer.kept
                ascending = all(map(lt, kept, kept[1:]))
                if kept and not (0 <= kept[0] and kept[-1] < c.length and ascending):
                    raise SchemaError(
                        f"plan: chunk {c.chunk_id} layer {layer.layer} keeps indices that do "
                        f"not ascend within [0, {c.length})"
                    )
        return plan

    @classmethod
    def from_json(cls, text: str) -> "CompressionPlan":
        return cls.from_dict(decode_json(text, "plan"))


R = typing.TypeVar("R")


def read_record(cls: type[R], doc: object, what: str) -> R:
    """The ``cls`` record that ``doc``, a parsed JSON document in the form
    :func:`canonical_json` writes, holds. A field with a default may be
    omitted. A key that names no field, a missing field without a default
    or a mistyped value raises :class:`SchemaError` naming it and the record
    it is in (``'scorer'``, ``'chunks.layers'``), prefixed by ``what``; a
    record's own :class:`ConfigError` names the record and ``what`` the same
    way. A value outside its enum raises :class:`UnsupportedKindError`.
    Values are not coerced: a JSON ``1`` read into a ``float`` field stays
    the ``int`` 1."""
    try:
        return _reader(cls)(doc, "")
    except (SchemaError, ConfigError) as exc:
        raise type(exc)(f"{what}: {exc}") from None


_SCALARS = {  # annotation: (the JSON value types it accepts, its name in errors)
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "true or false"),
    type(None): ((type(None),), "null"),
}


@functools.cache
def _reader(tp: object) -> typing.Callable[[object, str], object]:
    """``read(value, path)``: ``value`` as annotation ``tp`` types it, or a
    :class:`SchemaError` naming ``path``, the dotted field path of ``value``
    (``""`` for the document; items share their array's path). JSON
    booleans are no numbers."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = {f.name: _reader(hints[f.name]) for f in dataclasses.fields(tp)}
        required = {
            f.name
            for f in dataclasses.fields(tp)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        }

        def read(value, path):
            if not isinstance(value, dict):
                raise _mistyped(path, value, "an object")
            if unknown := value.keys() - fields.keys():
                raise SchemaError(f"unknown key {min(unknown)!r}{_within(path)}")
            if missing := required - value.keys():
                raise SchemaError(f"missing field {min(missing)!r}{_within(path)}")
            prefix = f"{path}." if path else ""
            values = {name: fields[name](item, prefix + name) for name, item in value.items()}
            try:
                return tp(**values)
            except ConfigError as exc:
                raise ConfigError(f"{exc}{_within(path)}") from None

    elif tp in _SCALARS:
        accepted, expected = _SCALARS[tp]

        def read(value, path):
            if type(value) not in accepted:
                raise _mistyped(path, value, expected)
            return value

    elif origin in (typing.Union, types.UnionType):
        alternatives = [_reader(a) for a in args]

        def read(value, path):
            for read_alternative in alternatives:
                try:
                    return read_alternative(value, path)
                except SchemaError:
                    pass
            raise _mistyped(path, value, str(tp))

    elif origin is dict and args[0] is str:
        read_value = _reader(args[1])

        def read(value, path):
            if not isinstance(value, dict):
                raise _mistyped(path, value, "an object")
            return {key: read_value(item, path) for key, item in value.items()}

    elif isinstance(tp, type) and issubclass(tp, Enum):

        def read(value, path):
            try:
                return tp(value)
            except ValueError:
                raise UnsupportedKindError(
                    f"{_label(path)} has the unsupported value {value!r}"
                ) from None

    elif args[-1:] == (...,):
        read_item = _reader(args[0])

        def read(value, path):
            if not isinstance(value, list):
                raise _mistyped(path, value, "an array")
            return tuple(read_item(v, path) for v in value)

    elif origin is tuple:
        read_items = [_reader(a) for a in args]

        def read(value, path):
            if not isinstance(value, list) or len(value) != len(read_items):
                raise _mistyped(path, value, f"an array of {len(read_items)} items")
            return tuple(r(v, path) for r, v in zip(read_items, value))

    else:
        raise TypeError(f"no JSON reader for {tp!r}")
    return read


def _mistyped(path: str, value: object, expected: str) -> SchemaError:
    return SchemaError(f"{_label(path)} must be {expected}, got {type(value).__name__}")


def _label(path: str) -> str:
    where, _, name = path.rpartition(".")
    return f"field {name!r}{_within(where)}" if path else "the document"


def _within(path: str) -> str:
    return f" in {path!r}" if path else ""
