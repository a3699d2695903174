"""Deterministic maximal-munch lexer for an indentation-based code subset.

The token stream is the unit of every downstream budget: chunk lengths,
span widths and retention counts are all raw counts over these tokens.
Physical tokens carry their exact source text, so interleaving token texts
with the source gaps between them reconstructs the file byte for byte.

The grammar is the one regex ``_TOKEN``: at each position it skips a run
of gap characters, then its alternatives are tried in order and the first
that matches is the token, so one match makes one token.  Newline
tokens are emitted only at bracket depth zero and never for a newline
escaped by a backslash, which makes a "logical line" exactly the token run
between two newline tokens.
"""

from __future__ import annotations

import io
import re
import tokenize as py_tokenize
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, compress, repeat
from operator import attrgetter, is_, sub
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EncodingError


class TokenKind(str, Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string_literal"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    COMMENT = "comment"
    NEWLINE = "newline"


class Token(NamedTuple):
    """One physical token; a tuple record, equal to the plain tuple of its fields."""

    text: str
    byte_offset: int  # into the UTF-8 encoding of the decoded text
    line: int
    column: int
    kind: TokenKind


@dataclass(frozen=True)
class SourceFile:
    path: str
    content: str


KEYWORDS = frozenset(
    """
    False None True and as assert async await break class continue def del
    elif else except finally for from global if import in is lambda nonlocal
    not or pass raise return try while with yield
    """.split()
)

# The leading run is the gap before a token: blanks, a lone CR, and a
# backslash before a lone CR.  A backslash before CRLF is left to the
# newline alternative, which makes it an escaped newline; the final \Z
# matches a gap at the end of the input.  String bodies are written as
# runs, not one character per step, so the backtracking stack stays small
# on long literals.  An unterminated string ends at the end of its line
# (single quotes) or of the input (triple).
_TOKEN = re.compile(
    r"""
    (?:[ \t\f\v]+|\r(?!\n)|\\(?=\r(?!\n)))*
    (?:
      (?P<newline>\\?\r?\n)
    | (?P<comment>\#[^\r\n]*(?:\r(?=[^\n])[^\r\n]*)*)
    | (?P<string>(?:[rR][bBfF]?|[bBfF][rR]?|[uU])?
        (?: '{3}(?:[^'\\]+|\\[\s\S]?|'(?!''))*(?:'{3})?
          | "{3}(?:[^"\\]+|\\[\s\S]?|"(?!""))*(?:"{3})?
          | '(?:[^'\\\n]+|\\[\s\S]?)*'?
          | "(?:[^"\\\n]+|\\[\s\S]?)*"? ))
    | (?P<word>[^\W\d]\w*)
    | (?P<number>0[xXoObB]\w*
        | (?:\d[\d_]*(?:\.(?!\.)[\d_]*)?|\.\d[\d_]*)(?:[eE][+-]?\d[\d_]*)?[jJ]?)
    | (?P<punctuation>[()\[\]{},:.;])
    | (?P<operator>\*\*=?|//=?|>>=?|<<=?|->|[=!<>+\-*/%&|^]=|[\s\S])
    | \Z
    )
    """,
    re.VERBOSE,
)
_KINDS = {
    "comment": TokenKind.COMMENT,
    "string": TokenKind.STRING,
    "number": TokenKind.NUMBER,
    "punctuation": TokenKind.PUNCTUATION,
    "operator": TokenKind.OPERATOR,
}


def load_source(path: str | Path) -> SourceFile:
    """Read a file, decoding by its PEP 263 coding cookie (UTF-8 without one).
    A UTF-8 byte-order mark stays in the content, so the token byte offsets
    of a UTF-8 file are offsets into the file."""
    raw = Path(path).read_bytes()
    try:
        encoding, _ = py_tokenize.detect_encoding(io.BytesIO(raw).readline)
        content = raw.decode("utf-8" if encoding == "utf-8-sig" else encoding)
    except (SyntaxError, UnicodeDecodeError) as exc:
        raise EncodingError(f"{path}: {exc}") from exc
    return SourceFile(path=str(path), content=content)


def tokenize(source: SourceFile) -> list[Token]:
    """Lex ``source.content`` into its physical token sequence.

    Deterministic: a pure function of the content string.  Unknown
    characters degrade to one-character operator tokens rather than
    failing, so arbitrary text can pass through the engine; only a lone
    surrogate, which has no UTF-8 bytes, raises ``EncodingError``.
    """
    text = source.content
    wide = not text.isascii()
    match = _TOKEN.match
    # tuple.__new__ skips the generated Token.__new__, as namedtuple._make does
    new = tuple.__new__
    tokens: list[Token] = []
    n = len(text)
    pos = 0
    extra = 0  # UTF-8 bytes beyond one per character before ``pos``
    line = 1
    line_start = 0  # index of the first character of ``line``
    depth = 0  # ( [ { nesting; newlines inside brackets are plain gaps
    while pos < n:
        m = match(text, pos)
        group = m.lastgroup
        if group is None:  # only a gap was left before the end of the input
            break
        pos, end = m.span(group)
        tok = m.group(group)
        if group == "newline":
            # inside brackets, or escaped by a backslash, it only ends a line
            if depth == 0 and text[pos] != "\\":
                col = pos - line_start + 1
                tokens.append(new(Token, (tok, pos + extra, line, col, TokenKind.NEWLINE)))
            line += 1
            line_start = pos = end
            continue
        if group == "word":
            if tok in KEYWORDS:
                kind = TokenKind.KEYWORD
            elif tok[0] > "\x7f" and not tok[0].isalpha():
                # every ASCII head is a letter or "_", but \w also admits digits
                # and numerals that are not letters (², ½, ①): such a head is a
                # token of its own and lexing resumes after it
                tok = tok[0]
                end = pos + 1
                kind = TokenKind.NUMBER if tok.isdigit() else TokenKind.OPERATOR
            else:
                kind = TokenKind.IDENTIFIER
        else:
            kind = _KINDS[group]
            if group == "punctuation":
                if tok in "([{":
                    depth += 1
                elif tok in ")]}" and depth:
                    depth -= 1
        tokens.append(new(Token, (tok, pos + extra, line, pos - line_start + 1, kind)))
        if wide and not tok.isascii():
            try:
                extra += len(tok.encode("utf-8")) - len(tok)
            except UnicodeEncodeError as exc:  # a lone surrogate
                raise EncodingError(f"{source.path}: line {line}: {exc.reason}") from exc
        if group == "string" and "\n" in tok:
            line += tok.count("\n")
            line_start = pos + tok.rfind("\n") + 1
        pos = end
    return tokens


class TokenTexts(NamedTuple):
    """Where a file's tokens sit in its content, so that their texts can be
    sliced from it again instead of kept. Each array has the smallest
    unsigned type that holds its values."""

    starts: array  # character index of each token in the content
    lengths: array  # in characters


def _column(values: Sequence[int]) -> array:
    top = max(values, default=0)
    code = next(c for c in "BHIQ" if top < 1 << 8 * array(c).itemsize)
    return array(code, values)


def _extra_bytes(text: str) -> int:
    return len(text.encode("utf-8")) - len(text)


def pack_texts(text: str, tokens: list[Token]) -> TokenTexts:
    """Where ``tokenize``'s tokens of ``text`` sit in it; see ``token_texts``."""
    texts = [*map(attrgetter("text"), tokens)]
    starts = [*map(attrgetter("byte_offset"), tokens)]
    if not text.isascii():
        # a token starts after the extra UTF-8 bytes of the tokens before it
        starts = [*map(sub, starts, accumulate(map(_extra_bytes, texts), initial=0))]
    return TokenTexts(_column(starts), _column([*map(len, texts)]))


def token_texts(text: str, packed: TokenTexts, lo: int = 0, hi: int | None = None) -> list[str]:
    """The texts of tokens ``lo`` to ``hi`` (exclusive) of ``packed``,
    sliced from ``text``, without making their tokens."""
    return [text[i : i + n] for i, n in zip(packed.starts[lo:hi], packed.lengths[lo:hi])]


class Names(NamedTuple):
    """The identifiers of a token run, which no query changes: a plan marks
    a query's hits by looking its identifiers up in ``texts`` and indexing
    the result by ``ids``."""

    texts: tuple[str, ...]  # each distinct identifier text, sorted
    ids: np.ndarray  # per token: its index into texts, -1 for a token that is no identifier
    set: frozenset[str]  # texts as a set


def identifier_names(tokens: Sequence[Token]) -> Names:
    """The :class:`Names` of ``tokens``. The texts are sorted, so the ids
    are the same under every ``PYTHONHASHSEED``."""
    is_identifier = [*map(is_, map(attrgetter("kind"), tokens), repeat(TokenKind.IDENTIFIER))]
    words = [*compress(map(attrgetter("text"), tokens), is_identifier)]
    distinct = frozenset(words)
    texts = tuple(sorted(distinct))
    ids = np.full(len(tokens), -1, np.int16 if len(texts) < 1 << 15 else np.int32)
    index = dict(zip(texts, range(len(texts))))
    ids[np.flatnonzero(is_identifier)] = [*map(index.__getitem__, words)]
    ids.flags.writeable = False
    return Names(texts, ids, distinct)


def reconstruct(source: SourceFile, tokens: list[Token]) -> str:
    """Re-interleave token texts with source gaps; must equal the content."""
    data = source.content.encode("utf-8")
    out: list[bytes] = []
    cursor = 0
    for tok in tokens:
        out.append(data[cursor : tok.byte_offset])
        piece = tok.text.encode("utf-8")
        out.append(piece)
        cursor = tok.byte_offset + len(piece)
    out.append(data[cursor:])
    return b"".join(out).decode("utf-8")


@dataclass(frozen=True)
class LogicalLine:
    """A statement-bearing token run between two depth-zero newlines.

    ``start``/``end`` are half-open indices into the physical token list and
    include the terminating newline token when present.  ``sig_start`` points
    at the first non-comment token, or -1 for blank and comment-only lines.
    """

    start: int
    end: int
    sig_start: int
    indent_col: int

    @property
    def blank(self) -> bool:
        return self.sig_start < 0


def logical_lines(tokens: list[Token]) -> list[LogicalLine]:
    lines: list[LogicalLine] = []
    n = len(tokens)
    i = 0
    while i < n:
        start = i
        sig = -1
        while i < n and tokens[i].kind is not TokenKind.NEWLINE:
            if sig < 0 and tokens[i].kind is not TokenKind.COMMENT:
                sig = i
            i += 1
        if i < n:
            i += 1  # consume the newline
        col = tokens[sig].column if sig >= 0 else 0
        lines.append(LogicalLine(start, i, sig, col))
    return lines
