"""Deterministic maximal-munch lexer for an indentation-based code subset.

The token stream is the unit of every downstream budget: chunk lengths,
span widths and retention counts are all raw counts over these tokens.
Physical tokens carry their exact source text, so interleaving token texts
with the source gaps between them reconstructs the file byte for byte.

Newline tokens are emitted only at bracket depth zero, which makes a
"logical line" exactly the token run between two newline tokens.  The
indent/dedent layer (:func:`block_markers`) is synthesized on top of the
physical stream for the parser; it is never part of a file's token list.
"""

from __future__ import annotations

import io
import tokenize as py_tokenize
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

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
    INDENT = "indent"
    DEDENT = "dedent"


@dataclass(frozen=True)
class Token:
    text: str
    byte_offset: int  # into the UTF-8 encoding of the decoded text
    line: int
    column: int
    kind: TokenKind


@dataclass(frozen=True)
class SourceFile:
    path: str
    content: str
    language_tag: str = "subset_py"  # "subset_py" | "external"


KEYWORDS = frozenset(
    """
    False None True and as assert async await break class continue def del
    elif else except finally for from global if import in is lambda nonlocal
    not or pass raise return try while with yield
    """.split()
)

# Longest-first so maximal munch falls out of the scan order.
_OPERATORS = (
    "**=", "//=", ">>=", "<<=", "...",
    "->", ":=", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "**", "//", "<<", ">>",
    "+", "-", "*", "/", "%", "<", ">", "=", "&", "|", "^", "~", "@", "!",
)
_PUNCTUATION = "()[]{},:.;"
_OPEN = "([{"
_CLOSE = ")]}"
_STRING_PREFIXES = frozenset({"r", "b", "u", "f", "rb", "br", "fr", "rf"})


def load_source(path: str | Path, language_tag: str = "subset_py") -> SourceFile:
    """Read a file, decoding by its PEP 263 coding cookie (UTF-8 without one).
    A UTF-8 byte-order mark stays in the content, so the token byte offsets
    of a UTF-8 file are offsets into the file."""
    raw = Path(path).read_bytes()
    try:
        encoding, _ = py_tokenize.detect_encoding(io.BytesIO(raw).readline)
        content = raw.decode("utf-8" if encoding == "utf-8-sig" else encoding)
    except (SyntaxError, UnicodeDecodeError) as exc:
        raise EncodingError(f"{path}: {exc}") from exc
    return SourceFile(path=str(path), content=content, language_tag=language_tag)


def _is_ident_head(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_tail(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(source: SourceFile) -> list[Token]:
    """Lex ``source.content`` into its physical token sequence.

    Deterministic: a pure function of the content string.  Unknown
    characters degrade to one-character operator tokens rather than
    failing, so arbitrary text can pass through the engine.
    """
    text = source.content
    tokens: list[Token] = []
    i = 0
    n = len(text)
    byte_pos = 0
    line = 1
    col = 1
    depth = 0  # ( [ { nesting; newlines inside brackets are plain gaps

    def emit(tok_text: str, kind: TokenKind) -> None:
        tokens.append(Token(tok_text, byte_pos, line, col, kind))

    def advance(tok_text: str) -> None:
        nonlocal i, byte_pos, line, col
        i += len(tok_text)
        byte_pos += len(tok_text.encode("utf-8"))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            col = len(tok_text) - tok_text.rfind("\n")
        else:
            col += len(tok_text)

    while i < n:
        ch = text[i]

        if ch == "\r" and i + 1 < n and text[i + 1] == "\n":
            if depth == 0:
                emit("\r\n", TokenKind.NEWLINE)
            advance("\r\n")
            continue
        if ch == "\n":
            if depth == 0:
                emit("\n", TokenKind.NEWLINE)
            advance("\n")
            continue
        if ch in " \t\r\f\v":
            advance(ch)
            continue
        if ch == "\\" and i + 1 < n and text[i + 1] in "\r\n":
            # explicit line continuation: swallow the backslash as a gap
            advance(ch)
            continue

        if ch == "#":
            end = text.find("\n", i)
            if end == -1:
                end = n
            if end > 0 and text[end - 1] == "\r":
                end -= 1
            comment = text[i:end]
            emit(comment, TokenKind.COMMENT)
            advance(comment)
            continue

        literal = _match_string(text, i)
        if literal is not None:
            emit(literal, TokenKind.STRING)
            advance(literal)
            continue

        if _is_ident_head(ch):
            j = i + 1
            while j < n and _is_ident_tail(text[j]):
                j += 1
            word = text[i:j]
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENTIFIER
            emit(word, kind)
            advance(word)
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            num = _match_number(text, i)
            emit(num, TokenKind.NUMBER)
            advance(num)
            continue

        if ch in _PUNCTUATION:
            if ch in _OPEN:
                depth += 1
            elif ch in _CLOSE:
                depth = max(0, depth - 1)
            emit(ch, TokenKind.PUNCTUATION)
            advance(ch)
            continue

        for op in _OPERATORS:
            if text.startswith(op, i):
                emit(op, TokenKind.OPERATOR)
                advance(op)
                break
        else:
            # anything unrecognized becomes a one-character operator token
            emit(ch, TokenKind.OPERATOR)
            advance(ch)

    return tokens


def _match_string(text: str, i: int) -> str | None:
    n = len(text)
    j = i
    prefix_end = j
    while prefix_end < n and prefix_end - j < 2 and text[prefix_end].isalpha():
        prefix_end += 1
    if prefix_end > j:
        if text[j:prefix_end].lower() not in _STRING_PREFIXES:
            prefix_end = j
        if prefix_end >= n or text[prefix_end] not in "'\"":
            prefix_end = j
    if prefix_end >= n or text[prefix_end] not in "'\"":
        if text[i] not in "'\"":
            return None
        prefix_end = i
    quote = text[prefix_end]
    if text.startswith(quote * 3, prefix_end):
        close = quote * 3
        k = prefix_end + 3
    else:
        close = quote
        k = prefix_end + 1
    while k < n:
        if text[k] == "\\" and k + 1 < n:
            k += 2
            continue
        if text.startswith(close, k):
            return text[i : k + len(close)]
        if len(close) == 1 and text[k] == "\n":
            return text[i:k]  # unterminated: stop at end of line
        k += 1
    return text[i:n]


def _match_number(text: str, i: int) -> str:
    n = len(text)
    j = i
    if text[j] == "0" and j + 1 < n and text[j + 1] in "xXoObB":
        j += 2
        while j < n and (text[j].isalnum() or text[j] == "_"):
            j += 1
        return text[i:j]
    seen_dot = False
    seen_exp = False
    while j < n:
        ch = text[j]
        if ch.isdigit() or ch == "_":
            j += 1
        elif ch == "." and not seen_dot and not seen_exp:
            if j + 1 < n and text[j + 1] == ".":  # leave ".." / "..." alone
                break
            seen_dot = True
            j += 1
        elif ch in "eE" and not seen_exp and j + 1 < n and (
            text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())
        ):
            seen_exp = True
            j += 2 if text[j + 1] in "+-" else 1
        elif ch in "jJ":
            j += 1
            break
        else:
            break
    return text[i:j]


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


def logical_lines(tokens: list[Token], lo: int = 0, hi: int | None = None) -> list[LogicalLine]:
    if hi is None:
        hi = len(tokens)
    lines: list[LogicalLine] = []
    i = lo
    while i < hi:
        start = i
        sig = -1
        while i < hi and tokens[i].kind is not TokenKind.NEWLINE:
            if sig < 0 and tokens[i].kind is not TokenKind.COMMENT:
                sig = i
            i += 1
        if i < hi:
            i += 1  # consume the newline
        col = tokens[sig].column if sig >= 0 else 0
        lines.append(LogicalLine(start, i, sig, col))
    return lines


def block_markers(tokens: list[Token]) -> list[Token]:
    """Insert zero-width indent/dedent tokens around nesting changes.

    This is the layout layer consumed by the block parser.  Marker tokens
    reuse the position of the line's first significant token and carry empty
    text, so they never perturb reconstruction of the physical stream.
    """
    out: list[Token] = []
    indents: list[int] = []
    for ln in logical_lines(tokens):
        if not ln.blank:
            first = tokens[ln.sig_start]
            while indents and ln.indent_col < indents[-1]:
                indents.pop()
                out.append(Token("", first.byte_offset, first.line, first.column, TokenKind.DEDENT))
            if not indents:
                indents.append(ln.indent_col)
            elif ln.indent_col > indents[-1]:
                indents.append(ln.indent_col)
                out.append(Token("", first.byte_offset, first.line, first.column, TokenKind.INDENT))
        out.extend(tokens[ln.start : ln.end])
    if tokens:
        last = tokens[-1]
        end_off = last.byte_offset + len(last.text.encode("utf-8"))
        while len(indents) > 1:
            indents.pop()
            out.append(Token("", end_off, last.line, last.column, TokenKind.DEDENT))
    return out
