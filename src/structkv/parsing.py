"""Statement-level parser for the indentation-based subset grammar.

Recognized statements: function definitions, if/elif/else, while, for,
return, plain and augmented assignments, and expression statements.
Anything else is an opaque statement; a malformed header, a stray clause
or an unexpected indent is also reported in the diagnostics list.  The
parser never fails hard.

All token spans are half-open intervals over the *chunk-local* token list
handed to :func:`parse_subset`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .lexer import LogicalLine, Token, TokenKind, logical_lines

AUG_OPS = frozenset(
    {"+=", "-=", "*=", "/=", "//=", "%=", "**=", "&=", "|=", "^=", ">>=", "<<="}
)
_OPEN = {"(", "[", "{"}
_CLOSE = {")", "]", "}"}
_TRIVIA = (TokenKind.COMMENT, TokenKind.NEWLINE)
_COMPOUND = ("def", "if", "while", "for")
_MALFORMED = {"def": "malformed function definition", "else": "malformed 'else' clause"}


@dataclass
class Stmt:
    span: tuple[int, int]
    line: int


@dataclass
class FunctionDef(Stmt):
    name: str
    params: tuple[str, ...]
    header_span: tuple[int, int]  # "def" through the colon
    body: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    test_span: tuple[int, int]
    header_span: tuple[int, int]
    body: list[Stmt] = field(default_factory=list)
    orelse: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    test_span: tuple[int, int]
    header_span: tuple[int, int]
    body: list[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    targets: tuple[str, ...]
    iter_span: tuple[int, int]
    header_span: tuple[int, int]
    body: list[Stmt] = field(default_factory=list)


@dataclass
class Return(Stmt):
    value_span: tuple[int, int]


@dataclass
class Assign(Stmt):
    targets: tuple[str, ...]  # plain identifier targets (definitions)
    target_span: tuple[int, int]  # everything left of the (last) assignment op
    value_span: tuple[int, int]
    augmented: bool = False


@dataclass
class ExprStmt(Stmt):
    pass


@dataclass
class Opaque(Stmt):
    pass


@dataclass(frozen=True)
class Diagnostic:
    line: int
    message: str


@dataclass
class Ast:
    body: list[Stmt]
    diagnostics: list[Diagnostic]


def parse_subset(tokens: list[Token]) -> Ast:
    """Parse a chunk's tokens into a statement-level AST."""
    parser = _Parser(tokens)
    body = parser.parse_module()
    return Ast(body=body, diagnostics=parser.diagnostics)


def significant(tokens: list[Token], span: tuple[int, int]) -> list[int]:
    """Indices of the span's syntax-bearing tokens (no comments or newlines)."""
    return [i for i in range(span[0], min(span[1], len(tokens))) if tokens[i].kind not in _TRIVIA]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.lines = [ln for ln in logical_lines(tokens) if not ln.blank]
        self.diagnostics: list[Diagnostic] = []

    def parse_module(self) -> list[Stmt]:
        body: list[Stmt] = []
        i = 0
        while i < len(self.lines):
            stmts, i = self._parse_run(i, self.lines[i].indent_col)
            body.extend(stmts)
        return body

    def _diag(self, line: int, message: str) -> None:
        self.diagnostics.append(Diagnostic(line, message))

    def _parse_run(self, i: int, col: int) -> tuple[list[Stmt], int]:
        """Parse consecutive statements at indent >= col; stop when shallower."""
        stmts: list[Stmt] = []
        while i < len(self.lines):
            ln = self.lines[i]
            if ln.indent_col < col:
                break
            if ln.indent_col > col:
                first = self.tokens[ln.sig_start]
                self._diag(first.line, "unexpected indent")
                nested, i = self._parse_run(i, ln.indent_col)
                stmts.extend(nested)
                continue
            stmt, i = self._parse_statement(i)
            stmts.append(stmt)
        return stmts, i

    # -- statement dispatch -------------------------------------------------

    def _parse_statement(self, i: int) -> tuple[Stmt, int]:
        ln = self.lines[i]
        first = self.tokens[ln.sig_start]
        if first.kind is TokenKind.KEYWORD and first.text in _COMPOUND:
            return self._compound(i, first.text)
        return self._simple(ln.start, ln.end, significant(self.tokens, (ln.start, ln.end))), i + 1

    def _depth0(self, sig: list[int]) -> Iterator[int]:
        """Positions in ``sig`` of the tokens outside the brackets the run
        itself opens (the brackets are not yielded).  A stray closer counts
        down, so the tokens after it are inside until an opener balances it."""
        depth = 0
        for pos, idx in enumerate(sig):
            text = self.tokens[idx].text
            if text in _OPEN:
                depth += 1
            elif text in _CLOSE:
                depth -= 1
            elif depth == 0:
                yield pos

    def _find(self, sig: list[int], text: str) -> int | None:
        """Position in ``sig`` of the first depth-0 token with this text."""
        return next((pos for pos in self._depth0(sig) if self.tokens[sig[pos]].text == text), None)

    # -- compound statements ------------------------------------------------

    def _compound(self, i: int, kw: str) -> tuple[Stmt, int]:
        """A ``def``, ``if``, ``elif``, ``while`` or ``for`` header and its body.

        A header that does not fit its keyword is reported and degrades to
        an opaque line; its indented body is then flattened by the caller.
        """
        ln = self.lines[i]
        sig = significant(self.tokens, (ln.start, ln.end))
        line = self.tokens[sig[0]].line
        colon = self._find(sig, ":")
        in_pos = self._find(sig, "in") if kw == "for" else None
        if colon is None:
            valid = False
        elif kw == "def":
            valid = len(sig) >= 2 and self.tokens[sig[1]].kind is TokenKind.IDENTIFIER
        elif kw == "for":
            valid = in_pos is not None and in_pos < colon
        else:
            valid = colon != 1
        if not valid:
            self._diag(line, _MALFORMED.get(kw, f"malformed '{kw}' statement"))
            return Opaque((ln.start, ln.end), line), i + 1
        body, nxt = self._parse_body(i, ln, sig[colon + 1 :])
        orelse: list[Stmt] = []
        clause = self.lines[nxt] if kw in ("if", "elif") and nxt < len(self.lines) else None
        if clause is not None and clause.indent_col == ln.indent_col:
            follow = self.tokens[clause.sig_start].text
            if follow == "elif":
                nested, nxt = self._compound(nxt, "elif")
                orelse = [nested]
            elif follow == "else":
                orelse, nxt = self._parse_else(nxt)
        span = (ln.start, max([ln.end] + [s.span[1] for s in body[-1:] + orelse[-1:]]))
        header_span = (sig[0], sig[colon] + 1)
        if kw == "def":
            name, params = self.tokens[sig[1]].text, self._param_names(sig[2:colon])
            return FunctionDef(span, line, name, params, header_span, body), nxt
        if kw == "for":
            targets = tuple(
                self.tokens[idx].text
                for idx in sig[1:in_pos]
                if self.tokens[idx].kind is TokenKind.IDENTIFIER
            )
            iter_span = (sig[in_pos] + 1, sig[colon])
            return For(span, line, targets, iter_span, header_span, body), nxt
        test_span = (sig[1], sig[colon])
        if kw == "while":
            return While(span, line, test_span, header_span, body), nxt
        return If(span, line, test_span, header_span, body, orelse), nxt

    def _parse_else(self, i: int) -> tuple[list[Stmt], int]:
        ln = self.lines[i]
        sig = significant(self.tokens, (ln.start, ln.end))
        colon = self._find(sig, ":")
        if colon is None:
            line = self.tokens[sig[0]].line
            self._diag(line, _MALFORMED["else"])
            return [Opaque((ln.start, ln.end), line)], i + 1
        return self._parse_body(i, ln, sig[colon + 1 :])

    def _parse_body(self, i: int, ln: LogicalLine, inline: list[int]) -> tuple[list[Stmt], int]:
        """Body after a header: inline remainder of the line, or nested block."""
        if inline:
            return [self._simple(inline[0], ln.end, inline)], i + 1
        i += 1
        if i < len(self.lines) and self.lines[i].indent_col > ln.indent_col:
            return self._parse_run(i, self.lines[i].indent_col)
        return [], i

    def _param_names(self, sig: list[int]) -> tuple[str, ...]:
        """First identifier of each depth-1 comma segment inside the parens."""
        names = []
        depth = 0
        expect = True
        for idx in sig:
            t = self.tokens[idx]
            if t.kind is TokenKind.PUNCTUATION:
                if t.text in _OPEN:
                    depth += 1
                elif t.text in _CLOSE:
                    depth -= 1
                elif t.text == "," and depth == 1:
                    expect = True
                continue
            if depth == 1 and expect and t.kind is TokenKind.IDENTIFIER:
                names.append(t.text)
                expect = False
        return tuple(names)

    # -- simple statements --------------------------------------------------

    def _simple(self, start: int, end: int, sig: list[int]) -> Stmt:
        """The one-line statement over tokens [start, end), whose syntax-bearing
        tokens are ``sig``: a return, an assignment or an expression, and
        opaque when it starts with any other keyword."""
        first = self.tokens[sig[0]]
        if first.kind is TokenKind.KEYWORD:
            if first.text != "return":
                return Opaque((start, end), first.line)
            value = (sig[1], end) if len(sig) > 1 else (sig[0] + 1, sig[0] + 1)
            return Return((start, end), first.line, value_span=value)
        eqs: list[int] = []
        aug = None
        for pos in self._depth0(sig):
            text = self.tokens[sig[pos]].text
            if text == "=":
                eqs.append(pos)
            elif text in AUG_OPS and aug is None:
                aug = pos
        if not eqs and aug is None:
            return ExprStmt((start, end), first.line)
        # chained targets sit between the "=" signs; an augmented one before its operator
        cuts = eqs or [aug]
        targets = [
            name for a, b in zip([-1, *cuts], cuts) for name in self._plain_targets(sig[a + 1 : b])
        ]
        last = sig[cuts[-1]]
        return Assign(
            span=(start, end),
            line=first.line,
            targets=tuple(dict.fromkeys(targets) if eqs else targets),
            target_span=(start, last),
            value_span=(last + 1, end),
            augmented=not eqs,
        )

    def _plain_targets(self, sig: list[int]) -> tuple[str, ...]:
        """Bare-name targets of a depth-0 comma-separated target list.

        Attribute and subscript targets (``x.f = ...``, ``x[i] = ...``) bind
        nothing; their identifiers are ordinary uses and are picked up later
        by the use scan over the target span.
        """
        commas = [pos for pos in self._depth0(sig) if self.tokens[sig[pos]].text == ","]
        parts = [sig[a + 1 : b] for a, b in zip([-1, *commas], [*commas, len(sig)])]
        return tuple(
            self.tokens[part[0]].text
            for part in parts
            if len(part) == 1 and self.tokens[part[0]].kind is TokenKind.IDENTIFIER
        )
