"""Statement-level parser for the indentation-based subset grammar.

Recognized statements: function definitions, if/elif/else, while, for,
return, plain and augmented assignments, and expression statements.
Anything else degrades to an opaque statement and is reported in the
diagnostics list; the parser never fails hard.

All token spans are half-open intervals over the *chunk-local* token list
handed to :func:`parse_subset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lexer import LogicalLine, Token, TokenKind, logical_lines

AUG_OPS = frozenset(
    {"+=", "-=", "*=", "/=", "//=", "%=", "**=", "&=", "|=", "^=", ">>=", "<<="}
)
_OPEN = {"(", "[", "{"}
_CLOSE = {")", "]", "}"}


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
        if first.kind is TokenKind.KEYWORD:
            if first.text == "def":
                return self._parse_def(i)
            if first.text == "if":
                return self._parse_if(i)
            if first.text == "while":
                return self._parse_while(i)
            if first.text == "for":
                return self._parse_for(i)
            if first.text == "return":
                return self._parse_return(i)
            if first.text in ("elif", "else"):
                self._diag(first.line, f"'{first.text}' without matching 'if'")
                return Opaque(self._line_span(ln), first.line), i + 1
            return Opaque(self._line_span(ln), first.line), i + 1
        return self._parse_simple(i)

    def _line_span(self, ln: LogicalLine) -> tuple[int, int]:
        return (ln.start, ln.end)

    def _sig_tokens(self, ln: LogicalLine) -> list[int]:
        """Indices of the line's syntax-bearing tokens (no comments/newline)."""
        out = []
        for idx in range(ln.start, ln.end):
            if self.tokens[idx].kind not in (TokenKind.COMMENT, TokenKind.NEWLINE):
                out.append(idx)
        return out

    def _find_colon(self, sig: list[int]) -> int | None:
        """Position (list index into sig) of the first depth-0 colon."""
        depth = 0
        for pos, idx in enumerate(sig):
            t = self.tokens[idx]
            if t.kind is TokenKind.PUNCTUATION:
                if t.text in _OPEN:
                    depth += 1
                elif t.text in _CLOSE:
                    depth -= 1
                elif t.text == ":" and depth == 0:
                    return pos
        return None

    # -- compound statements ------------------------------------------------

    def _parse_body(
        self, i: int, ln: LogicalLine, sig: list[int], colon_pos: int
    ) -> tuple[list[Stmt], int]:
        """Body after a header: inline remainder of the line, or nested block."""
        inline = sig[colon_pos + 1 :]
        if inline:
            stmt = self._simple_from_span(inline[0], ln.end, self.tokens[inline[0]].line)
            return [stmt], i + 1
        i += 1
        if i < len(self.lines) and self.lines[i].indent_col > ln.indent_col:
            return self._parse_run(i, self.lines[i].indent_col)
        return [], i

    def _parse_def(self, i: int) -> tuple[Stmt, int]:
        ln = self.lines[i]
        sig = self._sig_tokens(ln)
        first_line = self.tokens[sig[0]].line
        colon = self._find_colon(sig)
        name_ok = len(sig) >= 2 and self.tokens[sig[1]].kind is TokenKind.IDENTIFIER
        if colon is None or not name_ok:
            self._diag(first_line, "malformed function definition")
            return Opaque(self._line_span(ln), first_line), i + 1
        name = self.tokens[sig[1]].text
        params = self._param_names(sig[2:colon])
        header_span = (sig[0], sig[colon] + 1)
        body, nxt = self._parse_body(i, ln, sig, colon)
        span_end = body[-1].span[1] if body else ln.end
        node = FunctionDef(
            span=(ln.start, max(span_end, ln.end)),
            line=first_line,
            name=name,
            params=params,
            header_span=header_span,
            body=body,
        )
        return node, nxt

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

    def _parse_if(self, i: int) -> tuple[Stmt, int]:
        node, nxt = self._parse_conditional(i, "if")
        return node, nxt

    def _parse_conditional(self, i: int, kw: str) -> tuple[Stmt, int]:
        ln = self.lines[i]
        sig = self._sig_tokens(ln)
        first_line = self.tokens[sig[0]].line
        colon = self._find_colon(sig)
        if colon is None or colon == 1:
            self._diag(first_line, f"malformed '{kw}' statement")
            return Opaque(self._line_span(ln), first_line), i + 1
        test_span = (sig[1], sig[colon])
        header_span = (sig[0], sig[colon] + 1)
        body, nxt = self._parse_body(i, ln, sig, colon)
        orelse: list[Stmt] = []
        if nxt < len(self.lines) and self.lines[nxt].indent_col == ln.indent_col:
            follow = self.tokens[self.lines[nxt].sig_start]
            if follow.kind is TokenKind.KEYWORD and follow.text == "elif":
                nested, nxt = self._parse_conditional(nxt, "elif")
                orelse = [nested]
            elif follow.kind is TokenKind.KEYWORD and follow.text == "else":
                orelse, nxt = self._parse_else(nxt)
        span_end = max(
            ln.end,
            body[-1].span[1] if body else ln.end,
            orelse[-1].span[1] if orelse else ln.end,
        )
        node = If(
            span=(ln.start, span_end),
            line=first_line,
            test_span=test_span,
            header_span=header_span,
            body=body,
            orelse=orelse,
        )
        return node, nxt

    def _parse_else(self, i: int) -> tuple[list[Stmt], int]:
        ln = self.lines[i]
        sig = self._sig_tokens(ln)
        colon = self._find_colon(sig)
        if colon is None:
            self._diag(self.tokens[sig[0]].line, "malformed 'else' clause")
            return [Opaque(self._line_span(ln), self.tokens[sig[0]].line)], i + 1
        return self._parse_body(i, ln, sig, colon)

    def _parse_while(self, i: int) -> tuple[Stmt, int]:
        ln = self.lines[i]
        sig = self._sig_tokens(ln)
        first_line = self.tokens[sig[0]].line
        colon = self._find_colon(sig)
        if colon is None or colon == 1:
            self._diag(first_line, "malformed 'while' statement")
            return Opaque(self._line_span(ln), first_line), i + 1
        body, nxt = self._parse_body(i, ln, sig, colon)
        span_end = max(ln.end, body[-1].span[1] if body else ln.end)
        node = While(
            span=(ln.start, span_end),
            line=first_line,
            test_span=(sig[1], sig[colon]),
            header_span=(sig[0], sig[colon] + 1),
            body=body,
        )
        return node, nxt

    def _parse_for(self, i: int) -> tuple[Stmt, int]:
        ln = self.lines[i]
        sig = self._sig_tokens(ln)
        first_line = self.tokens[sig[0]].line
        colon = self._find_colon(sig)
        in_pos = None
        depth = 0
        for pos, idx in enumerate(sig):
            t = self.tokens[idx]
            if t.kind is TokenKind.PUNCTUATION and t.text in _OPEN:
                depth += 1
            elif t.kind is TokenKind.PUNCTUATION and t.text in _CLOSE:
                depth -= 1
            elif t.kind is TokenKind.KEYWORD and t.text == "in" and depth == 0:
                in_pos = pos
                break
        if colon is None or in_pos is None or in_pos >= colon:
            self._diag(first_line, "malformed 'for' statement")
            return Opaque(self._line_span(ln), first_line), i + 1
        targets = tuple(
            self.tokens[idx].text
            for idx in sig[1:in_pos]
            if self.tokens[idx].kind is TokenKind.IDENTIFIER
        )
        body, nxt = self._parse_body(i, ln, sig, colon)
        span_end = max(ln.end, body[-1].span[1] if body else ln.end)
        node = For(
            span=(ln.start, span_end),
            line=first_line,
            targets=targets,
            iter_span=(sig[in_pos] + 1, sig[colon]),
            header_span=(sig[0], sig[colon] + 1),
            body=body,
        )
        return node, nxt

    def _parse_return(self, i: int) -> tuple[Stmt, int]:
        ln = self.lines[i]
        sig = self._sig_tokens(ln)
        first_line = self.tokens[sig[0]].line
        value = (sig[1], ln.end) if len(sig) > 1 else (sig[0] + 1, sig[0] + 1)
        return Return(self._line_span(ln), first_line, value_span=value), i + 1

    # -- simple statements --------------------------------------------------

    def _parse_simple(self, i: int) -> tuple[Stmt, int]:
        ln = self.lines[i]
        stmt = self._simple_from_span(ln.start, ln.end, self.tokens[ln.sig_start].line)
        return stmt, i + 1

    def _simple_from_span(self, start: int, end: int, line: int) -> Stmt:
        first = self.tokens[start]
        if first.kind is TokenKind.KEYWORD:
            if first.text == "return":
                has_value = any(
                    self.tokens[i].kind not in (TokenKind.COMMENT, TokenKind.NEWLINE)
                    for i in range(start + 1, end)
                )
                value = (start + 1, end) if has_value else (start + 1, start + 1)
                return Return((start, end), line, value_span=value)
            return Opaque((start, end), line)
        eq_positions: list[int] = []
        aug_pos = None
        depth = 0
        for idx in range(start, end):
            t = self.tokens[idx]
            if t.kind is TokenKind.PUNCTUATION:
                if t.text in _OPEN:
                    depth += 1
                elif t.text in _CLOSE:
                    depth -= 1
            elif t.kind is TokenKind.OPERATOR and depth == 0:
                if t.text == "=":
                    eq_positions.append(idx)
                elif t.text in AUG_OPS and aug_pos is None:
                    aug_pos = idx
        if aug_pos is not None and not eq_positions:
            return Assign(
                span=(start, end),
                line=line,
                targets=self._plain_targets(start, aug_pos),
                target_span=(start, aug_pos),
                value_span=(aug_pos + 1, end),
                augmented=True,
            )
        if eq_positions:
            last_eq = eq_positions[-1]
            targets: list[str] = []
            seg_start = start
            for eq in eq_positions:
                targets.extend(self._plain_targets(seg_start, eq))
                seg_start = eq + 1
            return Assign(
                span=(start, end),
                line=line,
                targets=tuple(dict.fromkeys(targets)),
                target_span=(start, last_eq),
                value_span=(last_eq + 1, end),
                augmented=False,
            )
        return ExprStmt((start, end), line)

    def _plain_targets(self, start: int, end: int) -> tuple[str, ...]:
        """Bare-name targets of a depth-0 comma-separated target list.

        Attribute and subscript targets (``x.f = ...``, ``x[i] = ...``) bind
        nothing; their identifiers are ordinary uses and are picked up later
        by the use scan over the target span.
        """
        plain: list[str] = []
        depth = 0
        seg: list[int] = []

        def flush() -> None:
            sig = [
                j
                for j in seg
                if self.tokens[j].kind not in (TokenKind.COMMENT, TokenKind.NEWLINE)
            ]
            if len(sig) == 1 and self.tokens[sig[0]].kind is TokenKind.IDENTIFIER:
                plain.append(self.tokens[sig[0]].text)

        for idx in range(start, end):
            t = self.tokens[idx]
            if t.kind is TokenKind.PUNCTUATION:
                if t.text in _OPEN:
                    depth += 1
                elif t.text in _CLOSE:
                    depth -= 1
                elif t.text == "," and depth == 0:
                    flush()
                    seg = []
                    continue
            seg.append(idx)
        flush()
        return tuple(plain)
