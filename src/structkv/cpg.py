"""Code property graph construction over the subset AST.

The graph has one node per structural event (function signature, call
expression, branch predicate, return, assignment) and two edge families:
control-flow edges chaining consecutive statements plus branch entries and
exits, and def-use edges from each use back along that statement CFG to
the definitions that reach it, within one function or the module.

A JSON interchange path mirrors the builder so externally produced graphs
can stand in for the built-in analysis on files outside the subset.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .chunking import Chunk
from .errors import SchemaError, TokenRangeError
from .lexer import Token, TokenKind
from .parsing import (
    Assign,
    Ast,
    ExprStmt,
    For,
    FunctionDef,
    If,
    Return,
    Stmt,
    While,
    significant,
)
from .plan import canonical_json, decode_json, read_record


class NodeKind(str, Enum):
    CALL = "call"
    CONTROL = "control"
    RETURN = "return"
    ASSIGN = "assign"
    SIGNATURE = "signature"


class EdgeKind(str, Enum):
    CFG = "cfg"
    PDG = "pdg"


@dataclass(frozen=True)
class CpgNode:
    id: int
    kind: NodeKind
    token_range: tuple[int, int]  # chunk-local, half-open
    line: int


@dataclass(frozen=True)
class CpgEdge:
    src: int
    dst: int
    kind: EdgeKind


@dataclass(frozen=True)
class Cpg:
    nodes: tuple[CpgNode, ...]
    edges: tuple[CpgEdge, ...]
    chunk_id: int


def _edge_order(e: CpgEdge) -> tuple[int, int, str]:
    return (e.src, e.dst, e.kind.value)


def build_cpg(ast: Ast, chunk: Chunk, tokens: list[Token]) -> Cpg:
    """Build the chunk's property graph from its parsed statement AST."""
    builder = _Builder(tokens)
    module = builder.new_scope(entry_defs={})
    builder.walk_block(ast.body, [_ENTRY], module)
    builder.solve_dataflow()
    edges = sorted(
        {CpgEdge(a, b, EdgeKind.CFG) for a, b in builder.cfg_edges}
        | {CpgEdge(a, b, EdgeKind.PDG) for a, b in builder.pdg_edges},
        key=_edge_order,
    )
    return Cpg(nodes=tuple(builder.nodes), edges=tuple(edges), chunk_id=chunk.id)


# -- token-scan helpers ------------------------------------------------------


def scan_uses(tokens: list[Token], span: tuple[int, int]) -> set[str]:
    """Identifier uses in a span: skips attribute names and keyword-argument
    names, which do not reference local definitions."""
    sig = significant(tokens, span)
    uses: set[str] = set()
    depth = 0
    for pos, i in enumerate(sig):
        t = tokens[i]
        if t.kind is TokenKind.PUNCTUATION:
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            continue
        if t.kind is not TokenKind.IDENTIFIER:
            continue
        prev = tokens[sig[pos - 1]] if pos > 0 else None
        if prev is not None and prev.kind is TokenKind.PUNCTUATION and prev.text == ".":
            continue
        nxt = tokens[sig[pos + 1]] if pos + 1 < len(sig) else None
        if (
            depth > 0
            and nxt is not None
            and nxt.kind is TokenKind.OPERATOR
            and nxt.text == "="
        ):
            continue  # keyword-argument name
        uses.add(t.text)
    return uses


def scan_calls(tokens: list[Token], span: tuple[int, int]) -> list[tuple[int, int]]:
    """Call-expression ranges in a span: dotted-name head through the
    matching close paren, in source order."""
    hi = min(span[1], len(tokens))
    sig = significant(tokens, span)
    calls: list[tuple[int, int]] = []
    for pos, i in enumerate(sig):
        if tokens[i].kind is not TokenKind.IDENTIFIER:
            continue
        if pos + 1 >= len(sig):
            continue
        opener = sig[pos + 1]
        if not (tokens[opener].kind is TokenKind.PUNCTUATION and tokens[opener].text == "("):
            continue
        head = pos
        while (
            head >= 2
            and tokens[sig[head - 1]].kind is TokenKind.PUNCTUATION
            and tokens[sig[head - 1]].text == "."
            and tokens[sig[head - 2]].kind is TokenKind.IDENTIFIER
        ):
            head -= 2
        depth = 0
        end = hi
        for j in range(opener, hi):
            t = tokens[j]
            if t.kind is TokenKind.PUNCTUATION:
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                    if depth == 0:
                        end = j + 1
                        break
        calls.append((sig[head], end))
    return sorted(calls)


# -- CFG walk and reaching definitions ---------------------------------------

_ENTRY = -1


class _Scope:
    def __init__(self, entry_defs: dict[str, int]):
        self.entry_defs = entry_defs  # symbol -> defining node id (outside scope)
        self.order: list[int] = []
        self.defs: dict[int, set[str]] = {}
        self.uses: dict[int, set[str]] = {}
        self.edges: list[tuple[int, int]] = []
        self.entry_nodes: set[int] = set()


class _Builder:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.nodes: list[CpgNode] = []
        self.cfg_edges: set[tuple[int, int]] = set()
        self.pdg_edges: set[tuple[int, int]] = set()
        self.scopes: list[_Scope] = []

    def new_scope(self, entry_defs: dict[str, int]) -> _Scope:
        scope = _Scope(entry_defs)
        self.scopes.append(scope)
        return scope

    def new_node(self, kind: NodeKind, span: tuple[int, int]) -> int:
        span = self._trim(span)
        node_id = len(self.nodes)
        self.nodes.append(CpgNode(node_id, kind, span, self.tokens[span[0]].line))
        return node_id

    def _trim(self, span: tuple[int, int]) -> tuple[int, int]:
        """The span without its trailing comments and newlines, keeping at
        least its first token."""
        start, end = span
        sig = significant(self.tokens, span)
        return (start, sig[-1] + 1 if sig else min(end, len(self.tokens), start + 1))

    def register(self, scope: _Scope, node_id: int, defs: set[str], uses: set[str]) -> None:
        scope.order.append(node_id)
        scope.defs[node_id] = defs
        scope.uses[node_id] = uses

    def connect(self, pending: list[int], node_id: int, scope: _Scope) -> list[int]:
        for p in pending:
            if p == _ENTRY:
                scope.entry_nodes.add(node_id)
            elif p != node_id:
                self.cfg_edges.add((p, node_id))
                scope.edges.append((p, node_id))
        return [node_id]

    def emit_calls(self, span: tuple[int, int], skip_head: int | None = None) -> list[int]:
        ids = []
        for call_span in scan_calls(self.tokens, self._trim(span)):
            if skip_head is not None and call_span[0] == skip_head:
                continue
            ids.append(self.new_node(NodeKind.CALL, call_span))
        return ids

    def walk_block(self, stmts: list[Stmt], pending: list[int], scope: _Scope) -> list[int]:
        for stmt in stmts:
            pending = self.walk_stmt(stmt, pending, scope)
        return pending

    def walk_stmt(self, stmt: Stmt, pending: list[int], scope: _Scope) -> list[int]:
        """Add a statement's nodes and edges; return the nodes control leaves it from."""
        if isinstance(stmt, ExprStmt):
            calls = self.emit_calls(stmt.span)
            if not calls:
                return pending  # transparent: flow passes through
            self.register(scope, calls[0], defs=set(), uses=scan_uses(self.tokens, stmt.span))
            return self.connect(pending, calls[0], scope)
        if isinstance(stmt, FunctionDef):
            kind, span, defs = NodeKind.SIGNATURE, stmt.header_span, {stmt.name}
            uses = scan_uses(self.tokens, span) - set(stmt.params) - defs
        elif isinstance(stmt, (If, While)):
            kind, span, defs = NodeKind.CONTROL, stmt.header_span, set()
            uses = scan_uses(self.tokens, stmt.test_span)
        elif isinstance(stmt, For):
            kind, span, defs = NodeKind.CONTROL, stmt.header_span, set(stmt.targets)
            uses = scan_uses(self.tokens, stmt.iter_span)
        elif isinstance(stmt, Return):
            kind, span, defs = NodeKind.RETURN, stmt.span, set()
            uses = scan_uses(self.tokens, stmt.value_span)
        elif isinstance(stmt, Assign):
            kind, span, defs = NodeKind.ASSIGN, stmt.span, set(stmt.targets)
            target_uses = scan_uses(self.tokens, stmt.target_span)
            if not stmt.augmented:
                target_uses -= defs
            uses = scan_uses(self.tokens, stmt.value_span) | target_uses
        else:
            return pending  # opaque statements are transparent
        node = self.new_node(kind, span)
        # the name after "def" is not a call
        self.emit_calls(span, skip_head=span[0] + 1 if kind is NodeKind.SIGNATURE else None)
        self.register(scope, node, defs=defs, uses=uses)
        self.connect(pending, node, scope)
        if isinstance(stmt, FunctionDef):
            self.walk_block(stmt.body, [_ENTRY], self.new_scope({p: node for p in stmt.params}))
        elif isinstance(stmt, If):
            exits = self.walk_block(stmt.body, [node], scope)
            # an empty orelse leaves [node]: the test can fall through
            return list(dict.fromkeys(exits + self.walk_block(stmt.orelse, [node], scope)))
        elif isinstance(stmt, (While, For)):
            self.connect(self.walk_block(stmt.body, [node], scope), node, scope)  # loop back
        elif isinstance(stmt, Return):
            return []  # no fallthrough
        return [node]

    def solve_dataflow(self) -> None:
        for scope in self.scopes:
            self._solve_scope(scope)

    def _solve_scope(self, scope: _Scope) -> None:
        """Def-use edges: from each use of a symbol, walk back along CFG
        predecessors to the nearest definitions of it on every path; a path
        that reaches the scope's entry undefined links the entry definition."""
        preds: dict[int, set[int]] = defaultdict(set)
        for a, b in scope.edges:
            preds[b].add(a)
        for n in scope.order:
            for sym in scope.uses[n]:
                seen, stack = {n}, [n]  # n starts seen: a loop back to n adds no self-edge
                while stack:
                    m = stack.pop()
                    if m in scope.entry_nodes and sym in scope.entry_defs:
                        self.pdg_edges.add((scope.entry_defs[sym], n))
                    for p in preds[m] - seen:
                        seen.add(p)
                        if sym in scope.defs[p]:
                            self.pdg_edges.add((p, n))
                        else:
                            stack.append(p)


# -- JSON interchange ---------------------------------------------------------


def _sorted(cpg: Cpg) -> Cpg:
    """The canonical order: nodes by id, edges by (src, dst, kind)."""
    nodes = tuple(sorted(cpg.nodes, key=lambda n: n.id))
    return Cpg(nodes, tuple(sorted(cpg.edges, key=_edge_order)), cpg.chunk_id)


def export_cpg_json(cpg: Cpg) -> str:
    """Canonical serialization: nodes by id, edges by (src, dst, kind)."""
    return canonical_json(_sorted(cpg))


def import_cpg_json(document: bytes | str | Cpg, chunk: Chunk) -> Cpg:
    """Validate an interchange document, as JSON text or as the record read
    from it, against its chunk."""
    if not isinstance(document, Cpg):
        document = read_record(Cpg, decode_json(document, "graph"), "graph")
    cpg = _sorted(document)
    if cpg.chunk_id != chunk.id:
        raise SchemaError(f"chunk_id {cpg.chunk_id} does not match target chunk {chunk.id}")
    if [n.id for n in cpg.nodes] != list(range(len(cpg.nodes))):
        raise SchemaError("node ids must be dense and unique")
    for n in cpg.nodes:
        start, end = n.token_range
        if not 0 <= start < end <= chunk.length:
            raise TokenRangeError(
                f"token_range [{start},{end}) outside chunk of {chunk.length} tokens"
            )
    for e in cpg.edges:
        if not (0 <= e.src < len(cpg.nodes) and 0 <= e.dst < len(cpg.nodes)):
            raise SchemaError(f"edge references unknown node ({e.src}, {e.dst})")
        if e.kind is EdgeKind.PDG and e.src == e.dst:
            raise SchemaError("pdg edges must connect distinct nodes")
    return cpg
