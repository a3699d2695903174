import pytest

from plan_helpers import single_chunk
from structkv.lexer import SourceFile, tokenize
from structkv.parsing import (
    Assign,
    ExprStmt,
    For,
    FunctionDef,
    If,
    Opaque,
    Return,
    While,
    parse_subset,
)


def parse(code):
    _, toks = single_chunk(code)
    return parse_subset(toks)


def test_empty_input():
    ast = parse_subset([])
    assert ast.body == [] and ast.diagnostics == []


def test_single_function_with_return():
    ast = parse("def f():\n  return 1\n")
    assert len(ast.body) == 1
    fn = ast.body[0]
    assert isinstance(fn, FunctionDef) and fn.name == "f" and fn.params == ()
    assert len(fn.body) == 1 and isinstance(fn.body[0], Return)


def test_two_assignments_at_module_level():
    ast = parse("x = 1\ny = x\n")
    assert [type(s) for s in ast.body] == [Assign, Assign]
    assert ast.body[0].targets == ("x",)
    assert ast.body[1].targets == ("y",)


def test_params_with_defaults():
    ast = parse("def f(a, b=1, c=run()):\n  return a\n")
    assert ast.body[0].params == ("a", "b", "c")


def test_elif_chain_nests():
    ast = parse(
        "def f(n):\n"
        "  if n < 0:\n"
        "    r = 0\n"
        "  elif n < 5:\n"
        "    r = 1\n"
        "  else:\n"
        "    r = 2\n"
        "  return r\n"
    )
    fn = ast.body[0]
    outer = fn.body[0]
    assert isinstance(outer, If)
    assert len(outer.orelse) == 1 and isinstance(outer.orelse[0], If)
    inner = outer.orelse[0]
    assert len(inner.orelse) == 1 and isinstance(inner.orelse[0], Assign)


def test_while_and_for():
    ast = parse(
        "def f(xs):\n"
        "  i = 0\n"
        "  while i < 3:\n"
        "    i += 1\n"
        "  for a, b in xs:\n"
        "    use(a)\n"
        "  return i\n"
    )
    fn = ast.body[0]
    assert isinstance(fn.body[1], While)
    loop = fn.body[2]
    assert isinstance(loop, For) and loop.targets == ("a", "b")


def test_augmented_assignment():
    ast = parse("x = 0\nx += 2\n")
    aug = ast.body[1]
    assert isinstance(aug, Assign) and aug.augmented and aug.targets == ("x",)


def test_chained_assignment_targets():
    ast = parse("a = b = 1\n")
    assert ast.body[0].targets == ("a", "b")


def test_subscript_target_binds_nothing():
    ast = parse("arr[i] = v\n")
    assert ast.body[0].targets == ()


def test_tuple_unpacking_targets():
    ast = parse("a, b = pair\n")
    assert ast.body[0].targets == ("a", "b")


def test_inline_body_after_colon():
    ast = parse("def f(x):\n  if x: return x\n  return 0\n")
    fn = ast.body[0]
    branch = fn.body[0]
    assert isinstance(branch, If)
    assert len(branch.body) == 1 and isinstance(branch.body[0], Return)


def test_expression_statement():
    ast = parse("launch(rocket)\n")
    assert isinstance(ast.body[0], ExprStmt)


def test_non_subset_statements_opaque_without_diagnostics():
    ast = parse("import os\npass\nraise ValueError\n")
    assert all(isinstance(s, Opaque) for s in ast.body)
    assert ast.diagnostics == []


def test_malformed_def_degrades_with_diagnostic():
    ast = parse("def broken(\nx = 1\n")
    assert any("function" in d.message for d in ast.diagnostics)
    assert any(isinstance(s, Opaque) for s in ast.body)


def test_dangling_else_degrades():
    # one chunk cannot tell a stray clause from a loop's or a try's else
    ast = parse("else:\n  x = 1\n")
    assert isinstance(ast.body[0], Opaque) and ast.body[0].line == 1
    assert [d.message for d in ast.diagnostics] == ["unexpected indent"]


def test_unexpected_indent_flattens():
    ast = parse("x = 1\n    y = 2\nz = 3\n")
    assert [type(s) for s in ast.body] == [Assign, Assign, Assign]
    assert any("indent" in d.message for d in ast.diagnostics)


def test_comments_do_not_break_blocks():
    ast = parse(
        "def f():\n"
        "  # leading comment\n"
        "  x = 1\n"
        "\n"
        "  # interior comment\n"
        "  return x\n"
    )
    fn = ast.body[0]
    assert [type(s) for s in fn.body] == [Assign, Return]
    assert ast.diagnostics == []


def test_multiline_call_is_one_statement():
    ast = parse("result = combine(\n  alpha,\n  beta,\n)\n")
    assert len(ast.body) == 1 and ast.body[0].targets == ("result",)


def test_mid_function_fragment_parses():
    # chunks produced by splitting long functions start at nested indent
    ast = parse("    x = helper(y)\n    return x\n")
    assert [type(s) for s in ast.body] == [Assign, Return]
    assert ast.diagnostics == []


def test_never_raises_on_garbage():
    ast = parse("def ) ( ::\n  ??? $$$\nwhile:\n")
    assert isinstance(ast.body, list)
    assert ast.diagnostics  # degradations are reported


def test_backslash_continuation_stays_in_the_statement():
    _, toks = single_chunk("def f(a):\n    x = a + \\\n        1\n    return x\n")
    ast = parse_subset(toks)
    assert ast.diagnostics == []
    assign = ast.body[0].body[0]
    assert isinstance(assign, Assign) and assign.targets == ("x",)
    lo, hi = assign.value_span
    assert [t.text for t in toks[lo:hi]] == ["a", "+", "1", "\n"]


# Exact ASTs of the grammar's corner cases: (name, code, tokens cut from the
# front, repr of the parsed Ast).  A cut starts the chunk inside a bracket,
# the way a hard cut through a long bracketed run does.
EDGE_ASTS = [
    (
        "comment-first-hard-cut",
        "f(\n    # note\n    return x)\n",
        2,
        "Ast(body=[Return(span=(0, 5), line=3, value_span=(2, 5))], diagnostics=[])",
    ),
    (
        "stray-closer-before-colon",
        "if x):\n    y = 1\n",
        0,
        "Ast(body=[Opaque(span=(0, 5), line=1), Assign(span=(5, 9), line=2, targets=('y',), "
        "target_span=(5, 6), value_span=(7, 9), augmented=False)], "
        "diagnostics=[Diagnostic(line=1, message=\"malformed 'if' statement\"), "
        "Diagnostic(line=2, message='unexpected indent')])",
    ),
    (
        "for-without-in",
        "for a, b:\n    pass\n",
        0,
        "Ast(body=[Opaque(span=(0, 6), line=1), Opaque(span=(6, 8), line=2)], "
        "diagnostics=[Diagnostic(line=1, message=\"malformed 'for' statement\"), "
        "Diagnostic(line=2, message='unexpected indent')])",
    ),
    (
        "for-in-only-inside-brackets",
        "for (a in b):\n    pass\n",
        0,
        "Ast(body=[Opaque(span=(0, 8), line=1), Opaque(span=(8, 10), line=2)], "
        "diagnostics=[Diagnostic(line=1, message=\"malformed 'for' statement\"), "
        "Diagnostic(line=2, message='unexpected indent')])",
    ),
    (
        "malformed-elif-in-chain",
        "if a:\n    x = 1\nelif:\n    x = 2\nelse:\n    x = 3\n",
        0,
        "Ast(body=[If(span=(0, 11), line=1, test_span=(1, 2), header_span=(0, 3), "
        "body=[Assign(span=(4, 8), line=2, targets=('x',), target_span=(4, 5), "
        "value_span=(6, 8), augmented=False)], orelse=[Opaque(span=(8, 11), line=3)]), "
        "Assign(span=(11, 15), line=4, targets=('x',), target_span=(11, 12), "
        "value_span=(13, 15), augmented=False), Opaque(span=(15, 18), line=5), "
        "Assign(span=(18, 22), line=6, targets=('x',), target_span=(18, 19), "
        "value_span=(20, 22), augmented=False)], "
        "diagnostics=[Diagnostic(line=3, message=\"malformed 'elif' statement\"), "
        "Diagnostic(line=4, message='unexpected indent'), "
        "Diagnostic(line=6, message='unexpected indent')])",
    ),
    (
        "else-without-colon",
        "if a:\n    x = 1\nelse\n    x = 2\n",
        0,
        "Ast(body=[If(span=(0, 10), line=1, test_span=(1, 2), header_span=(0, 3), "
        "body=[Assign(span=(4, 8), line=2, targets=('x',), target_span=(4, 5), "
        "value_span=(6, 8), augmented=False)], orelse=[Opaque(span=(8, 10), line=3)]), "
        "Assign(span=(10, 14), line=4, targets=('x',), target_span=(10, 11), "
        "value_span=(12, 14), augmented=False)], "
        "diagnostics=[Diagnostic(line=3, message=\"malformed 'else' clause\"), "
        "Diagnostic(line=4, message='unexpected indent')])",
    ),
    (
        "colons-inside-brackets",
        "if f(lambda v: v): y = {1: 2}\n",
        0,
        "Ast(body=[If(span=(0, 17), line=1, test_span=(1, 8), header_span=(0, 9), "
        "body=[Assign(span=(9, 17), line=1, targets=('y',), target_span=(9, 10), "
        "value_span=(11, 17), augmented=False)], orelse=[])], diagnostics=[])",
    ),
    (
        "return-then-comment",
        "return  # done\n",
        0,
        "Ast(body=[Return(span=(0, 3), line=1, value_span=(1, 1))], diagnostics=[])",
    ),
    (
        "subscript-and-keyword-targets",
        "x[i], y = g(k=1) == h\n",
        0,
        "Ast(body=[Assign(span=(0, 16), line=1, targets=('y',), target_span=(0, 6), "
        "value_span=(7, 16), augmented=False)], diagnostics=[])",
    ),
    (
        "for-else",
        "for a in b:\n    c = a\nelse:\n    d = 1\n",
        0,
        "Ast(body=[For(span=(0, 10), line=1, targets=('a',), iter_span=(3, 4), "
        "header_span=(0, 5), body=[Assign(span=(6, 10), line=2, targets=('c',), "
        "target_span=(6, 7), value_span=(8, 10), augmented=False)]), "
        "Opaque(span=(10, 13), line=3), Assign(span=(13, 17), line=4, targets=('d',), "
        "target_span=(13, 14), value_span=(15, 17), augmented=False)], "
        "diagnostics=[Diagnostic(line=4, message='unexpected indent')])",
    ),
]


@pytest.mark.parametrize(
    ("code", "cut", "expected"), [r[1:] for r in EDGE_ASTS], ids=[r[0] for r in EDGE_ASTS]
)
def test_edge_case_ast(code, cut, expected):
    toks = tokenize(SourceFile("t.py", code))[cut:]
    assert repr(parse_subset(toks)) == expected


@pytest.mark.parametrize(
    "code", ["f(\nreturn  # c\n  y)\n", "f(\nif x: return  # c\n  y)\n"], ids=["line", "inline"]
)
def test_return_value_starts_at_its_first_significant_token(code):
    # inside an unclosed bracket a comment can sit between "return" and its value
    toks = tokenize(SourceFile("t.py", code))[2:]
    stmt = parse_subset(toks).body[0]
    ret = stmt.body[0] if isinstance(stmt, If) else stmt
    assert isinstance(ret, Return) and toks[ret.value_span[0]].text == "y"
