from conftest import single_chunk
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
    ast = parse("else:\n  x = 1\n")
    assert any("without matching" in d.message for d in ast.diagnostics)


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
