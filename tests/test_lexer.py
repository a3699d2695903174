import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structkv.errors import EncodingError
from structkv.lexer import (
    SourceFile,
    TokenKind,
    block_markers,
    load_source,
    logical_lines,
    reconstruct,
    tokenize,
)


def lex(text):
    return tokenize(SourceFile("t.py", text))


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


class TestGoldenWalks:
    def test_empty_input(self):
        assert lex("") == []

    def test_simple_assignment(self):
        assert kinds_and_texts(lex("x = 1")) == [
            (TokenKind.IDENTIFIER, "x"),
            (TokenKind.OPERATOR, "="),
            (TokenKind.NUMBER, "1"),
        ]

    def test_call_expression(self):
        assert kinds_and_texts(lex("foo(bar)")) == [
            (TokenKind.IDENTIFIER, "foo"),
            (TokenKind.PUNCTUATION, "("),
            (TokenKind.IDENTIFIER, "bar"),
            (TokenKind.PUNCTUATION, ")"),
        ]

    def test_keywords_vs_identifiers(self):
        toks = lex("def foo(): return value")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.IDENTIFIER
        assert toks[-2].kind is TokenKind.KEYWORD
        assert toks[-1].kind is TokenKind.IDENTIFIER

    def test_comment_and_newline(self):
        toks = lex("x = 1  # note\ny = 2\n")
        kinds = [t.kind for t in toks]
        assert kinds.count(TokenKind.COMMENT) == 1
        assert kinds.count(TokenKind.NEWLINE) == 2
        assert [t.text for t in toks if t.kind is TokenKind.COMMENT] == ["# note"]

    @pytest.mark.parametrize(
        "text",
        ["3.14", "0x1F", "0b1010", "0o755", "1_000_000", "1e-3", "2.5e+10", "4j", ".5"],
    )
    def test_numbers_single_token(self, text):
        toks = lex(text)
        assert len(toks) == 1 and toks[0].kind is TokenKind.NUMBER

    @pytest.mark.parametrize(
        "text",
        ['"hi"', "'a\\'b'", '"""multi\nline"""', "r'raw'", 'f"fmt {x}"', "b'bytes'"],
    )
    def test_strings_single_token(self, text):
        toks = lex(text)
        assert len(toks) == 1 and toks[0].kind is TokenKind.STRING

    def test_multichar_operators(self):
        toks = lex("a //= b ** c != d")
        ops = [t.text for t in toks if t.kind is TokenKind.OPERATOR]
        assert ops == ["//=", "**", "!="]

    def test_unknown_chars_degrade(self):
        toks = lex("a $ b ?")
        assert [t.kind for t in toks] == [
            TokenKind.IDENTIFIER,
            TokenKind.OPERATOR,
            TokenKind.IDENTIFIER,
            TokenKind.OPERATOR,
        ]


class TestStreamInvariants:
    CASES = [
        "",
        "x = 1\n",
        "def f(a, b):\n    return a + b\n",
        "s = 'unterminated\nnext = 1\n",
        "data = {\n  'k': [1, 2],\n}\n",
        "# only a comment",
        "\n\n\n",
        "crlf = 1\r\nother = 2\r\n",
        "u = 'naïve' + café\n",
        "weird $ % ^^ tokens ... -> :=\n",
        't = """triple\nwith \'quotes\'\n"""\n',
        "x\\\n  = 1\n",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_reconstruction_exact(self, text):
        src = SourceFile("t.py", text)
        assert reconstruct(src, tokenize(src)) == text

    @pytest.mark.parametrize("text", CASES)
    def test_strictly_sorted_offsets(self, text):
        toks = lex(text)
        offsets = [t.byte_offset for t in toks]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)

    @pytest.mark.parametrize("text", CASES)
    def test_identifier_rule(self, text):
        for t in lex(text):
            if t.kind is TokenKind.IDENTIFIER:
                assert (t.text[0].isalpha() or t.text[0] == "_") and all(
                    c.isalnum() or c == "_" for c in t.text
                )

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_roundtrip(self, text):
        src = SourceFile("t.py", text)
        toks = tokenize(src)
        assert reconstruct(src, toks) == text
        offsets = [t.byte_offset for t in toks]
        assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)

    @given(st.text(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_determinism(self, text):
        src = SourceFile("t.py", text)
        assert tokenize(src) == tokenize(src)


class TestLayout:
    def test_newlines_suppressed_in_brackets(self):
        toks = lex("f(\n  1,\n  2,\n)\n")
        assert sum(1 for t in toks if t.kind is TokenKind.NEWLINE) == 1

    def test_logical_lines_indent(self):
        toks = lex("if a:\n    b = 1\nc = 2\n")
        lines = [ln for ln in logical_lines(toks) if not ln.blank]
        assert [ln.indent_col for ln in lines] == [1, 5, 1]

    def test_block_markers_balanced(self):
        toks = lex("def f():\n    if a:\n        b = 1\n    return b\n")
        marks = [t.kind for t in block_markers(toks)]
        assert marks.count(TokenKind.INDENT) == marks.count(TokenKind.DEDENT) == 2

    def test_marker_tokens_zero_width(self):
        toks = block_markers(lex("if a:\n    b = 1\n"))
        for t in toks:
            if t.kind in (TokenKind.INDENT, TokenKind.DEDENT):
                assert t.text == ""


class TestLoadSource:
    def test_reads_utf8(self, tmp_path):
        p = tmp_path / "ok.py"
        p.write_text("x = 'héllo'\n", encoding="utf-8")
        src = load_source(p)
        assert "héllo" in src.content

    def test_decodes_by_coding_cookie(self, tmp_path):
        p = tmp_path / "latin.py"
        p.write_bytes(b"# -*- coding: iso-8859-1 -*-\nx = '\xe9t\xe9'\n")
        src = load_source(p)
        assert "x = 'été'" in src.content
        assert reconstruct(src, tokenize(src)) == src.content

    def test_invalid_utf8_raises(self, tmp_path):
        p = tmp_path / "bad.py"
        p.write_bytes(b"x = 1\xff\xfe\n")
        with pytest.raises(EncodingError):
            load_source(p)
