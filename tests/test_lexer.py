import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structkv.chunking import ChunkConfig
from structkv.errors import EncodingError
from structkv.lexer import (
    SourceFile,
    Token,
    TokenKind,
    load_source,
    logical_lines,
    pack_texts,
    reconstruct,
    token_texts,
    tokenize,
)
from structkv.pipeline import index_corpus, load_corpus
from structkv.spans import SpanConfig


def lex(text):
    return tokenize(SourceFile("t.py", text))


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


def follows_identifier_rule(text):
    return (text[0].isalpha() or text[0] == "_") and all(c.isalnum() or c == "_" for c in text)


K = TokenKind

# Grammar corners: CR handling, string prefixes and ends, number boundaries and
# the operators that punctuation shadows (":=", "...").
EDGE_WALKS = [
    (" \r\n", [(K.NEWLINE, "\r\n")]),  # the CR joins the newline, not the gap
    ("# c\r\n", [(K.COMMENT, "# c"), (K.NEWLINE, "\r\n")]),
    ("'abc\\", [(K.STRING, "'abc\\")]),  # backslash at end of input
    ("''''x", [(K.STRING, "''''x")]),
    ("'un\nx", [(K.STRING, "'un"), (K.NEWLINE, "\n"), (K.IDENTIFIER, "x")]),
    ("rbx'a'", [(K.IDENTIFIER, "rbx"), (K.STRING, "'a'")]),
    ("ur'a'", [(K.IDENTIFIER, "ur"), (K.STRING, "'a'")]),
    ("Rb'a'", [(K.STRING, "Rb'a'")]),
    ("1..2", [(K.NUMBER, "1"), (K.PUNCTUATION, "."), (K.NUMBER, ".2")]),
    ("1e5e3", [(K.NUMBER, "1e5"), (K.IDENTIFIER, "e3")]),
    ("1_e", [(K.NUMBER, "1_"), (K.IDENTIFIER, "e")]),
    ("0bar", [(K.NUMBER, "0bar")]),
    ("1.e5", [(K.NUMBER, "1.e5")]),
    (
        "a := b[...]",
        [(K.IDENTIFIER, "a"), (K.PUNCTUATION, ":"), (K.OPERATOR, "="), (K.IDENTIFIER, "b"),
         (K.PUNCTUATION, "[")] + [(K.PUNCTUATION, ".")] * 3 + [(K.PUNCTUATION, "]")],
    ),
    ("x\\\r\n y", [(K.IDENTIFIER, "x"), (K.IDENTIFIER, "y")]),  # a continuation is no newline
    ("a @= b", [(K.IDENTIFIER, "a"), (K.OPERATOR, "@"), (K.OPERATOR, "="), (K.IDENTIFIER, "b")]),
    ("x \t ", [(K.IDENTIFIER, "x")]),  # a gap at the end of the input
    (" \t\f\v ", []),  # only a gap
    ("a\\\rb", [(K.IDENTIFIER, "a"), (K.IDENTIFIER, "b")]),  # backslash, lone CR: a gap
    ("a\\\r\r\nb", [(K.IDENTIFIER, "a"), (K.NEWLINE, "\r\n"), (K.IDENTIFIER, "b")]),
    ("a\fb\vc", [(K.IDENTIFIER, "a"), (K.IDENTIFIER, "b"), (K.IDENTIFIER, "c")]),
    ("a ²", [(K.IDENTIFIER, "a"), (K.NUMBER, "²")]),  # a gap, then a non-letter head
    # a gap before a continuation leaves it one, with CRLF as with LF
    ("x \\\r\n y", [(K.IDENTIFIER, "x"), (K.IDENTIFIER, "y")]),
    ("x \\\n y", [(K.IDENTIFIER, "x"), (K.IDENTIFIER, "y")]),
]


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

    @pytest.mark.parametrize("text, expected", EDGE_WALKS, ids=[repr(t) for t, _ in EDGE_WALKS])
    def test_edge_case_walk(self, text, expected):
        assert kinds_and_texts(lex(text)) == expected

    def test_non_letter_word_characters(self):
        # \w admits digits and numerals that are not letters (², ½, ①); they
        # never start an identifier, and each is a token of its own: a number
        # when str.isdigit() holds, else an operator.  So "1²" is two numbers.
        assert kinds_and_texts(lex("x² = ½ + ①")) == [
            (K.IDENTIFIER, "x²"), (K.OPERATOR, "="), (K.OPERATOR, "½"), (K.OPERATOR, "+"), (K.NUMBER, "①"),
        ]
        assert kinds_and_texts(lex("1² ²9 ①x")) == [
            (K.NUMBER, "1"), (K.NUMBER, "²"), (K.NUMBER, "²"), (K.NUMBER, "9"), (K.NUMBER, "①"), (K.IDENTIFIER, "x"),
        ]

    def test_unknown_chars_degrade(self):
        toks = lex("a $ b ?")
        assert [t.kind for t in toks] == [
            TokenKind.IDENTIFIER,
            TokenKind.OPERATOR,
            TokenKind.IDENTIFIER,
            TokenKind.OPERATOR,
        ]


class TestTokenRecord:
    def test_field_order(self):
        assert Token._fields == ("text", "byte_offset", "line", "column", "kind")

    def test_equals_literal_tuples(self):
        assert lex("é = 1\n") == [
            ("é", 0, 1, 1, K.IDENTIFIER),
            ("=", 3, 1, 3, K.OPERATOR),
            ("1", 5, 1, 5, K.NUMBER),
            ("\n", 6, 1, 6, K.NEWLINE),
        ]
        # offsets and columns are the token's own, not its leading gap's
        assert lex("\f\va ²\n") == [
            ("a", 2, 1, 3, K.IDENTIFIER),
            ("²", 4, 1, 5, K.NUMBER),
            ("\n", 6, 1, 6, K.NEWLINE),
        ]

    def test_immutable_and_without_instance_dict(self):
        tok = lex("x")[0]
        with pytest.raises(AttributeError):
            tok.text = "y"
        # a per-token __dict__ is the memory the tuple record saves
        assert not hasattr(tok, "__dict__")


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
        "x² = ½ + ①\n",
        "\f\va ² \\\r\n b\\\r\r\n \t",
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
                assert follows_identifier_rule(t.text)

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

    def test_continuation_joins_lines(self):
        toks = lex("x = a + \\\n    1\ny = 2\n")
        one = next(t for t in toks if t.text == "1")
        assert (one.line, one.column) == (2, 5)
        assert [ln.indent_col for ln in logical_lines(toks)] == [1, 1]

    def test_logical_lines_indent(self):
        toks = lex("if a:\n    b = 1\nc = 2\n")
        lines = [ln for ln in logical_lines(toks) if not ln.blank]
        assert [ln.indent_col for ln in lines] == [1, 5, 1]


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


STDLIB = Path(sysconfig.get_paths()["stdlib"])


@pytest.mark.parametrize("package", ["json", "pydoc_data", "test/encoded_modules"])
def test_stream_invariants_on_stdlib(package):
    """Long literals (pydoc_data) and text decoded from latin-1 and koi8-r
    (encoded_modules) keep the round-trip, offset and identifier rules."""
    paths = sorted((STDLIB / package).glob("*.py"))
    assert paths
    for path in paths:
        src = load_source(path)
        toks = tokenize(src)
        assert reconstruct(src, toks) == src.content, path
        offsets = [t.byte_offset for t in toks]
        assert all(a < b for a, b in zip(offsets, offsets[1:])), path
        assert all(follows_identifier_rule(t.text) for t in toks if t.kind is TokenKind.IDENTIFIER), path


# line ends, wide characters of two, three and four UTF-8 bytes, and the
# characters that open strings, comments and brackets
PIECES = ["\r\n", "\r", "\n", "\\", "é", "€", "\U0001d518", "'", '"', "#", "(", ")", " ", "\t",
          "a", "1", "+"]


def round_trip(src):
    """The texts of ``src``'s tokens, sliced from its content by their
    packed starts and lengths."""
    return token_texts(src.content, pack_texts(src.content, tokenize(src)))


def texts(tokens):
    return [t.text for t in tokens]


class TestPackedTokens:
    """Packed starts and lengths slice exactly the texts of the tokens
    ``tokenize`` made, from the whole file or from any token range."""

    @pytest.mark.parametrize("package", ["json", "asyncio", "pydoc_data"])
    def test_round_trip_on_stdlib(self, package):
        corpus = load_corpus(STDLIB / package)
        assert corpus
        for src in corpus:
            tokens = tokenize(src)
            packed = pack_texts(src.content, tokens)
            assert token_texts(src.content, packed) == texts(tokens), src.path
            mid = len(tokens) // 2
            assert token_texts(src.content, packed, mid, mid + 7) == texts(tokens[mid : mid + 7])
        if package == "pydoc_data":
            # an empty __init__.py, and topics.py, which is not ASCII
            assert [len(src.content) == 0 for src in corpus] == [True, False]
            assert not corpus[1].content.isascii()

    def test_empty_file(self):
        packed = pack_texts("", [])
        assert token_texts("", packed) == []
        assert [len(col) for col in packed] == [0, 0]

    def test_columns_take_the_smallest_type(self):
        text = "x = 1\n" * 20 + "y = '" + "é" * 300 + "'\n"
        packed = pack_texts(text, lex(text))
        # the final newline is 426 characters (726 bytes) in; the string is
        # 302 characters long
        assert (packed.starts[-1], packed.lengths[-2]) == (426, 302)
        assert [col.typecode for col in packed] == ["H", "H"]
        short = pack_texts("x = 1\n", lex("x = 1\n"))
        assert [col.typecode for col in short] == ["B", "B"]

    @given(
        st.lists(st.sampled_from(PIECES), max_size=80).map("".join),
        st.none() | st.integers(0, 80),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, text, surrogate_at):
        if surrogate_at is not None:
            text = text[:surrogate_at] + "\ud800" + text[surrogate_at:]
        src = SourceFile("t.py", text)
        try:
            expected = tokenize(src)
        except EncodingError as exc:
            # a lone surrogate stops the lexer, so no tokens are packed, and
            # indexing fails the same way, naming the file
            assert surrogate_at is not None and str(exc).startswith("t.py: line ")
            with pytest.raises(EncodingError, match=r"^t\.py: line \d+: surrogates not allowed$"):
                index_corpus([src], ChunkConfig(), SpanConfig())
            return
        assert round_trip(src) == texts(expected)
