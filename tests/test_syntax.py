import pytest
from hypothesis import given, settings, strategies as st

from shapecheck import calculus as C
from shapecheck import cppmacro as P
from shapecheck import decls as D
from shapecheck import fixtures as F
from shapecheck import oracle as O
from shapecheck import shapes as S
from shapecheck import syntax as X

SCAN = X.scanner((X.SKIP, r"#.*"), ("name", r"[a-z]+"), ("punct", r"[(),]"))


class TestLex:
    def test_kinds_and_positions(self):
        toks = X.lex("f(a,\n  bc) # c", SCAN, X.SourceError)
        assert toks == [
            X.Tok("name", "f", 1, 1), X.Tok("punct", "(", 1, 2), X.Tok("name", "a", 1, 3),
            X.Tok("punct", ",", 1, 4), X.Tok("name", "bc", 2, 3), X.Tok("punct", ")", 2, 5),
            X.Tok("eof", "", 2, 10),
        ]

    def test_unexpected_character_is_located(self):
        with pytest.raises(C.ParseError) as e:
            X.lex("ab\n  a+b", SCAN, C.ParseError)
        assert (e.value.line, e.value.col) == (2, 4)
        assert str(e.value) == "2:4: unexpected character '+'"

    def test_trailing_whitespace_is_no_token(self):
        assert X.lex("a \t\x0c", SCAN, X.SourceError) == [X.Tok("name", "a", 1, 1),
                                                          X.Tok("eof", "", 1, 5)]

    def test_earlier_rules_win(self):
        scan = X.scanner(("kw", r"in(?![a-z])"), ("name", r"[a-z]+"))
        kinds = [t.kind for t in X.lex("in int", scan, X.SourceError)]
        assert kinds == ["kw", "name", "eof"]


def frozen_lex(text, scan, error):
    """`syntax.lex` as it was before its loop bound its methods to locals."""
    kinds = scan.kinds
    toks = []
    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        for m in scan.pattern.finditer(line):
            i = m.lastindex
            kind = kinds[i]
            if kind is None:
                raise error(f"unexpected character {m.group(i)!r}", lineno, m.start(i) + 1)
            if kind != X.SKIP:
                toks.append(X.Tok(kind, m.group(i), lineno, m.start(i) + 1))
    toks.append(X.Tok("eof", "", len(lines), len(lines[-1]) + 1))
    return toks


def lexed(lex, text, scan, error):
    try:
        return lex(text, scan, error)
    except X.SourceError as e:
        return type(e), str(e)


class TestLexAgainstFrozenLoop:
    """`lex` gives the tokens, or the located error, of the loop it replaced."""

    def check(self, texts, scan, error):
        for text in texts:
            assert lexed(X.lex, text, scan, error) == lexed(frozen_lex, text, scan, error)

    def test_lam(self):
        texts = [F.DELTA_LAM, F.FSTOP_LAM, "let rec f(x) = x + 1 in f(k)", "a\n\n  b # c\n"]
        for mode in C.Mode:
            texts += [C.render_program(p)
                      for p in O.gen_programs(3, O.GenParams(count=100, mode=mode))]
        self.check(texts, C._SCAN, C.ParseError)

    def test_decl(self):
        from test_decls import render_decls
        texts = [render_decls(ds) for ds in O.gen_decls(5, O.GenParams(count=100))]
        texts += ["type t = A of int [@unboxed] | B", "type t = A ? B", "type 'a t = 'a\n\t"]
        self.check(texts, D._SCAN, D.DeclSyntaxError)

    def test_cpp(self):
        texts = [F.NIL_CPP, F.ACHAIN_CPP, F.FSTOP_CPP, F.LOOP_CPP, F.ID_CPP,
                 "#define f(x) x+// c\nf(1.5e3)  // call\n", "f(a) \x00 g"]
        for defs, call in O.gen_macros(7, O.GenParams(count=60, max_arity=3)):
            lines = [f"#define {d.name}({','.join(d.formals)}) {P.render_tokens(d.body)}"
                     for d in defs.values()]
            texts.append("\n".join(lines) + "\n" + P.render_tokens(call) + "\n")
        self.check(texts, P._SCAN, X.SourceError)


class TestCursor:
    class _Cur(X.Cursor):
        error = D.DeclSyntaxError

    def test_expect_raises_the_class_error_at_the_token(self):
        cur = self._Cur(X.lex("a b", SCAN, X.SourceError))
        assert cur.expect("a").text == "a"
        with pytest.raises(D.DeclSyntaxError, match=r"^1:3: expected '\(', found 'b'$"):
            cur.expect("(")

    def test_expect_kind_names_end_of_input(self):
        cur = self._Cur(X.lex("", SCAN, X.SourceError))
        with pytest.raises(D.DeclSyntaxError, match="expected a name, found 'end of input'"):
            cur.expect_kind("name", "a name")

    def test_end(self):
        cur = self._Cur(X.lex("a (", SCAN, X.SourceError))
        cur.next()
        with pytest.raises(D.DeclSyntaxError, match="1:3: unexpected trailing input"):
            cur.end()


def test_every_reader_error_is_a_source_error():
    for cls in (C.LamError, D.DeclError, S.ShapeSyntaxError):
        assert issubclass(cls, X.SourceError)
    assert issubclass(S.ShapeSyntaxError, ValueError)


# ---------------------------------------------------------------------------
# Fuzzing: any short text is read or rejected with the reader's own error.


def soup(words):
    seps = st.sampled_from(["", " ", "\n", "  "])
    piece = st.tuples(st.sampled_from(words), seps).map("".join)
    return st.one_of(st.text(max_size=200),
                     st.lists(piece, max_size=40).map("".join).map(lambda s: s[:200]))


LAM_WORDS = ["let", "rec", "and", "in", "f", "g", "x", "int", "(", ")", ",", "=", "#",
             "A", "'", "1", "inx"]
DECL_WORDS = ["type", "of", "'a", "'", "'of", "[@unboxed]", "[@shape", "[@", "]", "imm", "block",
              "top", "{", "}", "256", "0", "lazy", "tuple", "int", "t", "A", "B", "|", "*", "(",
              ")", ",", ";", ":", "=", "#"]
CPP_WORDS = ["#define", "f", "g", "x", "y", "(", ")", ",", "42", "+", "//", "\n"]
_cpp_terms = st.recursive(
    st.sampled_from(["f", "g", "x", "y", "42"]),
    lambda inner: st.builds("{}({})".format, st.sampled_from(["f", "g", "x"]),
                            st.lists(inner, max_size=3).map(", ".join)),
    max_leaves=8)
# mostly well-formed `#define` lines and terms, so that translation is reached too
CPP_FILES = st.one_of(soup(CPP_WORDS), st.lists(
    st.one_of(st.builds("#define {}({}) {}".format, st.sampled_from(["f", "g"]),
                        st.sampled_from(["", "x", "x, y", "x y", "x,"]), _cpp_terms),
              _cpp_terms),
    max_size=4).map("\n".join).map(lambda s: s[:200]))
PRIM_WORDS = ["int", "=", "(imm:", "top", ";", "block:", "{}", "{0,1}", ")", "lazylike",
              "#", "\n", "+1", "1_0"]


@settings(deadline=None)
@given(soup(LAM_WORDS), st.sampled_from(list(C.Mode)))
def test_fuzz_lam(text, mode):
    try:
        C.parse_program(text, mode)
    except C.LamError:
        pass


@settings(deadline=None)
@given(soup(DECL_WORDS))
def test_fuzz_decl(text):
    try:
        D.parse_decls(text)
    except D.DeclError:
        pass


@settings(deadline=None, max_examples=300)
@given(CPP_FILES)
def test_fuzz_cpp(text):
    try:
        defs, call = P.parse_macro_file(text)
    except P.MacroError:
        return
    try:
        P.expand(call, defs, budget=100)
    except P.MacroError:
        pass
    try:
        P.translate_macros(defs, call)
    except P.MacroError:
        pass


@settings(deadline=None)
@given(soup(PRIM_WORDS))
def test_fuzz_prim_table(text):
    try:
        S.parse_prim_table(text)
    except ValueError:
        pass
