import hashlib
import random
import time

import pytest

from shapecheck import calculus as C
from shapecheck import cppmacro as P
from shapecheck import fixtures as F
from shapecheck import oracle as O


def hs(*names):
    return frozenset(names)


class TestHsadd:
    def test_empty_is_identity(self):
        ts = P.tokenize("x, 42")
        assert P.hsadd(hs(), ts) == ts

    def test_union_into_existing(self):
        assert P.hsadd(hs("f"), [("x", hs("g"))]) == (("x", hs("f", "g")),)

    def test_idempotent(self):
        ts = (("x", hs()), ("(", hs()), (")", hs("q")))
        once = P.hsadd(hs("h"), ts)
        assert P.hsadd(hs("h"), once) == once

    def test_literals_carry_no_hide_sets(self):
        ts = P.tokenize("42,")
        assert ts == (("42", None), (",", None))
        assert P.hsadd(hs("f"), ts) == ts

    def test_a_generator_of_fresh_sets(self):
        # each set is freed once its token is read, so its id may come back
        # for a later set; a union must never be taken for a set it was not
        # asked of
        names = [f"x{i}" for i in range(300)]
        got = P.hsadd(hs("f"), ((n, hs(n, names[i - 1])) for i, n in enumerate(names)))
        assert got == tuple((n, hs("f", n, names[i - 1])) for i, n in enumerate(names))


class TestExpand:
    def expand(self, text):
        defs, call = P.parse_macro_file(text)
        return P.expand(call, defs), defs

    def test_forwarding_chain_reaches_the_literal(self):
        out, _ = self.expand(F.NIL_CPP)
        assert P.render_tokens(out) == "42"
        out, _ = self.expand("#define NIL(xxx) xxx\nNIL(G1)\n")
        assert out == [("G1", hs("NIL"))]

    def test_bodies_without_formals(self):
        out, _ = self.expand("#define f(x)\nf(a)\n")
        assert out == []
        out, _ = self.expand("#define f(x) done()\nf(a)\n")
        assert out == [("done", hs("f")), ("(", hs("f")), (")", hs("f"))]

    def test_self_application_chain(self):
        out, _ = self.expand(F.ACHAIN_CPP)
        assert P.render_tokens(out) == "b"
        assert out == [("b", hs("a"))]

    def test_two_argument_blocker_stops_short(self):
        out, defs = self.expand(F.FSTOP_CPP)
        assert P.render_tokens(out) == "f ( stop , stop )"
        assert P.render_tokens(out, show_hide_sets=True) == (
            "f^{f,id} (^{f,id} stop^{f,id} , stop^{f,id} )^{f,id}"
        )
        # the residual call is hidden, not expandable
        name, hide = out[0]
        assert name in hide

    def test_hidden_names_pass_through(self):
        defs = {"m": P.MacroDef("m", ("x",), P.tokenize("x"))}
        ts = [("m", hs("m")), *P.tokenize("(y)")]
        assert P.expand(ts, defs) == ts

    def test_nested_actuals_split_at_top_level_commas_only(self):
        defs = {"pick": P.MacroDef("pick", ("x", "y"), P.tokenize("y"))}
        ts = P.tokenize("pick(f(a, b), c)")
        assert P.render_tokens(P.expand(ts, defs)) == "c"

    def test_a_comma_is_told_by_its_text_and_none(self):
        e = hs()
        defs = {"m": P.MacroDef("m", ("x", "y"), P.tokenize("y x"))}
        ts = [("m", e), ("(", e), ("a", e), (",", None), ("b", e), (")", e)]
        assert P.render_tokens(P.expand(ts, defs)) == "b a"

    def test_any_empty_set_enters_as_the_engine_empty_set(self):
        fresh = hs("a") - {"a"}
        assert fresh is not P._EMPTY
        got = P._Engine({}, 1).inward([("x", fresh), ("(", P._EMPTY), ("1", None)])
        assert [h for _, h in got] == [P._EMPTY, P._EMPTY, None]
        assert got[0][1] is P._EMPTY

    def test_wrong_arity_is_malformed(self):
        defs = {"m": P.MacroDef("m", ("x", "y"), P.tokenize("x"))}
        with pytest.raises(P.MalformedCallError):
            P.expand(P.tokenize("m(a)"), defs)

    def test_a_parenthesised_first_actual(self):
        out, _ = self.expand("#define g(x,y) y x\ng((a),b)\n")
        assert P.render_tokens(out) == "b ( a )"

    def test_empty_actuals(self):
        # `f()` passes no actual, where GNU cpp (C99 6.10.3) passes one empty
        # one; an empty actual is taken only beside a comma
        with pytest.raises(P.MalformedCallError, match=r"expects 1 argument\(s\), got 0"):
            self.expand("#define f(x) x\nf()\n")
        out, _ = self.expand("#define g(x,y) y x\ng(,b)\n")
        assert P.render_tokens(out) == "b"

    def test_unbalanced_call_is_malformed(self):
        defs = {"m": P.MacroDef("m", ("x",), P.tokenize("x"))}
        with pytest.raises(P.MalformedCallError):
            P.expand(P.tokenize("m(a"), defs)

    def test_output_hide_sets_name_only_defined_macros(self):
        for text in (F.NIL_CPP, F.ACHAIN_CPP, F.FSTOP_CPP, F.LOOP_CPP, F.ID_CPP):
            defs, call = P.parse_macro_file(text)
            for _, hide in P.expand(call, defs):
                if hide is not None:
                    assert hide <= set(defs)

    def test_expansion_terminates_within_budget_on_generated_systems(self):
        for defs, call in O.gen_macros(99, O.GenParams(count=60)):
            P.expand(call, defs, budget=100_000)

    def test_budget_counts_every_use_of_an_actual(self):
        # `two` uses its actual twice, so `id(id(a))` counts its two
        # substitutions twice even though it is expanded once: 1 + 2 + 2
        defs, call = P.parse_macro_file(
            "#define id(x) x\n#define two(x) p(x, x)\ntwo(id(id(a)))\n")
        assert P.render_tokens(P.expand(call, defs, budget=5), show_hide_sets=True) == (
            "p^{two} (^{two} a^{id,two} , a^{id,two} )^{two}"
        )
        with pytest.raises(P.ExpansionBudgetError, match="^more than 4 substitutions$"):
            P.expand(call, defs, budget=4)

    def test_token_limit_counts_every_stamped_token(self, monkeypatch):
        # each `id` stamps its one token `a`, then `two` stamps `p ( a , a )`: 1 + 1 + 6
        defs, call = P.parse_macro_file(
            "#define id(x) x\n#define two(x) p(x, x)\ntwo(id(id(a)))\n")
        monkeypatch.setattr(P, "_TOKEN_LIMIT", 8)
        assert P.render_tokens(P.expand(call, defs)) == "p ( a , a )"
        monkeypatch.setattr(P, "_TOKEN_LIMIT", 7)
        with pytest.raises(P.ExpansionBudgetError, match="^more than 7 tokens$"):
            P.expand(call, defs)

    def test_long_chain_is_linear(self):
        # g0(x) = k(x), gi(x) = g{i-1}(x): each level adds one name to the
        # trace it was called with, so no hide set is copied per level
        n = 20_000
        lines = ["#define g0(x) k(x)"] + [f"#define g{i}(x) g{i - 1}(x)" for i in range(1, n + 1)]
        defs, call = P.parse_macro_file("\n".join(lines) + f"\ng{n}(a)\n")
        start = time.perf_counter()
        out = P.expand(call, defs)
        elapsed = time.perf_counter() - start
        assert P.render_tokens(out) == "k ( a )"
        assert all(h == frozenset(defs) for _, h in out)
        assert elapsed < 2.0, f"{elapsed:.2f} s"

    @pytest.mark.parametrize("seed, params, digest", [
        (4242, O.GenParams(count=500, max_arity=2), "930bf48b557b164ea35e4d3049aa9698329426bc"),
        (7, O.GenParams(count=60, max_arity=3), "f7942aaabb4ee55a4046f6dd13941326fe2d2f76"),
    ], ids=["seed4242", "seed7"])
    def test_output_with_hide_sets_is_pinned(self, seed, params, digest):
        # the SHA-1 of every system's rendering, one line each, in order
        h = hashlib.sha1()
        for defs, call in O.gen_macros(seed, params):
            h.update(P.render_tokens(P.expand(call, defs), show_hide_sets=True).encode() + b"\n")
        assert h.hexdigest() == digest


class TestParseMacroFile:
    def test_object_like_macro_rejected(self):
        with pytest.raises(P.MacroError):
            P.parse_macro_file("#define X 42\nX\n")

    def test_exactly_one_call_line(self):
        with pytest.raises(P.MacroError):
            P.parse_macro_file("#define f(x) x\nf(a)\nf(b)\n")
        with pytest.raises(P.MacroError):
            P.parse_macro_file("#define f(x) x\n")
        with pytest.raises(P.MacroError, match="^line 2: more than one call line$"):
            P.parse_macro_file("#definef(x) x\nf(a)\n")  # `#define` is one word

    def test_comments_stripped(self):
        defs, call = P.parse_macro_file("#define f(x) x // id\nf(a) // call\n")
        assert P.render_tokens(call) == "f ( a )"
        defs, call = P.parse_macro_file("#define f(x) x+// id\nf(a)+//+ call\n")
        assert P.render_tokens(defs["f"].body) == "x +"
        assert P.render_tokens(call) == "f ( a ) +"

    def test_unbalanced_body_rejected(self):
        with pytest.raises(P.MacroError):
            P.parse_macro_file("#define f(x) x)\nf(a)\n")
        with pytest.raises(P.MacroError):
            P.parse_macro_file("#define f(x) x\nf(a))\n")

    def test_duplicate_parameter(self):
        with pytest.raises(P.MacroError, match="^line 1: duplicate parameter of 'f'$"):
            P.parse_macro_file("#define f(x, x) x\nf(a, b)\n")

    @pytest.mark.parametrize("formals", ["x y", "x,,y", ",", "x,", ",x"])
    def test_malformed_parameter_list(self, formals):
        with pytest.raises(P.MacroError, match="^line 1: malformed parameter list of 'f'$"):
            P.parse_macro_file(f"#define f({formals}) x\nf(a)\n")

    def test_render_tokenize_roundtrip_on_generated(self):
        for defs, call in O.gen_macros(7, O.GenParams(count=60, max_arity=3)):
            for ts in [call] + [d.body for d in defs.values()]:
                assert P.tokenize(P.render_tokens(ts)) == ts


class TestReadTerm:
    def test_read_term_from_token_pairs(self):
        pairs = P.tokenize("f(x, c)")
        want = C.App(C.Var("f"), (C.Var("x"), C.App(C.Var("c"), ())))
        assert P.read_term(pairs, "the call", {"x"}) == want
        with pytest.raises(P.MalformedCallError,
                           match=r"^unexpected trailing input 'f' in the call$"):
            P.read_term(pairs + pairs, "the call")

    def test_errors_and_terms_match_the_calculus_reader(self):
        # every message is the `.lam` parser's, without its position
        rng = random.Random(3)
        words = ["f", "x", "c", "(", ")", ","]
        for _ in range(4000):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 8)))
            try:
                want = C.parse_program(text).root
            except C.ParseError as e:
                with pytest.raises(P.MalformedCallError) as got:
                    P.read_term(P.tokenize(text), "w")
                assert str(got.value) == f"{e.message} in w"
                continue
            except C.LamError:
                want = None  # read, then refused as a program
            term = P.read_term(P.tokenize(text), "w")
            assert want is None or term == want


class TestTranslate:
    def test_deep_call(self):
        n = 10_000
        defs, call = P.parse_macro_file("#define f(x) x\n" + "f(" * n + "z" + ")" * n)
        term = P.translate_macros(defs, call).root
        for _ in range(n):
            assert term.head == C.Var("f")
            (term,) = term.args
        assert term == C.App(C.Var("z"), ())

    def test_reading_errors_name_where(self):
        defs, call = P.parse_macro_file("#define f(x) x ,\nf(a)")
        with pytest.raises(P.MalformedCallError, match="in the body of 'f'$"):
            P.translate_macros(defs, call)

    def test_calculus_rejections_are_macro_errors(self):
        for text in ("#define f() f\nf(f)", "#define f(p) p(a)\nf(b)"):
            with pytest.raises(P.NotFirstOrderError):
                P.translate_macros(*P.parse_macro_file(text))


class TestCompareFirstOrder:
    def test_loop_macros_block_on_both_sides(self):
        defs, call = P.parse_macro_file(F.LOOP_CPP)
        report = P.compare_first_order(defs, call)
        assert report.agrees and report.outcome == "blocked"

    def test_id_macros_normalize_identically(self):
        defs, call = P.parse_macro_file(F.ID_CPP)
        report = P.compare_first_order(defs, call)
        assert report.agrees and report.outcome == "normalized"
        assert report.cpp_output == "int"

    def test_nil_is_not_first_order(self):
        defs, call = P.parse_macro_file(F.NIL_CPP)
        with pytest.raises(P.NotFirstOrderError) as exc:
            P.compare_first_order(defs, call)
        assert "G1" in str(exc.value)

    def test_formal_shadowing_a_macro_is_diagnosed(self):
        defs = {
            "f": P.MacroDef("f", ("g",), P.tokenize("g")),
            "g": P.MacroDef("g", ("x",), P.tokenize("x")),
        }
        assert P.first_order_violation(defs, P.tokenize("f(a)")) is not None

    def test_reports_are_pinned(self):
        # the SHA-1 of all five fields of every report, one line each, in order
        systems = [P.parse_macro_file(text) for text in (F.LOOP_CPP, F.ID_CPP)]
        systems += O.gen_macros(4242, O.GenParams(count=500, max_arity=2))
        h = hashlib.sha1()
        for defs, call in systems:
            r = P.compare_first_order(defs, call)
            fields = (r.agrees, r.outcome, r.cpp_output, r.calculus_outcome, r.detail)
            h.update(repr(fields).encode() + b"\n")
        assert h.hexdigest() == "29e2144586af0404e7b66eb639904c1d237610ee"

    def test_generated_systems_agree(self):
        for defs, call in O.gen_macros(123, O.GenParams(count=60)):
            report = P.compare_first_order(defs, call)
            assert report.agrees, report.detail
