import pytest

from shapecheck import calculus as C
from shapecheck import fixtures as F
from shapecheck import oracle as O

FO = C.Mode.FIRST_ORDER
HO = C.Mode.CLOSED_HIGHER_ORDER
LO = C.Strategy.LEFTMOST_OUTERMOST
LI = C.Strategy.LEFTMOST_INNERMOST


def ann(name, args=(), trace=()):
    return C.AnnApp(C.Var(name), tuple(args), tuple(trace))


class TestParse:
    def test_single_definition(self):
        p = C.parse_program("let rec id(a) = a in id(int)")
        assert len(p.defs) == 1
        assert p.defs[0] == C.Definition("id", ("a",), C.Var("a"))
        assert p.root == C.App(C.Var("id"), (C.App(C.Var("int"), ()),))

    def test_higher_order_name_arguments(self):
        p = C.parse_program(F.ACHAIN_LAM, HO)
        assert p.mode is HO
        assert p.root.head.head.head == C.Var("a")

    def test_first_order_rejects_bare_defined_names(self):
        with pytest.raises(C.ArityMismatchError):
            C.parse_program(F.ACHAIN_LAM, FO)

    def test_unbalanced_parens(self):
        with pytest.raises(C.ParseError):
            C.parse_program("let rec id(a) = a in id(int")

    def test_duplicate_definition(self):
        with pytest.raises(C.DuplicateDefinitionError):
            C.parse_program("let rec f(x) = x and f(y) = y in f(int)")

    def test_parameter_cannot_be_applied_first_order(self):
        with pytest.raises(C.MalformedProgramError):
            C.parse_program("let rec f(x) = x(int) in f(int)")

    def test_zero_definition_program(self):
        p = C.parse_program("c(int, string)")
        assert p.defs == ()

    def test_comments_ignored(self):
        p = C.parse_program("# heading\nlet rec id(a) = a # trailing\nin id(int)\n")
        assert len(p.defs) == 1

    def test_render_parse_roundtrip_on_generated(self):
        for params in (O.GenParams(count=25), O.GenParams(count=25, mode=HO)):
            for program in O.gen_programs(5, params):
                again = C.parse_program(C.render_program(program), params.mode)
                assert again.defs == program.defs and again.root == program.root


def spine(term):
    """Names along the first-argument spine; `==` on deep terms recurses."""
    names = []
    while isinstance(term, C.App) and term.args:
        names.append(term.head.name)
        term = term.args[0]
    return names, term


class TestDeepInput:
    @pytest.mark.parametrize("mode", [FO, HO])
    def test_parse_depth_ten_thousand(self, mode):
        n = 10_000
        text = "let rec f(x) = x in " + "f(" * n + "z" + ")" * n
        p = C.parse_program(text, mode)
        names, leaf = spine(p.root)
        assert names == ["f"] * n
        assert leaf == (C.App(C.Var("z"), ()) if mode is FO else C.Var("z"))

    def test_read_term_from_split_tokens(self):
        toks = [C.syntax.Tok(k, t, 1, i + 1) for i, (k, t) in enumerate(
            [("name", "f"), ("punct", "("), ("name", "x"), ("punct", ","), ("name", "c"),
             ("punct", ")")])]
        assert C.read_term(toks, {"x"}) == C.App(C.Var("f"), (C.Var("x"), C.App(C.Var("c"), ())))
        with pytest.raises(C.ParseError, match="unexpected trailing input"):
            C.read_term(toks + toks)


class TestAnnotate:
    def test_annotating_substitution_stamps_new_nodes(self):
        body = C.App(C.Var("loop"), (C.App(C.Var("list"), (C.Var("a"),)),))
        out = C.annotate(body, {"a": ann("int")}, ("loop",))
        assert out == ann("loop", [ann("list", [ann("int")], ("loop",))], ("loop",))
        assert C.render_ann_term(out) == "loop[loop](list[loop](int[]))"

    def test_variable_case_keeps_argument_annotations(self):
        u = ann("f", [C.Var("y")], ("g", "h"))
        assert C.annotate(C.Var("x"), {"x": u}, ("k",)) is u

    def test_empty_substitution_gives_empty_traces(self):
        t = C.parse_program("f(g(x), y)").root
        out = C.annotate(t, {}, ())
        assert C.erase(out) == t
        stack = [out]
        while stack:
            n = stack.pop()
            if isinstance(n, C.AnnApp):
                assert n.trace == ()
                stack.extend((n.head,) + n.args)


class TestErase:
    def test_structure_preserved(self):
        t = ann("id", [ann("id", [ann("int")])])
        assert C.erase(t) == C.parse_program("id(id(int))").root

    def test_variable(self):
        assert C.erase(C.Var("x")) == C.Var("x")

    def test_reduced_successor_erases_to_one_plain_step(self):
        # each monitored step must be a plain reduction step at the same path
        for program in O.gen_programs(11, O.GenParams(count=40)):
            def check(before, after, info, _p=program):
                assert O.beta_step_at(_p, C.erase(before), info.path) == C.erase(after)

            C.normalize(program, on_step=check)


class TestFindRedexes:
    def test_blocked_root(self):
        p = C.parse_program(F.LOOP_LAM)
        term = ann("loop", [ann("list", [ann("int")], ("loop",))], ("loop",))
        sites = C.find_redexes(p, term)
        assert sites == [C.RedexSite((), "loop", ("loop",), False)]

    def test_no_defined_applications(self):
        p = C.parse_program(F.LOOP_LAM)
        assert C.find_redexes(p, ann("list", [ann("int")])) == []

    def test_outermost_first(self):
        p = C.parse_program(F.ID_LAM)
        sites = C.find_redexes(p, C.annotate(p.root, {}, ()))
        assert [(s.path, s.enabled) for s in sites] == [((), True), ((1,), True)]


class TestStep:
    def test_loop_first_step_then_blocked(self):
        p = C.parse_program(F.LOOP_LAM)
        r = C.step(p, C.annotate(p.root, {}, ()))
        assert isinstance(r, C.Reduced)
        assert C.render_ann_term(r.term) == "loop[loop](list[loop](int[]))"
        r2 = C.step(p, r.term)
        assert r2 == C.Blocked((), "loop", ("loop",))

    def test_delta_reduces_then_blocks(self):
        p = C.parse_program(F.DELTA_LAM, HO)
        r = C.step(p, C.annotate(p.root, {}, ()))
        assert isinstance(r, C.Reduced)
        assert C.render_ann_term(r.term, HO) == "delta(delta)[delta]"
        assert isinstance(C.step(p, r.term), C.Blocked)

    def test_normal_form_without_redexes(self):
        p = C.parse_program("c(int)")
        assert C.step(p, C.annotate(p.root, {}, ())) == C.NormalForm()

    def test_innermost_picks_inner_redex(self):
        p = C.parse_program(F.ID_LAM)
        r = C.step(p, C.annotate(p.root, {}, ()), LI)
        assert isinstance(r, C.Reduced) and r.path == (1,)


class TestNormalize:
    def test_id_id(self):
        out = C.normalize(C.parse_program(F.ID_LAM))
        assert out == C.Normal(C.App(C.Var("int"), ()), 2)

    def test_loop_diverges(self):
        out = C.normalize(C.parse_program(F.LOOP_LAM))
        assert isinstance(out, C.Diverges)
        assert (out.witness.name, out.witness.trace, out.steps) == ("loop", ("loop",), 1)

    def test_nil_chain(self):
        out = C.normalize(C.parse_program(F.NIL_LAM, HO))
        assert out == C.Normal(C.Var("fortytwo"), 4)

    def test_step_limit_guard(self):
        with pytest.raises(C.MalformedProgramError):
            C.normalize(C.parse_program(F.ID_LAM), max_steps=1)

    def test_traces_stay_valid_on_generated_programs(self):
        for params in (O.GenParams(count=40), O.GenParams(count=40, mode=HO)):
            for program in O.gen_programs(23, params):
                def check(before, after, info, _p=program):
                    stack = [after]
                    while stack:
                        t = stack.pop()
                        if isinstance(t, C.Var):
                            continue
                        assert len(set(t.trace)) == len(t.trace)
                        assert set(t.trace) <= set(_p.def_map)
                        stack.extend((t.head,) + t.args)

                C.normalize(program, on_step=check)

    def test_both_strategies_reach_the_same_normal_forms(self):
        for program in O.gen_programs(31, O.GenParams(count=60)):
            lo = C.normalize(program, LO)
            li = C.normalize(program, LI)
            if isinstance(lo, C.Normal) and isinstance(li, C.Normal):
                assert lo.term == li.term
