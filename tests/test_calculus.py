import copy
import dataclasses
import itertools
import pickle
import time

import pytest

from shapecheck import calculus as C
from shapecheck import fixtures as F
from shapecheck import oracle as O

FO = C.Mode.FIRST_ORDER
HO = C.Mode.CLOSED_HIGHER_ORDER
LO = C.Strategy.LEFTMOST_OUTERMOST
LI = C.Strategy.LEFTMOST_INNERMOST


def linked(names):
    """The linked trace that spells `names`, the first expansion first."""
    trace = None
    for depth, name in enumerate(names, 1):
        trace = (trace, name, depth)
    return trace


def ann(name, args=(), trace=()):
    return C.AnnApp(C.Var(name), tuple(args), linked(trace))


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


class TestValidate:
    def test_first_order_head_must_be_a_name(self):
        root = C.App(C.App(C.Var("f"), ()), ())
        with pytest.raises(C.MalformedProgramError,
                           match="^application head must be a name in first-order mode$"):
            C.Program((), root)

    def test_duplicate_parameter(self):
        with pytest.raises(C.DuplicateDefinitionError,
                           match="^duplicate parameter in definition of 'f'$"):
            C.parse_program("let rec f(x, x) = x in f(a, b)")

    def test_parameter_shadows_a_definition(self):
        with pytest.raises(C.DuplicateDefinitionError,
                           match="^parameter 'g' of 'f' shadows a definition$"):
            C.parse_program("let rec f(g) = g and g(y) = y in f(a)")

    def test_bare_occurrence_of_a_defined_name(self):
        root = C.App(C.Var("k"), (C.Var("f"),))
        f = C.Definition("f", ("x",), C.Var("x"))
        with pytest.raises(C.ArityMismatchError,
                           match="^'f' expects 1 argument\\(s\\), got a bare occurrence$"):
            C.Program((f,), root)


def spine(term):
    """Names along the first-argument spine, and the leaf below it."""
    names = []
    while isinstance(term, C.App) and term.args:
        names.append(term.head.name)
        term = term.args[0]
    return names, term


def expo(n):
    """f0(x) = c(x), fi(x) = f{i-1}(f{i-1}(x)), root fn(k): 2^(n+1)-1 steps
    to c^(2^n)(k) under either strategy."""
    defs = ["f0(x) = c(x)"] + [f"f{i}(x) = f{i - 1}(f{i - 1}(x))" for i in range(1, n + 1)]
    return C.parse_program("let rec " + "\nand ".join(defs) + f"\nin f{n}(k)")


class TestDeepInput:
    @pytest.mark.parametrize("mode", [FO, HO])
    def test_parse_depth_ten_thousand(self, mode):
        n = 10_000
        text = "let rec f(x) = x in " + "f(" * n + "z" + ")" * n
        p = C.parse_program(text, mode)
        names, leaf = spine(p.root)
        assert names == ["f"] * n
        assert leaf == (C.App(C.Var("z"), ()) if mode is FO else C.Var("z"))

    def test_render_ann_term_depth_ten_thousand(self):
        n = 10_000
        term = C.Var("z")
        for i in range(n):
            term = C.AnnApp(C.Var("f"), (term,), linked(["g"]) if i % 2 else None)
        text = C.render_ann_term(term)
        assert text == "f[g](f[](" * (n // 2) + "z" + "))" * (n // 2)
        assert C.render_ann_term(term, HO) == "f(" * n + "z" + "".join(
            ")[g]" if i % 2 else ")[]" for i in range(n))
        assert C.render_term(C.erase(term)) == "f(" * n + "z" + ")" * n

    def test_normalize_depth_fifteen_hundred(self):
        n = 1500
        p = C.parse_program("let rec id(x) = x in " + "id(" * n + "k" + ")" * n)
        for strategy in (LO, LI):
            assert C.normalize(p, strategy) == C.Normal(C.App(C.Var("k"), ()), n)


class TestScale:
    """The machine's work is linear in the steps: expo-13 takes 16 383 steps
    on a term 8192 deep, which the rescanning loop would take hours for."""

    @pytest.mark.parametrize("strategy", [LO, LI])
    def test_expo_thirteen(self, strategy):
        out = C.normalize(expo(13), strategy)
        assert out.steps == 2 ** 14 - 1
        assert spine(out.term) == (["c"] * 2 ** 13, C.App(C.Var("k"), ()))

    @pytest.mark.parametrize("n", [10, 12])
    def test_fuel_oracle_agrees_on_expo(self, n):
        program = expo(n)
        for strategy in (LO, LI):
            plain = O.fuel_normalize(program, strategy)
            assert isinstance(plain, O.FuelNormal) and plain.steps == 2 ** (n + 1) - 1
            monitored = C.normalize(program, strategy)
            assert monitored.steps == plain.steps
            assert spine(monitored.term) == spine(plain.term) == (["c"] * 2 ** n,
                                                                  C.App(C.Var("k"), ()))


def chain(n):
    """norm-chain-n: `g0(x) = k(x)` and `gi(x) = g{i-1}(x)`, root `gn(a)`."""
    defs = ["g0(x) = k(x)"] + [f"g{i}(x) = g{i - 1}(x)" for i in range(1, n + 1)]
    return C.parse_program("let rec " + "\nand ".join(defs) + f"\nin g{n}(a)\n")


class TestTraceMonitor:
    def test_sibling_traces(self):
        m = C.TraceMonitor()
        a = m.enter(None, "a")
        ac = m.enter(a, "c")
        ab = m.enter(a, "b")
        assert m.enter(ab, "x") == linked("abx")
        # from a→b→x over to its sibling a→c: `a` is still on it, `b` no more
        assert m.enter(ac, "a") is None
        assert m.enter(ab, "c") == linked("abc")
        assert m.enter(ac, "b") == linked("acb")
        assert C.trace_names(ac) == ("a", "c") and C.trace_names(None) == ()

    @pytest.mark.parametrize("strategy", [LO, LI])
    def test_a_long_chain_takes_linear_time(self, strategy):
        # every step tests and extends a trace one name longer than the last
        program = chain(20_000)
        began = time.perf_counter()
        out = C.normalize(program, strategy)
        elapsed = time.perf_counter() - began
        assert out == C.Normal(C.App(C.Var("k"), (C.App(C.Var("a"), ()),)), 20_001)
        assert elapsed < 2, f"{elapsed:.2f} s"


class TestAnnotate:
    def test_annotating_substitution_stamps_new_nodes(self):
        body = C.App(C.Var("loop"), (C.App(C.Var("list"), (C.Var("a"),)),))
        out = C.annotate(body, {"a": ann("int")}, linked(["loop"]))
        assert out == ann("loop", [ann("list", [ann("int")], ("loop",))], ("loop",))
        assert C.render_ann_term(out) == "loop[loop](list[loop](int[]))"

    def test_variable_case_keeps_argument_annotations(self):
        u = ann("f", [C.Var("y")], ("g", "h"))
        assert C.annotate(C.Var("x"), {"x": u}, linked(["k"])) is u

    def test_empty_substitution_gives_empty_traces(self):
        t = C.parse_program("f(g(x), y)").root
        out = C.annotate(t, {}, None)
        assert C.erase(out) == t
        stack = [out]
        while stack:
            n = stack.pop()
            if isinstance(n, C.AnnApp):
                assert n.trace is None
                stack.extend((n.head,) + n.args)


class TestErase:
    def test_structure_preserved(self):
        t = ann("id", [ann("id", [ann("int")])])
        assert C.erase(t) == C.parse_program("id(id(int))").root

    def test_variable(self):
        assert C.erase(C.Var("x")) == C.Var("x")

    def test_shared_nodes_stay_shared(self):
        shared = ann("c", [ann("k")])
        erased = C.erase(ann("g", [shared, ann("h", [shared])]))
        assert erased == C.parse_program("g(c(k), h(c(k)))").root
        assert erased.args[0] is erased.args[1].args[0]

    def test_reduced_successor_erases_to_one_plain_step(self):
        # the monitored steps are the plain steps: same path, name and term
        # before; the term after each is the next one's, or the normal form
        # seed 4 holds a program whose head rewrite makes its parent the
        # outermost redex, ahead of an argument
        programs = (O.gen_programs(11, O.GenParams(count=40))
                    + O.gen_programs(4, O.GenParams(count=300, mode=HO)))
        for program, strategy in itertools.product(programs, (LO, LI)):
            log, afters = [], []

            def check(before, after, info):
                log.append((info.path, info.name, C.erase(before)))
                afters.append(C.erase(after))

            C.normalize(program, strategy, on_step=check)
            plain = O.plain_steps(program, strategy, len(log) + 1)
            assert plain[:len(log)] == log
            nexts = [before for _, _, before in plain[1:]]
            if log and len(plain) == len(log):
                nexts.append(O.fuel_normalize(program, strategy, len(log)).term)
            assert afters == nexts


DEEP = 10_000


def deep_term(leaf, n=DEEP):
    """f(f(…f(leaf)…)), n applications deep, built afresh."""
    term = C.App(C.Var(leaf), ())
    for _ in range(n):
        term = C.App(C.Var("f"), (term,))
    return term


SHARED_TRACE = linked(["g"] * (DEEP - 1))


def deep_ann_term(leaf, first="g"):
    """f(f(…leaf…)) annotated, DEEP applications deep. The root carries a
    trace of DEEP nodes built afresh, whose first expansion is `first`; each
    other application carries a fresh node over one shared trace."""
    term = C.AnnApp(C.Var(leaf), (), None)
    for _ in range(DEEP - 1):
        term = C.AnnApp(C.Var("f"), (term,), (SHARED_TRACE, "g", DEEP))
    return C.AnnApp(C.Var("f"), (term,), linked([first] + ["g"] * (DEEP - 1)))


@pytest.mark.parametrize("build", [deep_term, deep_ann_term], ids=["term", "annotated"])
def test_deep_equal_terms_compare_and_hash_without_recursion(build):
    a, b, other = build("z"), build("z"), build("y")
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other


def test_annotated_terms_that_differ_only_in_the_first_expansion():
    a, b = deep_ann_term("z"), deep_ann_term("z", first="h")
    assert a != b and not a == b
    assert hash(a) == hash(b)  # the hash leaves the trace out
    assert C.erase(a) == C.erase(b)


def test_deep_equal_programs_compare_and_hash():
    defs = (C.Definition("f", ("x",), C.App(C.Var("c"), (C.Var("x"),))),)
    a, b = (C.Program(defs, deep_term("z")) for _ in range(2))
    other = C.Program(defs, deep_term("y"))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other


def test_equal_normal_forms_hash_equal():
    checked = 0
    for program in O.gen_programs(31, O.GenParams(count=60)):
        lo, li = C.normalize(program, LO), C.normalize(program, LI)
        if isinstance(lo, C.Normal) and isinstance(li, C.Normal):
            reread = C.parse_program(C.render_term(lo.term)).root
            assert lo.term == li.term == reread
            assert hash(lo.term) == hash(li.term) == hash(reread)
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("node, text", [
    (C.Var("x"), "Var(name='x')"),
    (C.App(C.Var("f"), (C.Var("x"),)), "App(head=Var(name='f'), args=(Var(name='x'),))"),
    (C.AnnApp(C.Var("f"), (), linked(["g"])),
     "AnnApp(head=Var(name='f'), args=(), trace=(None, 'g', 1))"),
], ids=["Var", "App", "AnnApp"])
def test_nodes_are_immutable_values(node, text):
    assert repr(node) == text
    assert copy.copy(node) == node == pickle.loads(pickle.dumps(node))
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.name = "y"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del node.name
    assert node != C.Var("y") and C.App(C.Var("x")) != C.Var("x")


def first_redex(program, term, strategy, frozen):
    """The path and node of the strategy-first redex of the whole term:
    the first in preorder for outermost, in postorder for innermost. The
    children of an application headed by a name that is frozen and not
    defined are not searched."""
    defs = program.def_map
    stack = [((), term, False)]
    while stack:
        path, t, searched = stack.pop()
        if isinstance(t, C.Var):
            continue
        head = t.head
        name = head.name if isinstance(head, C.Var) else None
        d = defs.get(name)
        redex = d is not None and len(t.args) == len(d.params)
        if searched or (redex and strategy is LO):
            if redex:
                return path, t
            continue
        if name in frozen and d is None:
            continue
        if strategy is LI:
            stack.append((path, t, True))
        kids = (head,) + t.args
        stack.extend((path + (i,), kids[i], False) for i in reversed(range(len(kids))))
    return None


def replace_at(term, path, sub):
    """`term` with the subterm at `path` replaced by `sub`, rebuilt from the
    root down the path; child 0 is the head."""
    spine = []
    for i in path:
        spine.append(term)
        term = ((term.head,) + term.args)[i]
    for node, i in zip(reversed(spine), reversed(path)):
        kids = [node.head, *node.args]
        kids[i] = sub
        sub = C.AnnApp(kids[0], tuple(kids[1:]), node.trace)
    return sub


def reference_step(program, term, strategy=LO, frozen=frozenset()):
    """One monitored step, found by searching the whole term again: None at
    a normal form, the witness if the trace refuses the redex, otherwise
    the step and the term after it."""
    found = first_redex(program, term, strategy, frozen)
    if found is None:
        return None
    path, node = found
    name = node.head.name
    names = C.trace_names(node.trace)
    if name in names:
        return C.Blocked(path, name, names)
    d = program.def_map[name]
    body = C.annotate(d.body, dict(zip(d.params, node.args)), (node.trace, name, len(names) + 1))
    return C.Reduced(path, name), replace_at(term, path, body)


def reference_loop(program, strategy=LO, frozen=frozenset(), max_steps=None):
    """`normalize` spelled as a loop over `reference_step`; returns the
    outcome and the rendered `on_step` log."""
    log = []
    current = C.annotate(program.root, {}, None)
    steps = 0
    while True:
        result = reference_step(program, current, strategy, frozen)
        if result is None:
            return C.Normal(C.erase(current), steps), log
        if isinstance(result, C.Blocked):
            return C.Diverges(result, steps), log
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise C.MalformedProgramError(f"step limit {max_steps} exceeded")
        info, after = result
        log.append(logged(program, current, after, info))
        current = after


def logged(program, before, after, info):
    return (C.render_ann_term(before, program.mode), C.render_ann_term(after, program.mode),
            info.path, info.name)


def first_steps(program, strategy=LO):
    """The outcome of `normalize` and its rendered `on_step` log."""
    log = []
    out = C.normalize(program, strategy, on_step=lambda *a: log.append(logged(program, *a)))
    return out, log


class TestReferenceStep:
    def test_blocked_root(self):
        p = C.parse_program(F.LOOP_LAM)
        term = ann("loop", [ann("list", [ann("int")], ("loop",))], ("loop",))
        assert reference_step(p, term) == C.Blocked((), "loop", ("loop",))

    def test_no_defined_applications(self):
        p = C.parse_program(F.LOOP_LAM)
        assert reference_step(p, ann("list", [ann("int")])) is None

    def test_outermost_first(self):
        p = C.parse_program(F.ID_LAM)
        start = C.annotate(p.root, {}, None)
        assert reference_step(p, start, LO)[0] == C.Reduced((), "id")
        assert reference_step(p, start, LI)[0] == C.Reduced((1,), "id")


class TestFirstSteps:
    def test_loop_first_step_then_blocked(self):
        out, log = first_steps(C.parse_program(F.LOOP_LAM))
        assert [after for _, after, _, _ in log] == ["loop[loop](list[loop](int[]))"]
        assert out.witness == C.Blocked((), "loop", ("loop",))

    def test_delta_reduces_then_blocks(self):
        out, log = first_steps(C.parse_program(F.DELTA_LAM, HO))
        assert [after for _, after, _, _ in log] == ["delta(delta)[delta]"]
        assert isinstance(out, C.Diverges)

    def test_normal_form_without_redexes(self):
        p = C.parse_program("c(int)")
        assert first_steps(p) == (C.Normal(p.root, 0), [])
        assert reference_step(p, C.annotate(p.root, {}, None)) is None

    def test_innermost_picks_inner_redex(self):
        p = C.parse_program(F.ID_LAM)
        (_, _, inner, _), *_ = first_steps(p, LI)[1]
        (_, _, outer, _), *_ = first_steps(p, LO)[1]
        assert (inner, outer) == ((1,), ())


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
                        names = C.trace_names(t.trace)
                        assert len(set(names)) == len(names)
                        assert set(names) <= set(_p.def_map)
                        stack.extend((t.head,) + t.args)

                C.normalize(program, on_step=check)

    def test_both_strategies_reach_the_same_normal_forms(self):
        for program in O.gen_programs(31, O.GenParams(count=60)):
            lo = C.normalize(program, LO)
            li = C.normalize(program, LI)
            if isinstance(lo, C.Normal) and isinstance(li, C.Normal):
                assert lo.term == li.term


def machine(program, strategy=LO, frozen=frozenset(), max_steps=None):
    log = []
    last = [None]

    def on_step(before, after, info):
        assert last[0] is None or before is last[0]  # each step starts from the last one's term
        last[0] = after
        log.append(logged(program, before, after, info))

    out = C.normalize(program, strategy, frozen, max_steps, on_step)
    assert C.normalize(program, strategy, frozen, max_steps) == out
    return out, log


FROZEN_SETS = [frozenset(), frozenset({"c1", "k", "f0"})]


class TestMachineAgainstStep:
    """`normalize` takes exactly the steps a loop over `reference_step`
    takes: same outcome, same witness, same `on_step` sequence."""

    @pytest.mark.parametrize("frozen", FROZEN_SETS, ids=["thawed", "frozen"])
    @pytest.mark.parametrize("strategy", [LO, LI], ids=["outermost", "innermost"])
    @pytest.mark.parametrize("mode", [FO, HO], ids=["fo", "ho"])
    def test_generated_programs(self, mode, strategy, frozen):
        outcomes = set()
        for seed in (0, 1):
            for program in O.gen_programs(seed, O.GenParams(count=300, mode=mode)):
                expected = reference_loop(program, strategy, frozen)
                assert machine(program, strategy, frozen) == expected, C.render_program(program)
                outcomes.add(type(expected[0]))
        assert outcomes == {C.Normal, C.Diverges}

    @pytest.mark.parametrize("text, mode", [
        (F.ID_LAM, FO), (F.LOOP_LAM, FO), (F.NIL_LAM, HO), (F.ACHAIN_LAM, HO),
        (F.DELTA_LAM, HO), (F.FSTOP_LAM, HO), (F.ID_LAM, HO), (F.LOOP_LAM, HO),
    ])
    @pytest.mark.parametrize("strategy", [LO, LI], ids=["outermost", "innermost"])
    def test_fixtures(self, text, mode, strategy):
        program = C.parse_program(text, mode)
        for frozen in FROZEN_SETS + [frozenset({"int", "list", "done", "fortytwo"})]:
            assert machine(program, strategy, frozen) == reference_loop(program, strategy, frozen)

    K = C.Normal(C.Var("k"), 2)
    HEAD_FIRST = "let rec id(x) = x and g(y) = k and w() = w() in id(g)(w())"

    @pytest.mark.parametrize("text, strategy, second, outcome", [
        pytest.param("let rec id(x) = x and g(y) = y in id(g)(k)", LO, ((), "g"), K,
                     id="outermost"),
        pytest.param("let rec id(x) = x and g(y) = y in id(g)(k)", LI, ((), "g"), K,
                     id="innermost"),
        # outermost takes the new parent redex before the divergent argument
        pytest.param(HEAD_FIRST, LO, ((), "g"), K, id="divergent-argument-outermost"),
        pytest.param(HEAD_FIRST, LI, ((1,), "w"), C.Diverges(C.Blocked((1,), "w", ("w",)), 2),
                     id="divergent-argument-innermost"),
    ])
    def test_rewritten_head_makes_the_parent_a_redex(self, text, strategy, second, outcome):
        program = C.parse_program(text, HO)
        out, log = machine(program, strategy)
        assert (out, log) == reference_loop(program, strategy)
        assert out == outcome
        assert [(path, name) for _, _, path, name in log] == [((0,), "id"), second]

    @pytest.mark.parametrize("strategy", [LO, LI], ids=["outermost", "innermost"])
    def test_rewritten_head_becomes_opaque(self, strategy):
        program = C.parse_program("let rec id(x) = x and f(y) = y in id(c)(f(k))", HO)
        frozen = frozenset({"c"})
        out, log = machine(program, strategy, frozen)
        assert (out, log) == reference_loop(program, strategy, frozen)
        assert out.steps == 1 and C.render_term(out.term, HO) == "c(f(k))"

    @pytest.mark.parametrize("strategy", [LO, LI], ids=["outermost", "innermost"])
    def test_a_bare_frozen_argument_before_a_redex(self, strategy):
        # only a frozen head stops the search of its arguments
        program = C.parse_program("let rec f(x) = x in c(k, f(a))", HO)
        frozen = frozenset({"k"})
        out, log = machine(program, strategy, frozen)
        assert (out, log) == reference_loop(program, strategy, frozen)
        assert out.steps == 1 and C.render_term(out.term, HO) == "c(k, a)"

    def test_shared_argument_under_innermost(self):
        program = C.parse_program(
            "let rec f(x) = g(x, x) and g(a, b) = p(b, a) and h(y) = q(y) in f(f(h(k)))")
        assert machine(program, LO) == reference_loop(program, LO)
        out, log = machine(program, LI)
        assert (out, log) == reference_loop(program, LI)
        assert C.render_term(out.term) == "p(p(q(k), q(k)), p(q(k), q(k)))"
        assert [name for *_, name in log] == ["h", "f", "g", "f", "g"]

    @pytest.mark.parametrize("strategy", [LO, LI], ids=["outermost", "innermost"])
    def test_blocked_witness_path(self, strategy):
        program = C.parse_program("let rec loop(a) = c(d, loop(a)) in e(k, loop(k))")
        out, log = machine(program, strategy)
        assert (out, log) == reference_loop(program, strategy)
        assert out.witness == C.Blocked((2, 2), "loop", ("loop",))

    @pytest.mark.parametrize("limit", [0, 1, 3, 6])
    @pytest.mark.parametrize("strategy", [LO, LI], ids=["outermost", "innermost"])
    def test_max_steps_raises_at_the_same_step(self, strategy, limit):
        program = expo(2)  # seven steps
        with pytest.raises(C.MalformedProgramError, match=f"step limit {limit} exceeded"):
            reference_loop(program, strategy, max_steps=limit)
        seen = []
        with pytest.raises(C.MalformedProgramError, match=f"step limit {limit} exceeded"):
            C.normalize(program, strategy, max_steps=limit, on_step=lambda *a: seen.append(a))
        assert len(seen) == limit
        assert C.normalize(program, strategy, max_steps=7).steps == 7
