import gc
import time

import pytest

from shapecheck import calculus as C
from shapecheck import decls as D
from shapecheck import fixtures as F
from shapecheck import oracle as O
from shapecheck.decls import PrimApp, TyApp
from shapecheck.shapes import Block, Imm

LO = C.Strategy.LEFTMOST_OUTERMOST
LI = C.Strategy.LEFTMOST_INNERMOST


def monitored_steps(program, strategy):
    """The monitored run's steps as (path, name, erased term before)."""
    log = []
    C.normalize(program, strategy,
                on_step=lambda before, after, info: log.append((info.path, info.name,
                                                                C.erase(before))))
    return log


class TestFuelNormalize:
    def test_id_id_normalizes_in_two_steps(self):
        p = C.parse_program(F.ID_LAM)
        assert O.fuel_normalize(p, LO, 10) == O.FuelNormal(C.App(C.Var("int"), ()), 2)

    def test_loop_runs_out_of_fuel(self):
        p = C.parse_program(F.LOOP_LAM)
        assert O.fuel_normalize(p, LO, 100) == O.OutOfFuel(100)

    def test_fuel_must_be_positive(self):
        with pytest.raises(ValueError):
            O.fuel_normalize(C.parse_program(F.ID_LAM), LO, 0)

    def test_exact_fuel_still_normalizes(self):
        p = C.parse_program(F.ID_LAM)
        assert O.fuel_normalize(p, LO, 2) == O.FuelNormal(C.App(C.Var("int"), ()), 2)
        assert O.fuel_normalize(p, LO, 1) == O.OutOfFuel(1)

    def test_innermost_strategy(self):
        p = C.parse_program(F.ID_LAM)
        assert O.fuel_normalize(p, LI, 10) == O.FuelNormal(C.App(C.Var("int"), ()), 2)

    def test_higher_order_programs(self):
        p = C.parse_program(F.NIL_LAM, C.Mode.CLOSED_HIGHER_ORDER)
        assert O.fuel_normalize(p, LO, 10) == O.FuelNormal(C.Var("fortytwo"), 4)


class TestPlainSteps:
    def test_step_at_root(self):
        p = C.parse_program(F.ID_LAM)
        inner = C.App(C.Var("id"), (C.App(C.Var("int"), ()),))
        assert O.plain_steps(p, LO, 2) == [((), "id", p.root), ((), "id", inner)]

    def test_step_at_argument(self):
        p = C.parse_program(F.ID_LAM)
        inner = C.App(C.Var("id"), (C.App(C.Var("int"), ()),))
        assert O.plain_steps(p, LI, 2) == [((1,), "id", p.root), ((), "id", inner)]

    def test_no_redex(self):
        assert O.plain_steps(C.parse_program("c(int)"), LO, 5) == []
        assert O.plain_steps(C.parse_program("c(int)"), LI, 5) == []

    def test_count_bounds_the_steps(self):
        p = C.parse_program(F.LOOP_LAM)
        assert [path for path, _, _ in O.plain_steps(p, LO, 3)] == [(), (), ()]
        assert O.plain_steps(p, LO, 0) == []

    def test_a_duplicated_argument_stays_shared(self):
        # converted once, not once per occurrence: a term doubled n times
        # stays n nodes deep instead of becoming 2^n nodes
        p = C.parse_program("let rec f(x) = g(x, x) and g(a, b) = q in f(c(k))")
        (_, _, first), (_, _, second) = O.plain_steps(p, LO, 2)
        assert second == C.App(C.Var("g"), (first.args[0], first.args[0]))
        assert second.args[0] is second.args[1]

    def test_rewritten_head_is_tested_before_the_arguments(self):
        # under outermost, once id(g) is g the parent g(w()) is the redex,
        # not the divergent argument
        p = C.parse_program("let rec id(x) = x and g(y) = k and w() = w() in id(g)(w())",
                            C.Mode.CLOSED_HIGHER_ORDER)
        k = C.Var("k")
        assert O.fuel_normalize(p, LO) == O.FuelNormal(k, 2)
        assert O.naive_whole_term_monitor(p, LO) == O.MonitorNormal(k, 2)
        assert O.head_function_monitor(p, LO) == O.MonitorNormal(k, 2)
        assert O.plain_steps(p, LO, 5) == monitored_steps(p, LO)
        assert [path for path, _, _ in O.plain_steps(p, LO, 5)] == [(0,), ()]
        log = monitored_steps(p, LI)  # innermost runs w() and is blocked at its second step
        assert [path for path, _, _ in log] == [(0,), (1,)]
        assert O.plain_steps(p, LI, 2) == log
        assert O.fuel_normalize(p, LI, 50) == O.OutOfFuel(50)


class TestPlainMachineScale:
    """One zipper machine serves both strategies, so innermost reduction no
    longer rescans the term from the root on every step."""

    def test_innermost_loop_runs_out_of_default_fuel(self):
        assert O.fuel_normalize(C.parse_program(F.LOOP_LAM), LI) == O.OutOfFuel(100_000)

    @pytest.mark.parametrize("strategy", [LO, LI])
    def test_deep_definition_body(self, strategy):
        body = "c(" * 10_000 + "x" + ")" * 10_000
        out = O.fuel_normalize(C.parse_program(f"let rec f(x) = {body} in f(k)"), strategy)
        assert isinstance(out, O.FuelNormal) and out.steps == 1
        assert C.render_term(out.term) == body.replace("x", "k")


class TestDescent:
    """An outermost redex off the head position is contracted by its
    definition's descent, and without an observer the next redex the body
    fixes is taken at once; each case is held to the observed run."""

    def test_a_head_redex_whose_contractum_has_a_constructor_spine(self):
        p = C.parse_program("let rec f(x) = c(x) in f(a)(b)", C.Mode.CLOSED_HIGHER_ORDER)
        out = O.fuel_normalize(p, LO, 10)
        assert C.render_term(out.term, C.Mode.CLOSED_HIGHER_ORDER) == "c(a)(b)"
        assert out.steps == 1
        assert O.plain_steps(p, LO, 5) == monitored_steps(p, LO) == [((0,), "f", p.root)]
        assert O.naive_whole_term_monitor(p, LO) == O.head_function_monitor(p, LO) \
            == O.MonitorNormal(out.term, 1)

    def test_a_spine_that_ends_at_an_argument_that_is_a_redex(self):
        p = C.parse_program("let rec f(x) = c(d(x, k)) and g() = m in f(g)")
        assert C.render_term(O.fuel_normalize(p, LO).term) == "c(d(m, k))"
        assert O.fuel_normalize(p, LO).steps == 2
        assert O.fuel_normalize(p, LO, 1) == O.OutOfFuel(1)
        assert [path for path, _, _ in O.plain_steps(p, LO, 5)] == [(), (1, 1)]
        assert O.plain_steps(p, LO, 5) == monitored_steps(p, LO)

    @pytest.mark.parametrize("fuel", [1, 2, 3, 4])
    def test_fuel_runs_out_inside_a_chain_of_known_redexes(self, fuel):
        p = C.parse_program("let rec f() = c(g) and g() = f in f")
        assert O.fuel_normalize(p, LO, fuel) == O.OutOfFuel(fuel)
        log = O.plain_steps(p, LO, fuel + 1)
        assert [path for path, _, _ in log] == [(), (1,), (1,), (1, 1), (1, 1)][:fuel + 1]
        assert [name for _, name, _ in log] == ["f", "g", "f", "g", "f"][:fuel + 1]

    def test_a_deep_constructor_spine_is_descended_without_recursion(self):
        n = 10_000
        body = "c(" * n + "g(x)" + ")" * n
        p = C.parse_program(f"let rec f(x) = {body} and g(y) = y in f(k)")
        out = O.fuel_normalize(p, LO)
        assert out.steps == 2
        assert C.render_term(out.term) == body.replace("g(x)", "k")
        (_, _, first), (path, name, _) = O.plain_steps(p, LO, 2)
        assert first == p.root and (path, name) == ((1,) * n, "g")
        loop = C.parse_program("let rec f() = " + "c(" * n + "f" + ")" * n + " in f")
        assert O.fuel_normalize(loop, LO, 3) == O.OutOfFuel(3)


class TestRepeatedRedex:
    """A first-order outermost run without an observer ends with
    `OutOfFuel(fuel)` at once when a redex repeats inside its own subterm."""

    def test_a_repeat_ends_the_run_at_once(self):
        p = C.parse_program("let rec f() = c(f) in f")
        start = time.perf_counter()
        assert O.fuel_normalize(p, LO, 10**9) == O.OutOfFuel(10**9)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("fuel", [100, 100_000])
    def test_a_growing_loop_is_run_out(self, fuel):
        # loop(list(...list(int)...)) never repeats
        assert O.fuel_normalize(C.parse_program(F.LOOP_LAM), LO, fuel) == O.OutOfFuel(fuel)

    def test_a_redex_after_a_normal_subterm_is_no_repeat(self):
        # w(a) is saved at step 4 and its subterm is c by step 5; z(a) then
        # reaches w(a) again, outside it
        p = C.parse_program("let rec s(x) = t(x) and t(x) = u(x) and u(x) = v(x) "
                            "and v(x) = w(x) and w(x) = c and z(x) = w(x) in p(s(a), z(a))")
        assert O.fuel_normalize(p, LO, 100) == O.FuelNormal(C.parse_program("p(c, c)").root, 7)

    def test_comparison_is_iterative_and_bounded(self):
        def chain(n):
            t = "k"
            for _ in range(n):
                t = ("c", (t,))
            return t

        a, b = chain(10_000), chain(10_000)
        assert O._same(a, b, 20_000) == (True, 20_000 - 10_001)  # one pair per node
        assert O._same(a, b, 50) == (False, 0)
        assert O._same(a, ("c", a[1]), 5) == (True, 3)  # a shared child costs one pair
        assert O._same(("c", ("k",)), ("c", ("k", "k")), 5) == (False, 4)


class TestDescentCycle:
    """A run without an observer ends with `OutOfFuel(fuel)` at once when
    one unbroken pass of the chained loop contracts more redexes than the
    program has definitions, in either mode, though the term grows."""

    def test_a_growing_root_is_proved_divergent_at_once(self):
        # f0(x, y) = f0(f0(k(y, k), f0(y, c2)), x): no redex ever repeats
        p = O.gen_programs(43, O.GenParams(count=40))[28]
        start = time.perf_counter()
        assert O.fuel_normalize(p, LO, 10**9) == O.OutOfFuel(10**9)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("mode", list(C.Mode))
    @pytest.mark.parametrize("text", ["let rec f(x) = c(f(k(x))) in f(a)",
                                      "let rec f(x) = c(g(k(x))) and g(y) = f(y) in f(a)"])
    def test_a_cycle_of_descents(self, text, mode):
        p = C.parse_program(text, mode)
        for fuel in (1, 2, 3, 4, 5, 10**9):
            assert O.fuel_normalize(p, LO, fuel) == O.OutOfFuel(fuel)

    @pytest.mark.parametrize("program", [
        # f2(x, y) = c2(c1, f0(...)): each pass ends at the normal c1
        O.gen_programs(77, O.GenParams(count=1000))[926],
        # three passes of two contractions each, then normal
        C.parse_program("let rec f(x) = c(g, x) and g() = d in f(f(f(k)))"),
    ])
    def test_a_chain_that_leaves_the_loop_spends_its_fuel_exactly(self, program):
        observed = O._plain_run(program, LO, 400, observe=lambda *a: None)
        for fuel in range(1, 401):
            want = observed if isinstance(observed, O.FuelNormal) and observed.steps <= fuel \
                else O.OutOfFuel(fuel)
            assert O.fuel_normalize(program, LO, fuel) == want

    def test_a_descent_returns_one_entry_object(self):
        # the proof's premise: a definition's descent always returns the same entry
        descend = compiled("let rec f(x) = c(g(k(x))) and g(y) = f(y) in f(a)", "f",
                           descent=True)
        first = descend((("a", ()),), [], [])[1]
        assert first is not None
        assert all(descend(((f"b{i}", ()),), [], [])[1] is first for i in range(3))


class TestChainedAgainstObserved:
    """`fuel_normalize` runs without an observer, so it chains the known
    redexes of outermost descents; an observed run, as in `plain_steps`,
    sees every redex, so it never chains. Both must take the same steps.
    The observer here logs paths only: `plain_steps` converts the whole
    term at every step, which takes seconds per program at 400 steps, so
    it is called for the small counts and held to the path log."""

    FUELS = (1, 2, 3, 5, 8, 60, 400)
    # outermost walks a shared subterm once per occurrence, and in this
    # program the shared part grows at every step: about x1.3 time per
    # step, so past fuel 8 the run would not finish
    EXPONENTIAL = {(0, C.Mode.CLOSED_HIGHER_ORDER, LO, 8)}

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", list(C.Mode))
    @pytest.mark.parametrize("strategy", [LO, LI])
    def test_generated_programs(self, seed, mode, strategy):
        for pi, program in enumerate(O.gen_programs(seed, O.GenParams(mode=mode))):
            fuels = self.FUELS[:5] if (seed, mode, strategy, pi) in self.EXPONENTIAL else self.FUELS
            count = max(fuels) + 1
            paths: list = []

            def observe(name, path, term):
                if len(paths) < count:  # as in plain_steps
                    paths.append(path)

            O._plain_run(program, strategy, count, observe)
            monitored = C.normalize(program, strategy)
            for fuel in fuels:
                # len(O.plain_steps(program, strategy, fuel + 1)), since the log
                # of a count is the first steps of the log of a larger count
                logged = min(len(paths), fuel + 1)
                if fuel < 10:
                    assert [path for path, _, _ in O.plain_steps(program, strategy, fuel + 1)] \
                        == paths[:logged]
                out = O.fuel_normalize(program, strategy, fuel)
                if logged == fuel + 1:
                    assert out == O.OutOfFuel(fuel)
                    continue
                assert isinstance(out, O.FuelNormal) and out.steps == logged
                if isinstance(monitored, C.Normal):
                    assert (C.render_term(out.term, C.Mode.CLOSED_HIGHER_ORDER)
                            == C.render_term(monitored.term, C.Mode.CLOSED_HIGHER_ORDER))


def compiled(text, name, mode=C.Mode.FIRST_ORDER, descent=False):
    p = C.parse_program(text, mode)
    d = p.def_map[name]
    return O._compile_template(O._fast(d.body), d.params, O._definitions(p) if descent else None)


class TestCompiledTemplates:
    def test_a_parameter_used_twice_is_one_object(self):
        f = compiled("let rec f(x) = g(x, x) and g(a, b) = q in f(k)", "f")
        arg = ("c", ())
        out = f((arg,))
        assert out == ("g", (arg, arg))
        assert out[1][0] is arg and out[1][1] is arg

    def test_a_parameter_free_subterm_is_shared_between_instantiations(self):
        f = compiled("let rec f(x) = g(x, h(k, m)) and g(a, b) = q in f(k)", "f")
        first, second = f((("a", ()),)), f((("b", ()),))
        assert first[1][1] == ("h", (("k", ()), ("m", ())))
        assert first[1][1] is second[1][1]
        assert first is not second
        closed = compiled("let rec f() = h(k) in f()", "f")
        assert closed(()) is closed(())

    def test_a_parameter_at_the_head(self):
        f = compiled("let rec ap(x, y) = x(y, x) in ap(k, k)", "ap", C.Mode.CLOSED_HIGHER_ORDER)
        fun, arg = ("g", ()), ("c", ())
        assert f((fun, arg)) == (fun, (arg, fun))
        assert compiled("let rec i(x) = x in i(k)", "i")((arg,)) is arg

    def test_the_generated_code_holds_no_program_text(self):
        text = ("let rec swap(x, y) = pair(y, cons(x, nil)) and pair(u, v) = u"
                " and spine(x) = cons(cons(pair(x, nil), x), nil) in swap(k, k)")
        for f in [compiled(text, "swap"), compiled(text, "swap", descent=True),
                  compiled(text, "spine", descent=True)]:
            code = f.__code__
            names = set(code.co_varnames + code.co_names + code.co_freevars + code.co_cellvars)
            assert names.isdisjoint({"swap", "pair", "cons", "nil", "spine",
                                     "x", "y", "u", "v", "k"})
            assert not [c for c in code.co_consts if isinstance(c, str)]
            # taken out of its exec namespace: no function <-> globals cycle
            assert all(v is not f for v in f.__globals__.values())

    def test_a_descent_pushes_the_spine_and_returns_the_next_redex(self):
        p = C.parse_program("let rec f(x) = c(d(g(x), x, k), m) and g(y) = y in f(k)")
        defs = O._definitions(p)
        descend = O._compile_template(O._fast(p.def_map["f"].body), ("x",), defs)
        arg = ("a", ())
        stack, built = [("frame below",)], ["built below"]
        node, entry = descend((arg,), stack, built)
        assert node == ("g", (arg,)) and node[1][0] is arg
        assert entry is defs["g", 1]
        # None in the slot of the child in focus
        assert stack[1:] == [(("c", None, ("m", ())), 1), (("d", None, arg, ("k", ())), 2)]
        assert built == ["built below", "c", "d"]
        again: list = []
        descend((arg,), again, [])
        assert again[0][0] is stack[1][0]  # a frame without parameters is one constant
        leaf = O._compile_template(O._fast(p.def_map["g"].body), ("y",), defs)
        assert leaf((arg,), [], []) == (arg, None)

    def test_names_that_look_like_generated_locals(self):
        p = C.parse_program("let rec f(args, make, a1) = g(a1, make, args, k0, v0) in f(x, y, z)")
        assert C.render_term(O.fuel_normalize(p).term) == "g(z, y, x, k0, v0)"


class TestCollectorPause:
    def test_the_collector_is_back_on_after_the_suite(self):
        assert gc.isenabled()
        assert O.run_correctness_suite(5, 8).ok
        assert gc.isenabled()

    def test_the_collector_stays_off_when_the_caller_paused_it(self):
        gc.disable()
        try:
            assert O.run_correctness_suite(5, 8).ok
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_the_collector_is_restored_when_a_chunk_raises(self, monkeypatch):
        seen = []

        def boom(*args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(O, "fuel_normalize", boom)
        with pytest.raises(RuntimeError):
            O.run_correctness_suite(5, 8)
        assert seen == [False]
        assert gc.isenabled()

    def test_deep_normal_forms_are_compared_without_recursion(self):
        # expo-11 normalizes to c^2048(k), deeper than the recursion limit
        n = 11
        text = "\n".join(["let rec f0(x) = c(x)"]
                         + [f"and f{i}(x) = f{i - 1}(f{i - 1}(x))" for i in range(1, n + 1)]
                         + [f"in f{n}(k)"])
        result = O._correctness_chunk([C.parse_program(text)], 100_000)
        assert result.checked == 2 and result.ok


def plain_spelling(term):
    """The whole-term key spelled without a memo: the reference."""
    out, stack = [], [term]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
        else:
            stack.append(")")
            for a in reversed(t[1]):
                stack += (a, ",")
            stack += ("(", t[0])
    return "".join(out)


class TestSpelling:
    def test_keys_equal_the_plain_spelling_across_steps(self):
        a = ("c", (("k", ()), "x"))
        b = ("h", (a,))  # spelled around a copied node, then copied itself
        spelled = {}
        for t in [("f", (a, a)), ("g", (b, a)), ("p", (b, ("q", (b,)))), ("f", (a, a)), a]:
            key, spelled = O._spelling(t, spelled)
            assert key == plain_spelling(t)

    def test_a_deep_term_is_spelled_without_recursion(self):
        n = 100_000
        deep = "k"
        for _ in range(n):
            deep = ("c", (deep,))
        key, spelled = O._spelling(deep, {})
        assert key == "c(," * n + "k" + ")" * n
        assert O._spelling(("g", (deep,)), spelled)[0] == "g(," + key + ")"


class TestRejectedMonitors:
    def test_whole_term_monitor_misses_growing_loop(self):
        p = C.parse_program(F.LOOP_LAM)
        assert O.naive_whole_term_monitor(p) == O.MonitorOutOfSteps(1000)

    def test_whole_term_monitor_blocks_exact_repetition_at_step_two(self):
        p = C.parse_program("let rec w() = w() in w()")
        assert O.naive_whole_term_monitor(p) == O.MonitorBlocked(2, "whole term repeated")

    def test_whole_term_monitor_normalizes_id_id(self):
        out = O.naive_whole_term_monitor(C.parse_program(F.ID_LAM))
        assert out == O.MonitorNormal(C.App(C.Var("int"), ()), 2)

    def test_head_monitor_blocks_loop_at_second_redex(self):
        out = O.head_function_monitor(C.parse_program(F.LOOP_LAM))
        assert out == O.MonitorBlocked(2, "head 'loop' already expanded")

    def test_head_monitor_blocks_id_id_before_normal_form(self):
        out = O.head_function_monitor(C.parse_program(F.ID_LAM))
        assert isinstance(out, O.MonitorBlocked)

    def test_head_monitor_normalizes_redex_free_program(self):
        out = O.head_function_monitor(C.parse_program("c(int)"))
        assert isinstance(out, O.MonitorNormal) and out.steps == 0

    @pytest.mark.parametrize("strategy", [LO, LI])
    def test_whole_term_monitor_blocks_a_term_rebuilt_around_a_shared_argument(self, strategy):
        p = C.parse_program("let rec f(x) = g(x) and g(x) = f(x) in f(c(k))")
        assert O.naive_whole_term_monitor(p, strategy) == O.MonitorBlocked(3, "whole term repeated")

    W = "let rec w() = w() in w()"
    INT = C.App(C.Var("int"), ())
    # max_steps 0..3: a run normal only after its last allowed step is out
    # of steps, the whole-term monitor checks the term after the last step,
    # and the head monitor never checks the redex of step max_steps + 1
    PINNED = [
        (W, "whole", [O.MonitorOutOfSteps(0), O.MonitorBlocked(2, "whole term repeated"),
                      O.MonitorBlocked(2, "whole term repeated"),
                      O.MonitorBlocked(2, "whole term repeated")]),
        (W, "head", [O.MonitorOutOfSteps(0), O.MonitorOutOfSteps(1),
                     O.MonitorBlocked(2, "head 'w' already expanded"),
                     O.MonitorBlocked(2, "head 'w' already expanded")]),
        (F.LOOP_LAM, "whole", [O.MonitorOutOfSteps(n) for n in range(4)]),
        (F.LOOP_LAM, "head", [O.MonitorOutOfSteps(0), O.MonitorOutOfSteps(1),
                              O.MonitorBlocked(2, "head 'loop' already expanded"),
                              O.MonitorBlocked(2, "head 'loop' already expanded")]),
        (F.ID_LAM, "whole", [O.MonitorOutOfSteps(0), O.MonitorOutOfSteps(1),
                             O.MonitorOutOfSteps(2), O.MonitorNormal(INT, 2)]),
        (F.ID_LAM, "head", [O.MonitorOutOfSteps(0), O.MonitorOutOfSteps(1),
                            O.MonitorBlocked(2, "head 'id' already expanded"),
                            O.MonitorBlocked(2, "head 'id' already expanded")]),
    ]

    @pytest.mark.parametrize("strategy", [LO, LI])
    @pytest.mark.parametrize("text,monitor,expected", PINNED)
    def test_monitors_at_small_step_bounds(self, strategy, text, monitor, expected):
        run = O.naive_whole_term_monitor if monitor == "whole" else O.head_function_monitor
        p = C.parse_program(text)
        assert [run(p, strategy, n) for n in range(4)] == expected


class TestEnumerate:
    def test_bool_depth_one(self):
        vals = O.enumerate_values(PrimApp("bool"), [], 1)
        assert [O.render_value(v) for v in vals] == ["true", "false"]

    def test_zarith_depth_one(self):
        ds = D.parse_decls(F.ZARITH_DECL)
        vals = O.enumerate_values(TyApp("zarith"), ds, 1)
        assert [O.render_value(v) for v in vals] == ["Small(0)", "Small(1)", "Big(<gmp>)"]

    def test_empty_variant(self):
        ds = D.parse_decls("type empty = |")
        assert O.enumerate_values(TyApp("empty"), ds, 3) == []

    def test_depth_zero_variants_have_no_values(self):
        ds = D.parse_decls(F.OPTION_DECL)
        assert O.enumerate_values(TyApp("option2", (PrimApp("int"),)), ds, 0) == []

    def test_depth_is_bounded(self):
        with pytest.raises(ValueError):
            O.enumerate_values(PrimApp("bool"), [], 5)

    def test_recursive_type_is_finite_at_fixed_depth(self):
        ds = D.parse_decls(F.ROPE_DECL)
        assert len(O.enumerate_values(TyApp("rope"), ds, 3)) == 19

    def test_substitution_keeps_argument_order(self):
        ds = D.parse_decls("type ('a, 'b) pair = P of 'a * 'b\ntype ('a, 'b) t = T of ('b, 'a) pair\n")
        vals = O.enumerate_values(TyApp("t", (PrimApp("int"), PrimApp("bool"))), ds, 2)
        assert [O.render_value(v) for v in vals] == [
            "T(P(true, 0))", "T(P(true, 1))", "T(P(false, 0))", "T(P(false, 1))"]

    def test_a_deep_field_is_substituted_without_recursion(self):
        n = 10_000
        ds = D.parse_decls("type 'a bx = B of 'a\ntype 'a deep = D of 'a" + " bx" * n + " | E\n")
        vals = O.enumerate_values(TyApp("deep", (PrimApp("int"),)), ds, 3)
        assert [O.render_value(v) for v in vals] == ["E"]

    def test_a_long_abbreviation_chain_is_read_without_recursion(self):
        n = 10_000
        text = "type a0 = int\n" + "".join(f"type a{i} = a{i - 1}\n" for i in range(1, n + 1))
        ds = D.parse_decls(text)
        vals = O.enumerate_values(TyApp(f"a{n}"), ds, 2)
        assert [O.render_value(v) for v in vals] == ["0", "1"]
        assert O.repr_value(vals[1], TyApp(f"a{n}"), ds) == O.RImm(1)

    def test_a_cyclic_abbreviation_stops_at_the_budget(self):
        ds = D.parse_decls("type a = b\ntype b = a\n")
        with pytest.raises(D.UnfoldBudgetError, match="^more than 1000000 abbreviation expansions$"):
            O.enumerate_values(TyApp("a"), ds, 2)
        with pytest.raises(D.UnfoldBudgetError):
            O.repr_value(O.CtorVal("A", ()), TyApp("a"), ds)

    def test_lazy_adds_the_values_of_its_argument(self):
        ty = PrimApp("lazy", (PrimApp("bool"),))
        vals = O.enumerate_values(ty, [], 1)
        assert [O.render_value(v) for v in vals] == [
            "<lazy:246>", "<lazy:250>", "<lazy:251>", "true", "false"]
        assert [O.repr_value(v, ty, []) for v in vals] == [
            O.RBlock(246), O.RBlock(250), O.RBlock(251), O.RImm(0), O.RImm(1)]


class TestRepr:
    def test_true_is_immediate_zero(self):
        v = O.enumerate_values(PrimApp("bool"), [], 1)[0]
        assert O.repr_value(v, PrimApp("bool"), []) == O.RImm(0)
        assert O.head_of(v, PrimApp("bool"), []) == Imm(0)

    def test_unboxed_constructor_is_the_identity(self):
        ds = D.parse_decls(F.ZARITH_DECL)
        five = O.CtorVal("Small", (O.PrimVal("int", "5", Imm(5)),))
        assert O.repr_value(five, TyApp("zarith"), ds) == O.RImm(5)

    def test_pair_is_a_zero_tagged_block(self):
        v = O.enumerate_values(PrimApp("tuple", (PrimApp("int"), PrimApp("int"))), [], 1)[0]
        assert O.repr_value(v, PrimApp("tuple", (PrimApp("int"), PrimApp("int"))), []) == O.RBlock(0)

    def test_boxed_constructors_take_positional_indices(self):
        ds = D.parse_decls(F.OPTION_DECL)
        ty = TyApp("option2", (PrimApp("int"),))
        none2, *_ = O.enumerate_values(ty, ds, 1)
        some2 = O.CtorVal("Some2", (O.PrimVal("int", "0", Imm(0)),))
        assert O.repr_value(none2, ty, ds) == O.RImm(0)
        assert O.repr_value(some2, ty, ds) == O.RBlock(0, (O.RImm(0),))

    def test_ill_typed_value(self):
        ds = D.parse_decls(F.OPTION_DECL)
        with pytest.raises(O.IllTypedError):
            O.repr_value(O.CtorVal("Nope", ()), TyApp("option2", (PrimApp("int"),)), ds)

    def test_injectivity_without_unboxed_constructors(self):
        ds = D.parse_decls(F.OPTION_DECL + F.LIST_DECL)
        for name in ("option2", "list2"):
            ty = TyApp(name, (PrimApp("int"),))
            values = O.enumerate_values(ty, ds, 3)
            reprs = [O.repr_value(v, ty, ds) for v in values]
            assert len(set(reprs)) == len(values)


class TestGenerators:
    def test_programs_deterministic_from_seed(self):
        params = O.GenParams(count=20)
        assert O.gen_programs(42, params) == O.gen_programs(42, params)
        assert O.gen_programs(42, params) != O.gen_programs(43, params)

    def test_rendered_corpus_is_byte_identical(self):
        params = O.GenParams(count=20)
        a = "\n".join(C.render_program(p) for p in O.gen_programs(42, params))
        b = "\n".join(C.render_program(p) for p in O.gen_programs(42, params))
        assert a == b

    def test_zero_defs_means_free_name_root(self):
        for p in O.gen_programs(7, O.GenParams(count=10, max_defs=0)):
            assert p.defs == ()

    def test_size_bounds_enforced(self):
        with pytest.raises(ValueError):
            O.GenParams(max_defs=7)

    def test_generated_decl_files_parse_back(self):
        # every generated declaration is well-formed by construction
        for ds in O.gen_decls(3, O.GenParams(count=20)):
            D.check_decls(ds)

    def test_generated_macros_are_first_order(self):
        from shapecheck import cppmacro as P

        for defs, call in O.gen_macros(3, O.GenParams(count=20)):
            assert P.first_order_violation(defs, call) is None

    def test_macros_deterministic_from_seed(self):
        a = O.gen_macros(42, O.GenParams(count=10))
        b = O.gen_macros(42, O.GenParams(count=10))
        assert a == b


class TestSuites:
    def test_monitor_demo_suite(self):
        assert O.run_monitor_demos().ok

    def test_small_measure_suite(self):
        r = O.run_measure_suite(5, 60)
        assert r.ok, r.failures[:3]

    def test_small_correctness_suite(self):
        r = O.run_correctness_suite(5, 60)
        assert r.ok, r.failures[:3]

    def test_zero_fuel_is_refused_before_any_program_runs(self, monkeypatch):
        monkeypatch.setattr(O, "gen_programs", lambda *a: pytest.fail("programs generated"))
        with pytest.raises(ValueError, match="fuel must be at least 1"):
            O.run_correctness_suite(5, 8, fuel=0)

    def test_small_macro_agreement_suite(self):
        r = O.run_macro_agreement_suite(5, 60)
        assert r.summary() == "ok   macro agreement: 60 checks"

    def test_a_system_past_the_token_budget_is_named_and_left_out(self):
        # `selftest --seed 6 --cases 200` runs this suite; system 63 expands
        # past the 10^7-token budget, which once ended the whole self-test
        r = O.run_macro_agreement_suite(8, 200)
        assert r.summary() == ("ok   macro agreement: 199 checks, "
                               "1 past a budget (first: system 63, more than 10000000 tokens)")

    def test_small_shape_suite(self):
        r = O.run_shape_semantics_suite(5, 500)
        assert r.ok, r.failures[:3]

    def test_selftest_smoke(self):
        lines = []
        assert O.selftest(seed=1, cases=25, echo=lines.append)
        assert len(lines) == 8 and lines[-1].startswith("selftest:")
