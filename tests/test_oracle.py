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

    def test_small_macro_agreement_suite(self):
        r = O.run_macro_agreement_suite(5, 60)
        assert r.ok, r.failures[:3]

    def test_small_shape_suite(self):
        r = O.run_shape_semantics_suite(5, 500)
        assert r.ok, r.failures[:3]

    def test_selftest_smoke(self):
        lines = []
        assert O.selftest(seed=1, cases=25, echo=lines.append)
        assert len(lines) == 8 and lines[-1].startswith("selftest:")
