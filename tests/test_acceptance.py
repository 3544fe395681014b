"""Acceptance suite: one test per criterion, each printing a verdict line."""
import time

from shapecheck import calculus as C
from shapecheck import cli
from shapecheck import cppmacro as P
from shapecheck import fixtures as F
from shapecheck import oracle as O

HO = C.Mode.CLOSED_HIGHER_ORDER


def report(n, label, elapsed, budget=None):
    extra = f" ({elapsed:.1f}s" + (f" < {budget}s)" if budget else ")")
    print(f"PASS criterion {n}: {label}{extra}")
    if budget is not None:
        assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def run_cli(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


GOLDEN_CHECKS = [
    (
        "zarith.decl",
        F.ZARITH_DECL,
        0,
        "gmp: accepted (imm: {}; block: {255})\n"
        "zarith: accepted (imm: top; block: {255})\n"
        "  Small: (imm: top; block: {})\n"
        "  Big: (imm: {}; block: {255})\n",
    ),
    (
        "clash.decl",
        F.CLASH_DECL,
        1,
        "clash: rejected\n"
        "error: This declaration is invalid, some [@unboxed] annotations "
        "introduce overlapping representations.\n"
        "  immediate heads overlap (top overlap): primitive int (via Int) "
        "vs primitive int (via Also_int)\n",
    ),
    (
        "loop.decl",
        F.LOOP_DECL,
        1,
        "id: accepted (imm: top; block: top)\n"
        "  Id: (imm: top; block: top)\n"
        "loop: rejected\n"
        "error: unfolding of type loop does not terminate\n"
        "  blocked on loop with trace [loop]; path: loop -> loop\n",
    ),
    (
        "harmful.decl",
        F.HARMFUL_DECL,
        1,
        "harmful: rejected\n"
        "error: unfolding of type harmful does not terminate\n"
        "  blocked on harmful with trace [harmful]; path: harmful -> harmful\n",
    ),
    (
        "harmless.decl",
        F.HARMLESS_DECL,
        1,
        "harmless: rejected\n"
        "error: unfolding of type harmless does not terminate\n"
        "  blocked on harmless with trace [harmless]; path: harmless -> harmless\n",
    ),
    (
        "rope.decl",
        F.ROPE_DECL,
        0,
        "rope: accepted (imm: {}; block: {0,252})\n"
        "  Leaf: (imm: {}; block: {252})\n",
    ),
]


def test_criterion_1_fixture_verdicts(tmp_path, capsys):
    t0 = time.time()
    for name, text, want_code, want_out in GOLDEN_CHECKS:
        path = tmp_path / name
        path.write_text(text)
        code, out = run_cli(capsys, ["check", str(path)])
        assert (code, out) == (want_code, want_out), f"golden mismatch for {name}"
    report(1, "fixture verdicts (zarith, clash, loop, harmful, harmless, rope)",
           time.time() - t0, 1)


def trace_of(text, mode):
    program = C.parse_program(text, mode)
    rendered = []
    out = C.normalize(program, on_step=lambda b, a, i: rendered.append(C.render_ann_term(a, mode)))
    return out, rendered


def test_criterion_2_calculus_fixtures():
    t0 = time.time()
    out, _ = trace_of(F.ID_LAM, C.Mode.FIRST_ORDER)
    assert out == C.Normal(C.App(C.Var("int"), ()), 2)

    out, steps = trace_of(F.LOOP_LAM, C.Mode.FIRST_ORDER)
    assert isinstance(out, C.Diverges) and out.steps == 1
    assert (out.witness.name, out.witness.trace) == ("loop", ("loop",))
    assert steps == ["loop[loop](list[loop](int[]))"]

    out, steps = trace_of(F.NIL_LAM, HO)
    assert out == C.Normal(C.Var("fortytwo"), 4)
    assert steps == [
        "nil(g1)[g0](fortytwo)[g0]",
        "g1(fortytwo)[g0]",
        "nil(fortytwo)[g0,g1]",
        "fortytwo",
    ]

    out, steps = trace_of(F.ACHAIN_LAM, HO)
    assert out == C.Normal(C.Var("b"), 3)
    assert steps == ["b(a)[](a)[]", "a(a)[]", "b"]

    out, _ = trace_of(F.DELTA_LAM, HO)
    assert isinstance(out, C.Diverges) and out.steps == 1
    assert out.witness.trace == ("delta",)

    out, steps = trace_of(F.FSTOP_LAM, HO)
    assert isinstance(out, C.Diverges)
    assert steps[-1] == "f(stop, stop)[f]"
    assert all("done" not in s for s in steps)
    report(2, "normalization fixtures with exact step counts", time.time() - t0, 1)


def test_criterion_3_measure_monotonicity():
    t0 = time.time()
    result = O.run_measure_suite(seed=2024, count=1200)
    assert result.checked > 0
    assert result.ok, result.failures[:5]
    report(3, f"measure strictly decreases on {result.checked} steps "
              f"across 1200 programs in both modes", time.time() - t0, 60)


def test_criterion_4_correctness_harness():
    t0 = time.time()
    result = O.run_correctness_suite(seed=77, count=1000, fuel=100_000)
    assert result.checked == 2000
    assert result.ok, result.failures[:5]
    report(4, "monitored verdicts agree with fuel-bounded reduction on 1000 programs",
           time.time() - t0, 120)


def test_criterion_5_macro_agreement():
    t0 = time.time()
    result = O.run_macro_agreement_suite(seed=4242, count=500)
    assert result.checked == 500
    assert result.ok, result.failures[:5]

    for text, want in [(F.NIL_CPP, "42"), (F.ACHAIN_CPP, "b"),
                       (F.FSTOP_CPP, "f ( stop , stop )")]:
        defs, call = P.parse_macro_file(text)
        assert P.render_tokens(P.expand(call, defs)) == want
    report(5, "expansion agrees with normalization on 500 systems + fixtures",
           time.time() - t0)


def test_criterion_6_shape_algebra_semantics():
    t0 = time.time()
    result = O.run_shape_semantics_suite(seed=11, count=10_000)
    assert result.checked == 10_000
    assert result.ok, result.failures[:5]
    report(6, "union/disjointness match exhaustive membership on 10000 pairs",
           time.time() - t0, 30)


def test_criterion_7_enumeration_soundness():
    t0 = time.time()
    result = O.run_enumeration_suite(F.CHECK_CORPUS, depth=3)
    assert result.checked > 0
    assert result.ok, result.failures[:5]
    report(7, f"{result.checked} enumerated values classified correctly",
           time.time() - t0, 30)


def test_criterion_8_rejected_monitor_demonstrations():
    t0 = time.time()
    loop = C.parse_program(F.LOOP_LAM)
    idid = C.parse_program(F.ID_LAM)

    assert O.naive_whole_term_monitor(loop, max_steps=1000) == O.MonitorOutOfSteps(1000)
    assert isinstance(O.head_function_monitor(idid), O.MonitorBlocked)
    assert isinstance(C.normalize(loop), C.Diverges)
    assert C.normalize(idid) == C.Normal(C.App(C.Var("int"), ()), 2)

    demos = O.run_monitor_demos()
    assert demos.ok, demos.failures
    report(8, "rejected monitors fail exactly where expected", time.time() - t0)
