"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import percentiles  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


class TestTail(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        value, pct, n = percentiles.tail([float(i) for i in range(1, 101)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))

    def test_percentile_rounds_down(self):
        value, pct, n = percentiles.tail([float(i) for i in range(1, 1020)])
        self.assertEqual(value, 1009.0)
        self.assertEqual(pct, 99.0)  # 1009 / 1019 = 0.99018...
        self.assertEqual(n, 1019)

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 0.5]
        self.assertEqual(percentiles.tail(samples)[0], 1.0)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(percentiles.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(percentiles.tail([float(i) for i in range(10)])[1:], (100.0, 10))
        with self.assertRaises(ValueError):
            percentiles.tail([])

    def test_eleven_samples_give_the_smallest(self):
        value, pct, _ = percentiles.tail([float(i) for i in range(11)])
        self.assertEqual((value, pct), (0.0, 9.0))


def _span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, None)


class TestSelfTime(unittest.TestCase):
    def test_nested_spans(self):
        tree = [
            _span("a", 0.0, 10.0),
            _span("b", 1.0, 4.0, 0),
            _span("c", 2.0, 3.0, 1),
            _span("d", 5.0, 6.0, 0),
            _span("e", 11.0, 12.0),
        ]
        self.assertEqual(spans.self_times(tree), [6.0, 2.0, 1.0, 1.0, 1.0])

    def test_children_are_clipped_and_not_counted_twice(self):
        tree = [_span("a", 0.0, 4.0), _span("b", 1.0, 3.0, 0), _span("c", 2.0, 5.0, 0)]
        self.assertEqual(spans.self_times(tree)[0], 1.0)

    def test_recorder_links_parents_through_module_globals(self):
        mod = types.ModuleType("fake")
        exec("def inner(x):\n    return x + 1\n"
             "def outer(x):\n    return inner(x) * 2\n", mod.__dict__)
        targets = [spans.Target(mod, "outer", "fake.outer"),
                   spans.Target(mod, "inner", "fake.inner", lambda a, r: {"arg": a[0]})]
        originals = spans.snapshot(targets)
        rec = spans.Recorder()
        installed = spans.Installed(targets, rec)
        rec.active, rec.input_id = True, "in-1"
        self.assertEqual(mod.outer(3), 8)
        rec.active = False
        self.assertEqual(mod.outer(1), 4)  # inactive: no span
        installed.restore()
        spans.assert_original(targets, originals)
        self.assertEqual([(s.name, s.parent, s.input_id, s.work) for s in rec.spans],
                         [("fake.outer", -1, "in-1", {}), ("fake.inner", 0, "in-1", {"arg": 3})])
        own = spans.self_times(rec.spans)
        self.assertLessEqual(own[0], rec.spans[0].end - rec.spans[0].start)

    def test_assert_original_catches_a_left_wrapper(self):
        mod = types.ModuleType("fake")
        exec("def f():\n    return 1\n", mod.__dict__)
        targets = [spans.Target(mod, "f", "fake.f")]
        originals = spans.snapshot(targets)
        spans.Installed(targets, spans.Recorder())
        with self.assertRaises(RuntimeError):
            spans.assert_original(targets, originals)


class TestFamilies(unittest.TestCase):
    """The generators reproduce their analytic answers at small n."""

    @classmethod
    def setUpClass(cls):
        cls.sc = W.import_package()

    def test_expo(self):
        calculus = self.sc.calculus
        for n in range(1, 5):
            program = calculus.parse_program(W.expo_text(n, "g", "s", "z"))
            for strategy in calculus.Strategy:
                out = calculus.normalize(program, strategy)
                self.assertEqual(out.steps, 2 ** (n + 1) - 1)
                self.assertIsNone(W.expo_answer(out.term, n, "s", "z"))
            self.assertIsNotNone(W.expo_answer(out.term, n + 1, "s", "z"))

    def _verdicts(self, text):
        d = self.sc.decls
        return [type(r).__name__ for r in d.check_decls(d.parse_decls(text))]

    def test_sum_blowup(self):
        names = {"Accepted": "accepted", "RejectedConflict": "rejected_conflict"}
        for n in range(1, 5):
            verdicts = [names.get(v, v) for v in self._verdicts(W.sum_blowup_text(n))]
            self.assertIsNone(W.sum_blowup_answer(verdicts, n))
        self.assertIsNotNone(W.sum_blowup_answer(["accepted"] * 3, 2))

    def test_abbrev_chain(self):
        for n in range(1, 6):
            verdicts = ["accepted" if v == "Accepted" else v
                        for v in self._verdicts(W.abbrev_chain_text(n))]
            self.assertIsNone(W.abbrev_chain_answer(verdicts, n))

    def test_cpp_ladders(self):
        for n in range(0, 5):
            out = W._compare(self.sc, W.cpp_dup_text(n))
            self.assertIsNone(W._agreement_answer(out, "normalized", "c"))
            out = W._compare(self.sc, W.cpp_chain_text(n))
            self.assertIsNone(W._agreement_answer(out, "normalized", "k(a)"))

    def _reference(self, text, budget=10_000):
        lines = text.strip().split("\n")
        defs = {}
        for line in lines[:-1]:
            toks = W.macro_tokens(line[len("#define"):])
            close = toks.index(")")
            defs[toks[0]] = (tuple(t for t in toks[2:close] if t != ","), toks[close + 1:])
        return W.reference_expand(defs, W.macro_tokens(lines[-1]), budget)

    def test_reference_expander_on_fixtures(self):
        F = self.sc.fixtures
        cases = [(F.NIL_CPP, "42", "normalized"), (F.ACHAIN_CPP, "b", "normalized"),
                 (F.FSTOP_CPP, "f ( stop , stop )", "blocked"),
                 (F.LOOP_CPP, "loop ( list ( int ) )", "blocked"), (F.ID_CPP, "int", "normalized")]
        for text, output, outcome in cases:
            self.assertEqual(self._reference(text), (output, outcome))

    def test_reference_expander_budget(self):
        self.assertEqual(self._reference(W.cpp_dup_text(3)), ("c", "normalized"))
        with self.assertRaises(W.OverBudget):
            self._reference(W.cpp_dup_text(10), budget=500)

    def test_reference_expander_matches_the_library_on_generated_systems(self):
        P, oracle = self.sc.cppmacro, self.sc.oracle
        checked = 0
        for defs, call in oracle.gen_macros(5, oracle.GenParams(count=100, max_arity=2)):
            try:
                output, _ = W.reference_expand(*W._plain_system(self.sc, defs, call), 2000)
            except W.OverBudget:
                continue
            self.assertEqual(output, P.render_tokens(P.expand(call, defs)))
            checked += 1
        self.assertGreater(checked, 50)

    def test_rendered_declarations_parse_back(self):
        oracle, d = self.sc.oracle, self.sc.decls
        for ds in oracle.gen_decls(3, oracle.GenParams(count=200)):
            self.assertEqual(d.parse_decls(W.render_decls(self.sc, ds)), ds)

    def test_builders_are_deterministic(self):
        a = [(it.id, it.size) for it in W.build_norm_deep(self.sc, 7, HERE)]
        b = [(it.id, it.size) for it in W.build_norm_deep(self.sc, 7, HERE)]
        self.assertEqual(a, b)
        self.assertEqual(len(a), 2 * len(W.NORM_SIZES))


if __name__ == "__main__":
    unittest.main()
