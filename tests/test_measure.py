import operator

from hypothesis import given, strategies as st

from shapecheck import calculus as C
from shapecheck import measure as M
from shapecheck import oracle as O
from shapecheck.calculus import AnnApp, Var

FO = C.Mode.FIRST_ORDER
HO = C.Mode.CLOSED_HIGHER_ORDER


def node(name, args=(), trace=()):
    return AnnApp(Var(name), tuple(args), tuple(trace))


def key(*names):
    return frozenset(names)


class TestTreeMeasure:
    def test_worked_example(self):
        # f(g, h) with traces {x}, {x,g}, {x,h}: one path multiset per node
        t = node("f", [node("g", trace=("x", "g")), node("h", trace=("x", "h"))], ("x",))
        canon = lambda m: sorted(tuple(sorted(M.render_key(k) for k in n)) for n in m)
        want = [
            [key("x")],
            [key("x"), key("x", "g")],
            [key("x"), key("x", "h")],
        ]
        assert canon(M.tree_measure(t)) == canon(want)

    def test_single_variable_leaf(self):
        assert M.tree_measure(Var("x")) == [(M.BOTTOM,)]

    def test_expansion_duplicating_a_child(self):
        # replacing f by f2 at the longer trace (x, f) duplicates g and
        # still shrinks the measure
        before = node("f", [node("g", trace=("x", "g")), node("h", trace=("x", "h"))], ("x",))
        after = node("f2", [node("g", trace=("x", "g")), node("g", trace=("x", "g"))], ("x", "f"))
        assert M.tree_measure(after).count((key("x", "f"), key("x", "g"))) == 2
        assert M.assert_decrease(before, after)
        assert not M.assert_decrease(after, before)

    def test_cardinality_equals_node_count(self):
        for program in O.gen_programs(3, O.GenParams(count=30)):
            term = C.annotate(program.root, {}, ())

            def count(t):
                if isinstance(t, Var):
                    return 1
                return 1 + sum(count(a) for a in t.args)

            assert len(M.tree_measure(term)) == count(term)


class TestMultisetLess:
    def test_empty_below_nonempty(self):
        assert M.multiset_less([], [1], operator.lt)

    def test_irreflexive_on_equal(self):
        assert not M.multiset_less([1, 2], [2, 1], operator.lt)

    def test_duplicates_matter(self):
        assert M.multiset_less([1, 1], [1, 2], operator.lt)
        assert not M.multiset_less([1, 2], [1, 1], operator.lt)

    @given(st.lists(st.integers(0, 5), max_size=5))
    def test_irreflexive(self, xs):
        assert not M.multiset_less(xs, xs, operator.lt)

    @given(
        st.lists(st.integers(0, 4), max_size=4),
        st.lists(st.integers(0, 4), max_size=4),
        st.lists(st.integers(0, 4), max_size=4),
    )
    def test_transitive(self, a, b, c):
        if M.multiset_less(a, b, operator.lt) and M.multiset_less(b, c, operator.lt):
            assert M.multiset_less(a, c, operator.lt)

    @given(st.lists(st.integers(0, 4), max_size=4), st.lists(st.integers(0, 4), max_size=4))
    def test_asymmetric(self, a, b):
        if M.multiset_less(a, b, operator.lt):
            assert not M.multiset_less(b, a, operator.lt)


class TestKeyOrder:
    def test_bottom_below_every_trace(self):
        assert M.key_less(M.BOTTOM, key())
        assert M.key_less(M.BOTTOM, key("f"))
        assert not M.key_less(M.BOTTOM, M.BOTTOM)

    def test_anti_inclusion(self):
        assert M.key_less(key("f", "g"), key("f"))
        assert not M.key_less(key("f"), key("f", "g"))
        assert not M.key_less(key("f"), key("g"))


class TestAssertDecrease:
    def test_every_single_step_of_id_id_decreases(self):
        # both available first steps: the outer redex first under outermost,
        # the inner one under innermost
        program = C.parse_program("let rec id(a) = a in id(id(int))")
        for strategy, path in ((C.Strategy.LEFTMOST_OUTERMOST, ()),
                               (C.Strategy.LEFTMOST_INNERMOST, (1,))):
            steps = []
            C.normalize(program, strategy, on_step=lambda *a: steps.append(a))
            before, after, info = steps[0]
            assert info.path == path
            assert M.assert_decrease(before, after)

    def test_equal_terms_do_not_decrease(self):
        t = node("f", trace=("f",))
        assert not M.assert_decrease(t, t)

    def test_every_step_decreases_on_generated_programs(self):
        for mode in (FO, HO):
            for program in O.gen_programs(17, O.GenParams(count=40, mode=mode)):
                def check(before, after, info, _m=mode):
                    assert M.assert_decrease(before, after, _m)

                C.normalize(program, on_step=check)
                C.normalize(program, C.Strategy.LEFTMOST_INNERMOST, on_step=check)


def test_render_is_sorted_and_stable():
    t = node("f", [node("g", trace=("x", "g")), Var("v")], ("x",))
    assert M.render_tree_measure(M.tree_measure(t)) == "{[bot {x}], [{g,x} {x}], [{x}]}"
