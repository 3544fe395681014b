import random

import pytest
from hypothesis import given, strategies as st

from shapecheck import shapes as S


def sub(values):
    return frozenset(values)


def shape(imm, block):
    return S.HeadShape(S.TOP if imm == "top" else sub(imm),
                       S.TOP if block == "top" else sub(block))


sub_shapes = st.one_of(
    st.just(S.TOP),
    st.frozensets(st.integers(0, 255), max_size=4),
)
head_shapes = st.builds(S.HeadShape, sub_shapes, sub_shapes)


class TestUnion:
    def test_option_like(self):
        assert S.shape_union(shape({0}, ()), shape((), {0})) == shape({0}, {0})

    def test_empty_is_identity(self):
        h = shape({1, 3}, {5})
        assert S.shape_union(h, S.EMPTY_SHAPE) == h

    def test_top_absorbs(self):
        assert S.shape_union(shape("top", ()), shape({1}, {3})) == shape("top", {3})

    @given(head_shapes, head_shapes)
    def test_commutative(self, a, b):
        assert S.shape_union(a, b) == S.shape_union(b, a)

    @given(head_shapes, head_shapes, head_shapes)
    def test_associative(self, a, b, c):
        assert S.shape_union(S.shape_union(a, b), c) == S.shape_union(a, S.shape_union(b, c))

    @given(head_shapes)
    def test_idempotent(self, a):
        assert S.shape_union(a, a) == a


class TestDisjointUnion:
    def test_immediates_disjoint_from_custom_blocks(self):
        assert S.shape_disjoint_union(shape("top", ()), shape((), {255})) == shape("top", {255})

    def test_top_conflicts_with_top(self):
        w = S.shape_disjoint_union(shape("top", ()), shape("top", ()))
        assert w == S.ConflictWitness("imm", None, "left", "right")

    def test_disjoint_finite_sets(self):
        assert S.shape_disjoint_union(shape({0}, ()), shape({1}, ())) == shape({0, 1}, ())

    def test_witness_names_a_shared_value(self):
        w = S.shape_disjoint_union(shape({3, 7}, ()), shape({7, 9}, ()), "a", "b")
        assert w == S.ConflictWitness("imm", 7, "a", "b")

    def test_block_side_checked_after_imm(self):
        w = S.shape_disjoint_union(shape((), {2}), shape((), {2}))
        assert isinstance(w, S.ConflictWitness) and w.side == "block" and w.value == 2


class TestMembership:
    def test_any_immediate_in_top(self):
        assert S.shape_mem(S.Imm(5), shape("top", ()))

    def test_block_not_in_imm_side(self):
        assert not S.shape_mem(S.Block(0), shape({0}, ()))

    def test_custom_tag(self):
        assert S.shape_mem(S.Block(255), shape((), {255}))


UNIVERSE = [S.Imm(n) for n in range(-4, 261)] + [S.Block(n) for n in range(-4, 261)]


class TestSemantics:
    def test_union_and_disjointness_match_membership(self):
        rng = random.Random(7)
        for i in range(300):
            a, b = O_random_shape(rng), O_random_shape(rng)
            union = S.shape_union(a, b)
            overlap = None
            for h in UNIVERSE:
                assert S.shape_mem(h, union) == (S.shape_mem(h, a) or S.shape_mem(h, b))
                if overlap is None and S.shape_mem(h, a) and S.shape_mem(h, b):
                    overlap = h
            dj = S.shape_disjoint_union(a, b)
            assert isinstance(dj, S.ConflictWitness) == (overlap is not None)
            if not isinstance(dj, S.ConflictWitness):
                assert dj == union

    def test_every_witness_is_in_both_operands(self):
        rng = random.Random(8)
        for i in range(500):
            a, b = O_random_shape(rng), O_random_shape(rng)
            w = S.shape_disjoint_union(a, b)
            if isinstance(w, S.ConflictWitness):
                if w.value is None:
                    side_a = getattr(a, w.side)
                    side_b = getattr(b, w.side)
                    assert side_a is S.TOP and side_b is S.TOP
                else:
                    h = S.Imm(w.value) if w.side == "imm" else S.Block(w.value)
                    assert S.shape_mem(h, a) and S.shape_mem(h, b)


def O_random_shape(rng):
    from shapecheck.oracle import _random_shape

    return _random_shape(rng)


class TestComponentShape:
    def test_type_variable_is_top(self):
        ctx = S.ShapeContext(S.default_prim_table())
        assert S.component_shape(S.VarComponent("a"), ctx) == S.TOP_SHAPE

    def test_constructor_indices(self):
        ctx = S.ShapeContext({})
        none_like = S.CtorComponent("None2", (), "option2", True, 0)
        some_like = S.CtorComponent("Some2", ("arg",), "option2", False, 0)
        assert S.component_shape(none_like, ctx) == shape({0}, ())
        assert S.component_shape(some_like, ctx) == shape((), {0})

    def test_bool_primitive(self):
        ctx = S.ShapeContext(S.default_prim_table())
        assert S.component_shape(S.PrimComponent("bool"), ctx) == shape({0, 1}, ())

    def test_unknown_primitive(self):
        with pytest.raises(S.UnknownPrimitiveError):
            S.component_shape(S.PrimComponent("nosuch"), S.ShapeContext({}))

    def test_lazy_like_unions_argument_shape(self):
        table = S.default_prim_table()
        ctx = S.ShapeContext(table, type_shape=lambda ty: shape({0, 1}, ()))
        got = S.component_shape(S.PrimComponent("lazy", ("somearg",)), ctx)
        assert got == shape({0, 1}, {246, 250, 251})

    def test_lazy_like_passes_a_non_shape_argument_result_through(self):
        w = S.ConflictWitness("imm", None, "left", "right")
        ctx = S.ShapeContext(S.default_prim_table(), type_shape=lambda ty: w)
        assert S.component_shape(S.PrimComponent("lazy", ("somearg",)), ctx) is w

    def test_lazy_like_requires_resolver(self):
        with pytest.raises(ValueError):
            S.component_shape(S.PrimComponent("lazy", ("somearg",)),
                              S.ShapeContext(S.default_prim_table()))


class TestRendering:
    def test_canonical_sorted(self):
        assert S.render_shape(shape({3, 1}, "top")) == "(imm: {1,3}; block: top)"

    def test_parse_roundtrip(self):
        for text in ["(imm: top; block: {})", "(imm: {0,1}; block: {0,254})",
                     "(imm: {}; block: top)"]:
            assert S.render_shape(S.parse_shape(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            S.parse_shape("(imm: top)")

    @given(head_shapes)
    def test_render_parse_roundtrip(self, s):
        assert S.parse_shape(S.render_shape(s)) == s

    @pytest.mark.parametrize("text, col", [
        ("(block: top; imm: {})", 2),   # `imm` comes first
        ("(imm: {+1}; block: {})", 8),
        ("(imm: {1_0}; block: {})", 9),
        ("(imm: top; block: {}) # c", 23),
    ])
    def test_parse_errors_are_located_value_errors(self, text, col):
        with pytest.raises(S.ShapeSyntaxError) as e:
            S.parse_shape(text)
        assert isinstance(e.value, ValueError)
        assert (e.value.line, e.value.col) == (1, col)

    def test_comma_may_separate_the_sides(self):
        assert S.parse_shape("(imm: top, block: {0})") == shape("top", {0})

    def test_block_tags_bounded(self):
        with pytest.raises(ValueError):
            S.HeadShape(frozenset(), frozenset({256}))


class TestPrimTable:
    def test_defaults(self):
        t = S.default_prim_table()
        assert t["int"].shape == shape("top", ())
        assert t["bool"].shape == shape({0, 1}, ())
        assert t["custom"].shape == shape((), {255})
        assert t["func"].shape == shape((), {247, 249})
        assert t["array"].shape == shape((), {0, 254})
        assert t["lazy"].lazylike and not t["int"].lazylike

    def test_parse_table(self):
        table = S.parse_prim_table("# comment\nword = (imm: top; block: {})\n"
                                   "weird = (imm: {}; block: {9}) lazylike\n")
        assert table["word"] == S.PrimEntry(shape("top", ()), False)
        assert table["weird"] == S.PrimEntry(shape((), {9}), True)

    def test_parse_table_rejects_missing_equals(self):
        with pytest.raises(ValueError):
            S.parse_prim_table("word (imm: top; block: {})")

    def test_parse_table_names_the_line_of_a_bad_shape(self):
        with pytest.raises(ValueError, match="^line 2: expected 'imm', found 'block'$"):
            S.parse_prim_table("a = (imm: top; block: {})\nb = (block: {}; imm: top)")
