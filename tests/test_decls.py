import contextlib
import copy
import dataclasses
import hashlib
import io
import pickle
import time

import pytest

from shapecheck import calculus as C
from shapecheck import cli
from shapecheck import decls as D
from shapecheck import fixtures as F
from shapecheck import oracle as O
from shapecheck import shapes as S


# Each lazy-like level wraps the argument once more, so no level repeats.
GROWING_LAZY_DECL = """\
type ('a) box = B of 'a
type ('a) t = L of ((('a) box) t) lazy [@unboxed]
"""

# Three levels per lazy level: at the nesting bound the argument is about 300
# deep, deeper than a recursive hash or rebuild of it could go.
DEEP_GROWING_LAZY_DECL = """\
type ('a) box = B of 'a
type ('a) t = L of ((((('a) box) box) box) t) lazy [@unboxed]
type u = U of (int) t [@unboxed]
"""


def shape(imm, block):
    return S.HeadShape(S.TOP if imm == "top" else frozenset(imm),
                       S.TOP if block == "top" else frozenset(block))


class TestParse:
    def test_zarith_file(self):
        ds = D.parse_decls(F.ZARITH_DECL)
        assert [d.name for d in ds] == ["gmp", "zarith"]
        gmp, zarith = ds
        assert gmp.body == D.AbstractBody(shape((), {255}))
        ctors = zarith.body.ctors
        assert [(c.name, c.unboxed) for c in ctors] == [("Small", True), ("Big", True)]
        assert ctors[0].arg_types == (D.PrimApp("int"),)
        assert ctors[1].arg_types == (D.TyApp("gmp"),)

    def test_parametric_unboxed(self):
        (d,) = D.parse_decls("type ('a) id = Id of 'a [@unboxed]")
        assert d.params == ("a",)
        assert d.body.ctors[0] == D.Ctor("Id", (D.TVar("a"),), True, False, None)

    def test_double_of_is_a_syntax_error(self):
        with pytest.raises(D.DeclSyntaxError):
            D.parse_decls("type t = Foo of int of int")

    def test_duplicate_type_name(self):
        with pytest.raises(D.DuplicateTypeNameError):
            D.parse_decls("type t = A\ntype t = B")

    def test_duplicate_ctor(self):
        with pytest.raises(D.DuplicateCtorError):
            D.parse_decls("type t = A | A of int")

    def test_unbound_type_name(self):
        with pytest.raises(D.UnboundTypeNameError):
            D.parse_decls("type t = A of nonexistent")

    def test_type_arity_mismatch(self):
        with pytest.raises(D.ArityMismatchError):
            D.parse_decls("type ('a) id = 'a\ntype t = A of id")

    def test_unboxed_needs_exactly_one_argument(self):
        with pytest.raises(D.DeclSyntaxError):
            D.parse_decls("type t = A of int * int [@unboxed]")

    def test_unbound_type_variable(self):
        with pytest.raises(D.UnboundTypeNameError):
            D.parse_decls("type t = A of 'a")

    def test_inline_record_becomes_positional_fields(self):
        (d,) = D.parse_decls("type t = A of { x: int; y: string }")
        assert d.body.ctors[0].arg_types == (D.PrimApp("int"), D.PrimApp("string"))

    def test_empty_variant(self):
        (d,) = D.parse_decls("type empty = |")
        assert d.body == D.VariantBody(())

    def test_star_inside_parens_is_a_tuple(self):
        (d,) = D.parse_decls("type t = A of (int * string) [@unboxed]")
        assert d.body.ctors[0].arg_types == (
            D.PrimApp("tuple", (D.PrimApp("int"), D.PrimApp("string"))),
        )

    @pytest.mark.parametrize("text, message", [
        ("type t = int * int", "1:14: expected 'type', found '*'"),
        ("type t = A of { a: int * int }", "1:24: expected '}', found '*'"),
    ])
    def test_star_outside_parens_is_no_tuple(self, text, message):
        with pytest.raises(D.DeclSyntaxError) as e:
            D.parse_decls(text)
        assert str(e.value) == message

    def test_constructor_indices_skip_unboxed(self):
        (d,) = D.parse_decls(
            "type t = A | B of int [@unboxed] | C of int | D | E of string"
        )
        by_name = {c.name: c for c in d.body.ctors}
        assert (by_name["A"].constant, by_name["A"].index) == (True, 0)
        assert (by_name["D"].constant, by_name["D"].index) == (True, 1)
        assert (by_name["C"].constant, by_name["C"].index) == (False, 0)
        assert (by_name["E"].constant, by_name["E"].index) == (False, 1)
        assert by_name["B"].index is None

    @pytest.mark.parametrize("text, col", [
        ("type 'type t = A 'of int", 18),
        ("type g [@shape ('imm: 'top; 'block: {1})]", 17),
    ])
    def test_quoted_keywords_are_type_variables(self, text, col):
        with pytest.raises(D.DeclSyntaxError) as e:
            D.parse_decls(text)
        assert (e.value.line, e.value.col) == (1, col)

    def test_shape_attribute_errors_keep_their_position(self):
        with pytest.raises(D.DeclSyntaxError) as e:
            D.parse_decls("type a\ntype g [@shape (imm: top; block: {1, x})]")
        assert (e.value.line, e.value.col) == (2, 38)
        with pytest.raises(D.DeclSyntaxError, match="^2:39: block tags"):
            D.parse_decls("type a\ntype g [@shape (imm: top; block: {256})]")

    def test_multi_parameter_application(self):
        ds = D.parse_decls("type ('a, 'b) pair = P of 'a * 'b\n"
                           "type t = A of ((int, string) pair)")
        assert ds[1].body.ctors[0].arg_types == (
            D.TyApp("pair", (D.PrimApp("int"), D.PrimApp("string"))),
        )


def render_ctor(c):
    text = c.name
    if c.arg_types:
        text += " of " + " * ".join(D.render_type(a) for a in c.arg_types)
    return text + " [@unboxed]" if c.unboxed else text


def render_decls(ds):
    lines = []
    for d in ds:
        params = "(" + ", ".join(f"'{p}" for p in d.params) + ") " if d.params else ""
        head = f"type {params}{d.name}"
        if isinstance(d.body, D.AbstractBody):
            lines.append(f"{head} [@shape {S.render_shape(d.body.shape)}]")
        elif isinstance(d.body, D.AbbrevBody):
            lines.append(f"{head} = {D.render_type(d.body.body)}")
        else:
            lines.append(f"{head} = | " + " | ".join(render_ctor(c) for c in d.body.ctors))
    return "\n".join(lines) + "\n"


class TestRenderParse:
    def test_fixtures(self):
        for text in F.CHECK_CORPUS:
            ds = D.parse_decls(text)
            assert D.parse_decls(render_decls(ds)) == ds

    def test_generated(self):
        for ds in O.gen_decls(9, O.GenParams(count=150)):
            assert D.parse_decls(render_decls(ds)) == ds


class TestNormalizeType:
    def test_type_variable_is_its_own_normal_form(self):
        nf = D.normalize_type(D.TVar("a"), [])
        assert nf == D.SumNF((S.VarComponent("a"),))

    def test_handle_components(self):
        ds = D.parse_decls(F.HANDLE_DECL)
        nf = D.normalize_type(D.TyApp("handle"), ds)
        kinds = [type(c).__name__ for c in nf.components]
        assert kinds == ["PrimComponent", "PrimComponent", "CtorComponent"]
        assert nf.components[0].prim == "int"
        assert nf.components[1].prim == "string"
        opaque_ctor = nf.components[2]
        assert (opaque_ctor.name, opaque_ctor.constant, opaque_ctor.index) == ("Opaque", False, 0)

    def test_loop_cycles(self):
        ds = D.parse_decls(F.LOOP_DECL)
        out = D.normalize_type(D.TyApp("loop"), ds)
        assert isinstance(out, D.Cycle)
        assert out.name == "loop" and "loop" in out.trace

    def test_substitution_reaches_boxed_arguments(self):
        ds = D.parse_decls("type ('a) box2 = B of 'a\ntype t = U of ((int) box2) [@unboxed]")
        nf = D.normalize_type(D.TyApp("t"), ds)
        (comp,) = nf.components
        assert comp.arg_types == (D.PrimApp("int"),)
        assert comp.via == ("U",)

    def test_abbreviations_unfold_transparently(self):
        ds = D.parse_decls(F.NUM_ID_DECL)
        nf = D.normalize_type(D.TyApp("id"), ds)
        assert [c.prim for c in nf.components] == ["int", "string"]


def abbrev_chain(n):
    return D.parse_decls("type a0 = int\n" + "".join(
        f"type a{i} = a{i - 1}\n" for i in range(1, n)))


def swap_chain(n):
    return D.parse_decls("type ('a, 'b) c0 = A of 'a | B of 'b\n" + "".join(
        f"type ('a, 'b) c{i} = ('b, 'a) c{i - 1}\n" for i in range(1, n)))


class TestDeepChains:
    def test_plain_abbreviation_chain(self):
        ds = abbrev_chain(1500)
        top = D.TyApp("a1499")
        via = tuple(f"a{i}" for i in range(1499, -1, -1))
        assert D.normalize_type(top, ds) == D.SumNF((S.PrimComponent("int", (), via),))
        assert D.shape_of_type(top, ds) == shape("top", ())

    def test_two_parameter_chain(self):
        ds = swap_chain(1500)
        top = D.TyApp("c1499", (D.PrimApp("int"), D.PrimApp("string")))
        nf = D.normalize_type(top, ds)
        assert [(c.name, c.arg_types) for c in nf.components] == [
            ("A", (D.PrimApp("string"),)), ("B", (D.PrimApp("int"),))]
        assert all(len(c.via) == 1499 for c in nf.components)
        assert D.shape_of_type(top, ds) == shape((), {0, 1})


DEPTH = 10_000
BOX = "type 'a box = B of 'a\ntype u = U of "


class TestDeepTypes:
    """The type reader and resolver run on explicit stacks."""

    @pytest.mark.parametrize("arg", [
        "(" * DEPTH + "int box" + ") box" * DEPTH,
        "int" + " box" * (DEPTH + 1),
    ], ids=["parenthesized", "postfix"])
    def test_box_depth_ten_thousand(self, arg):
        ds = D.parse_decls(BOX + arg + " [@unboxed]\n")
        (ty,) = ds[1].body.ctors[0].arg_types
        depth = 0
        while isinstance(ty, D.TyApp) and ty.name == "box":
            (ty,), depth = ty.args, depth + 1
        assert (depth, ty) == (DEPTH + 1, D.PrimApp("int"))
        assert [type(r) for r in D.check_decls(ds)] == [D.Accepted, D.Accepted]

    @pytest.mark.parametrize("arg, error, message", [
        ("(" * DEPTH + "int box" + ") box" * (DEPTH - 1), D.DeclSyntaxError,
         f"2:{15 + DEPTH + 7 + 5 * (DEPTH - 1)}: expected ')', found 'end of input'"),
        ("(" * DEPTH + "int, int)" + ") box" * (DEPTH - 1), D.DeclSyntaxError,
         f"2:{15 + DEPTH + 9}: a parenthesized argument list must be followed by a type name"),
        ("intt" + " box" * DEPTH, D.UnboundTypeNameError, "2:15: unbound type name 'intt'"),
        ("(" * DEPTH + "(int, int) box" + ") box" * DEPTH, D.ArityMismatchError,
         f"2:{15 + DEPTH + 11}: type 'box' expects 1 argument(s), got 2"),
    ], ids=["unclosed", "list-without-name", "unbound", "arity"])
    def test_deep_malformed_types_keep_their_errors(self, arg, error, message):
        with pytest.raises(error) as caught:
            D.parse_decls(BOX + arg)
        assert str(caught.value) == message

    def test_lambda_encoding_at_depth_ten_thousand(self):
        # `box` is an encoding head, so the wrapper is named `bx`; `U` is boxed
        ds = D.parse_decls("type 'a bx = B of 'a\ntype u = U of int" + " bx" * DEPTH + "\n")
        program = D.translate_to_program(ds, root="u")
        assert C.render_term(program.defs[1].body) == "box(" + "bx(" * DEPTH + "int" + ")" * (DEPTH + 1)
        agreement = D.check_lambda_agreement(ds, "u")
        assert (agreement.agrees, agreement.detail) == (True, "1 component(s) match")

    def test_render_type_round_trips_at_depth_ten_thousand(self):
        ds = D.parse_decls(BOX + "int" + " box" * DEPTH + " [@unboxed]\n")
        text = render_decls(ds)
        assert text.endswith(" = | U of " + "(" * DEPTH + "int" + ") box" * DEPTH + " [@unboxed]\n")
        assert render_decls(D.parse_decls(text)) == text

    def test_deep_equal_types_and_programs_compare_and_hash(self):
        def parsed(leaf):
            # `box` is an encoding head, so the wrapper is named `bx`
            return D.parse_decls("type 'a bx = B of 'a\ntype u = U of " + leaf + " bx" * DEPTH)

        a, b, other = parsed("int"), parsed("int"), parsed("string")
        ty_a, ty_b, ty_other = (ds[1].body.ctors[0].arg_types[0] for ds in (a, b, other))
        assert ty_a is not ty_b
        assert ty_a == ty_b and not ty_a != ty_b and a == b
        assert hash(ty_a) == hash(ty_b) and hash(a[1]) == hash(b[1])
        assert ty_a != ty_other and not ty_a == ty_other and a != other
        pa, pb, po = (D.translate_to_program(ds, root="u") for ds in (a, b, other))
        assert pa == pb and not pa != pb
        assert hash(pa) == hash(pb)
        assert pa != po and not pa == po


class TestTypeNodes:
    @pytest.mark.parametrize("node, text", [
        (D.TVar("a"), "TVar(name='a')"),
        (D.TyApp("t"), "TyApp(name='t', args=())"),
        (D.PrimApp("int", (D.TVar("a"),)), "PrimApp(name='int', args=(TVar(name='a'),))"),
        (D._RawRef("t", (), 1, 2), "_RawRef(name='t', args=(), line=1, col=2)"),
        (S.HeadShape(S.TOP, {0}), "HeadShape(imm=top, block=frozenset({0}))"),
    ], ids=["TVar", "TyApp", "PrimApp", "_RawRef", "HeadShape"])
    def test_immutable_values(self, node, text):
        assert repr(node) == text
        assert copy.copy(node) == node == copy.deepcopy(node) == pickle.loads(pickle.dumps(node))
        assert hash(copy.deepcopy(node)) == hash(node)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.name = "b"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node.args

    def test_equality_needs_the_same_class(self):
        assert C.Var("x") != D.TVar("x") and not C.Var("x") == D.TVar("x")
        assert D.TyApp("int") != D.PrimApp("int")
        assert D.TyApp("t", (D.TVar("a"),)) == D.TyApp("t", (D.TVar("a"),))
        assert D.TyApp("t", (D.TVar("a"),)) != D.TyApp("t", (D.TyApp("a"),))

    def test_head_shapes_check_their_tags(self):
        assert S.HeadShape([1, 1], iter([0, 255])) == shape({1}, {0, 255})
        for tags in ([256], [-1, 3]):
            with pytest.raises(ValueError, match=r"block tags must lie in \[0, 255\]"):
                S.HeadShape(S.TOP, tags)


class TestShapeOfSnf:
    def ctx(self, ds):
        return S.default_prim_table(), lambda ty: D.shape_of_type(ty, ds)

    def test_zarith(self):
        ds = D.parse_decls(F.ZARITH_DECL)
        nf = D.normalize_type(D.TyApp("zarith"), ds)
        assert D.shape_of_snf(nf, *self.ctx(ds)) == shape("top", {255})

    def test_clash_witness(self):
        ds = D.parse_decls(F.CLASH_DECL)
        nf = D.normalize_type(D.TyApp("clash"), ds)
        w = D.shape_of_snf(nf, *self.ctx(ds))
        assert isinstance(w, S.ConflictWitness)
        assert w.side == "imm" and w.value is None

    def test_empty_sum(self):
        assert D.shape_of_snf(D.SumNF(()), *self.ctx([])) == S.EMPTY_SHAPE

    def test_cycle_in_a_lazy_like_argument_is_a_value(self):
        ds = D.parse_decls(F.LOOP_DECL + "type t = L of ((loop) lazy) [@unboxed]")
        nf = D.normalize_type(D.TyApp("t"), ds)
        assert D.shape_of_snf(nf, *self.ctx(ds)) == D.Cycle("loop", ("loop",))


class TestCheckDecls:
    def reports(self, text):
        ds = D.parse_decls(text)
        return ds, D.check_decls(ds)

    def test_zarith_accepted_with_ctor_shapes(self):
        _, (gmp, zarith) = self.reports(F.ZARITH_DECL)
        assert gmp == D.Accepted("gmp", shape((), {255}), ())
        assert zarith == D.Accepted(
            "zarith", shape("top", {255}),
            (("Small", shape("top", ())), ("Big", shape((), {255}))),
        )

    def test_clash_rejected(self):
        _, (report,) = self.reports(F.CLASH_DECL)
        assert isinstance(report, D.RejectedConflict)
        assert report.witness.side == "imm"

    def test_harmful_and_harmless_are_cycles(self):
        for text in (F.HARMFUL_DECL, F.HARMLESS_DECL):
            _, (report,) = self.reports(text)
            assert isinstance(report, D.RejectedCycle)

    def test_rope_accepted(self):
        _, (report,) = self.reports(F.ROPE_DECL)
        assert report.shape == shape((), {0, 252})
        assert report.unboxed_arg_shapes == (("Leaf", shape((), {252})),)

    def test_two_type_variables_conflict(self):
        _, (report,) = self.reports("type ('a, 'b) both = A of 'a [@unboxed] | B of 'b [@unboxed]")
        assert isinstance(report, D.RejectedConflict)

    def test_abstract_without_annotation_is_top(self):
        _, (report,) = self.reports("type t")
        assert report == D.Accepted("t", S.TOP_SHAPE, ())

    def test_recursion_hidden_behind_an_abstract_type_is_accepted(self):
        _, reports = self.reports("type ('a) foo\ntype weird = Loop of (weird) foo [@unboxed]")
        assert reports[1] == D.Accepted("weird", S.TOP_SHAPE, (("Loop", S.TOP_SHAPE),))

    def test_lazy_like_primitive_unions_its_argument(self):
        _, (report,) = self.reports("type t = L of ((int) lazy) [@unboxed] | Other of string")
        assert report.shape == shape("top", {0, 246, 250, 251})
        assert dict(report.unboxed_arg_shapes)["L"] == shape("top", {246, 250, 251})

    def test_lazy_like_self_recursion_falls_back_to_top(self):
        _, (report,) = self.reports("type w = W of ((w) lazy) [@unboxed]")
        assert report == D.Accepted("w", S.TOP_SHAPE, (("W", S.TOP_SHAPE),))

    def test_lazy_like_cycle_rejects_the_declaration(self):
        _, reports = self.reports(F.LOOP_DECL + "type t = L of ((loop) lazy) [@unboxed]")
        assert reports[2] == D.RejectedCycle("t", "loop", ("loop",), ("loop", "loop"))

    def test_growing_lazy_like_argument_is_an_input_error(self):
        with pytest.raises(D.LazyNestingError):
            self.reports(GROWING_LAZY_DECL)

    def test_lazy_like_nesting_is_bounded(self):
        def chain(n):
            return "type l0 = int\n" + "".join(
                f"type l{i} = L of ((l{i - 1}) lazy) [@unboxed]\n" for i in range(1, n))
        _, reports = self.reports(chain(60))
        assert all(isinstance(r, D.Accepted) for r in reports)
        with pytest.raises(D.LazyNestingError):
            self.reports(chain(150))

    def test_deeply_growing_lazy_like_argument_is_an_input_error(self):
        with pytest.raises(D.LazyNestingError):
            self.reports(DEEP_GROWING_LAZY_DECL)

    def test_abbreviations_get_their_body_shape(self):
        _, (report,) = self.reports("type num = int")
        assert report == D.Accepted("num", shape("top", ()), ())

    def test_recorded_unboxed_shapes_match_shape_of_type(self):
        files = [D.parse_decls(text) for text in F.CHECK_CORPUS]
        files += O.gen_decls(9, O.GenParams(count=150))
        checked = 0
        for ds in files:
            for d, report in zip(ds, D.check_decls(ds)):
                if not isinstance(report, D.Accepted) or not isinstance(d.body, D.VariantBody):
                    continue
                args = {c.name: c.arg_types[0] for c in d.body.ctors if c.unboxed}
                for ctor, recorded in report.unboxed_arg_shapes:
                    assert recorded == D.shape_of_type(args[ctor], ds), f"{d.name}.{ctor}"
                    checked += 1
        assert checked > 50

    def test_reports_are_deterministic(self):
        a = D.check_decls(D.parse_decls(F.ZARITH_DECL))
        b = D.check_decls(D.parse_decls(F.ZARITH_DECL))
        assert a == b


def sum_blowup(n):
    """t0 = A0 | B0 of int; ti has two unboxed constructors of t{i-1}, so
    its unfolding has 2^(i+1) components and its first conflict is the
    third."""
    return "type t0 = A0 | B0 of int\n" + "".join(
        f"type t{i} = L{i} of t{i - 1} [@unboxed] | R{i} of t{i - 1} [@unboxed]\n"
        for i in range(1, n + 1))


def abbrev_chain_text(n):
    return "type a0 = int\n" + "".join(f"type a{i} = a{i - 1}\n" for i in range(1, n + 1)) + (
        f"type u = U of a{n} [@unboxed] | V of string [@unboxed]\n")


def two_tower(base, n):
    """u = U of base two...two, n times: 2^n components of `base`, in an
    unfolding of 2^(n+1) + 1 steps."""
    return ("type 'a two = L of 'a [@unboxed] | R of 'a [@unboxed]\n"
            f"type u = U of {base}" + " two" * n + " [@unboxed]\n")


def timed_check(text):
    ds = D.parse_decls(text)
    start = time.perf_counter()
    reports = D.check_decls(ds)
    return reports, time.perf_counter() - start


class TestSharedUnfolding:
    def test_cycle_takes_precedence_over_an_earlier_conflict(self):
        # A and the int under B overlap before the unfolding meets t again
        ds = D.parse_decls("type t = A | B of int [@unboxed] | C of t [@unboxed]")
        assert D.check_decls(ds) == [D.RejectedCycle("t", "t", ("t",), ("t", "t"))]

    def test_cycle_takes_precedence_over_an_unknown_primitive(self):
        table = {**S.default_prim_table(), "foo": S.PrimEntry(S.TOP_SHAPE)}
        ds = D.parse_decls("type t = X of foo [@unboxed] | Y of t [@unboxed]", table)
        assert D.shape_of_type(D.TyApp("t"), ds) == D.Cycle("t", ("t",))
        with pytest.raises(S.UnknownPrimitiveError):
            D.shape_of_type(D.TyApp("foo_t"), ds + D.parse_decls("type foo_t = F of foo [@unboxed]", table))

    def test_reports_do_not_depend_on_what_was_checked_before(self):
        files = [D.parse_decls(text) for text in F.CHECK_CORPUS]
        files += O.gen_decls(3, O.GenParams(count=300))
        files.append(D.parse_decls(sum_blowup(6)))
        files.append(D.parse_decls("type a = A of b [@unboxed] | X\n"
                                   "type b = B of a [@unboxed] | C of c [@unboxed]\n"
                                   "type c = K of int [@unboxed]\ntype d = D of b [@unboxed]"))
        for ds in files:
            reports = D.check_decls(ds)
            for i in range(len(ds)):
                assert D.check_decls(ds[i:] + ds[:i])[0] == reports[i]

    def test_sum_blowup_stops_at_the_first_conflict(self):
        reports, seconds = timed_check(sum_blowup(30))
        assert isinstance(reports[0], D.Accepted)
        assert all(isinstance(r, D.RejectedConflict) for r in reports[1:])
        assert reports[30].witness == S.ConflictWitness(
            "imm", 0, "constructor A0 (via " + " -> ".join(f"L{i}" for i in range(30, 0, -1)) + ")",
            "constructor A0 (via " + " -> ".join([f"L{i}" for i in range(30, 1, -1)] + ["R1"]) + ")")
        assert seconds < 2.0  # about 6 ms on a 2-core host

    def test_empty_shape_components_are_unioned_in_linear_time(self):
        # 4,096 components that never overlap: each is tested once against the union
        reports, seconds = timed_check("type e [@shape (imm: {}; block: {})]\n" + two_tower("e", 12))
        assert reports[2] == D.Accepted("u", S.EMPTY_SHAPE, (("U", S.EMPTY_SHAPE),))
        assert seconds < 2.0  # about 0.15 s on a 2-core host

    def test_unfold_limit_counts_every_step(self, monkeypatch):
        ds = D.parse_decls(two_tower("int", 3))  # 2^4 + 1 steps for u
        monkeypatch.setattr(D, "_UNFOLD_LIMIT", 17)
        assert isinstance(D.check_decls(ds)[1], D.RejectedConflict)
        monkeypatch.setattr(D, "_UNFOLD_LIMIT", 16)
        with pytest.raises(D.UnfoldBudgetError, match="^more than 16 unfolding steps$"):
            D.check_decls(ds)
        chain = swap_chain(1500)  # one step per link
        top = D.TyApp("c1499", (D.PrimApp("int"), D.PrimApp("string")))
        monkeypatch.setattr(D, "_UNFOLD_LIMIT", 1500)
        assert isinstance(D.normalize_type(top, chain), D.SumNF)
        monkeypatch.setattr(D, "_UNFOLD_LIMIT", 1499)
        with pytest.raises(D.UnfoldBudgetError):
            D.normalize_type(top, chain)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_abbreviation_chain_unfolds_each_link_once(self, reverse):
        lines = abbrev_chain_text(1500).splitlines(keepends=True)
        reports, seconds = timed_check("".join(reversed(lines) if reverse else lines))
        assert len(reports) == 1502
        assert all(isinstance(r, D.Accepted) for r in reports)
        assert seconds < 5.0  # about 45 ms on a 2-core host

    def test_check_json_output_is_pinned(self, tmp_path, monkeypatch):
        # SHA-1 of `check --json` over these files, recorded before the
        # unfolding was shared across declarations and streamed
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha1()
        for seed in range(5):
            names = []
            for i, ds in enumerate(O.gen_decls(seed, O.GenParams(count=1000))):
                name = f"s{seed}-{i}.decl"
                (tmp_path / name).write_text(render_decls(ds))
                names.append(name)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["check", "--json", *names]) == 1
            digest.update(out.getvalue().encode())
        assert digest.hexdigest() == "809537c0581375c81e1fe31e7590f43638c7e498"

    def test_normalize_type_output_is_pinned(self):
        # SHA-1 of the normal form of every self-application, `via`s included,
        # recorded before the unfolding was split into a cycle and a component walk
        digest = hashlib.sha1()
        files = [D.parse_decls(text) for text in F.CHECK_CORPUS]
        for seed in range(5):
            files += O.gen_decls(seed, O.GenParams(count=1000))
        for ds in files:
            for d in ds:
                digest.update(repr(D.normalize_type(D.self_application(d), ds)).encode() + b"\n")
        assert digest.hexdigest() == "2d453a1090e1fba06a32de17794922cd54a23714"


class TestMatchPlan:
    def test_zarith_dispatch(self):
        ds = D.parse_decls(F.ZARITH_DECL)
        report = D.check_decls(ds)[1]
        zarith = ds[1]
        assert D.match_plan(zarith, "Small", report) == shape("top", ())
        assert D.match_plan(zarith, "Big", report) == shape((), {255})

    def test_boxed_constructor_is_a_singleton_head(self):
        ds = D.parse_decls(F.OPTION_DECL)
        (report,) = D.check_decls(ds)
        assert D.match_plan(ds[0], "Some2", report) == shape((), {0})
        assert D.match_plan(ds[0], "None2", report) == shape({0}, ())

    def test_unknown_ctor(self):
        ds = D.parse_decls(F.OPTION_DECL)
        (report,) = D.check_decls(ds)
        with pytest.raises(D.UnknownCtorError):
            D.match_plan(ds[0], "Nope", report)

    def test_not_accepted(self):
        ds = D.parse_decls(F.CLASH_DECL)
        (report,) = D.check_decls(ds)
        with pytest.raises(D.DeclNotAcceptedError):
            D.match_plan(ds[0], "Int", report)

    def test_accepted_plans_are_pairwise_disjoint(self):
        for text in F.CHECK_CORPUS:
            ds = D.parse_decls(text)
            for d, report in zip(ds, D.check_decls(ds)):
                if not isinstance(report, D.Accepted) or not isinstance(d.body, D.VariantBody):
                    continue
                plans = [D.match_plan(d, c.name, report) for c in d.body.ctors]
                for i in range(len(plans)):
                    for j in range(i + 1, len(plans)):
                        assert isinstance(
                            S.shape_disjoint_union(plans[i], plans[j]), S.HeadShape
                        ), f"{d.name} plans overlap"


class TestTranslate:
    def test_handle_trio_matches_the_reference_encoding(self):
        ds = D.parse_decls(F.HANDLE_DECL)
        program = D.translate_to_program(ds, root="handle")
        assert C.render_program(program) == (
            "let rec id(a) = a\n"
            "and name() = string\n"
            "and handle() = sum(id(int), sum(name, box(string)))\n"
            "in handle\n"
        )

    def test_type_arguments_keep_their_order(self):
        ds = D.parse_decls("type ('a, 'b) pair = P of 'a * 'b\ntype ('a, 'b) swap = ('b, 'a) pair\n"
                           "type u = U of ((int, string) pair, bool) swap\n")
        assert C.render_program(D.translate_to_program(ds, root="u")) == (
            "let rec pair(a, b) = box(a, b)\n"
            "and swap(a, b) = pair(b, a)\n"
            "and u() = box(swap(pair(int, string), bool))\n"
            "in u\n"
        )
        (comp,) = D.normalize_type(D.self_application(ds[2]), ds).components
        assert C.render_term(D._encode_component(comp)) == "box(swap(pair(int, string), bool))"

    def test_empty_variant_is_an_empty_sum(self):
        (d,) = D.parse_decls("type empty = |")
        program = D.translate_to_program([d])
        assert program.defs[0].body == C.App(C.Var("empty_sum"), ())

    def test_loop_translation_diverges(self):
        ds = D.parse_decls(F.LOOP_DECL)
        program = D.translate_to_program(ds, root="loop")
        out = C.normalize(program, frozen=D.opaque_heads(ds))
        assert isinstance(out, C.Diverges)

    def test_reserved_head_collision_rejected(self):
        with pytest.raises(ValueError):
            D.translate_to_program(D.parse_decls("type sum = A"))


class TestLambdaAgreement:
    def test_fixture_corpus_agrees(self):
        for text in F.CHECK_CORPUS:
            ds = D.parse_decls(text)
            for d in ds:
                r = D.check_lambda_agreement(ds, d.name)
                assert r.agrees, f"{d.name}: {r.detail}"

    def test_generated_corpus_agrees(self):
        result = O.run_decl_agreement_suite(123, 60)
        assert result.ok, result.failures[:3]
