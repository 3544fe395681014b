"""Datatype declarations: parsing, normalization, and the unboxing check.

A declaration file is checked by unfolding each type into a formal sum of
components (boxed constructors, type parameters, primitive and abstract
applications). Unfolding is monitored with per-subterm traces exactly like
term reduction, so recursive definitions that would unfold forever are
rejected with a cycle report instead of looping. Accepted declarations get
a head shape plus, per unboxed constructor, the shape used to dispatch on
its argument during matching.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import calculus, syntax
from .calculus import App, Mode, Program, Definition, Term, Var
from .shapes import (
    EMPTY_SHAPE,
    TOP_SHAPE,
    Component,
    ConflictWitness,
    CtorComponent,
    HeadShape,
    OpaqueComponent,
    PrimComponent,
    PrimTable,
    ShapeContext,
    VarComponent,
    component_shape,
    default_prim_table,
    describe_component,
    read_shape,
    shape_disjoint_union,
    shape_union,
)


class DeclError(syntax.SourceError):
    pass


class DeclSyntaxError(DeclError):
    pass


class DuplicateTypeNameError(DeclError):
    pass


class DuplicateCtorError(DeclError):
    pass


class UnboundTypeNameError(DeclError):
    pass


class ArityMismatchError(DeclError):
    pass


class UnknownCtorError(DeclError):
    pass


class DeclNotAcceptedError(DeclError):
    pass


# ---------------------------------------------------------------------------
# Type expressions and declarations


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TyApp:
    name: str
    args: tuple["TypeExpr", ...] = ()


@dataclass(frozen=True)
class PrimApp:
    name: str
    args: tuple["TypeExpr", ...] = ()


TypeExpr = TVar | TyApp | PrimApp


@dataclass(frozen=True)
class Ctor:
    name: str
    arg_types: tuple[TypeExpr, ...]
    unboxed: bool
    constant: bool
    index: int | None  # position among the boxed constant/non-constant ctors


@dataclass(frozen=True)
class VariantBody:
    ctors: tuple[Ctor, ...]


@dataclass(frozen=True)
class AbbrevBody:
    body: TypeExpr


@dataclass(frozen=True)
class AbstractBody:
    shape: HeadShape = TOP_SHAPE


DeclBody = VariantBody | AbbrevBody | AbstractBody


@dataclass(frozen=True)
class Decl:
    name: str
    params: tuple[str, ...]
    body: DeclBody


def make_variant(specs) -> VariantBody:
    """Build a variant body from (name, field_types, unboxed) triples,
    assigning constant and non-constant indices over the boxed
    constructors in source order."""
    ctors: list[Ctor] = []
    n_const = n_block = 0
    for name, fields, unboxed in specs:
        fields = tuple(fields)
        if unboxed:
            if len(fields) != 1:
                raise DeclSyntaxError(f"unboxed constructor {name!r} must take exactly one argument")
            ctors.append(Ctor(name, fields, True, False, None))
        elif not fields:
            ctors.append(Ctor(name, (), False, True, n_const))
            n_const += 1
        else:
            ctors.append(Ctor(name, fields, False, False, n_block))
            n_block += 1
    return VariantBody(tuple(ctors))


def render_type(ty: TypeExpr) -> str:
    if isinstance(ty, TVar):
        return f"'{ty.name}"
    if not ty.args:
        return ty.name
    if len(ty.args) == 1:
        return f"({render_type(ty.args[0])}) {ty.name}"
    return f"({', '.join(render_type(a) for a in ty.args)}) {ty.name}"


# ---------------------------------------------------------------------------
# Parsing


@dataclass(frozen=True)
class _RawRef:
    name: str
    args: tuple
    line: int
    col: int


_SCAN = syntax.scanner(
    (syntax.SKIP, r"#.*"),
    ("attr", r"\[@"),
    ("tyvar", r"'[a-z_][a-zA-Z0-9_]*"),  # the quote stays in the text
    ("punct", r"[(){}|=*;:,\]]"),
    ("lident", r"[a-z_][a-zA-Z0-9_]*"),
    ("uident", r"[A-Z][a-zA-Z0-9_]*"),
    ("int", r"[0-9]+"),
)


class _DeclParser(syntax.Cursor):
    error = DeclSyntaxError

    def attrs(self) -> dict:
        out: dict = {}
        while self.peek().kind == "attr":
            self.next()
            name = self.expect_kind("lident", "an attribute name")
            if name.text == "unboxed":
                out["unboxed"] = True
            elif name.text == "shape":
                out["shape"] = read_shape(self)
            else:
                raise self.fail(f"unknown attribute {name.text!r}", name)
            self.expect("]")
        return out

    # -- type expressions

    def type_atom(self):
        t = self.peek()
        if t.kind == "tyvar":
            self.next()
            return TVar(t.text[1:]), None
        if t.kind == "lident":
            self.next()
            return _RawRef(t.text, (), t.line, t.col), None
        if t.text == "(":
            self.next()
            first = self.type_expr(allow_star=True)
            if self.peek().text == ",":
                items = [first]
                while self.peek().text == ",":
                    self.next()
                    items.append(self.type_expr(allow_star=True))
                self.expect(")")
                return None, tuple(items)
            self.expect(")")
            return first, None
        raise self.fail(f"expected a type, found {t.text or 'end of input'!r}", t)

    def type_expr(self, allow_star: bool = False) -> TypeExpr:
        node, pending = self.type_atom()
        if pending is not None:
            t = self.peek()
            if t.kind != "lident" or t.text in ("of", "type"):
                raise self.fail("a parenthesized argument list must be followed by a type name", t)
            self.next()
            node = _RawRef(t.text, pending, t.line, t.col)
        while self.peek().kind == "lident" and self.peek().text not in ("of", "type"):
            t = self.next()
            node = _RawRef(t.text, (node,), t.line, t.col)
        if allow_star and self.peek().text == "*":
            parts = [node]
            start = self.peek()
            while self.peek().text == "*":
                self.next()
                parts.append(self.type_expr(allow_star=False))
            node = _RawRef("tuple", tuple(parts), start.line, start.col)
        return node

    # -- constructors and declarations

    def record_fields(self) -> tuple:
        self.expect("{")
        fields = []
        while True:
            self.expect_kind("lident", "a field name")
            self.expect(":")
            fields.append(self.type_expr(allow_star=False))
            if self.peek().text == ";":
                self.next()
                if self.peek().text == "}":
                    break
                continue
            break
        self.expect("}")
        return tuple(fields)

    def ctor(self):
        t = self.expect_kind("uident", "a constructor name")
        fields: tuple = ()
        if self.peek().text == "of":
            self.next()
            if self.peek().text == "{":
                fields = self.record_fields()
            else:
                parts = [self.type_expr(allow_star=False)]
                while self.peek().text == "*":
                    self.next()
                    parts.append(self.type_expr(allow_star=False))
                fields = tuple(parts)
        attrs = self.attrs()
        unboxed = attrs.pop("unboxed", False)
        if attrs:
            raise self.fail(f"unexpected attribute on constructor {t.text!r}", t)
        if unboxed and len(fields) != 1:
            raise self.fail(f"unboxed constructor {t.text!r} must take exactly one argument", t)
        return t.text, fields, unboxed, t

    def declaration(self):
        self.expect("type")
        params: list[str] = []
        t = self.peek()
        if t.kind == "tyvar":
            self.next()
            params.append(t.text[1:])
        elif t.text == "(" and self.peek(1).kind == "tyvar":
            self.next()
            while True:
                tv = self.next()
                if tv.kind != "tyvar":
                    raise self.fail("expected a type variable", tv)
                params.append(tv.text[1:])
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect(")")
        name = self.expect_kind("lident", "a type name")
        attrs = self.attrs()
        shape = attrs.pop("shape", None)
        if attrs:
            raise self.fail(f"unexpected attribute on type {name.text!r}", name)
        if len(set(params)) != len(params):
            raise self.fail(f"duplicate type parameter on {name.text!r}", name)
        if self.peek().text != "=":
            return Decl(name.text, tuple(params), AbstractBody(shape or TOP_SHAPE)), name
        self.next()
        if shape is not None:
            raise self.fail("[@shape ...] is only allowed on abstract types", name)
        t = self.peek()
        if t.text == "|" or t.kind == "uident":
            raw_ctors = []
            if t.text == "|":
                self.next()
            if self.peek().kind == "uident":
                raw_ctors.append(self.ctor())
                while self.peek().text == "|":
                    self.next()
                    raw_ctors.append(self.ctor())
            return Decl(name.text, tuple(params), _RawVariant(tuple(raw_ctors))), name
        body = self.type_expr(allow_star=False)
        return Decl(name.text, tuple(params), AbbrevBody(body)), name


@dataclass(frozen=True)
class _RawVariant:
    ctors: tuple  # (name, fields, unboxed, token) before index assignment


def _resolve_type(ty, env: Mapping[str, Decl], prims: PrimTable, params: set[str]):
    if isinstance(ty, TVar):
        if ty.name not in params:
            raise UnboundTypeNameError(f"unbound type variable '{ty.name}")
        return ty
    if isinstance(ty, _RawRef):
        args = tuple(_resolve_type(a, env, prims, params) for a in ty.args)
        if ty.name in env:
            want = len(env[ty.name].params)
            if len(args) != want:
                raise ArityMismatchError(
                    f"type {ty.name!r} expects {want} argument(s), got {len(args)}",
                    ty.line,
                    ty.col,
                )
            return TyApp(ty.name, args)
        if ty.name in prims:
            return PrimApp(ty.name, args)
        raise UnboundTypeNameError(f"unbound type name {ty.name!r}", ty.line, ty.col)
    return ty


def parse_decls(text: str, prims: PrimTable | None = None) -> list[Decl]:
    """Parse a declaration file; mutual recursion is permitted file-wide."""
    if prims is None:
        prims = default_prim_table()
    p = _DeclParser(syntax.lex(text, _SCAN, DeclSyntaxError))
    raw: list[tuple[Decl, syntax.Tok]] = []
    while p.peek().kind != "eof":
        raw.append(p.declaration())
    env: dict[str, Decl] = {}
    for d, tok in raw:
        if d.name in env:
            raise DuplicateTypeNameError(f"duplicate type name {d.name!r}", tok.line, tok.col)
        env[d.name] = d
    out: list[Decl] = []
    for d, _tok in raw:
        params = set(d.params)
        body: DeclBody
        if isinstance(d.body, _RawVariant):
            seen: set[str] = set()
            specs = []
            for cname, fields, unboxed, ctok in d.body.ctors:
                if cname in seen:
                    raise DuplicateCtorError(
                        f"duplicate constructor {cname!r} in type {d.name!r}", ctok.line, ctok.col
                    )
                seen.add(cname)
                rfields = tuple(_resolve_type(f, env, prims, params) for f in fields)
                specs.append((cname, rfields, unboxed))
            body = make_variant(specs)
        elif isinstance(d.body, AbbrevBody):
            body = AbbrevBody(_resolve_type(d.body.body, env, prims, params))
        else:
            body = d.body
        resolved = Decl(d.name, d.params, body)
        env[d.name] = resolved
        out.append(resolved)
    return out


# ---------------------------------------------------------------------------
# Sum normal forms with monitored unfolding


@dataclass(frozen=True)
class SumNF:
    components: tuple[Component, ...]


@dataclass(frozen=True)
class Cycle:
    name: str
    trace: tuple[str, ...]

    @property
    def path(self) -> tuple[str, ...]:
        return self.trace + (self.name,)


# Shapes of lazy-like arguments are resolved one nesting level per call;
# an argument that grows at every level never repeats, so the nesting is
# bounded instead.
_LAZY_NESTING_LIMIT = 100


class LazyNestingError(DeclError):
    pass


def _subst_type(ty: TypeExpr, sub: Mapping[str, TypeExpr]) -> TypeExpr:
    if isinstance(ty, TVar):
        return sub.get(ty.name, ty)
    args = tuple(_subst_type(a, sub) for a in ty.args)
    return type(ty)(ty.name, args)


# A closure is a type expression as written in some body, the closures bound
# to that body's parameters, and the trace of the unfoldings that wrote it:
# `(type, bindings, trace)`. A bound parameter stands for its argument's own
# closure, trace included.


def _plain(ty: TypeExpr, bind: Mapping) -> TypeExpr:
    """The plain type expression a closure denotes."""
    while isinstance(ty, TVar) and ty.name in bind:
        ty, bind, _trace = bind[ty.name]
    if isinstance(ty, TVar):
        return ty
    return type(ty)(ty.name, tuple(_plain(a, bind) for a in ty.args))


def _unfold(ty: TypeExpr, env: Mapping[str, Decl]) -> SumNF | Cycle:
    """Monitored unfolding, depth first, on an explicit stack of closures
    (with the `via` path that reached them) and finished components."""
    out: list[Component] = []
    stack: list = [(ty, {}, (), ())]
    while stack:
        item = stack.pop()
        if not isinstance(item, tuple):
            out.append(item)
            continue
        ty, bind, trace, via = item
        while isinstance(ty, TVar) and ty.name in bind:
            ty, bind, trace = bind[ty.name]
        if isinstance(ty, TVar):
            out.append(VarComponent(ty.name, via))
            continue
        if isinstance(ty, PrimApp):
            out.append(PrimComponent(ty.name, tuple(_plain(a, bind) for a in ty.args), via))
            continue
        decl = env[ty.name]
        if isinstance(decl.body, AbstractBody):
            args = tuple(_plain(a, bind) for a in ty.args)
            out.append(OpaqueComponent(ty.name, args, decl.body.shape, via))
            continue
        if ty.name in trace:
            return Cycle(ty.name, trace)
        sub = {p: (a, bind, trace) for p, a in zip(decl.params, ty.args)}
        deeper = trace + (ty.name,)
        if isinstance(decl.body, AbbrevBody):
            stack.append((decl.body.body, sub, deeper, via + (ty.name,)))
            continue
        for c in reversed(decl.body.ctors):
            if c.unboxed:
                stack.append((c.arg_types[0], sub, deeper, via + (c.name,)))
            else:
                fields = tuple(_plain(f, sub) for f in c.arg_types)
                stack.append(CtorComponent(c.name, fields, ty.name, c.constant, c.index, via))
    return SumNF(tuple(out))


def normalize_type(ty: TypeExpr, decls: Sequence[Decl], prims: PrimTable | None = None) -> SumNF | Cycle:
    """Unfold a type into its sum normal form, or report the blocking cycle."""
    return _unfold(ty, {d.name: d for d in decls})


def shape_of_snf(snf: SumNF, ctx: ShapeContext) -> HeadShape | ConflictWitness | Cycle:
    """Disjointly union the component shapes; a conflict is a value, and so
    is a conflict or cycle met in a lazy-like argument."""
    done: list[tuple[Component, HeadShape]] = []
    acc = EMPTY_SHAPE
    for comp in snf.components:
        s = component_shape(comp, ctx)
        if not isinstance(s, HeadShape):
            return s
        for prev, prev_s in done:
            w = shape_disjoint_union(prev_s, s, describe_component(prev), describe_component(comp))
            if isinstance(w, ConflictWitness):
                return w
        done.append((comp, s))
        acc = shape_union(acc, s)
    return acc


def _shape(ty: TypeExpr, env: Mapping[str, Decl], prims: PrimTable,
           seen: frozenset) -> HeadShape | ConflictWitness | Cycle:
    if ty in seen:
        return TOP_SHAPE  # shape-level recursion through a lazy-like argument
    if len(seen) >= _LAZY_NESTING_LIMIT:
        raise LazyNestingError(
            f"lazy-like arguments nest more than {_LAZY_NESTING_LIMIT} levels deep")
    snf = _unfold(ty, env)
    if isinstance(snf, Cycle):
        return snf
    return shape_of_snf(snf, ShapeContext(prims, lambda t: _shape(t, env, prims, seen | {ty})))


def shape_of_type(ty: TypeExpr, decls: Sequence[Decl], prims: PrimTable | None = None) -> HeadShape | ConflictWitness | Cycle:
    if prims is None:
        prims = default_prim_table()
    return _shape(ty, {d.name: d for d in decls}, prims, frozenset())


# ---------------------------------------------------------------------------
# Checking


@dataclass(frozen=True)
class Accepted:
    decl: str
    shape: HeadShape
    unboxed_arg_shapes: tuple[tuple[str, HeadShape], ...]


@dataclass(frozen=True)
class RejectedConflict:
    decl: str
    witness: ConflictWitness


@dataclass(frozen=True)
class RejectedCycle:
    decl: str
    name: str
    trace: tuple[str, ...]
    path: tuple[str, ...]


CheckReport = Accepted | RejectedConflict | RejectedCycle


def self_application(decl: Decl) -> TyApp:
    return TyApp(decl.name, tuple(TVar(p) for p in decl.params))


def check_decls(decls: Sequence[Decl], prims: PrimTable | None = None) -> list[CheckReport]:
    """One verdict per declaration, in file order."""
    if prims is None:
        prims = default_prim_table()
    env = {d.name: d for d in decls}
    reports: list[CheckReport] = []
    for d in decls:
        reports.append(_check_one(d, env, prims))
    return reports


def _check_one(d: Decl, env: Mapping[str, Decl], prims: PrimTable) -> CheckReport:
    if isinstance(d.body, AbstractBody):
        return Accepted(d.name, d.body.shape, ())
    snf = _unfold(self_application(d), env)
    ctx = ShapeContext(prims, lambda t: _shape(t, env, prims, frozenset()))
    sw = snf if isinstance(snf, Cycle) else shape_of_snf(snf, ctx)
    if isinstance(sw, Cycle):
        return RejectedCycle(d.name, sw.name, sw.trace, sw.path)
    if isinstance(sw, ConflictWitness):
        return RejectedConflict(d.name, sw)
    # An unboxed constructor's argument unfolds on its own to the components
    # whose `via` starts with that constructor: its own unfolding carries a
    # subset of their traces, so it blocks nowhere they did not.
    recorded: list[tuple[str, HeadShape]] = []
    if isinstance(d.body, VariantBody):
        for c in d.body.ctors:
            if c.unboxed:
                part = SumNF(tuple(x for x in snf.components if x.via[:1] == (c.name,)))
                recorded.append((c.name, shape_of_snf(part, ctx)))
    return Accepted(d.name, sw, tuple(recorded))


def match_plan(decl: Decl, ctor_name: str, report: CheckReport) -> HeadShape:
    """Head set tested when dispatching on one of the declaration's
    constructors: the recorded argument shape for an unboxed constructor,
    the singleton head for a boxed one."""
    if not isinstance(report, Accepted) or report.decl != decl.name:
        raise DeclNotAcceptedError(f"declaration {decl.name!r} was not accepted")
    if not isinstance(decl.body, VariantBody):
        raise UnknownCtorError(f"type {decl.name!r} has no constructors")
    for c in decl.body.ctors:
        if c.name == ctor_name:
            if c.unboxed:
                return dict(report.unboxed_arg_shapes)[ctor_name]
            if c.constant:
                return HeadShape(frozenset({c.index}), frozenset())
            return HeadShape(frozenset(), frozenset({c.index}))
    raise UnknownCtorError(f"no constructor {ctor_name!r} in type {decl.name!r}")


# ---------------------------------------------------------------------------
# Encoding declarations as a recursive first-order program

_RESERVED_HEADS = ("sum", "box", "empty_sum")


def _encode_type(ty: TypeExpr, bound: bool = False) -> Term:
    # inside a definition body type variables are the formal parameters;
    # elsewhere they are free names, applied so that they carry a trace
    if isinstance(ty, TVar):
        return Var(ty.name) if bound else App(Var(ty.name), ())
    return App(Var(ty.name), tuple(_encode_type(a, bound) for a in ty.args))


def _encode_body(body: DeclBody) -> Term:
    if isinstance(body, AbbrevBody):
        return _encode_type(body.body, bound=True)
    cases: list[Term] = []
    for c in body.ctors:
        if c.unboxed:
            cases.append(_encode_type(c.arg_types[0], bound=True))
        else:
            cases.append(App(Var("box"), tuple(_encode_type(a, bound=True) for a in c.arg_types)))
    if not cases:
        return App(Var("empty_sum"), ())
    out = cases[-1]
    for case in reversed(cases[:-1]):
        out = App(Var("sum"), (case, out))
    return out


def translate_to_program(decls: Sequence[Decl], prims: PrimTable | None = None,
                         root: str | None = None) -> Program:
    """Encode the declarations as mutually recursive definitions over the
    free names `sum`, `box` and the primitive names; the root applies the
    chosen declaration to its own parameters as free names."""
    if prims is None:
        prims = default_prim_table()
    env = {d.name: d for d in decls}
    for d in decls:
        if d.name in _RESERVED_HEADS:
            raise ValueError(f"type name {d.name!r} collides with an encoding head")
        for p in d.params:
            if p in env:
                raise ValueError(f"type parameter '{p} of {d.name!r} collides with a type name")
    defs = tuple(
        Definition(d.name, d.params, _encode_body(d.body))
        for d in decls
        if not isinstance(d.body, AbstractBody)
    )
    root_decl = env[root] if root is not None else decls[0]
    root_term = App(Var(root_decl.name), tuple(App(Var(p), ()) for p in root_decl.params))
    return Program(defs, root_term, Mode.FIRST_ORDER)


def opaque_heads(decls: Sequence[Decl], prims: PrimTable | None = None) -> frozenset[str]:
    """Free names whose applications the encoded program must not reduce
    under: constructor boxes, primitives, abstract types."""
    if prims is None:
        prims = default_prim_table()
    names = {"box"} | set(prims)
    names.update(d.name for d in decls if isinstance(d.body, AbstractBody))
    return frozenset(names)


def _encode_component(comp: Component) -> Term:
    if isinstance(comp, VarComponent):
        return App(Var(comp.name), ())
    if isinstance(comp, CtorComponent):
        return App(Var("box"), tuple(_encode_type(a) for a in comp.arg_types))
    if isinstance(comp, PrimComponent):
        return App(Var(comp.prim), tuple(_encode_type(a) for a in comp.args))
    return App(Var(comp.name), tuple(_encode_type(a) for a in comp.args))


def _flatten_sum(term: Term) -> list[Term]:
    if isinstance(term, App) and isinstance(term.head, Var):
        if term.head.name == "sum" and len(term.args) == 2:
            return _flatten_sum(term.args[0]) + _flatten_sum(term.args[1])
        if term.head.name == "empty_sum" and not term.args:
            return []
    return [term]


@dataclass(frozen=True)
class AgreementResult:
    decl: str
    agrees: bool
    detail: str


def check_lambda_agreement(decls: Sequence[Decl], decl_name: str,
                           prims: PrimTable | None = None) -> AgreementResult:
    """Cross-check type normalization against the encoded program: both
    must agree on divergence, and on success the sum components must match
    the normal form read back from the program."""
    if prims is None:
        prims = default_prim_table()
    env = {d.name: d for d in decls}
    program = translate_to_program(decls, prims, root=decl_name)
    out = calculus.normalize(program, frozen=opaque_heads(decls, prims))
    tr = normalize_type(self_application(env[decl_name]), decls, prims)
    type_blocks = isinstance(tr, Cycle)
    term_blocks = isinstance(out, calculus.Diverges)
    if type_blocks != term_blocks:
        return AgreementResult(
            decl_name, False,
            f"type normalization {'blocks' if type_blocks else 'succeeds'} but "
            f"the encoded program {'diverges' if term_blocks else 'normalizes'}",
        )
    if type_blocks:
        return AgreementResult(decl_name, True, "both block")
    expected = sorted(calculus.render_term(_encode_component(c)) for c in tr.components)
    actual = sorted(calculus.render_term(t) for t in _flatten_sum(out.term))
    if expected != actual:
        return AgreementResult(decl_name, False, f"components {actual} != expected {expected}")
    return AgreementResult(decl_name, True, f"{len(expected)} component(s) match")
