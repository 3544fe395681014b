"""Datatype declarations: parsing, normalization, and the unboxing check.

A declaration file is checked by unfolding each type into a formal sum of
components (boxed constructors, type parameters, primitive and abstract
applications). Unfolding is monitored with per-subterm traces exactly like
term reduction, so recursive definitions that would unfold forever are
rejected with a cycle report instead of looping. Accepted declarations get
a head shape plus, per unboxed constructor, the shape used to dispatch on
its argument during matching. `render_type` prints a type expression as a
layout for `calculus.render_tree`, the printer of terms.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Mapping, Sequence

from . import calculus, syntax
from .calculus import App, Mode, Program, Definition, Term, Var
from .nodes import Node, setters
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


class TVar(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _tvar_name(self, name)

    def _leaves(self) -> tuple:
        return (self.name,)


class _Named(Node):
    """A named type applied to arguments: `TyApp` for a declared type,
    `PrimApp` for a primitive."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[TypeExpr, ...] = ()):
        _named_name(self, name)
        _named_args(self, args)

    def _leaves(self) -> tuple:
        return (self.name,)

    def _kids(self) -> tuple:
        return self.args


class TyApp(_Named):
    __slots__ = ()


class PrimApp(_Named):
    __slots__ = ()


(_tvar_name,) = setters(TVar)
_named_name, _named_args = setters(_Named)

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
    """Postfix concrete syntax, `(a, b) name`, printed by
    `calculus.render_tree`: types may nest thousands of levels deep."""
    def layout(t: TypeExpr) -> list:
        if t.__class__ is TVar:
            return ["'" + t.name]
        return [*calculus.arg_list(t.args), " " + t.name] if t.args else [t.name]

    return calculus.render_tree(ty, layout)


# ---------------------------------------------------------------------------
# Parsing


class _RawRef(_Named):
    """A type reference as read, before `TyApp` and `PrimApp` are told apart."""

    __slots__ = ("line", "col")

    def __init__(self, name: str, args: tuple, line: int, col: int):
        _named_name(self, name)
        _named_args(self, args)
        _raw_line(self, line)
        _raw_col(self, col)

    def _leaves(self) -> tuple:
        return (self.name, self.line, self.col)


_raw_line, _raw_col = setters(_RawRef)


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

    def type_expr(self) -> TypeExpr:
        """An atom (a type variable, a type name, a parenthesized type or
        argument list), then postfix type names, then, inside parentheses
        only, `* type` parts: a star after the whole type is the caller's.
        Read on an explicit stack of frames `[stars allowed, items before a
        comma, parts before a star, the first star]`, one for the whole type
        and one per open `(`; the position is kept in a local."""
        toks, pos = self.toks, self.pos
        frames: list[list] = [[False, [], [], None]]
        while True:
            t = toks[pos]
            pos += 1
            while t.text == "(":
                frames.append([True, [], [], None])
                t = toks[pos]
                pos += 1
            if t.kind == "tyvar":
                node, pending = TVar(t.text[1:]), None
            elif t.kind == "lident":
                node, pending = _RawRef(t.text, (), t.line, t.col), None
            else:
                raise self.fail(f"expected a type, found {t.text or 'end of input'!r}", t)
            while True:  # `node`, or the argument list `pending`, is an atom
                t = toks[pos]
                if pending is not None:
                    if t.kind != "lident" or t.text in ("of", "type"):
                        raise self.fail(
                            "a parenthesized argument list must be followed by a type name", t)
                    node = _RawRef(t.text, pending, t.line, t.col)
                    pos += 1
                    t = toks[pos]
                while t.kind == "lident" and t.text not in ("of", "type"):
                    node = _RawRef(t.text, (node,), t.line, t.col)
                    pos += 1
                    t = toks[pos]
                frame = frames[-1]
                star, items, parts, first_star = frame
                if star and t.text == "*":
                    if not parts:
                        frame[3] = t
                    parts.append(node)
                    pos += 1
                    break  # read the next part
                if parts:
                    node = _RawRef("tuple", (*parts, node), first_star.line, first_star.col)
                    parts.clear()
                if len(frames) == 1:
                    self.pos = pos
                    return node
                items.append(node)
                if t.text == ",":
                    pos += 1
                    break  # read the next item
                if t.text != ")":
                    self.pos = pos
                    self.expect(")")
                pos += 1
                frames.pop()
                node, pending = (None, tuple(items)) if len(items) > 1 else (items[0], None)

    # -- constructors and declarations

    def record_fields(self) -> tuple:
        self.expect("{")
        fields = []
        while True:
            self.expect_kind("lident", "a field name")
            self.expect(":")
            fields.append(self.type_expr())
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
                parts = [self.type_expr()]
                while self.peek().text == "*":
                    self.next()
                    parts.append(self.type_expr())
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
        body = self.type_expr()
        return Decl(name.text, tuple(params), AbbrevBody(body)), name


@dataclass(frozen=True)
class _RawVariant:
    ctors: tuple  # (name, fields, unboxed, token) before index assignment


def _resolve_type(ty, env: Mapping[str, Decl], prims: PrimTable, params: set[str]):
    """Resolve raw references in postorder on an explicit stack: a reference
    with arguments is pushed back as `(ref,)` under them and, once popped
    again, gathers their resolutions off `built`."""
    built: list[TypeExpr] = []
    stack: list = [ty]
    while stack:
        t = stack.pop()
        if type(t) is _RawRef and t.args:
            stack.append((t,))
            stack.extend(reversed(t.args))
            continue
        if type(t) is tuple:
            t = t[0]
            first = len(built) - len(t.args)
            args = tuple(built[first:])
            del built[first:]
        elif type(t) is _RawRef:
            args = ()
        elif type(t) is TVar and t.name not in params:
            raise UnboundTypeNameError(f"unbound type variable '{t.name}")
        else:
            built.append(t)
            continue
        decl = env.get(t.name)
        if decl is not None and len(args) != len(decl.params):
            raise ArityMismatchError(f"type {t.name!r} expects {len(decl.params)} argument(s), "
                                     f"got {len(args)}", t.line, t.col)
        if decl is None and t.name not in prims:
            raise UnboundTypeNameError(f"unbound type name {t.name!r}", t.line, t.col)
        built.append(TyApp(t.name, args) if decl is not None else PrimApp(t.name, args))
    return built[0]


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


# Closures and `via` paths. A closure is a type expression as written in
# some body with the closures bound to that body's parameters: `(type,
# bindings)` in the component walk and, in the cycle walk, `(type,
# bindings, trace)`, the trace being that of the unfoldings that wrote it. A
# bound parameter stands for its argument's own closure, trace included.
# Traces and `via` paths are shared linked nodes, never copied per level:
# - a trace is `calculus`'s node `(parent, name, depth)`, None being the
#   empty trace, and `calculus.TraceMonitor` tests it;
# - a `where` node is `(parent, path)`, `path` being a linked list
#   `(label, rest)` of `via` labels in root-first order; None is the empty
#   `via`.

_NO_BINDINGS: Mapping = {}  # the bindings of a root or a parameterless body


def _plain(ty: TypeExpr, bind: Mapping) -> TypeExpr:
    """The plain type expression a closure denotes, built on an explicit
    stack: lazy-like arguments may nest hundreds of levels deep."""
    out: list = []
    stack: list = [(ty, bind)]
    while stack:
        ty, bind = stack.pop()
        if bind is None:  # (class, name, arity) of a node whose arguments are done
            cls, name, arity = ty
            args = tuple(out[-arity:])
            del out[-arity:]
            out.append(cls(name, args))
            continue
        while isinstance(ty, TVar) and ty.name in bind:
            ty, bind = bind[ty.name]
        if isinstance(ty, TVar) or not ty.args:
            out.append(ty)
            continue
        stack.append(((type(ty), ty.name, len(ty.args)), None))
        stack.extend((a, bind) for a in reversed(ty.args))
    return out[0]


def _via(where) -> tuple[str, ...]:
    paths = []
    while where is not None:
        paths.append(where[1])
        where = where[0]
    out = []
    for path in reversed(paths):
        while path is not None:
            out.append(path[0])
            path = path[1]
    return tuple(out)


def _first(where) -> str | None:
    """The first label of a `via`."""
    if where is None:
        return None
    while where[0] is not None:
        where = where[0]
    return where[1][0]


def _path(where, base, tail):
    """The labels from `base` down to `where`, in front of `tail`. Both are
    nodes of the unfolding itself, which adds one label per node."""
    while where is not base:
        tail = (where[1][0], tail)
        where = where[0]
    return tail


# The cycle walk is the one walk over an unfolding that always runs in full;
# past this many steps it stops with an input error.
_UNFOLD_LIMIT = 10**6


class UnfoldBudgetError(DeclError):
    pass


def _cycle(ty: TypeExpr, env: Mapping[str, Decl], free: set[str]) -> Cycle | None:
    """The first cycle that the monitored unfolding of `ty` meets, depth
    first on an explicit stack, or None. `free` holds the parameterless
    declarations known to be cycle-free, which are not unfolded again; each
    one whose unfolding finishes here joins it.

    Such a declaration stays cycle-free under any trace that does not hold
    it. Each name on a trace wrote the next one into its body, where it is
    unfolded whatever the arguments, and the last wrote the declaration. Had
    the declaration's own unfolding met such a name, it would have gone on
    to meet the declaration again: a cycle of its own, and the declaration
    would not have joined `free`."""
    monitor = calculus.TraceMonitor()
    steps, limit = 0, _UNFOLD_LIMIT
    stack: list = [(ty, _NO_BINDINGS, None)]
    while stack:
        steps += 1
        if steps > limit:
            raise UnfoldBudgetError(f"more than {limit} unfolding steps")
        item = stack.pop()
        if item.__class__ is str:  # this parameterless declaration is unfolded
            free.add(item)
            continue
        ty, bind, trace = item
        while isinstance(ty, TVar) and ty.name in bind:
            ty, bind, trace = bind[ty.name]
        decl = env[ty.name] if isinstance(ty, TyApp) else None
        if decl is None or isinstance(decl.body, AbstractBody):
            continue
        name = ty.name
        node = monitor.enter(trace, name)
        if node is None:
            return Cycle(name, calculus.trace_names(trace))
        if decl.params:
            sub = {p: (a, bind, trace) for p, a in zip(decl.params, ty.args)}
        elif name in free:
            continue
        else:
            sub = _NO_BINDINGS
            stack.append(name)
        if isinstance(decl.body, AbbrevBody):
            stack.append((decl.body.body, sub, node))
            continue
        for c in reversed(decl.body.ctors):
            if c.unboxed:
                stack.append((c.arg_types[0], sub, node))
    return None


def _components(ty: TypeExpr, env: Mapping[str, Decl], memo: dict[str, list]):
    """The components of the unfolding of `ty`, which `_cycle` has cleared,
    in the order of that walk: `(component, where)` pairs, with each
    component's `via` left in `where`.

    `memo` maps each parameterless declaration whose unfolding finished to
    its `(path, component)` list, `path` leading from where the declaration
    was met to the component. Such a list is spliced into that of the
    declaration being unfolded around it, so a chain of abbreviations is one
    item whose path shares its tail with the next link's."""
    open_: list = []  # (base, items) per parameterless declaration being unfolded
    stack: list = [(ty, _NO_BINDINGS, None)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:  # this parameterless declaration is unfolded
            base, items = open_.pop()
            memo[item] = items
            if open_:
                outer, out = open_[-1]
                out.extend((_path(base, outer, path), c) for path, c in items)
            continue
        if len(item) == 2:  # a boxed constructor
            comp, where = item
        else:
            ty, bind, where = item
            while isinstance(ty, TVar) and ty.name in bind:
                ty, bind = bind[ty.name]
            decl = env[ty.name] if isinstance(ty, TyApp) else None
            if decl is None or isinstance(decl.body, AbstractBody):
                if isinstance(ty, TVar):
                    comp = VarComponent(ty.name)
                else:
                    args = tuple(_plain(a, bind) for a in ty.args)
                    comp = (PrimComponent(ty.name, args) if decl is None
                            else OpaqueComponent(ty.name, args, decl.body.shape))
            else:
                name = ty.name
                if decl.params:
                    sub = {p: (a, bind) for p, a in zip(decl.params, ty.args)}
                else:
                    items = memo.get(name)
                    if items is not None:
                        if open_:
                            base, out = open_[-1]
                            out.extend((_path(where, base, path), c) for path, c in items)
                        for path, comp in items:
                            yield comp, where if path is None else (where, path)
                        continue
                    sub = _NO_BINDINGS
                    open_.append((where, []))
                    stack.append(name)
                if isinstance(decl.body, AbbrevBody):
                    stack.append((decl.body.body, sub, (where, (name, None))))
                    continue
                for c in reversed(decl.body.ctors):
                    if c.unboxed:
                        stack.append((c.arg_types[0], sub, (where, (c.name, None))))
                    else:
                        fields = tuple(_plain(f, sub) for f in c.arg_types)
                        stack.append((CtorComponent(c.name, fields, name, c.constant, c.index),
                                      where))
                continue
        if open_:
            base, items = open_[-1]
            items.append((None if where is base else _path(where, base, None), comp))
        yield comp, where


def normalize_type(ty: TypeExpr, decls: Sequence[Decl], prims: PrimTable | None = None) -> SumNF | Cycle:
    """Unfold a type into its sum normal form, or report the blocking cycle.
    `prims` is not read; it stays for the callers that pass it."""
    env = {d.name: d for d in decls}
    return _cycle(ty, env, set()) or SumNF(tuple(
        c if where is None else replace(c, via=_via(where))
        for c, where in _components(ty, env, {})))


def _disjoint_union(pairs, prims: PrimTable, type_shape: Callable | None,
                    by_first: dict | None = None) -> HeadShape | ConflictWitness | Cycle:
    """Disjointly union the shapes of `(component, where)` pairs, stopping at
    the first conflict; with `by_first`, also collect the shapes per first
    `via` label. Overlap distributes over union, so each shape is tested
    against the union so far, and only on a conflict are earlier ones searched."""
    done: list = []
    acc = EMPTY_SHAPE
    for comp, where in pairs:
        s = component_shape(comp, prims, type_shape)
        if not isinstance(s, HeadShape):
            return s
        union = shape_disjoint_union(acc, s)
        if isinstance(union, ConflictWitness):
            for prev, prev_where, prev_s in done:
                w = shape_disjoint_union(prev_s, s)
                if isinstance(w, ConflictWitness):
                    return ConflictWitness(
                        w.side, w.value,
                        describe_component(prev, _via(prev_where) + prev.via),
                        describe_component(comp, _via(where) + comp.via))
        done.append((comp, where, s))
        acc = union
        if by_first is not None:
            by_first.setdefault(_first(where), []).append(s)
    return acc


def shape_of_snf(snf: SumNF, prims: PrimTable,
                 type_shape: Callable | None = None) -> HeadShape | ConflictWitness | Cycle:
    """Disjointly union the component shapes; a conflict is a value, and so
    is a conflict or cycle met in a lazy-like argument."""
    return _disjoint_union(((c, None) for c in snf.components), prims, type_shape)


def _union_of(ty: TypeExpr, env: Mapping[str, Decl], free: set[str], memo: dict, prims: PrimTable,
              seen: frozenset, by_first: dict | None = None) -> HeadShape | ConflictWitness | Cycle:
    """`shape_of_snf` over the unfolding of `ty` as it streams. A cycle
    anywhere in the unfolding takes precedence over a conflict and over what
    a lazy-like argument gives, so the unfolding is walked for cycles first."""
    return _cycle(ty, env, free) or _disjoint_union(
        _components(ty, env, memo), prims,
        lambda t: _shape(t, env, free, memo, prims, seen), by_first)


def _shape(ty: TypeExpr, env: Mapping[str, Decl], free: set[str], memo: dict, prims: PrimTable,
           seen: frozenset) -> HeadShape | ConflictWitness | Cycle:
    if ty in seen:
        return TOP_SHAPE  # shape-level recursion through a lazy-like argument
    if len(seen) >= _LAZY_NESTING_LIMIT:
        raise LazyNestingError(
            f"lazy-like arguments nest more than {_LAZY_NESTING_LIMIT} levels deep")
    return _union_of(ty, env, free, memo, prims, seen | {ty})


def shape_of_type(ty: TypeExpr, decls: Sequence[Decl], prims: PrimTable | None = None) -> HeadShape | ConflictWitness | Cycle:
    if prims is None:
        prims = default_prim_table()
    return _shape(ty, {d.name: d for d in decls}, set(), {}, prims, frozenset())


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
    """One verdict per declaration, in file order. The unfolding of each
    parameterless declaration is shared by all of them."""
    if prims is None:
        prims = default_prim_table()
    env = {d.name: d for d in decls}
    free: set[str] = set()
    memo: dict[str, list] = {}
    return [_check_one(d, env, free, memo, prims) for d in decls]


def _check_one(d: Decl, env: Mapping[str, Decl], free: set[str], memo: dict,
               prims: PrimTable) -> CheckReport:
    if isinstance(d.body, AbstractBody):
        return Accepted(d.name, d.body.shape, ())
    # An unboxed constructor's argument unfolds on its own to the components
    # whose `via` starts with that constructor: its own unfolding carries a
    # subset of their traces, so it blocks nowhere they did not.
    unboxed = [c.name for c in d.body.ctors if c.unboxed] if isinstance(d.body, VariantBody) else []
    by_first: dict | None = {} if unboxed else None
    sw = _union_of(self_application(d), env, free, memo, prims, frozenset(), by_first)
    if isinstance(sw, Cycle):
        return RejectedCycle(d.name, sw.name, sw.trace, sw.path)
    if isinstance(sw, ConflictWitness):
        return RejectedConflict(d.name, sw)
    return Accepted(d.name, sw, tuple(
        (c, reduce(shape_union, by_first.get(c, ()), EMPTY_SHAPE)) for c in unboxed))


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


def _encode_types(types: Sequence[TypeExpr], bound: bool) -> list[Term]:
    """The terms of `types`, in order, built on one explicit stack so that
    nesting depth costs no recursion. Inside a definition body (`bound`)
    type variables are the formal parameters; elsewhere they are free
    names, applied so that they carry a trace."""
    built: list[Term] = []
    stack: list = list(reversed(types))
    while stack:
        ty = stack.pop()
        if ty.__class__ is tuple:  # a type whose arguments are built
            (ty,) = ty
            n = len(ty.args)
            node = App(Var(ty.name), tuple(built[-n:]))
            del built[-n:]
            built.append(node)
        elif isinstance(ty, TVar):
            built.append(Var(ty.name) if bound else App(Var(ty.name), ()))
        elif ty.args:
            stack.append((ty,))
            stack.extend(reversed(ty.args))
        else:
            built.append(App(Var(ty.name), ()))
    return built


def _encode_body(body: DeclBody) -> Term:
    if isinstance(body, AbbrevBody):
        return _encode_types((body.body,), True)[0]
    cases: list[Term] = []
    for c in body.ctors:
        if c.unboxed:
            cases.extend(_encode_types(c.arg_types[:1], True))
        else:
            cases.append(App(Var("box"), tuple(_encode_types(c.arg_types, True))))
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
    chosen declaration to its own parameters as free names. `prims` is not
    read: a primitive is a free name. It stays for the callers that pass it."""
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
        return App(Var("box"), tuple(_encode_types(comp.arg_types, False)))
    if isinstance(comp, PrimComponent):
        return App(Var(comp.prim), tuple(_encode_types(comp.args, False)))
    return App(Var(comp.name), tuple(_encode_types(comp.args, False)))


def _flatten_sum(term: Term) -> list[Term]:
    """The summands of a tree of `sum`s, left to right, on an explicit stack."""
    out: list[Term] = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, App) and isinstance(t.head, Var):
            if t.head.name == "sum" and len(t.args) == 2:
                stack.append(t.args[1])
                stack.append(t.args[0])
                continue
            if t.head.name == "empty_sum" and not t.args:
                continue
        out.append(t)
    return out


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
    env = {d.name: d for d in decls}
    program = translate_to_program(decls, root=decl_name)
    out = calculus.normalize(program, frozen=opaque_heads(decls, prims))
    tr = normalize_type(self_application(env[decl_name]), decls)
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
