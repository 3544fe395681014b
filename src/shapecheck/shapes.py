"""Head shapes: cheap approximations of runtime value discriminators.

A head is either an immediate machine integer or a heap-block tag. A shape
is a pair of approximations (one per side), each either the wildcard `top`
or a finite set. Shapes support plain union and a disjoint union that
reports a conflict witness instead of a result when the operands overlap.
Everything is immutable and pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Callable, Mapping

from .syntax import Cursor, SourceError, lex, scanner


class UnknownPrimitiveError(Exception):
    pass


class _Top:
    __slots__ = ()

    def __repr__(self) -> str:
        return "top"


TOP = _Top()

SubShape = object  # TOP or frozenset[int]


@dataclass(frozen=True)
class Imm:
    value: int


@dataclass(frozen=True)
class Block:
    tag: int


Head = Imm | Block


def _sub(value) -> SubShape:
    if value is TOP:
        return TOP
    return frozenset(value)


@dataclass(frozen=True)
class HeadShape:
    imm: SubShape
    block: SubShape

    def __post_init__(self) -> None:
        object.__setattr__(self, "imm", _sub(self.imm))
        object.__setattr__(self, "block", _sub(self.block))
        if self.block is not TOP and any(t < 0 or t > 255 for t in self.block):
            raise ValueError("block tags must lie in [0, 255]")


EMPTY_SHAPE = HeadShape(frozenset(), frozenset())
TOP_SHAPE = HeadShape(TOP, TOP)


def _sub_union(a: SubShape, b: SubShape) -> SubShape:
    if a is TOP or b is TOP:
        return TOP
    return a | b


def shape_union(a: HeadShape, b: HeadShape) -> HeadShape:
    return HeadShape(_sub_union(a.imm, b.imm), _sub_union(a.block, b.block))


_TOP_OVERLAP = None  # witness value used when two tops overlap


def _sub_overlap(a: SubShape, b: SubShape):
    """Smallest value in both approximations, None-as-top marker for
    top/top, or the string "disjoint"."""
    if a is TOP and b is TOP:
        return _TOP_OVERLAP
    if a is TOP:
        return min(b) if b else "disjoint"
    if b is TOP:
        return min(a) if a else "disjoint"
    inter = a & b
    return min(inter) if inter else "disjoint"


@dataclass(frozen=True)
class ConflictWitness:
    side: str  # "imm" or "block"
    value: int | None  # None means the overlap of two top shapes
    left_origin: str
    right_origin: str

    def describe(self) -> str:
        what = "top overlap" if self.value is None else f"value {self.value}"
        kind = "immediate" if self.side == "imm" else "block tag"
        return f"{kind} heads overlap ({what}): {self.left_origin} vs {self.right_origin}"


def shape_disjoint_union(
    a: HeadShape, b: HeadShape, left_origin: str = "left", right_origin: str = "right"
) -> HeadShape | ConflictWitness:
    """Union when the two denotations are disjoint, else a witness naming
    one overlapping head. The conflict is a value, not an exception."""
    for side in ("imm", "block"):
        w = _sub_overlap(getattr(a, side), getattr(b, side))
        if w != "disjoint":
            return ConflictWitness(side, w, left_origin, right_origin)
    return shape_union(a, b)


def shape_mem(head: Head, s: HeadShape) -> bool:
    if isinstance(head, Imm):
        return s.imm is TOP or head.value in s.imm
    return s.block is TOP or head.tag in s.block


def render_sub(s: SubShape) -> str:
    if s is TOP:
        return "top"
    return "{" + ",".join(str(n) for n in sorted(s)) + "}"


def render_shape(s: HeadShape) -> str:
    return f"(imm: {render_sub(s.imm)}; block: {render_sub(s.block)})"


class ShapeSyntaxError(SourceError, ValueError):
    pass


_SCAN = scanner(
    ("int", r"[0-9]+"),
    ("name", r"[a-zA-Z_][a-zA-Z0-9_]*"),
    ("punct", r"[(){};:,]"),
)


def _read_sub(cur: Cursor) -> SubShape:
    t = cur.next()
    if t.text == "top":
        return TOP
    if t.text != "{":
        raise cur.fail("expected 'top' or '{...}' in shape", t)
    values: set[int] = set()
    if cur.peek().text != "}":
        while True:
            n = cur.next()
            if n.kind != "int":
                raise cur.fail("expected an integer in shape", n)
            values.add(int(n.text))
            if cur.peek().text != ",":
                break
            cur.next()
    cur.expect("}")
    return frozenset(values)


def read_shape(cur: Cursor) -> HeadShape:
    """`(imm: top|{n,...}; block: top|{n,...})` from the cursor's tokens,
    `imm` first; a comma may stand for the semicolon. Errors are the
    cursor's own, at the offending token."""
    cur.expect("(")
    cur.expect("imm")
    cur.expect(":")
    imm = _read_sub(cur)
    sep = cur.next()
    if sep.text not in (";", ","):
        raise cur.fail("expected ';' between shape sides", sep)
    cur.expect("block")
    cur.expect(":")
    block = _read_sub(cur)
    close = cur.expect(")")
    try:
        return HeadShape(imm, block)
    except ValueError as e:
        raise cur.fail(str(e), close)


class _ShapeCursor(Cursor):
    error = ShapeSyntaxError


def parse_shape(text: str) -> HeadShape:
    """Parse a whole text as one shape; raises `ShapeSyntaxError`, a
    `ValueError`."""
    cur = _ShapeCursor(lex(text, _SCAN, ShapeSyntaxError))
    shape = read_shape(cur)
    cur.end()
    return shape


# ---------------------------------------------------------------------------
# Primitive table


@dataclass(frozen=True)
class PrimEntry:
    shape: HeadShape
    lazylike: bool = False


PrimTable = Mapping[str, PrimEntry]


def parse_prim_table(text: str) -> dict[str, PrimEntry]:
    """One primitive per line: `name = (imm: ...; block: ...) [lazylike]`,
    with `#` comments."""
    table: dict[str, PrimEntry] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, eq, rest = line.partition("=")
        name = name.strip()
        rest = rest.strip()
        if not eq or not name:
            raise ValueError(f"line {lineno}: expected `name = shape`")
        lazylike = False
        if rest.endswith("lazylike"):
            lazylike = True
            rest = rest[: -len("lazylike")].strip()
        try:
            table[name] = PrimEntry(parse_shape(rest), lazylike)
        except ShapeSyntaxError as e:
            raise ValueError(f"line {lineno}: {e.message}") from None
    return table


def load_prim_table(path) -> dict[str, PrimEntry]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_prim_table(f.read())


@cache
def _default_entries() -> tuple[tuple[str, PrimEntry], ...]:
    text = resources.files(__package__).joinpath("prims.default").read_text("utf-8")
    return tuple(parse_prim_table(text).items())


def default_prim_table() -> dict[str, PrimEntry]:
    """A fresh copy of the shipped table, which is read and parsed once per
    process: every `check` of a file and every call that passes no table
    asks for it."""
    return dict(_default_entries())


# ---------------------------------------------------------------------------
# Type components and their shapes

# Components of a normalized type. Their argument fields are opaque here;
# only the component kind, constructor index and declared shape matter.


@dataclass(frozen=True)
class VarComponent:
    name: str
    via: tuple[str, ...] = ()


@dataclass(frozen=True)
class CtorComponent:
    name: str
    arg_types: tuple
    declared_in: str
    constant: bool
    index: int
    via: tuple[str, ...] = ()


@dataclass(frozen=True)
class PrimComponent:
    prim: str
    args: tuple = ()
    via: tuple[str, ...] = ()


@dataclass(frozen=True)
class OpaqueComponent:
    name: str
    args: tuple
    shape: HeadShape
    via: tuple[str, ...] = ()


Component = VarComponent | CtorComponent | PrimComponent | OpaqueComponent


def describe_component(comp: Component, via: tuple[str, ...] | None = None) -> str:
    """The component as a conflict witness names it; `via`, when given,
    stands for the component's own."""
    if via is None:
        via = comp.via
    if isinstance(comp, VarComponent):
        base = f"type parameter '{comp.name}"
    elif isinstance(comp, CtorComponent):
        base = f"constructor {comp.name}"
    elif isinstance(comp, PrimComponent):
        base = f"primitive {comp.prim}"
    else:
        base = f"abstract type {comp.name}"
    if via:
        return f"{base} (via {' -> '.join(via)})"
    return base


@dataclass(frozen=True)
class ShapeContext:
    """What component shapes may depend on: the primitive table and, for
    lazy-like primitives, a resolver from type expressions to shapes. A
    resolver result that is not a shape (a conflict or a cycle) is passed
    through as the component's result."""

    prims: PrimTable
    type_shape: Callable | None = None


def component_shape(comp: Component, ctx: ShapeContext) -> HeadShape:
    if isinstance(comp, VarComponent):
        return TOP_SHAPE
    if isinstance(comp, CtorComponent):
        if comp.constant:
            return HeadShape(frozenset({comp.index}), frozenset())
        return HeadShape(frozenset(), frozenset({comp.index}))
    if isinstance(comp, OpaqueComponent):
        return comp.shape
    entry = comp.prim in ctx.prims and ctx.prims[comp.prim]
    if not entry:
        raise UnknownPrimitiveError(f"unknown primitive {comp.prim!r}")
    shape = entry.shape
    if entry.lazylike:
        if ctx.type_shape is None:
            raise ValueError(f"primitive {comp.prim!r} needs a type-shape resolver")
        for arg in comp.args:
            arg_shape = ctx.type_shape(arg)
            if not isinstance(arg_shape, HeadShape):
                return arg_shape
            shape = shape_union(shape, arg_shape)
    return shape
