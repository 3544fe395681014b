"""Independent cross-checking machinery.

One plain (unmonitored) reduction machine, sharing no code with the
monitored one it checks, behind fuel-bounded normalization, `plain_steps`
and the two rejected monitoring strategies (whole-term repetition and
head-function repetition); an outermost fuel run ends at once when a
redex repeats inside itself (first-order) or a chain of prepared descents
comes back to a definition, either of which proves divergence. Value
enumeration with representation heads, both reading through abbreviations
by one loop, and deterministic random corpus generators for programs,
declarations and macro systems. Everything is a pure function of its
inputs (generators of their seed).
"""
from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from . import calculus, cppmacro
from . import decls as decl_mod
from .calculus import App, Definition, Mode, Program, Strategy, Term, Var
from .decls import (
    AbbrevBody,
    AbstractBody,
    Decl,
    PrimApp,
    TVar,
    TyApp,
    TypeExpr,
    VariantBody,
)
from .shapes import (
    TOP,
    Block,
    Head,
    HeadShape,
    Imm,
    PrimTable,
    default_prim_table,
)


class IllTypedError(Exception):
    pass


# ---------------------------------------------------------------------------
# Plain (unmonitored) reduction


@dataclass(frozen=True)
class FuelNormal:
    term: Term
    steps: int


@dataclass(frozen=True)
class OutOfFuel:
    steps: int


FuelOutcome = FuelNormal | OutOfFuel


# The plain machine runs on a throwaway representation (variables and names
# are strings, applications are (head, args) pairs) because it may take
# hundreds of thousands of steps per program.


def _fast(term: Term):
    """Both conversions run on an explicit stack, so that a deep normal
    form costs no recursion: a node is pushed with its expanded flag, and
    an expanded node gathers its converted children off `done`."""
    done: list = []
    stack: list = [(term, False)]
    while stack:
        t, expanded = stack.pop()
        if isinstance(t, Var):
            done.append(t.name)
        elif expanded:
            cut = len(done) - len(t.args)
            node = (done[cut - 1], tuple(done[cut:]))
            del done[cut - 1:]
            done.append(node)
        else:
            stack.append((t, True))
            stack.extend((a, False) for a in reversed(t.args))
            stack.append((t.head, False))
    return done[0]


def _unfast(term) -> Term:
    """Keeps the sharing of `term`: a subterm that a body duplicates is
    converted once, not once per occurrence."""
    done: list[Term] = []
    made: dict[int, Term] = {}  # id of a converted node -> its conversion
    stack: list = [(term, False)]
    while stack:
        t, expanded = stack.pop()
        if type(t) is str:
            done.append(Var(t))
        elif expanded:
            cut = len(done) - len(t[1])
            node = made[id(t)] = App(done[cut - 1], tuple(done[cut:]))
            del done[cut - 1:]
            done.append(node)
        elif id(t) in made:
            done.append(made[id(t)])
        else:
            stack.append((t, True))
            stack.extend((a, False) for a in reversed(t[1]))
            stack.append((t[0], False))
    return done[0]


def _compile_template(t, params: tuple[str, ...], defs: dict | None = None) -> Callable:
    """Prepare a fast term as a template `f(args)`, which builds the term
    with argument i in place of parameter i. A subterm without parameters
    is one constant, shared between all instantiations. An application
    that mentions one is a step, in postorder, that fills its register in
    `[*args, *blanks, *constants]` from those of its head and arguments;
    constant k is register -1 - k, so that no register is renumbered.

    Given the run's definitions (`_definitions`), it prepares instead the
    outermost machine's descent into the contractum, `f(args, stack,
    built)`. For each constructor on the body's leftmost spine (a constant
    name with arguments that is no definition of their number) it pushes
    the frame and the head that `_plain_run` would push on its way down to
    the first argument, with None in that argument's slot. It returns the
    first spine node that is no such constructor, with that node's entry
    in `defs` when its name and arity make it a redex, else with None."""
    index = {p: i for i, p in enumerate(params)}
    consts: list = []
    const_at: dict = {}  # a string, or the id of any other constant -> its register
    steps: list[tuple] = []  # (register, head register, argument getter)

    def register(x) -> int:
        """`x` if it is a register, else the register of the constant `x`."""
        if type(x) is int:
            return x
        key = x if type(x) is str else id(x)
        if key not in const_at:
            const_at[key] = -1 - len(consts)
            consts.append(x)
        return const_at[key]

    def emit(t):
        """`t` itself if it has no parameter, else the register that holds it."""
        done: list = []  # per finished subtree: the subterm or a register
        stack: list = [(t, False)]
        while stack:
            t, expanded = stack.pop()
            if type(t) is str:
                done.append(index.get(t, t))
            elif expanded:
                n = 1 + len(t[1])
                kids = done[-n:]
                del done[-n:]
                if not any(type(x) is int for x in kids):
                    done.append(t)
                    continue
                head, *args = map(register, kids)
                steps.append((len(params) + len(steps), head, _getter(args)))
                done.append(steps[-1][0])
            else:
                stack.append((t, True))
                stack.extend((a, False) for a in reversed(t[1]))
                stack.append((t[0], False))
        return done[0]

    def static_def(t):  # (name, arity) of an application with a constant name head
        if type(t) is tuple and type(t[0]) is str and t[0] not in index:
            return t[0], len(t[1])
        return None

    frames: list[Callable] = []  # per spine node, a getter of its frame's children
    heads: list[str] = []
    while defs is not None and (key := static_def(t)) is not None and t[1] and key not in defs:
        kids = (t[0], None, *map(emit, t[1][1:]))
        if any(type(x) is int for x in kids):
            frames.append(itemgetter(*map(register, kids)))
        else:
            frames.append(itemgetter(register(kids)))
        heads.append(t[0])
        t = t[1][0]
    result = register(emit(t))
    tail = (None,) * len(steps) + tuple(reversed(consts))

    def fill(args) -> list:
        regs = [*args, *tail]
        for i, h, get in steps:
            regs[i] = (regs[h], get(regs))
        return regs

    if defs is None:
        return lambda args: fill(args)[result]
    entry = defs.get(static_def(t))

    def descend(args, stack, built):
        regs = fill(args)
        s = len(built)
        for j, kids in enumerate(frames):
            stack.append((kids(regs), s + j))
        built += heads
        return regs[result], entry
    return descend


def _getter(registers: list[int]) -> Callable:
    """`itemgetter(*registers)`, but a tuple also for one or no index."""
    if len(registers) == 1:
        return lambda regs, i=registers[0]: (regs[i],)
    return itemgetter(*registers) if registers else lambda regs: ()


def _whole(focus, stack: list, built: list):
    """The whole term, put back together from the focus and the frames."""
    end = len(built)
    for kids, start in reversed(stack):
        rebuilt = built[start:end] + [focus] + list(kids[end - start + 1:])
        focus = (rebuilt[0], tuple(rebuilt[1:]))
        end = start
    return focus


def _definitions(program: Program) -> dict:
    """(name, arity) -> [descend, build]: the two templates of a definition
    that `_compile_template` prepares, each on its first call, since
    innermost runs never descend and a short run reaches few definitions.
    The entries hold each other (a descent returns the next redex's entry)
    and so form cycles, which the run breaks when it ends."""
    defs: dict = {}
    for name, d in program.def_map.items():
        entry = defs[name, len(d.params)] = [None, None]
        entry[:] = [_on_first_call(entry, 0, d, defs), _on_first_call(entry, 1, d, None)]
    return defs


def _on_first_call(entry: list, i: int, d: Definition, defs: dict | None):
    def first(*args):
        entry[i] = _compile_template(_fast(d.body), d.params, defs)
        return entry[i](*args)
    return first


_SAME_BUDGET = 4096  # node pairs that one run may compare before it stops watching


def _same(a, b, budget: int) -> tuple[bool, int]:
    """Whether two first-order fast terms are equal, and the budget left:
    identity first, then head and arity, on an explicit stack, since tuple
    `==` recurses. Each pair costs one; a spent budget answers False."""
    pairs = [(a, b)]
    while pairs:
        if budget == 0:
            return False, 0
        budget -= 1
        a, b = pairs.pop()
        if type(a) is str or type(b) is str:
            if a != b:
                return False, budget
        elif a is not b:
            if a[0] != b[0] or len(a[1]) != len(b[1]):
                return False, budget
            pairs += zip(a[1], b[1])
    return True, budget


def _plain_run(program: Program, strategy: Strategy, fuel: int,
               observe: Callable | None = None):
    """A zipper to the focus (Huet, "The Zipper", JFP 1997), so that a step
    costs no walk of the whole term. A frame is (the children of a node,
    child 0 its head, with None in the slot of the child in focus when it
    was pushed; the index on `built` where their rebuilt copies start).
    Only the children to the right of the focus are read back, so a frame
    keeps no rewritten redex alive. Tuples, unlike lists, drop out of the
    cyclic collector's scans once their contents do, so a deep zipper does
    not slow every collection down. Outermost tests a node on the way
    down, and a parent again once its head is rewritten, since a new head
    may make the parent a redex. Innermost tests a node once its children
    are done, passing over the last redex's arguments, which are normal.
    Each definition has two templates (`_compile_template`): innermost and a
    head redex build the contractum and walk it; any other outermost redex
    is contracted by the definition's descent, which also takes the moves
    down the body's constructor spine, and without an observer the next
    redex that the body fixes is taken at once, with no test and no walk.
    `observe(name, path, whole term)` sees each redex found before the fuel
    check; a value other than None ends the run with that value.

    A first-order outermost run without an observer proves some loops
    divergent. It saves the redex in focus, with its stack height, when
    `steps` reaches each power of two (Brent, "An improved Monte Carlo
    factorization algorithm", BIT 1980), and drops it once the walk goes
    up to that height, where its subterm is normal. A later redex equal to
    the saved one ends the run with `OutOfFuel(fuel)`. The proof: in
    first-order mode a node's redex test reads only its head name and
    arity, so contracting below a node never makes it a redex. Outermost
    reduction therefore stays inside the saved redex R's subterm until
    that subterm is normal, and what it does there depends on the subterm
    alone. A repeat gives R ->n D[R] with n >= 1, where D has no redex
    above or left of its hole, so the run goes on from the copy of R as it
    did from R, forever, and would spend exactly `fuel`. Comparing costs a
    node pair at a time (`_same`), out of one budget per run; once it is
    spent, the run stops watching. Higher-order runs are not watched, since
    there a rewritten head makes its parent a redex; nor are innermost or
    observed runs.

    Any run without an observer, in either mode, also ends with
    `OutOfFuel(fuel)` once one unbroken pass of the chained loop has made
    `len(defs)` contractions and still holds an entry. The proof reads only
    the machine: the entry that a descent returns is a constant of its
    template, so in a pass each entry is a fixed function of the one
    before. Of the pass's `len(defs) + 1` entries two are then equal
    (pigeonhole), so the entries cycle and are never None, and only the
    fuel, or the repeat proof, ends the pass: the run would spend exactly
    `fuel`. An observed run leaves the loop after one descent."""
    defs = _definitions(program)  # keyed by (name, arity), so a lookup is the whole redex test
    get_def = defs.get
    outermost = strategy is Strategy.LEFTMOST_OUTERMOST
    steps = 0
    normal: tuple = ()  # innermost: the last redex's arguments
    watch = observe is None and outermost and program.mode is Mode.FIRST_ORDER
    saved, saved_at, mark, budget = None, -1, 1, _SAME_BUDGET
    focus = _fast(program.root)
    stack: list[tuple] = []
    built: list = []
    try:
        while True:
            d = None
            if type(focus) is tuple:
                h = focus[0]
                if outermost and type(h) is str:
                    d = get_def((h, len(focus[1])))
                if d is None and (outermost or not any(a is focus for a in normal)):
                    stack.append(((None,) + focus[1], len(built)))
                    focus = h
                    continue
            if d is None:
                # the focus is done: go up to the next child, or to a rebuilt redex
                done = focus
                while stack:
                    kids, start = stack[-1]
                    built.append(done)
                    if len(built) - start < len(kids):
                        focus = kids[len(built) - start]
                        break
                    stack.pop()
                    h = built[start]
                    done = (h, tuple(built[start + 1:]))
                    del built[start:]
                    if not outermost and type(h) is str:
                        d = get_def((h, len(done[1])))
                        if d is not None:
                            focus = done
                            break
                else:
                    return FuelNormal(_unfast(done), steps)
                if len(stack) <= saved_at:  # the saved redex's subterm is normal
                    saved, saved_at = None, -1
                if d is None:
                    continue
            if observe is not None:
                ends = [start for _, start in stack[1:]] + [len(built)]
                path = tuple(end - start for (_, start), end in zip(stack, ends))
                verdict = observe(focus[0], path, _whole(focus, stack, built))
                if verdict is not None:
                    return verdict
            if not outermost or stack and stack[-1][1] == len(built):
                if steps >= fuel:
                    return OutOfFuel(steps)
                steps += 1
                if outermost:  # a rewritten head: the parent comes first in preorder
                    focus = (d[1](focus[1]), stack.pop()[0][1:])
                else:
                    normal = focus[1]
                    focus = d[1](normal)
                continue
            left = len(defs)
            while d is not None:
                if not left:  # some entry has repeated: the chain never ends
                    return OutOfFuel(fuel)
                left -= 1
                if watch:
                    if saved is not None:
                        same, budget = _same(focus, saved, budget)
                        if same:
                            return OutOfFuel(fuel)
                        watch = budget > 0
                    if steps == mark:
                        saved, saved_at, mark = focus, len(stack), 2 * mark
                if steps >= fuel:
                    return OutOfFuel(steps)
                steps += 1
                focus, d = d[0](focus[1], stack, built)
                if observe is not None:
                    break
    finally:
        for entry in defs.values():
            entry.clear()


def fuel_normalize(program: Program, strategy: Strategy = Strategy.LEFTMOST_OUTERMOST,
                   fuel: int = 100_000) -> FuelOutcome:
    """Plain reduction without traces or blocking; OutOfFuel after `fuel`
    steps."""
    _check_fuel(fuel)
    return _plain_run(program, strategy, fuel)


def _check_fuel(fuel: int) -> None:
    if fuel < 1:
        raise ValueError("fuel must be at least 1")


def plain_steps(program: Program, strategy: Strategy,
                count: int) -> list[tuple[tuple[int, ...], str, Term]]:
    """The first `count` plain steps, each as (path, name, term before)."""
    log: list = []

    def observe(name, path, term):
        if len(log) < count:
            log.append((path, name, _unfast(term)))

    _plain_run(program, strategy, count, observe)
    return log


# ---------------------------------------------------------------------------
# The two rejected monitoring strategies


@dataclass(frozen=True)
class MonitorNormal:
    term: Term
    steps: int


@dataclass(frozen=True)
class MonitorBlocked:
    blocked_at: int  # 1-based index of the refused step
    reason: str


@dataclass(frozen=True)
class MonitorOutOfSteps:
    steps: int


MonitorOutcome = MonitorNormal | MonitorBlocked | MonitorOutOfSteps


def _monitor(program: Program, strategy: Strategy, max_steps: int,
             observe: Callable) -> MonitorOutcome:
    """A run normal only after its last allowed step is out of steps."""
    out = _plain_run(program, strategy, max_steps, observe)
    if isinstance(out, FuelNormal) and out.steps < max_steps:
        return MonitorNormal(out.term, out.steps)
    if isinstance(out, (FuelNormal, OutOfFuel)):
        return MonitorOutOfSteps(out.steps)
    return out


def _spelling(term, spelled: dict[int, tuple]) -> tuple[str, dict[int, tuple]]:
    """The term as a string, an argument after each comma, spelled on an
    explicit stack: `hash` and `==` on deep nested tuples recurse.
    `spelled` maps the id of each node of the previous term to (the node,
    [the key it was spelled in], its span there); such a node is copied
    from that key, so a step spells only the nodes it built. Returns the key
    and the same map for this term's nodes, which keeps them alive, so that
    no id is reused, and stays as large as one term."""
    key = [""]  # this term's spelling, once joined
    memo: dict[int, tuple] = {}
    out: list[str] = []
    size = 0
    opened: list[tuple] = []  # (node, start) of the nodes being spelled
    stack: list = [term]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
            size += len(t)
        elif t is None:  # the last opened node ends
            out.append(")")
            size += 1
            node, start = opened.pop()
            memo[id(node)] = (node, key, start, size)
        elif id(t) in spelled:
            hit = memo[id(t)] = spelled[id(t)]
            _, old, start, end = hit
            out.append(old[0][start:end])
            size += end - start
        else:
            opened.append((t, size))
            stack.append(None)
            for a in reversed(t[1]):
                stack += (a, ",")
            stack += ("(", t[0])
    key[0] = "".join(out)
    return key[0], memo


def naive_whole_term_monitor(program: Program,
                             strategy: Strategy = Strategy.LEFTMOST_OUTERMOST,
                             max_steps: int = 1000) -> MonitorOutcome:
    """Blocks when the whole current term repeats an earlier one. Misses
    divergence that never repeats a term."""
    seen: set[str] = set()
    spelled: dict[int, tuple] = {}

    def observe(name, path, term):
        # a normal form repeats no earlier term, so only terms with a redex are kept
        nonlocal spelled
        key, spelled = _spelling(term, spelled)
        if key in seen:
            return MonitorBlocked(len(seen) + 1, "whole term repeated")
        seen.add(key)

    return _monitor(program, strategy, max_steps, observe)


def head_function_monitor(program: Program,
                          strategy: Strategy = Strategy.LEFTMOST_OUTERMOST,
                          max_steps: int = 1000) -> MonitorOutcome:
    """Blocks when the chosen redex's head function was already expanded
    anywhere in the run. Blocks some normalizing programs."""
    expanded: set[str] = set()

    def observe(name, path, term):
        if len(expanded) >= max_steps:
            return None  # this redex would be step max_steps + 1
        if name in expanded:
            return MonitorBlocked(len(expanded) + 1, f"head {name!r} already expanded")
        expanded.add(name)

    return _monitor(program, strategy, max_steps, observe)


# ---------------------------------------------------------------------------
# Values, representations, heads


@dataclass(frozen=True)
class CtorVal:
    name: str
    args: tuple["Value", ...] = ()


@dataclass(frozen=True)
class PrimVal:
    prim: str
    label: str
    head: Head


@dataclass(frozen=True)
class OpaqueVal:
    type_name: str
    head: Head


Value = CtorVal | PrimVal | OpaqueVal


@dataclass(frozen=True)
class RImm:
    value: int


@dataclass(frozen=True)
class RBlock:
    tag: int
    args: tuple["Repr", ...] = ()


Repr = RImm | RBlock

_IMM_LABELS = {"bool": {0: "true", 1: "false"}, "unit": {0: "()"}}


def _head_samples(name: str, shape: HeadShape, make) -> list:
    out = []
    imm_values = [0, 1] if shape.imm is TOP else sorted(shape.imm)
    for v in imm_values:
        out.append(make(Imm(v), _IMM_LABELS.get(name, {}).get(v, str(v))))
    block_tags = [0] if shape.block is TOP else sorted(shape.block)
    for t in block_tags:
        out.append(make(Block(t), f"<{name}:{t}>"))
    return out


def _subst_type(ty: TypeExpr, sub: Mapping[str, TypeExpr]) -> TypeExpr:
    """`ty` with each variable in `sub` replaced, built on an explicit stack
    so that a field nested thousands of levels deep costs no recursion."""
    built: list[TypeExpr] = []
    stack: list = [ty]
    while stack:
        t = stack.pop()
        if isinstance(t, tuple):  # a node whose arguments are built
            (t,) = t
            n = len(t.args)
            args = tuple(built[-n:])
            del built[-n:]
            built.append(type(t)(t.name, args))
        elif isinstance(t, TVar):
            built.append(sub.get(t.name, t))
        elif t.args:
            stack.append((t,))
            stack.extend(reversed(t.args))
        else:
            built.append(t)
    return built[0]


def _unabbreviate(ty: TypeExpr, env: Mapping[str, Decl]) -> TypeExpr:
    """`ty` with the abbreviations at its head expanded in a loop, so that
    a chain of thousands of them costs no recursion. A cyclic one stops
    past 10⁶ expansions, the unfolding budget of `decls`."""
    limit = 10**6
    for _ in range(limit):
        decl = env.get(ty.name) if isinstance(ty, TyApp) else None
        if decl is None or not isinstance(decl.body, AbbrevBody):
            return ty
        ty = _subst_type(decl.body.body, dict(zip(decl.params, ty.args)))
    raise decl_mod.UnfoldBudgetError(f"more than {limit} abbreviation expansions")


def enumerate_values(ty: TypeExpr, decls: Sequence[Decl], depth: int,
                     prims: PrimTable | None = None) -> list[Value]:
    """All values of a closed type up to the given constructor depth.
    Primitive leaves are drawn from a fixed small inventory."""
    if depth > 4:
        raise ValueError("enumeration depth is limited to 4")
    if prims is None:
        prims = default_prim_table()
    env = {d.name: d for d in decls}

    def enum(ty: TypeExpr, depth: int) -> list[Value]:
        ty = _unabbreviate(ty, env)
        if isinstance(ty, TVar):
            raise decl_mod.UnboundTypeNameError(f"type is not closed: '{ty.name}")
        if isinstance(ty, PrimApp):
            entry = prims.get(ty.name)
            if entry is None:
                raise decl_mod.UnboundTypeNameError(f"unknown primitive {ty.name!r}")
            out = _head_samples(ty.name, entry.shape,
                                lambda h, label: PrimVal(ty.name, label, h))
            if entry.lazylike:
                for arg in ty.args:
                    out.extend(enum(arg, depth))
            return out
        decl = env.get(ty.name)
        if decl is None:
            raise decl_mod.UnboundTypeNameError(f"unbound type name {ty.name!r}")
        if isinstance(decl.body, AbstractBody):
            return _head_samples(ty.name, decl.body.shape,
                                 lambda h, _label: OpaqueVal(ty.name, h))
        if depth <= 0:
            return []
        sub = dict(zip(decl.params, ty.args))
        out: list[Value] = []
        for c in decl.body.ctors:
            fields = [_subst_type(f, sub) for f in c.arg_types]
            for combo in product(*(enum(f, depth - 1) for f in fields)):
                out.append(CtorVal(c.name, tuple(combo)))
        return out

    return enum(ty, depth)


def repr_value(v: Value, ty: TypeExpr, decls: Sequence[Decl],
               prims: PrimTable | None = None) -> Repr:
    """Low-level representation of a well-typed value: constant
    constructors become immediates, non-constant ones tagged blocks, and
    unboxed constructors the representation of their argument."""
    if prims is None:
        prims = default_prim_table()
    env = {d.name: d for d in decls}

    def head_repr(h: Head) -> Repr:
        return RImm(h.value) if isinstance(h, Imm) else RBlock(h.tag)

    def go(v: Value, ty: TypeExpr) -> Repr:
        ty = _unabbreviate(ty, env)
        if isinstance(ty, PrimApp):
            entry = prims.get(ty.name)
            if isinstance(v, PrimVal) and v.prim == ty.name:
                return head_repr(v.head)
            if entry is not None and entry.lazylike and ty.args:
                return go(v, ty.args[0])
            raise IllTypedError(f"value does not inhabit {ty.name!r}")
        if not isinstance(ty, TyApp):
            raise IllTypedError("type is not closed")
        decl = env.get(ty.name)
        if decl is None:
            raise IllTypedError(f"unbound type name {ty.name!r}")
        if isinstance(decl.body, AbstractBody):
            if isinstance(v, OpaqueVal) and v.type_name == ty.name:
                return head_repr(v.head)
            raise IllTypedError(f"value does not inhabit abstract {ty.name!r}")
        if not isinstance(v, CtorVal):
            raise IllTypedError(f"expected a constructor value of {ty.name!r}")
        sub = dict(zip(decl.params, ty.args))
        for c in decl.body.ctors:
            if c.name != v.name:
                continue
            fields = [_subst_type(f, sub) for f in c.arg_types]
            if len(fields) != len(v.args):
                raise IllTypedError(f"constructor {c.name!r} arity mismatch")
            if c.unboxed:
                return go(v.args[0], fields[0])
            if c.constant:
                return RImm(c.index)
            return RBlock(c.index, tuple(go(a, f) for a, f in zip(v.args, fields)))
        raise IllTypedError(f"no constructor {v.name!r} in {ty.name!r}")

    return go(v, ty)


def head_of(v: Value, ty: TypeExpr, decls: Sequence[Decl],
            prims: PrimTable | None = None) -> Head:
    r = repr_value(v, ty, decls, prims)
    return Imm(r.value) if isinstance(r, RImm) else Block(r.tag)


def render_value(v: Value) -> str:
    if isinstance(v, PrimVal):
        return v.label
    if isinstance(v, OpaqueVal):
        return f"<{v.type_name}>"
    if not v.args:
        return v.name
    return f"{v.name}({', '.join(render_value(a) for a in v.args)})"


# ---------------------------------------------------------------------------
# Seeded corpus generators


@dataclass(frozen=True)
class GenParams:
    count: int = 100
    max_defs: int = 4
    max_arity: int = 2
    max_depth: int = 3
    recursion_bias: float = 0.5
    mode: Mode = Mode.FIRST_ORDER

    def __post_init__(self) -> None:
        if self.max_defs > 6 or self.max_arity > 3 or self.max_depth > 4:
            raise ValueError("generator sizes are bounded: defs<=6, arity<=3, depth<=4")


_FREE_NAMES = ("c1", "c2", "k")
_PARAM_NAMES = ("x", "y", "z")


def _gen_term(rng: random.Random, depth: int, params: tuple[str, ...],
              defs: list[tuple[str, int]], mode: Mode) -> Term:
    higher = mode is Mode.CLOSED_HIGHER_ORDER
    if depth <= 0 or (not defs and rng.random() < 0.3):
        if params and rng.random() < 0.5:
            return Var(rng.choice(params))
        name = rng.choice(_FREE_NAMES)
        return Var(name) if higher and rng.random() < 0.5 else App(Var(name), ())
    r = rng.random()
    if defs and r < 0.5:
        name, arity = rng.choice(defs)
        if higher and rng.random() < 0.2:
            return Var(name)  # pass the function itself around
        args = tuple(_gen_term(rng, depth - 1, params, defs, mode) for _ in range(arity))
        return App(Var(name), args)
    if params and r < 0.7:
        if higher and rng.random() < 0.25:
            args = tuple(_gen_term(rng, depth - 1, params, defs, mode)
                         for _ in range(rng.randint(1, 2)))
            return App(Var(rng.choice(params)), args)
        return Var(rng.choice(params))
    name = rng.choice(_FREE_NAMES)
    args = tuple(_gen_term(rng, depth - 1, params, defs, mode)
                 for _ in range(rng.randint(0, 2)))
    return App(Var(name), args)


def gen_programs(seed: int, params: GenParams) -> list[Program]:
    """Deterministic random programs, biased toward recursive reference
    cycles via direct self and mutual calls."""
    rng = random.Random(seed)
    out: list[Program] = []
    for _ in range(params.count):
        n_defs = rng.randint(0, params.max_defs)
        sigs = [(f"f{i}", rng.randint(0, params.max_arity)) for i in range(n_defs)]
        defs = []
        for name, arity in sigs:
            formals = _PARAM_NAMES[:arity]
            callable_defs = [s for s in sigs if rng.random() < params.recursion_bias] or sigs
            body = _gen_term(rng, params.max_depth, formals, callable_defs, params.mode)
            defs.append(Definition(name, formals, body))
        root = _gen_term(rng, params.max_depth, (), sigs, params.mode)
        out.append(Program(tuple(defs), root, params.mode))
    return out


_PRIM_CHOICES = ("int", "bool", "unit", "string", "float")


def _gen_type(rng: random.Random, depth: int, params: tuple[str, ...],
              sigs: list[tuple[str, int]], bias: float) -> TypeExpr:
    r = rng.random()
    if depth > 0 and sigs and r < bias:
        name, arity = rng.choice(sigs)
        return TyApp(name, tuple(_gen_type(rng, depth - 1, params, sigs, bias)
                                 for _ in range(arity)))
    if params and r < bias + 0.25:
        return TVar(rng.choice(params))
    return PrimApp(rng.choice(_PRIM_CHOICES), ())


def gen_decls(seed: int, params: GenParams) -> list[list[Decl]]:
    """Deterministic random declaration files (one inner list per file)."""
    rng = random.Random(seed)
    files: list[list[Decl]] = []
    for _ in range(params.count):
        n = rng.randint(1, max(1, params.max_defs))
        names = [f"t{i}" for i in range(n)]
        sigs = [(name, rng.randint(0, 1)) for name in names]
        file_decls: list[Decl] = []
        for name, arity in sigs:
            ty_params = ("a",)[:arity]
            roll = rng.random()
            if roll < 0.08:
                shape = rng.choice((
                    HeadShape(TOP, frozenset()),
                    HeadShape(frozenset(), frozenset({255})),
                    HeadShape(TOP, TOP),
                ))
                file_decls.append(Decl(name, ty_params, AbstractBody(shape)))
                continue
            if roll < 0.2:
                body = _gen_type(rng, params.max_depth, ty_params, sigs, params.recursion_bias)
                file_decls.append(Decl(name, ty_params, AbbrevBody(body)))
                continue
            specs = []
            for i in range(rng.randint(1, 3)):
                unboxed = rng.random() < 0.4
                if unboxed:
                    fields = (_gen_type(rng, params.max_depth, ty_params, sigs,
                                        params.recursion_bias),)
                else:
                    fields = tuple(
                        _gen_type(rng, params.max_depth, ty_params, sigs, params.recursion_bias)
                        for _ in range(rng.randint(0, 2))
                    )
                specs.append((f"C{i}", fields, unboxed))
            file_decls.append(Decl(name, ty_params, decl_mod.make_variant(specs)))
        files.append(file_decls)
    return files


def gen_macros(seed: int, params: GenParams) -> list[tuple[dict[str, cppmacro.MacroDef], tuple]]:
    """Deterministic random first-order macro systems with one call each."""
    rng = random.Random(seed)
    out = []
    for _ in range(params.count):
        n = rng.randint(1, max(1, params.max_defs))
        sigs = [(f"m{i}", rng.randint(1, max(1, params.max_arity))) for i in range(n)]
        defs: dict[str, cppmacro.MacroDef] = {}
        for name, arity in sigs:
            formals = _PARAM_NAMES[:arity]
            callable_defs = [s for s in sigs if rng.random() < params.recursion_bias] or sigs
            body = _gen_term(rng, params.max_depth, formals, callable_defs, Mode.FIRST_ORDER)
            tokens = cppmacro.tokenize(calculus.render_term(body))
            defs[name] = cppmacro.MacroDef(name, formals, tokens)
        call_term = _gen_term(rng, params.max_depth, (), sigs, Mode.FIRST_ORDER)
        if not (isinstance(call_term, App) and isinstance(call_term.head, Var)
                and call_term.head.name in defs):
            name, arity = rng.choice(sigs)
            args = tuple(_gen_term(rng, params.max_depth - 1, (), sigs, Mode.FIRST_ORDER)
                         for _ in range(arity))
            call_term = App(Var(name), args)
        call = cppmacro.tokenize(calculus.render_term(call_term))
        assert cppmacro.first_order_violation(defs, call) is None
        out.append((defs, call))
    return out


# ---------------------------------------------------------------------------
# Suites


@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: list[str] = field(default_factory=list)
    left_out: str = ""  # cases the suite could not check and why, if any

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        line = f"{status:4} {self.name}: {self.checked} checks"
        if self.left_out:
            line += f", {self.left_out}"
        if self.failures:
            line += f", {len(self.failures)} failure(s); first: {self.failures[0]}"
        return line


def _check_traces(term: calculus.AnnTerm, defs: Mapping[str, Definition]) -> str | None:
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, calculus.Var):
            continue
        names = calculus.trace_names(t.trace)
        if len(set(names)) != len(names):
            return f"duplicate name in trace {names}"
        unknown = set(names) - set(defs)
        if unknown:
            return f"undefined name {sorted(unknown)[0]!r} in trace"
        stack.extend((t.head,) + t.args)
    return None


def run_measure_suite(seed: int = 2024, count: int = 500) -> SuiteResult:
    """Every monitored reduction step must strictly decrease the tree
    measure, keep traces valid, and be the plain step of the same strategy:
    same path, same name, same term before it. `count` programs are split
    between the two modes, and each runs under both strategies."""
    from . import measure

    result = SuiteResult("measure decrease", 0)
    for mi, mode in enumerate(Mode):
        programs = gen_programs(seed + mi, GenParams(count=max(1, count // len(Mode)), mode=mode))
        for pi, program in enumerate(programs):
            for strategy in Strategy:
                log: list = []

                def on_step(before, after, info, _p=program, _pi=pi, _mode=mode, _log=log):
                    result.checked += 1
                    if not measure.assert_decrease(before, after, _mode):
                        result.failures.append(
                            f"measure did not decrease (program {_pi}, {_mode.value}): "
                            f"{calculus.render_program(_p)!r}"
                        )
                    bad = _check_traces(after, _p.def_map)
                    if bad:
                        result.failures.append(f"trace invariant: {bad} (program {_pi})")
                    _log.append((info.path, info.name, calculus.erase(before)))

                calculus.normalize(program, strategy, on_step=on_step)
                if log != plain_steps(program, strategy, len(log)):
                    result.failures.append(f"simulation failed (program {pi}, {strategy.value})")
    return result


def _correctness_chunk(programs: Sequence[Program], fuel: int) -> SuiteResult:
    """Normal forms are compared by their spellings, not by the term
    classes' own `==`, so that the oracle does not depend on the classes it
    checks; the higher-order spelling writes the parentheses of every
    application, so equal spellings mean equal terms.
    The plain runs build only acyclic tuples, so a cyclic collection frees
    nothing they allocate, yet its scans of the growing term take over
    half of their time: the collector is paused for the programs and its
    previous state restored, also when a check raises."""
    checked = 0
    failures: list[str] = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for pi, program in enumerate(programs):
            for strategy in (Strategy.LEFTMOST_OUTERMOST, Strategy.LEFTMOST_INNERMOST):
                outcome = calculus.normalize(program, strategy)
                checked += 1
                if isinstance(outcome, calculus.Normal):
                    plain = fuel_normalize(program, strategy, fuel)
                    if not isinstance(plain, FuelNormal) or (
                            calculus.render_term(plain.term, Mode.CLOSED_HIGHER_ORDER)
                            != calculus.render_term(outcome.term, Mode.CLOSED_HIGHER_ORDER)):
                        failures.append(f"normal forms differ (program {pi}, {strategy.value})")
                elif strategy is Strategy.LEFTMOST_OUTERMOST:
                    plain = fuel_normalize(program, strategy, fuel)
                    if not isinstance(plain, OutOfFuel):
                        failures.append(
                            f"diverges but plain reduction finished (program {pi}): "
                            f"{calculus.render_program(program)!r}"
                        )
    finally:
        if was_enabled:
            gc.enable()
    return SuiteResult("monitored vs fuel", checked, failures)


def run_correctness_suite(seed: int = 77, count: int = 1000, fuel: int = 100_000) -> SuiteResult:
    """Monitored normalization terminates; its normal forms match plain
    fuel-bounded reduction, and its divergence verdicts leave plain
    leftmost-outermost reduction out of fuel."""
    _check_fuel(fuel)
    return _correctness_chunk(gen_programs(seed, GenParams(count=count)), fuel)


def run_macro_agreement_suite(seed: int = 4242, count: int = 500) -> SuiteResult:
    """Expansion and monitored normalization agree on generated
    first-order macro systems. A system whose expansion passes a budget,
    of substitutions or of tokens, is counted and left out, and the other
    systems still run."""
    result = SuiteResult("macro agreement", 0)
    past_budget: list[str] = []
    systems = gen_macros(seed, GenParams(count=count, max_arity=2))
    for si, (defs, call) in enumerate(systems):
        try:
            report = cppmacro.compare_first_order(defs, call)
        except cppmacro.ExpansionBudgetError as e:
            past_budget.append(f"system {si}, {e}")
            continue
        result.checked += 1
        if not report.agrees:
            result.failures.append(f"system {si}: {report.detail}")
    if past_budget:
        result.left_out = f"{len(past_budget)} past a budget (first: {past_budget[0]})"
    return result


_HEAD_UNIVERSE = [Imm(n) for n in range(-4, 261)] + [Block(n) for n in range(-4, 261)]


def _random_shape(rng: random.Random) -> HeadShape:
    def side(block: bool):
        if rng.random() < 0.2:
            return TOP
        lo, hi = (0, 255) if block else (-4, 260)
        return frozenset(rng.randint(lo, hi) for _ in range(rng.randint(0, 4)))

    return HeadShape(side(False), side(True))


def run_shape_semantics_suite(seed: int = 11, count: int = 10_000) -> SuiteResult:
    """Union and disjointness agree with exhaustive membership over the
    head test universe."""
    from .shapes import ConflictWitness, shape_disjoint_union, shape_mem, shape_union

    result = SuiteResult("shape semantics", 0)
    rng = random.Random(seed)
    for i in range(count):
        a = _random_shape(rng)
        b = _random_shape(rng)
        result.checked += 1
        union = shape_union(a, b)
        overlap = None
        for h in _HEAD_UNIVERSE:
            in_a = shape_mem(h, a)
            in_b = shape_mem(h, b)
            if shape_mem(h, union) != (in_a or in_b):
                result.failures.append(f"case {i}: union membership wrong at {h}")
                break
            if overlap is None and in_a and in_b:
                overlap = h
        dj = shape_disjoint_union(a, b)
        if isinstance(dj, ConflictWitness):
            if overlap is None:
                result.failures.append(f"case {i}: spurious conflict {dj}")
            else:
                witness = (Imm(dj.value) if dj.side == "imm" else Block(dj.value)) \
                    if dj.value is not None else None
                if witness is not None and not (shape_mem(witness, a) and shape_mem(witness, b)):
                    result.failures.append(f"case {i}: witness not shared")
        else:
            if overlap is not None:
                result.failures.append(f"case {i}: missed conflict at {overlap}")
            elif dj != union:
                result.failures.append(f"case {i}: disjoint union differs from union")
    return result


def run_enumeration_suite(decl_files: Sequence[str], depth: int = 3) -> SuiteResult:
    """Enumerated values of accepted declarations have heads inside the
    computed shape; dispatch tests are disjoint and classify every value's
    top constructor."""
    from .shapes import shape_mem

    result = SuiteResult("enumeration soundness", 0)
    prims = default_prim_table()
    for text in decl_files:
        ds = decl_mod.parse_decls(text, prims)
        reports = decl_mod.check_decls(ds, prims)
        for d, report in zip(ds, reports):
            if not isinstance(report, decl_mod.Accepted) or not isinstance(d.body, VariantBody):
                continue
            ground = TyApp(d.name, tuple(PrimApp("int", ()) for _ in d.params))
            values = enumerate_values(ground, ds, depth, prims)
            plans = {c.name: decl_mod.match_plan(d, c.name, report) for c in d.body.ctors}
            for h in _HEAD_UNIVERSE:
                owners = [n for n, p in plans.items() if shape_mem(h, p)]
                if len(owners) > 1:
                    result.failures.append(f"{d.name}: dispatch overlap at {h}: {owners}")
                    break
            for v in values:
                result.checked += 1
                h = head_of(v, ground, ds, prims)
                if not shape_mem(h, report.shape):
                    result.failures.append(
                        f"{d.name}: head {h} of {render_value(v)} outside declared shape")
                for ctor, plan in plans.items():
                    if shape_mem(h, plan) != (ctor == v.name):
                        result.failures.append(
                            f"{d.name}: {render_value(v)} misclassified for {ctor}")
    return result


def run_decl_agreement_suite(seed: int = 9, count: int = 150,
                             extra_files: Sequence[str] = ()) -> SuiteResult:
    """Type normalization agrees with the encoded recursive program."""
    result = SuiteResult("declaration agreement", 0)
    prims = default_prim_table()
    corpora: list[list[Decl]] = [decl_mod.parse_decls(t, prims) for t in extra_files]
    corpora.extend(gen_decls(seed, GenParams(count=count)))
    for fi, ds in enumerate(corpora):
        for d in ds:
            result.checked += 1
            r = decl_mod.check_lambda_agreement(ds, d.name, prims)
            if not r.agrees:
                result.failures.append(f"file {fi}, type {d.name}: {r.detail}")
    return result


def run_monitor_demos() -> SuiteResult:
    """The two rejected monitors fail exactly where expected and the trace
    monitor handles both programs."""
    result = SuiteResult("monitor comparison", 0)
    loop = calculus.parse_program("let rec loop(a) = loop(list(a)) in loop(int)")
    idid = calculus.parse_program("let rec id(a) = a in id(id(int))")
    self_call = calculus.parse_program("let rec w() = w() in w()")

    def check(label: str, cond: bool) -> None:
        result.checked += 1
        if not cond:
            result.failures.append(label)

    check("whole-term monitor should miss the growing loop",
          isinstance(naive_whole_term_monitor(loop), MonitorOutOfSteps))
    check("whole-term monitor should block the self call at step 2",
          naive_whole_term_monitor(self_call) == MonitorBlocked(2, "whole term repeated"))
    check("whole-term monitor should normalize the double application",
          isinstance(naive_whole_term_monitor(idid), MonitorNormal))
    check("head monitor should block the loop at its second redex",
          isinstance(head_function_monitor(loop), MonitorBlocked))
    check("head monitor should block the double application early",
          isinstance(head_function_monitor(idid), MonitorBlocked))
    check("head monitor should normalize a redex-free program",
          isinstance(head_function_monitor(calculus.parse_program("c(int)")), MonitorNormal))
    check("trace monitor should report the loop as divergent",
          isinstance(calculus.normalize(loop), calculus.Diverges))
    trace_out = calculus.normalize(idid)
    check("trace monitor should fully normalize the double application",
          isinstance(trace_out, calculus.Normal)
          and trace_out.term == App(Var("int"), ()) and trace_out.steps == 2)
    return result


def selftest(seed: int = 42, cases: int = 200, fuel: int = 100_000, echo=print) -> bool:
    """Run the whole oracle suite and print one line per suite."""
    from . import fixtures

    _check_fuel(fuel)  # before any suite runs
    suites = [
        run_monitor_demos(),
        run_measure_suite(seed, max(cases, 40)),
        run_correctness_suite(seed + 1, max(cases, 40), fuel),
        run_macro_agreement_suite(seed + 2, max(cases, 40)),
        run_shape_semantics_suite(seed + 3, max(cases * 10, 400)),
        run_enumeration_suite(fixtures.CHECK_CORPUS),
        run_decl_agreement_suite(seed + 4, max(cases // 2, 20),
                                 extra_files=fixtures.CHECK_CORPUS),
    ]
    ok = True
    for s in suites:
        echo(s.summary())
        ok = ok and s.ok
    echo("selftest: " + ("all suites passed" if ok else "FAILURES detected"))
    return ok
