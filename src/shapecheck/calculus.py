"""Recursive-function calculus with trace-monitored reduction.

Every function call carries a trace: the list of definitions whose expansion
produced it. A call whose own name already occurs in its trace is refused
(a "blocked redex"), which is what lets normalization report divergence in
finite time instead of looping. A trace is a shared linked node, extended
by one node per expansion and never copied; `TraceMonitor` tests a name
against it in O(1) per move of the search, made by `trace_fork`, the one
walk between two traces; `trace_names` spells a trace. The type unfolder in
`decls` and the macro expander in `cppmacro`, whose hide sets are traces,
run the same monitor. `read_term_at` reads terms from `.lam` files and
macro token pairs alike; `render_tree` prints terms and `decls`' types
alike. Terms and programs are immutable, so all values here can be shared
freely between threads; terms are `nodes.Node`s, which compare and hash
without recursion.

`normalize` takes the strategy-first step on a focus machine (a zipper)
that goes on from the last rewrite, so its work is linear in the steps it
takes. One search loop serves both strategies: leftmost-outermost tests a
node on the way down (preorder), leftmost-innermost on the way up
(postorder). The tests hold it, step by step, to a reference that shares
no code with it: it searches the whole term for that redex again and
rebuilds the term from the root (`reference_step` in tests/test_calculus.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Collection, Mapping, Sequence

from . import syntax
from .nodes import Node, setters


class Mode(Enum):
    FIRST_ORDER = "first-order"
    CLOSED_HIGHER_ORDER = "closed-higher-order"


class Strategy(Enum):
    LEFTMOST_OUTERMOST = "outermost"
    LEFTMOST_INNERMOST = "innermost"


class LamError(syntax.SourceError):
    pass


class ParseError(LamError):
    pass


class DuplicateDefinitionError(LamError):
    pass


class ArityMismatchError(LamError):
    pass


class MalformedProgramError(LamError):
    pass


Trace = tuple | None  # a linked node `(parent, name, depth)`; None is the empty trace
Path = tuple[int, ...]


class Var(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _var_name(self, name)

    def _leaves(self) -> tuple:
        return (self.name,)


class App(Node):
    __slots__ = ("head", "args")

    def __init__(self, head: Term, args: tuple[Term, ...] = ()):
        _app_head(self, head)
        _app_args(self, args)

    def _kids(self) -> tuple:
        return (self.head, *self.args)


Term = Var | App


class AnnApp(Node):
    """Application node annotated with the trace that produced it. Its
    hash leaves the trace out."""

    __slots__ = ("head", "args", "trace")

    def __init__(self, head: AnnTerm, args: tuple[AnnTerm, ...], trace: Trace):
        _ann_head(self, head)
        _ann_args(self, args)
        _ann_trace(self, trace)

    def _kids(self) -> tuple:
        return (self.head, *self.args)

    def _matches(self, other: AnnApp) -> bool:
        # the traces spell the same names below their lowest common node;
        # tuple `==` would recurse once per trace node
        _, mine, theirs = trace_fork(self.trace, other.trace)
        return mine == theirs


(_var_name,) = setters(Var)
_app_head, _app_args = setters(App)
_ann_head, _ann_args, _ann_trace = setters(AnnApp)

AnnTerm = Var | AnnApp


@dataclass(frozen=True)
class Definition:
    name: str
    params: tuple[str, ...]
    body: Term


@dataclass(frozen=True)
class Program:
    defs: tuple[Definition, ...]
    root: Term
    mode: Mode = Mode.FIRST_ORDER

    def __post_init__(self) -> None:
        _validate(self)

    @cached_property
    def def_map(self) -> dict[str, Definition]:
        return {d.name: d for d in self.defs}


def _validate(program: Program) -> None:
    names: set[str] = set()
    for d in program.defs:
        if d.name in names:
            raise DuplicateDefinitionError(f"duplicate definition of {d.name!r}")
        names.add(d.name)
    for d in program.defs:
        if len(set(d.params)) != len(d.params):
            raise DuplicateDefinitionError(f"duplicate parameter in definition of {d.name!r}")
        shadowed = set(d.params) & names
        if shadowed:
            raise DuplicateDefinitionError(
                f"parameter {sorted(shadowed)[0]!r} of {d.name!r} shadows a definition"
            )
    arities = {d.name: len(d.params) for d in program.defs}
    for d in program.defs:
        _validate_term(d.body, arities, set(d.params), program.mode)
    _validate_term(program.root, arities, set(), program.mode)


def _validate_term(term: Term, arities: Mapping[str, int], params: set[str], mode: Mode) -> None:
    """Check a first-order term in postorder on an explicit stack: the
    arguments, then the head, then the node; the first error met is raised.
    A closed higher-order term may apply and pass anything."""
    if mode is not Mode.FIRST_ORDER:
        return
    stack: list = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):  # a name as a head is never popped
            if t.name in arities:
                raise ArityMismatchError(
                    f"{t.name!r} expects {arities[t.name]} argument(s), got a bare occurrence"
                )
        elif isinstance(t, App):
            stack.append((t,))  # the node itself, tested after its children
            if not isinstance(t.head, Var):
                stack.append(t.head)
            stack.extend(reversed(t.args))
        else:
            (t,) = t
            head = t.head
            if not isinstance(head, Var):
                raise MalformedProgramError("application head must be a name in first-order mode")
            if head.name in params:
                raise MalformedProgramError(
                    f"parameter {head.name!r} cannot be applied in first-order mode"
                )
            if head.name in arities and len(t.args) != arities[head.name]:
                raise ArityMismatchError(
                    f"{head.name!r} expects {arities[head.name]} argument(s), got {len(t.args)}"
                )


def annotate(term: Term, subst: Mapping[str, AnnTerm], trace: Trace) -> AnnTerm:
    """Annotating substitution.

    Replaces variables according to `subst` (their own annotations are kept
    untouched) and stamps every application node originating from `term`
    with `trace`. Runs on an explicit stack: an application pushes its
    argument count, then its children; the count, once popped, gathers the
    built children off `built`.
    """
    built: list[AnnTerm] = []
    stack: list = [term]
    while stack:
        t = stack.pop()
        if type(t) is int:
            first = len(built) - t
            node = AnnApp(built[first - 1], tuple(built[first:]), trace)
            del built[first - 1:]
            built.append(node)
        elif isinstance(t, Var):
            built.append(subst.get(t.name, t))
        else:
            stack.append(len(t.args))
            stack.extend(reversed(t.args))
            stack.append(t.head)
    return built[0]


def erase(term: AnnTerm) -> Term:
    """Strip all traces, preserving structure and sharing. Runs on an
    explicit stack like `annotate`: an application pushes itself in a
    1-tuple, then its children, and the 1-tuple, once popped, gathers the
    built children off `built`; a node met again is taken from `memo`."""
    memo: dict[int, Term] = {}
    built: list[Term] = []
    stack: list = [term]
    while stack:
        t = stack.pop()
        if t.__class__ is tuple:
            (t,) = t
            first = len(built) - len(t.args)
            node = memo[id(t)] = App(built[first - 1], tuple(built[first:]))
            del built[first - 1:]
            built.append(node)
        elif isinstance(t, Var):
            built.append(t)
        elif id(t) in memo:
            built.append(memo[id(t)])
        else:
            stack.append((t,))
            stack.extend(reversed(t.args))
            stack.append(t.head)
    return built[0]


@dataclass(frozen=True)
class Reduced:
    path: Path
    name: str


@dataclass(frozen=True)
class Blocked:
    path: Path
    name: str
    trace: tuple[str, ...]


@dataclass(frozen=True)
class Normal:
    term: Term
    steps: int


@dataclass(frozen=True)
class Diverges:
    witness: Blocked
    steps: int


Outcome = Normal | Diverges

OnStep = Callable[[AnnTerm, AnnTerm, Reduced], None]


def normalize(
    program: Program,
    strategy: Strategy = Strategy.LEFTMOST_OUTERMOST,
    frozen: frozenset[str] = frozenset(),
    max_steps: int | None = None,
    on_step: OnStep | None = None,
) -> Outcome:
    """Monitored normalization from an all-empty-trace start.

    Always terminates: either with the erased normal form or with the
    blocked redex witnessing divergence. `max_steps` is a defensive bound
    only; `on_step` is invoked after each reduction with the terms before
    and after.

    Both strategies run the one search loop `_Focus.run`, which resumes
    at the last rewrite instead of searching the whole term again; the test
    reference `reference_step` does search it again. A name in `frozen`
    that no definition binds is opaque: its arguments are not searched.
    """
    return _Focus(program, frozen, max_steps, on_step).run(strategy is Strategy.LEFTMOST_OUTERMOST)


class _Focus:
    """The running term opened at one position (Huet's zipper).

    `frames` lists the ancestors of `focus` from the root down, each as
    `[node, children, index of the child in focus, whether a child was
    replaced]`; child 0 is the head, so the indices spell the focus's path.
    Everything before the focus in the strategy's order is known to hold no
    redex, so after a rewrite the search goes on from the rewritten
    position instead of from the root. The whole term is put back together
    only for `on_step`, by folding the frames around the focus in O(depth).
    """

    def __init__(self, program: Program, frozen: frozenset[str],
                 max_steps: int | None, on_step: OnStep | None):
        self.defs = program.def_map
        self.opaque = frozen - self.defs.keys()  # names whose arguments are not searched
        self.max_steps = max_steps
        self.on_step = on_step
        self.frames: list[list] = []
        self.steps = 0
        self.monitor = TraceMonitor()
        self.focus: AnnTerm = annotate(program.root, {}, None)
        self.term = self.focus  # the whole term after the last step, for on_step

    def run(self, outermost: bool) -> Outcome:
        """Search in preorder when `outermost`, else in postorder.

        Outermost tests a node on the way down. A rewrite leaves every node
        before the focus unchanged, and whether a node is a redex depends
        only on its own head, so the search goes on at the new body; only a
        rewrite of a head changes a node before it: its parent, tested again.
        Innermost tests a node once its children are done. The arguments of
        a redex lie before it, so they hold no redex; after the rewrite they
        are passed over wherever they occur."""
        defs, frames, opaque = self.defs, self.frames, self.opaque
        normal: dict[int, AnnTerm] = {}  # the last redex's arguments by id, kept alive
        while True:
            node = self.focus
            if isinstance(node, AnnApp) and id(node) not in normal:
                head = node.head
                if not isinstance(head, Var):
                    frames.append([node, [head, *node.args], 0, False])
                    self.focus = head
                    continue
                d = defs.get(head.name) if outermost else None
                if d is not None and len(node.args) == len(d.params):
                    if refused := self._rewrite(node, d):
                        return refused
                    if frames and frames[-1][2] == 0:
                        self._up()
                    continue
                if node.args and head.name not in opaque:
                    frames.append([node, [head, *node.args], 1, False])
                    self.focus = node.args[0]
                    continue
            while True:  # the focus is searched through: innermost tests it; then on in order
                node = self.focus
                if not outermost and isinstance(node, AnnApp) and isinstance(node.head, Var):
                    d = defs.get(node.head.name)
                    if d is not None and len(node.args) == len(d.params):
                        normal = {id(a): a for a in node.args}
                        if refused := self._rewrite(node, d):
                            return refused
                        break
                if not frames:
                    return Normal(erase(self.focus), self.steps)
                if frames[-1][2] == 0 and isinstance(node, Var) and node.name in opaque:
                    self._up()  # the head became an opaque name: the arguments are not searched
                elif self._next():
                    break
                else:
                    self._up()

    def _store(self) -> list:
        """Write the focus back into the innermost frame; return the frame."""
        frame = self.frames[-1]
        kids, i = frame[1], frame[2]
        if kids[i] is not self.focus:
            kids[i] = self.focus
            frame[3] = True
        return frame

    def _next(self) -> bool:
        """Move the focus to its next sibling, if it has one."""
        frame = self._store()
        kids = frame[1]
        if frame[2] + 1 == len(kids):
            return False
        frame[2] += 1
        self.focus = kids[frame[2]]
        return True

    def _up(self) -> None:
        """Close the innermost frame: its node, rebuilt if a child changed,
        becomes the focus."""
        node, kids, _, changed = self._store()
        self.frames.pop()
        self.focus = AnnApp(kids[0], tuple(kids[1:]), node.trace) if changed else node

    def _rewrite(self, node: AnnApp, d: Definition) -> Diverges | None:
        """Replace the redex in focus by its annotated body, unless its own
        name is on its trace: then the monitor refuses it, and the run ends."""
        trace = self.monitor.enter(node.trace, d.name)
        if trace is None:
            return Diverges(Blocked(self._path(), d.name, trace_names(node.trace)), self.steps)
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise MalformedProgramError(f"step limit {self.max_steps} exceeded")
        self.focus = annotate(d.body, dict(zip(d.params, node.args)), trace)
        if self.on_step is not None:
            # the term changes only at the focus between two steps
            after = self.focus
            for node, kids, i, _ in reversed(self.frames):
                kids = kids[:i] + [after] + kids[i + 1:]
                after = AnnApp(kids[0], tuple(kids[1:]), node.trace)
            self.on_step(self.term, after, Reduced(self._path(), d.name))
            self.term = after
        return None

    def _path(self) -> Path:
        return tuple(f[2] for f in self.frames)


# ---------------------------------------------------------------------------
# The trace monitor, which the type unfolder in `decls` and the macro
# expander in `cppmacro` run as well


def trace_names(trace: Trace) -> tuple[str, ...]:
    """The names on `trace`, the first expansion first."""
    names = []
    while trace is not None:
        names.append(trace[1])
        trace = trace[0]
    return tuple(reversed(names))


def trace_fork(a: Trace, b: Trace) -> tuple[Trace, list, list]:
    """The lowest node common to the traces `a` and `b`, and the names of
    each below it, the last expansion first. O(1) from a node to its child
    or sibling, at most the two depths."""
    a_names, b_names = [], []
    while a is not b:
        if b is None or (a is not None and a[2] >= b[2]):
            a_names.append(a[1])
            a = a[0]
        else:
            b_names.append(b[1])
            b = b[0]
    return a, a_names, b_names


class TraceMonitor:
    """The monitor of one walk: it refuses a name already on its trace.

    `names` holds the names on `cur`, the trace last entered. A test on
    another trace first moves `names` there by `trace_fork`. A trace never
    repeats a name, so leaving a node discards its name."""

    __slots__ = ("names", "cur")

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.cur: Trace = None

    def enter(self, trace: Trace, name: str) -> Trace:
        """`trace` extended by `name`, or None when `name` is on it."""
        names = self.names
        if self.cur is not trace:
            _, left, entered = trace_fork(self.cur, trace)
            names.difference_update(left)
            names.update(entered)
        if name in names:
            self.cur = trace
            return None
        names.add(name)
        self.cur = (trace, name, trace[2] + 1 if trace else 1)
        return self.cur


# ---------------------------------------------------------------------------
# Concrete syntax


_SCAN = syntax.scanner(
    (syntax.SKIP, r"#.*"),
    ("kw", r"(?:let|rec|and|in)(?![a-zA-Z0-9_])"),
    ("name", r"[a-z_][a-zA-Z0-9_]*"),
    ("punct", r"[(),=]"),
)


_PUNCT = ("(", ")", ",")


def read_term_at(texts: Sequence[str | None], pos: int, params: Collection[str], mode: Mode,
                 fail: Callable[[int, str], None]) -> tuple[Term, int]:
    """`name (args)*` from `texts[pos]` on, and the position after it, read
    on an explicit stack of open argument lists so that nesting depth costs
    no recursion. `texts` spells each token, None for one that is neither
    a name nor `(`, `)` or `,`, and ends with None; names in `params` stay
    variables. On a token that does not fit, `fail(position, expected)`
    raises. The `.lam` parser and `cppmacro.read_term` both read with it."""
    first_order = mode is Mode.FIRST_ORDER
    open_apps: list[tuple[Term, list[Term]]] = []
    while True:
        name = texts[pos]
        if name is None or name in _PUNCT:
            fail(pos, "a name")
        pos += 1
        node: Term = Var(name)
        if first_order and texts[pos] != "(" and name not in params:
            # free names and nullary calls are applications so that they
            # carry a trace once annotated
            node = App(node, ())
        while True:
            follow = texts[pos]
            if follow == "(":
                pos += 1
                if texts[pos] != ")":
                    open_apps.append((node, []))
                    break  # read the first argument
                pos += 1
                node = App(node, ())
                continue
            if not open_apps:
                return node, pos
            head, args = open_apps[-1]
            args.append(node)
            if follow == ",":
                pos += 1
                break  # read the next argument
            if follow != ")":
                fail(pos, "')'")
            pos += 1
            open_apps.pop()
            node = App(head, tuple(args))


class _Parser(syntax.Cursor):
    error = ParseError

    def __init__(self, toks: Sequence[syntax.Tok], mode: Mode):
        super().__init__(toks)
        self.mode = mode
        self.texts = [t.text if t.kind == "name" or t.text in _PUNCT else None for t in toks]

    def name(self) -> syntax.Tok:
        return self.expect_kind("name", "a name")

    def term(self, params: Collection[str]) -> Term:
        term, self.pos = read_term_at(self.texts, self.pos, params, self.mode, self.fail_at)
        return term

    def fail_at(self, pos: int, expected: str) -> None:
        t = self.toks[pos]
        raise self.fail(f"expected {expected}, found {t.text or 'end of input'!r}", t)

    def definition(self) -> Definition:
        t = self.name()
        self.expect("(")
        params: list[str] = []
        if self.peek().text != ")":
            params.append(self.name().text)
            while self.peek().text == ",":
                self.next()
                params.append(self.name().text)
        self.expect(")")
        self.expect("=")
        body = self.term(params)
        return Definition(t.text, tuple(params), body)


def parse_program(text: str, mode: Mode = Mode.FIRST_ORDER) -> Program:
    """Parse `let rec f(x) = ... and ... in term` (or a bare term)."""
    p = _Parser(syntax.lex(text, _SCAN, ParseError), mode)
    defs: list[Definition] = []
    if p.peek().text == "let":
        p.expect("let")
        p.expect("rec")
        defs.append(p.definition())
        while p.peek().text == "and":
            p.next()
            defs.append(p.definition())
        p.expect("in")
    root = p.term(())
    p.end()
    return Program(tuple(defs), root, mode)


def render_tree(tree, layout: Callable[[object], list]) -> str:
    """Concatenate a term or type `tree` on an explicit stack: a `Var` is
    its name, and `layout` spells any other node as a list of strings and
    subtrees, in order."""
    out: list[str] = []
    stack: list = [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        else:
            stack.extend(reversed(layout(t)))
    return "".join(out)


def arg_list(args: tuple) -> list:
    items: list = ["("]
    for i, a in enumerate(args):
        if i:
            items.append(", ")
        items.append(a)
    items.append(")")
    return items


def render_term(term: Term, mode: Mode = Mode.FIRST_ORDER) -> str:
    bare_constants = mode is Mode.FIRST_ORDER
    return render_tree(term, lambda t: [t.head] if bare_constants and not t.args
                       else [t.head, *arg_list(t.args)])


def render_ann_term(term: AnnTerm, mode: Mode = Mode.FIRST_ORDER) -> str:
    def layout(t: AnnApp) -> list:
        trace = f"[{','.join(trace_names(t.trace))}]"
        if mode is not Mode.FIRST_ORDER:
            return [t.head, *arg_list(t.args), trace]
        return [t.head, trace, *arg_list(t.args)] if t.args else [t.head, trace]

    return render_tree(term, layout)


def render_program(program: Program) -> str:
    lines = []
    for i, d in enumerate(program.defs):
        kw = "let rec" if i == 0 else "and"
        lines.append(f"{kw} {d.name}({', '.join(d.params)}) = {render_term(d.body, program.mode)}")
    if program.defs:
        lines.append(f"in {render_term(program.root, program.mode)}")
    else:
        lines.append(render_term(program.root, program.mode))
    return "\n".join(lines) + "\n"
