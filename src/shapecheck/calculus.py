"""Recursive-function calculus with trace-monitored reduction.

Every function call carries a trace: the list of definitions whose expansion
produced it. A call whose own name already occurs in its trace is refused
(a "blocked redex"), which is what lets normalization report divergence in
finite time instead of looping. Terms and programs are immutable, so all
values here can be shared freely between threads.

`normalize` takes the strategy-first step on a focus machine (a zipper)
that goes on from the last rewrite, so its work is linear in the steps it
takes. The tests hold it, step by step, to a reference that searches the
whole term for that redex again (`reference_step` in tests/test_calculus.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Collection, Mapping, Sequence

from . import syntax


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


Trace = tuple[str, ...]
Path = tuple[int, ...]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    head: "Term"
    args: tuple["Term", ...] = ()


Term = Var | App


@dataclass(frozen=True)
class AnnApp:
    """Application node annotated with the trace that produced it."""

    head: "AnnTerm"
    args: tuple["AnnTerm", ...]
    trace: Trace


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


def _children(t: AnnApp | App) -> tuple:
    # child 0 is the head, arguments follow
    return (t.head,) + t.args


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


def _postorder(term: Term) -> list[tuple[Term, bool]]:
    out: list[tuple[Term, bool]] = []
    stack: list[tuple[Term, bool, bool]] = [(term, False, False)]
    while stack:
        t, is_head, expanded = stack.pop()
        if expanded or isinstance(t, Var):
            out.append((t, is_head))
            continue
        stack.append((t, is_head, True))
        stack.append((t.head, True, False))
        for child in reversed(t.args):
            stack.append((child, False, False))
    return out


def _validate_term(term: Term, arities: Mapping[str, int], params: set[str], mode: Mode) -> None:
    first_order = mode is Mode.FIRST_ORDER
    for t, is_head in _postorder(term):
        if isinstance(t, Var):
            if first_order and not is_head and t.name in arities:
                raise ArityMismatchError(
                    f"{t.name!r} expects {arities[t.name]} argument(s), got a bare occurrence"
                )
            continue
        head = t.head
        if not isinstance(head, Var):
            if first_order:
                raise MalformedProgramError(
                    "application head must be a name in first-order mode"
                )
            continue
        if first_order and head.name in params:
            raise MalformedProgramError(
                f"parameter {head.name!r} cannot be applied in first-order mode"
            )
        if first_order and head.name in arities and len(t.args) != arities[head.name]:
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
    """Strip all traces, preserving structure."""
    memo: dict[int, Term] = {}
    stack = [term]
    while stack:
        t = stack[-1]
        if id(t) in memo:
            stack.pop()
            continue
        if isinstance(t, Var):
            memo[id(t)] = t
            stack.pop()
            continue
        pending = [k for k in _children(t) if id(k) not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[id(t)] = App(memo[id(t.head)], tuple(memo[id(a)] for a in t.args))
        stack.pop()
    return memo[id(term)]


def replace_at(term: AnnTerm, path: Path, sub: AnnTerm) -> AnnTerm:
    spine: list[AnnApp] = []
    t = term
    for i in path:
        spine.append(t)
        t = _children(t)[i]
    new = sub
    for node, i in zip(reversed(spine), reversed(path)):
        kids = list(_children(node))
        kids[i] = new
        new = AnnApp(kids[0], tuple(kids[1:]), node.trace)
    return new


@dataclass(frozen=True)
class Reduced:
    path: Path
    name: str


@dataclass(frozen=True)
class Blocked:
    path: Path
    name: str
    trace: Trace


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

    Resumes at the last rewrite instead of searching the whole term again
    (see `_Focus`); the test reference `reference_step` does search it again.
    """
    machine = _Focus(program, frozen, max_steps, on_step)
    if strategy is Strategy.LEFTMOST_OUTERMOST:
        return machine.outermost()
    return machine.innermost()


class _Focus:
    """The running term opened at one position (Huet's zipper).

    `frames` lists the ancestors of `focus` from the root down, each as
    `[node, children, index of the child in focus, whether a child was
    replaced]`; child 0 is the head, so the indices spell the focus's path.
    Everything before the focus in the strategy's order is known to hold no
    redex, so after a rewrite the search goes on from the rewritten
    position instead of from the root. The whole term is put back together
    only for `on_step`, in O(depth).
    """

    def __init__(self, program: Program, frozen: frozenset[str],
                 max_steps: int | None, on_step: OnStep | None):
        self.defs = program.def_map
        self.frozen = frozen
        self.max_steps = max_steps
        self.on_step = on_step
        self.frames: list[list] = []
        self.steps = 0
        self.focus: AnnTerm = annotate(program.root, {}, ())
        self.term = self.focus  # the whole term after the last step, for on_step

    def outermost(self) -> Outcome:
        """Preorder search. A rewrite leaves every node before the focus
        unchanged, and whether a node is a redex depends only on its own
        head, so the search goes on at the new body. Only a rewrite of a
        head changes a node before it: its parent, examined again."""
        defs, frames = self.defs, self.frames
        while True:
            node = self.focus
            if isinstance(node, AnnApp):
                head = node.head
                if not isinstance(head, Var):
                    frames.append([node, [head, *node.args], 0, False])
                    self.focus = head
                    continue
                d = defs.get(head.name)
                if d is not None and len(node.args) == len(d.params):
                    if head.name in node.trace:
                        return self._blocked(node)
                    self._rewrite(node, d)
                    if frames and frames[-1][2] == 0:
                        self._up()
                    continue
                if node.args and not self._opaque(head.name):
                    frames.append([node, [head, *node.args], 1, False])
                    self.focus = node.args[0]
                    continue
            # no redex at or below the focus: on to the next subterm in preorder
            while frames and not self._next():
                self._up()
            if not frames:
                return Normal(erase(self.focus), self.steps)

    def innermost(self) -> Outcome:
        """Postorder search: a node is examined once its children are done.
        The arguments of a redex lie before it, so they hold no redex; after
        the rewrite only the nodes built from the definition body are
        searched, and the arguments, wherever they occur, are passed over."""
        defs, frames = self.defs, self.frames
        normal: tuple = ()  # the last redex's arguments, kept alive for their ids
        normal_ids: set[int] = set()
        while True:
            node = self.focus
            if isinstance(node, AnnApp) and id(node) not in normal_ids:
                head = node.head
                if not isinstance(head, Var):
                    frames.append([node, [head, *node.args], 0, False])
                    self.focus = head
                    continue
                if node.args and not self._opaque(head.name):
                    frames.append([node, [head, *node.args], 1, False])
                    self.focus = node.args[0]
                    continue
            # the focus is searched through: examine it, then move on in postorder
            while True:
                node = self.focus
                if isinstance(node, AnnApp) and isinstance(node.head, Var):
                    d = defs.get(node.head.name)
                    if d is not None and len(node.args) == len(d.params):
                        if d.name in node.trace:
                            return self._blocked(node)
                        normal = node.args
                        normal_ids = {id(a) for a in normal}
                        self._rewrite(node, d)
                        break
                if not frames:
                    return Normal(erase(self.focus), self.steps)
                if frames[-1][2] == 0 and isinstance(node, Var) and self._opaque(node.name):
                    self._up()  # the head became an opaque name: the arguments are not searched
                elif self._next():
                    break
                else:
                    self._up()

    def _opaque(self, name: str) -> bool:
        return name in self.frozen and name not in self.defs

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

    def _rewrite(self, node: AnnApp, d: Definition) -> None:
        """Replace the redex in focus by its annotated body."""
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise MalformedProgramError(f"step limit {self.max_steps} exceeded")
        self.focus = annotate(d.body, dict(zip(d.params, node.args)), node.trace + (d.name,))
        if self.on_step is not None:
            # the term changes only at the focus between two steps
            path = self._path()
            after = replace_at(self.term, path, self.focus)
            self.on_step(self.term, after, Reduced(path, d.name))
            self.term = after

    def _path(self) -> Path:
        return tuple(f[2] for f in self.frames)

    def _blocked(self, node: AnnApp) -> Diverges:
        return Diverges(Blocked(self._path(), node.head.name, node.trace), self.steps)


# ---------------------------------------------------------------------------
# Concrete syntax


_SCAN = syntax.scanner(
    (syntax.SKIP, r"#.*"),
    ("kw", r"(?:let|rec|and|in)(?![a-zA-Z0-9_])"),
    ("name", r"[a-z_][a-zA-Z0-9_]*"),
    ("punct", r"[(),=]"),
)


class _Parser(syntax.Cursor):
    error = ParseError

    def __init__(self, toks: Sequence[syntax.Tok], mode: Mode):
        super().__init__(toks)
        self.mode = mode

    def name(self) -> syntax.Tok:
        return self.expect_kind("name", "a name")

    def term(self, params: Collection[str]) -> Term:
        """`name (args)*`, read on an explicit stack of open argument lists
        so that nesting depth costs no recursion. The position is kept in a
        local; on a token that does not fit, the cursor's own check raises."""
        toks, pos = self.toks, self.pos
        first_order = self.mode is Mode.FIRST_ORDER
        open_apps: list[tuple[Term, list[Term]]] = []
        while True:
            t = toks[pos]
            if t.kind != "name":
                self.pos = pos
                self.name()
            pos += 1
            node: Term = Var(t.text)
            if first_order and toks[pos].text != "(" and t.text not in params:
                # free names and nullary calls are applications so that they
                # carry a trace once annotated
                node = App(node, ())
            while True:
                follow = toks[pos].text
                if follow == "(":
                    pos += 1
                    if toks[pos].text != ")":
                        open_apps.append((node, []))
                        break  # read the first argument
                    pos += 1
                    node = App(node, ())
                    continue
                if not open_apps:
                    self.pos = pos
                    return node
                head, args = open_apps[-1]
                args.append(node)
                if follow == ",":
                    pos += 1
                    break  # read the next argument
                if follow != ")":
                    self.pos = pos
                    self.expect(")")
                pos += 1
                open_apps.pop()
                node = App(head, tuple(args))

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


def read_term(toks: Sequence[syntax.Tok], params: Collection[str] = ()) -> Term:
    """One first-order term spanning `toks`, which are already split into
    `name` and `punct` tokens; names in `params` stay variables."""
    p = _Parser(list(toks) + [syntax.Tok("eof", "", 0, 0)], Mode.FIRST_ORDER)
    term = p.term(params)
    p.end()
    return term


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


def _render(term: Term | AnnTerm, layout: Callable[[App | AnnApp], list]) -> str:
    """Concatenate `term` on an explicit stack: `layout` spells an
    application as a list of strings and subterms, in order."""
    out: list[str] = []
    stack: list = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        else:
            stack.extend(reversed(layout(t)))
    return "".join(out)


def _arg_list(args: tuple) -> list:
    items: list = ["("]
    for i, a in enumerate(args):
        if i:
            items.append(", ")
        items.append(a)
    items.append(")")
    return items


def render_term(term: Term, mode: Mode = Mode.FIRST_ORDER) -> str:
    bare_constants = mode is Mode.FIRST_ORDER
    return _render(term, lambda t: [t.head] if bare_constants and not t.args
                   else [t.head, *_arg_list(t.args)])


def render_ann_term(term: AnnTerm, mode: Mode = Mode.FIRST_ORDER) -> str:
    def layout(t: AnnApp) -> list:
        trace = f"[{','.join(t.trace)}]"
        if mode is not Mode.FIRST_ORDER:
            return [t.head, *_arg_list(t.args), trace]
        return [t.head, trace, *_arg_list(t.args)] if t.args else [t.head, trace]

    return _render(term, layout)


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
