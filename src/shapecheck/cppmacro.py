"""Core-fragment macro expander with hide sets.

Function-like macros only: identifiers, parentheses, commas and opaque
literal tokens. A token is a `(text, hide)` pair: identifiers and
parentheses carry a frozenset of macro names that are never re-expanded
from that token, literals and commas carry None, and a comma is told by
its text and its None. A macro call adds its own name, intersected between
the hide sets of the name token and the closing parenthesis, to everything
it produces. Expansion runs on an explicit stack and expands each actual
at most once per call. Inside `expand` a non-empty hide set is a calculus
trace, a linked node: `calculus.TraceMonitor.enter` both refuses a hidden
call and adds the called name, and the union and intersection of two hide
sets walk between them by `calculus.trace_fork`, the walk the monitor
moves by. Frozensets appear only at the boundary of `expand`. Every map
over the hide sets of a sequence is the one loop `_rehide`, which converts
each distinct set once. The module also provides a harness comparing
expansion against monitored normalization of the same system encoded as a
first-order program, read straight from the token pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Callable, Collection, Iterable, Mapping, Sequence

from . import calculus, syntax
from .calculus import (Definition, Mode, Program, Strategy, Term, Trace, TraceMonitor,
                       trace_fork, trace_names)
from .syntax import Tok


class MacroError(Exception):
    pass


class MalformedCallError(MacroError):
    pass


class NotFirstOrderError(MacroError):
    pass


class ExpansionBudgetError(MacroError):
    pass


Token = tuple  # (identifier or parenthesis, frozenset) or (literal or ",", None)
TokenSeq = Sequence[Token]
_EMPTY: frozenset[str] = frozenset()

# Tokens one `expand` may stamp, summed over its substitutions: an actual
# that doubles at each level runs out of memory long before its few
# substitutions reach the budget.
_TOKEN_LIMIT = 10_000_000


@dataclass(frozen=True)
class MacroDef:
    name: str
    formals: tuple[str, ...]
    body: TokenSeq  # hide sets empty


def _rehide(tokens: Iterable[Token], convert: Callable) -> list[Token]:
    """`tokens` with each hide set `h` replaced by `convert(h)`, asked once
    per distinct set. A token whose set does not change passes through and a
    literal keeps None; the others become one object per text and new set,
    so that copies of a sequence cost no new tokens."""
    # id(h) -> (h, convert(h), the new tokens by text, or None when unchanged);
    # the entry keeps `h` alive, so its id is not reused while it is a key
    sets: dict[int, tuple] = {}
    out = []
    last = made = None
    for t in tokens:
        h = t[1]
        if h is not last:
            last = h
            if h is None:
                made = None
            else:
                entry = sets.get(id(h))
                if entry is None:
                    new = convert(h)
                    entry = sets[id(h)] = (h, new, None if new is h else {})
                _, new, made = entry
        if made is None:
            out.append(t)
            continue
        u = made.get(t[0])
        if u is None:
            u = made[t[0]] = (t[0], new)
        out.append(u)
    return out


def hsadd(hide: frozenset[str], tokens: Iterable[Token]) -> TokenSeq:
    """Union `hide` into the hide set of every identifier and parenthesis."""
    return tuple(_rehide(tokens, lambda h: h | hide))


def _body(body: list, formals: tuple[str, ...]) -> list:
    """`body` with each formal occurrence replaced by the formal's index."""
    return [formals.index(t[0]) if t[1] is not None and t[0] in formals else t for t in body]


class _Subst:
    """A substitution in progress: `items` walks the body, `memo` holds each
    expanded actual with the substitutions its expansion took."""
    __slots__ = ("items", "actuals", "hide", "acc", "memo", "waiting", "start")

    def __init__(self, body: list, actuals: list, hide: tuple):
        self.items = iter(body)
        self.actuals = actuals
        self.hide = hide
        self.acc: list = []
        self.memo: dict[int, tuple[list, int]] = {}


class _Engine:
    """Expansion on an explicit stack of scans and pending substitutions. A
    scan is a `(work, out)` pair with `work` reversed, so its next token is
    `work[-1]`; a substitution waits on the scan above it for an actual,
    which it keeps for the formal's later uses.

    A hide set is `_EMPTY` or a calculus trace, the empty trace None being
    a literal's mark; `hide or None` is the trace."""

    def __init__(self, defs: Mapping[str, MacroDef], budget: int):
        self.defs = defs
        self.budget = budget
        self.substs = 0
        self.stamped = 0
        self.bodies: dict[str, list] = {}
        self.monitor = TraceMonitor()
        # (id(trace), name) -> (trace, the monitor's answer), which keeps
        # `trace` alive: each answer is asked for once, and equal paths are
        # one node
        self.answers: dict[tuple[int, str], tuple] = {}

    def charge(self, n: int) -> None:
        self.substs += n
        if self.substs > self.budget:
            raise ExpansionBudgetError(f"more than {self.budget} substitutions")

    def enter(self, trace: Trace, name: str) -> Trace:
        """`trace` extended by `name`, or None when `name` is on it."""
        key = (id(trace), name)
        answer = self.answers.get(key)
        if answer is None:
            answer = self.answers[key] = (trace, self.monitor.enter(trace, name))
        return answer[1]

    def extend(self, trace: Trace, names: Iterable[str]) -> Trace:
        """`trace` extended by `names`, none of which is on it."""
        for name in names:
            trace = self.enter(trace, name)
        return trace

    def inward(self, tokens: Iterable[Token]) -> list:
        """`tokens` with each hide set as the engine keeps it: a trace, or
        `_EMPTY` for any empty set."""
        return _rehide(tokens, lambda h: self.extend(None, sorted(h)) or _EMPTY)

    def union(self, a: tuple, b: tuple) -> tuple:
        """What the traces `a` or `b` name: `b` when `a` is on its path,
        else `a` extended by the names `b` adds."""
        _, a_names, b_names = trace_fork(a, b)
        seen = set(a_names)
        return self.extend(a, [n for n in reversed(b_names) if n not in seen]) if a_names else b

    def meet(self, a: Trace, b: Trace) -> Trace:
        """What both traces `a` and `b` name: `b` when it is on the path of
        `a`, else their common node extended by the names below it on both."""
        common, a_names, b_names = trace_fork(a, b)
        both = set(b_names)
        return self.extend(common, [n for n in reversed(a_names) if n in both]) if b_names else b

    def stamp(self, tokens: list, hide: tuple) -> list:
        """`tokens` with the trace `hide` added to every hide set, charged
        against `_TOKEN_LIMIT`, so that copies of an actual cost no new
        tokens."""
        self.stamped += len(tokens)
        if self.stamped > _TOKEN_LIMIT:
            raise ExpansionBudgetError(f"more than {_TOKEN_LIMIT} tokens")
        return _rehide(tokens, lambda h: hide if h is _EMPTY or h is hide[0]
                       else self.union(h, hide))

    def run(self, stack: list) -> list:
        defs = self.defs
        while True:
            frame = stack[-1]
            if type(frame) is _Subst:
                acc = frame.acc
                for item in frame.items:
                    if type(item) is not int:
                        acc.append(item)
                        continue
                    memo = frame.memo.get(item)
                    if memo is None:
                        frame.waiting, frame.start = item, self.substs
                        stack.append((frame.actuals[item][::-1], []))
                        break
                    # charged as if expanded again, so the budget fires where it would
                    self.charge(memo[1])
                    acc += memo[0]
                else:
                    stack.pop()  # a substitution sits on the scan that called it
                    stack[-1][0].extend(reversed(self.stamp(acc, frame.hide)))
                continue
            work, out = frame
            while work:
                tok = work.pop()
                name, hide = tok
                if (name in defs and hide is not None
                        and work and work[-1][0] == "(" and work[-1][1] is not None):
                    called = self.enter(hide or None, name)  # None when `name` is hidden
                    if called is None:
                        out.append(tok)
                        continue
                    actuals, rhide = _split_actuals(work, name)
                    d = defs[name]
                    if len(actuals) != len(d.formals):
                        raise MalformedCallError(
                            f"macro {name!r} expects {len(d.formals)} argument(s), "
                            f"got {len(actuals)}"
                        )
                    self.charge(1)
                    body = self.bodies.get(name)
                    if body is None:
                        body = self.bodies[name] = _body(self.inward(d.body), d.formals)
                    if rhide is not hide:
                        called = self.enter(self.meet(hide or None, rhide or None), name)
                    stack.append(_Subst(body, actuals, called))
                    break
                out.append(tok)
            else:
                stack.pop()
                if not stack:
                    return out
                waiting = stack[-1]
                waiting.memo[waiting.waiting] = (out, self.substs - waiting.start)
                waiting.acc += out


def _split_actuals(work: list, name: str) -> tuple[list[list], tuple | frozenset[str]]:
    """Consume `( actual , ... )` from the end of the reversed `work`,
    splitting at top-level commas only; return the actuals and the hide set
    of the closing parenthesis as the engine keeps it, a trace or `_EMPTY`."""
    depth = 1
    actuals: list[list] = []
    start = len(work) - 1  # the opening parenthesis
    for i in range(start - 1, -1, -1):
        t = work[i]
        text = t[0]
        if text == "(" and t[1] is not None:
            depth += 1
        elif text == ")" and t[1] is not None:
            depth -= 1
            if depth == 0:
                if actuals or i + 1 < start:
                    actuals.append(work[start - 1:i:-1])
                del work[i:]
                return actuals, t[1]
        elif text == "," and t[1] is None and depth == 1:
            actuals.append(work[start - 1:i:-1])
            start = i
    raise MalformedCallError(f"unbalanced parentheses in call of {name!r}")


def expand(tokens: Iterable[Token], defs: Mapping[str, MacroDef],
           budget: int = 1_000_000) -> list[Token]:
    """Fully expand a token sequence. Hidden names pass through; a macro
    name directly followed by `(` is substituted and the result rescanned
    together with the remaining input. Each actual is expanded at most once
    per call; `budget` bounds the substitutions that repeated expansion of
    the actuals would have performed, and `_TOKEN_LIMIT` the tokens the
    substitutions produce."""
    engine = _Engine(defs, budget)
    work = engine.inward(tokens)
    work.reverse()
    out = engine.run([(work, [])])
    return _rehide(out, lambda h: h if h is _EMPTY else frozenset(trace_names(h)))


# ---------------------------------------------------------------------------
# Concrete syntax

# `//` starts a comment anywhere, so a run of other characters stops before it;
# every character matches some rule, and the common ones are tried first.
_SCAN = syntax.scanner(("name", r"[A-Za-z_][A-Za-z0-9_]*"), ("punct", r"[(),]"),
                       (syntax.SKIP, r"//.*"), ("other", r"(?:(?!//)[^\sA-Za-z_(),])+"))


def _lex(text: str) -> list[Tok]:
    return syntax.lex(text, _SCAN, syntax.SourceError)[:-1]  # without `eof`


def _pairs(toks: Iterable[Tok]) -> tuple[Token, ...]:
    return tuple([(",", None) if t.text == "," else (t.text, None if t.kind == "other" else _EMPTY)
                  for t in toks])


def tokenize(text: str) -> tuple[Token, ...]:
    return _pairs(_lex(text))


def _balanced(tokens: TokenSeq) -> bool:
    depth = 0
    for text, _ in tokens:
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def parse_macro_file(text: str) -> tuple[dict[str, MacroDef], TokenSeq]:
    """`#define NAME(args) body` lines followed by exactly one call line."""
    defs: dict[str, MacroDef] = {}
    call: TokenSeq | None = None
    for lineno, line in groupby(_lex(text), attrgetter("line")):
        toks = list(line)
        if (len(toks) > 1 and toks[0].text == "#" and toks[1].text == "define"
                and toks[1].col == toks[0].col + 1):  # `#define` as one word
            if len(toks) < 3 or toks[2].kind != "name":
                raise MacroError(f"line {lineno}: malformed #define")
            texts = [t.text for t in toks]
            name = texts[2]
            if len(toks) < 5 or texts[3] != "(":
                raise MacroError(f"line {lineno}: {name!r} must be a function-like macro")
            # `(` then `)` or name (`,` name)* `)`
            close = texts.index(")") if ")" in texts else None
            if (close is None or (close > 4 and close % 2 == 0)
                    or any(t.kind != "name" for t in toks[4:close:2])
                    or texts[5:close:2].count(",") != (close - 4) // 2):
                raise MacroError(f"line {lineno}: malformed parameter list of {name!r}")
            formals = tuple(texts[4:close:2])
            if name in defs:
                raise MacroError(f"line {lineno}: duplicate definition of {name!r}")
            if len(set(formals)) != len(formals):
                raise MacroError(f"line {lineno}: duplicate parameter of {name!r}")
            body = _pairs(toks[close + 1:])
            if not _balanced(body):
                raise MacroError(f"line {lineno}: unbalanced parentheses in the body of {name!r}")
            defs[name] = MacroDef(name, formals, body)
        else:
            if call is not None:
                raise MacroError(f"line {lineno}: more than one call line")
            call = _pairs(toks)
            if not _balanced(call):
                raise MacroError(f"line {lineno}: unbalanced parentheses in the call")
    if call is None:
        raise MacroError("missing call line")
    return defs, call


def render_tokens(tokens: Iterable[Token], show_hide_sets: bool = False) -> str:
    if not show_hide_sets:
        return " ".join(text for text, _ in tokens)
    return " ".join(text + "^{" + ",".join(sorted(hide)) + "}" if hide else text
                    for text, hide in tokens)


# ---------------------------------------------------------------------------
# Agreement with monitored normalization on the first-order fragment


def _opens(tokens: TokenSeq, i: int) -> bool:
    """Whether `tokens[i]` exists and is an opening parenthesis."""
    return i < len(tokens) and tokens[i][0] == "(" and tokens[i][1] is not None


def first_order_violation(defs: Mapping[str, MacroDef], call: TokenSeq) -> str | None:
    """A diagnosis if some macro name occurs outside call position (or is
    shadowed by a formal), None when the system is first-order."""
    names = set(defs)
    for d in defs.values():
        clash = names.intersection(d.formals)
        if clash:
            return f"formal {sorted(clash)[0]!r} of {d.name!r} shadows a macro"
    def scan(tokens: TokenSeq, where: str) -> str | None:
        for i, (text, hide) in enumerate(tokens):
            if hide is not None and text in defs and not _opens(tokens, i + 1):
                return f"{text!r} is used in non-applied position in {where}"
        return None
    for d in defs.values():
        bad = scan(d.body, f"the body of {d.name!r}")
        if bad:
            return bad
    return scan(call, "the call")


def read_term(tokens: TokenSeq, what: str, params: Collection[str] = ()) -> Term:
    """The first-order term spanning the pairs `tokens`, in which any text
    but `(`, `)` and `,` is a name; names in `params` stay variables. The
    messages are those of the `.lam` parser, ending in `what`."""
    texts = [t[0] for t in tokens]
    texts.append(None)  # the end of the input

    def fail(pos: int, expected: str) -> None:
        found = texts[pos] or "end of input"
        raise MalformedCallError(f"expected {expected}, found {found!r} in {what}")

    term, pos = calculus.read_term_at(texts, 0, params, Mode.FIRST_ORDER, fail)
    if texts[pos] is not None:
        raise MalformedCallError(f"unexpected trailing input {texts[pos]!r} in {what}")
    return term


def translate_macros(defs: Mapping[str, MacroDef], call: TokenSeq) -> Program:
    """The system as a first-order program: one definition per macro, the
    call as the root. A system outside the first-order fragment raises
    `NotFirstOrderError`."""
    definitions = tuple(
        Definition(d.name, d.formals,
                   read_term(d.body, f"the body of {d.name!r}", d.formals))
        for d in defs.values()
    )
    root = read_term(call, "the call")
    try:
        return Program(definitions, root, Mode.FIRST_ORDER)
    except calculus.LamError as e:
        raise NotFirstOrderError(e.message) from None


def _residual_blocked(tokens: TokenSeq, defs: Mapping[str, MacroDef]) -> bool:
    return any(hide is not None and text in defs and text in hide and _opens(tokens, i + 1)
               for i, (text, hide) in enumerate(tokens))


@dataclass(frozen=True)
class AgreementReport:
    agrees: bool
    outcome: str  # "normalized", "blocked", or "mismatch"
    cpp_output: str
    calculus_outcome: str
    detail: str


def compare_first_order(defs: Mapping[str, MacroDef], call: TokenSeq) -> AgreementReport:
    """Expand and normalize the same first-order system and compare: both
    must fully expand to the same output, or both must fail to."""
    bad = first_order_violation(defs, call)
    if bad is not None:
        raise NotFirstOrderError(bad)
    program = translate_macros(defs, call)
    expanded = expand(call, defs)
    outcome = calculus.normalize(program, Strategy.LEFTMOST_OUTERMOST)
    cpp_text = render_tokens(expanded)
    blocked = _residual_blocked(expanded, defs)
    if isinstance(outcome, calculus.Diverges):
        calc_text = (
            f"diverges: {outcome.witness.name} blocked with trace "
            f"[{','.join(outcome.witness.trace)}]"
        )
        if blocked:
            return AgreementReport(True, "blocked", cpp_text, calc_text,
                                   "both fail to fully expand")
        return AgreementReport(False, "mismatch", cpp_text, calc_text,
                               "expansion finished but normalization blocked")
    calc_text = calculus.render_term(outcome.term)
    if blocked:
        return AgreementReport(False, "mismatch", cpp_text, calc_text,
                               "normalization finished but expansion blocked")
    if not expanded or read_term(expanded, "the expansion") != outcome.term:
        return AgreementReport(False, "mismatch", cpp_text, calc_text,
                               "expanded output differs from the normal form")
    return AgreementReport(True, "normalized", cpp_text, calc_text,
                           "identical fully expanded output")
