"""Core-fragment macro expander with hide sets.

Function-like macros only: identifiers, parentheses, commas and opaque
literal tokens. A token is a `(text, hide)` pair: identifiers and
parentheses carry a frozenset of macro names that are never re-expanded
from that token, literals carry None, and every comma is the one `_COMMA`
object. A macro call adds its own name, intersected between the hide sets
of the name token and the closing parenthesis, to everything it produces.
Expansion runs on an explicit stack and expands each actual at most once
per call. The module also provides a harness comparing expansion against
monitored normalization of the same system encoded as a first-order program.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from . import calculus, syntax
from .calculus import Mode, Program, Definition, Strategy, Term
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
_COMMA = (",", None)
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


def hsadd(hide: frozenset[str], tokens: Iterable[Token]) -> TokenSeq:
    """Union `hide` into the hide set of every identifier and parenthesis."""
    return tuple(t if t[1] is None else (t[0], t[1] | hide) for t in tokens)


def _body(body: Iterable[Token], formals: tuple[str, ...]) -> list:
    """`body` with each formal occurrence replaced by the formal's index."""
    return [formals.index(t[0]) if t[1] is not None and t[0] in formals else t for t in body]


class _Subst:
    """A substitution in progress: `items` walks the body, `memo` holds each
    expanded actual with the substitutions its expansion took."""
    __slots__ = ("items", "actuals", "hide", "acc", "memo", "waiting", "start")

    def __init__(self, body: list, actuals: list, hide: frozenset[str]):
        self.items = iter(body)
        self.actuals = actuals
        self.hide = hide
        self.acc: list = []
        self.memo: dict[int, tuple[list, int]] = {}


class _Engine:
    """Expansion on an explicit stack of scans and pending substitutions. A
    scan is a `(work, out)` pair with `work` reversed, so its next token is
    `work[-1]`; a substitution waits on the scan above it for an actual,
    which it keeps for the formal's later uses."""

    def __init__(self, defs: Mapping[str, MacroDef], budget: int):
        self.defs = defs
        self.budget = budget
        self.substs = 0
        self.stamped = 0
        self.bodies: dict[str, list] = {}
        self.interned: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def charge(self, n: int) -> None:
        self.substs += n
        if self.substs > self.budget:
            raise ExpansionBudgetError(f"more than {self.budget} substitutions")

    def intern(self, hide: frozenset[str]) -> frozenset[str]:
        """The live set equal to `hide`, so that equal hide sets the engine
        makes are one object. Weak entries keep no dead set alive."""
        ref = self.interned.get(hide)
        live = ref() if ref is not None else None
        if live is None:
            self.interned[hide] = weakref.ref(hide)
            return hide
        return live

    def stamp(self, tokens: list, hide: frozenset[str]) -> list:
        """`tokens` with `hide` added to every hide set, charged against
        `_TOKEN_LIMIT`. Each set object is united once per call, and a union
        that changes nothing keeps the set."""
        self.stamped += len(tokens)
        if self.stamped > _TOKEN_LIMIT:
            raise ExpansionBudgetError(f"more than {_TOKEN_LIMIT} tokens")
        united: dict[int, frozenset[str]] = {}
        out = []
        last = last_united = None
        for t in tokens:
            h = t[1]
            if h is not last:
                last, last_united = h, united.get(id(h))
                if last_united is None and h is not None:
                    last_united = united[id(h)] = (
                        hide if h <= hide else h if hide <= h else self.intern(h | hide))
            out.append(t if last_united is h else (t[0], last_united))
        return out

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
                    stack.pop()
                    result = self.stamp(acc, frame.hide)
                    if not stack:
                        return result
                    stack[-1][0].extend(reversed(result))
                continue
            work, out = frame
            while work:
                tok = work.pop()
                name, hide = tok
                if (name in defs and hide is not None and name not in hide
                        and work and work[-1][0] == "(" and work[-1][1] is not None):
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
                        body = self.bodies[name] = _body(d.body, d.formals)
                    # `name` is not in `hide`, so the union always adds it
                    called = self.intern((hide if hide is rhide else hide & rhide) | {name})
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


def _split_actuals(work: list, name: str) -> tuple[list[list], frozenset[str]]:
    """Consume `( actual , ... )` from the end of the reversed `work`,
    splitting at top-level commas only; return the actuals and the hide set
    of the closing parenthesis."""
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
        elif t is _COMMA and depth == 1:
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
    work = list(tokens)
    work.reverse()
    return _Engine(defs, budget).run([(work, [])])


# ---------------------------------------------------------------------------
# Concrete syntax

# `//` starts a comment anywhere, so a run of other characters stops before it;
# every character matches some rule, and the common ones are tried first.
_SCAN = syntax.scanner(("name", r"[A-Za-z_][A-Za-z0-9_]*"), ("punct", r"[(),]"),
                       (syntax.SKIP, r"//.*"), ("other", r"(?:(?!//)[^\sA-Za-z_(),])+"))


def _lex(text: str) -> list[Tok]:
    return syntax.lex(text, _SCAN, syntax.SourceError)[:-1]  # without `eof`


def _pairs(toks: Iterable[Tok]) -> tuple[Token, ...]:
    return tuple([_COMMA if t.text == "," else (t.text, None if t.kind == "other" else _EMPTY)
                  for t in toks])


def tokenize(text: str) -> tuple[Token, ...]:
    return _pairs(_lex(text))


def _check_balanced(tokens: TokenSeq, what: str, lineno: int) -> None:
    depth = 0
    for text, _ in tokens:
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
            if depth < 0:
                raise MacroError(f"line {lineno}: unbalanced parentheses in {what}")
    if depth != 0:
        raise MacroError(f"line {lineno}: unbalanced parentheses in {what}")


def parse_macro_file(text: str) -> tuple[dict[str, MacroDef], TokenSeq]:
    """`#define NAME(args) body` lines followed by exactly one call line."""
    defs: dict[str, MacroDef] = {}
    call: TokenSeq | None = None
    for lineno, line in groupby(_lex(text), attrgetter("line")):
        toks = list(line)
        if (len(toks) > 1 and toks[0].text == "#" and toks[1].text == "define"
                and toks[1].col == toks[0].col + 1):  # `#define` as one word
            rest = toks[2:]
            if not rest or rest[0].kind != "name":
                raise MacroError(f"line {lineno}: malformed #define")
            name = rest[0].text
            if len(rest) < 3 or rest[1].text != "(":
                raise MacroError(f"line {lineno}: {name!r} must be a function-like macro")
            # `(` then `)` or name (`,` name)* `)`
            close = next((i for i, t in enumerate(rest) if t.text == ")"), None)
            inner = rest[2:close]
            if (close is None or (inner and len(inner) % 2 == 0)
                    or not all(t.kind == "name" for t in inner[0::2])
                    or not all(t.text == "," for t in inner[1::2])):
                raise MacroError(f"line {lineno}: malformed parameter list of {name!r}")
            formals = tuple(t.text for t in inner[0::2])
            if name in defs:
                raise MacroError(f"line {lineno}: duplicate definition of {name!r}")
            if len(set(formals)) != len(formals):
                raise MacroError(f"line {lineno}: duplicate parameter of {name!r}")
            body = _pairs(rest[close + 1:])
            _check_balanced(body, f"the body of {name!r}", lineno)
            defs[name] = MacroDef(name, formals, body)
        else:
            if call is not None:
                raise MacroError(f"line {lineno}: more than one call line")
            call = _pairs(toks)
            _check_balanced(call, "the call", lineno)
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


def _term_of_tokens(tokens: TokenSeq, what: str, formals: frozenset[str] = frozenset()) -> Term:
    # The error below keeps no position, so tokens of equal text are shared:
    # building one per input token costs more than reading it.
    shared = {p: Tok("punct", p, 1, 1) for p in "(),"}
    toks = [shared.get(text) or shared.setdefault(text, Tok("name", text, 1, 1))
            for text, _ in tokens]
    try:
        return calculus.read_term(toks, formals)
    except calculus.ParseError as e:
        raise MalformedCallError(f"{e.message} in {what}") from None


def translate_macros(defs: Mapping[str, MacroDef], call: TokenSeq) -> Program:
    """The system as a first-order program: one definition per macro, the
    call as the root. A system outside the first-order fragment raises
    `NotFirstOrderError`."""
    definitions = tuple(
        Definition(d.name, d.formals,
                   _term_of_tokens(d.body, f"the body of {d.name!r}", frozenset(d.formals)))
        for d in defs.values()
    )
    root = _term_of_tokens(call, "the call")
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
    expanded_term = _term_of_tokens(expanded, "the expansion") if expanded else None
    # `!=` on terms recurses once per nesting level; in a first-order system
    # every name on both sides is an application, so renderings compare exactly
    if expanded_term is None or calculus.render_term(expanded_term) != calc_text:
        return AgreementReport(False, "mismatch", cpp_text, calc_text,
                               "expanded output differs from the normal form")
    return AgreementReport(True, "normalized", cpp_text, calc_text,
                           "identical fully expanded output")
