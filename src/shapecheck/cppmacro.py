"""Core-fragment macro expander with hide sets.

Function-like macros only: identifiers, parentheses, commas and opaque
literal tokens. Identifier and parenthesis tokens carry a hide set of
macro names that are never re-expanded from that token; a macro call adds
its own name, intersected between the hide sets of the name token and the
closing parenthesis, to everything it produces. The module also provides a
harness comparing expansion against monitored normalization of the same
system encoded as a first-order program.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from . import calculus
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


@dataclass(frozen=True)
class Ident:
    name: str
    hide: frozenset[str] = frozenset()


@dataclass(frozen=True)
class LParen:
    hide: frozenset[str] = frozenset()


@dataclass(frozen=True)
class RParen:
    hide: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Comma:
    pass


@dataclass(frozen=True)
class Other:
    text: str


Token = Ident | LParen | RParen | Comma | Other
TokenSeq = tuple[Token, ...]


@dataclass(frozen=True)
class MacroDef:
    name: str
    formals: tuple[str, ...]
    body: TokenSeq  # hide sets empty


def hsadd(hide: frozenset[str], tokens: Iterable[Token]) -> TokenSeq:
    """Union `hide` into the hide set of every identifier and parenthesis."""
    out = []
    for t in tokens:
        if isinstance(t, (Ident, LParen, RParen)):
            out.append(replace(t, hide=t.hide | hide))
        else:
            out.append(t)
    return tuple(out)


class _Engine:
    def __init__(self, defs: Mapping[str, MacroDef], budget: int):
        self.defs = defs
        self.budget = budget
        self.substs = 0

    def expand(self, tokens: Iterable[Token]) -> TokenSeq:
        work: deque[Token] = deque(tokens)
        out: list[Token] = []
        while work:
            tok = work.popleft()
            if isinstance(tok, Ident) and tok.name in tok.hide:
                out.append(tok)
                continue
            if (
                isinstance(tok, Ident)
                and tok.name in self.defs
                and work
                and isinstance(work[0], LParen)
            ):
                actuals, rparen = _split_actuals(work, tok.name)
                d = self.defs[tok.name]
                if len(actuals) != len(d.formals):
                    raise MalformedCallError(
                        f"macro {tok.name!r} expects {len(d.formals)} argument(s), "
                        f"got {len(actuals)}"
                    )
                hide = (tok.hide & rparen.hide) | {tok.name}
                self.substs += 1
                if self.substs > self.budget:
                    raise ExpansionBudgetError(f"more than {self.budget} substitutions")
                result = self.subst(d.body, d.formals, actuals, hide, ())
                work.extendleft(reversed(result))
                continue
            out.append(tok)
        return tuple(out)

    def subst(
        self,
        body: Iterable[Token],
        formals: tuple[str, ...],
        actuals: list[TokenSeq],
        hide: frozenset[str],
        out: TokenSeq,
    ) -> TokenSeq:
        acc = list(out)
        for tok in body:
            if isinstance(tok, Ident) and tok.name in formals:
                acc.extend(self.expand(actuals[formals.index(tok.name)]))
            else:
                acc.append(tok)
        return hsadd(hide, acc)


def _split_actuals(work: deque, name: str) -> tuple[list[TokenSeq], RParen]:
    """Consume `( actual , ... )` from the front of `work`, splitting at
    top-level commas only."""
    work.popleft()  # the opening parenthesis
    depth = 1
    actuals: list[list[Token]] = [[]]
    while work:
        t = work.popleft()
        if isinstance(t, LParen):
            depth += 1
        elif isinstance(t, RParen):
            depth -= 1
            if depth == 0:
                if actuals == [[]]:
                    return [], t
                return [tuple(a) for a in actuals], t
        elif isinstance(t, Comma) and depth == 1:
            actuals.append([])
            continue
        actuals[-1].append(t)
    raise MalformedCallError(f"unbalanced parentheses in call of {name!r}")


def expand(tokens: Iterable[Token], defs: Mapping[str, MacroDef],
           budget: int = 1_000_000) -> TokenSeq:
    """Fully expand a token sequence. Hidden names pass through; a macro
    name directly followed by `(` is substituted and the result rescanned
    together with the remaining input."""
    return _Engine(defs, budget).expand(tokens)


def subst(body: Iterable[Token], formals: tuple[str, ...], actuals: list[TokenSeq],
          hide: frozenset[str], out: TokenSeq = (),
          defs: Mapping[str, MacroDef] | None = None,
          budget: int = 1_000_000) -> TokenSeq:
    """Replace formals in `body` by the expansion of the matching actuals,
    then add `hide` to the whole output."""
    return _Engine(defs or {}, budget).subst(tuple(body), formals, actuals, hide, out)


# ---------------------------------------------------------------------------
# Concrete syntax

_C_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_C_OTHER = re.compile(r"[^\sA-Za-z_(),]+")


def tokenize(text: str) -> TokenSeq:
    out: list[Token] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "(":
            out.append(LParen())
            pos += 1
            continue
        if ch == ")":
            out.append(RParen())
            pos += 1
            continue
        if ch == ",":
            out.append(Comma())
            pos += 1
            continue
        m = _C_IDENT.match(text, pos)
        if m:
            out.append(Ident(m.group(0)))
            pos = m.end()
            continue
        m = _C_OTHER.match(text, pos)
        out.append(Other(m.group(0)))
        pos = m.end()
    return tuple(out)


def _check_balanced(tokens: TokenSeq, what: str, lineno: int) -> None:
    depth = 0
    for t in tokens:
        if isinstance(t, LParen):
            depth += 1
        elif isinstance(t, RParen):
            depth -= 1
            if depth < 0:
                raise MacroError(f"line {lineno}: unbalanced parentheses in {what}")
    if depth != 0:
        raise MacroError(f"line {lineno}: unbalanced parentheses in {what}")


def parse_macro_file(text: str) -> tuple[dict[str, MacroDef], TokenSeq]:
    """`#define NAME(args) body` lines followed by exactly one call line."""
    defs: dict[str, MacroDef] = {}
    call: TokenSeq | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#define"):
            rest = tokenize(line[len("#define"):])
            if not rest or not isinstance(rest[0], Ident):
                raise MacroError(f"line {lineno}: malformed #define")
            name = rest[0].name
            if len(rest) < 3 or not isinstance(rest[1], LParen):
                raise MacroError(f"line {lineno}: {name!r} must be a function-like macro")
            # `(` then `)` or Ident (Comma Ident)* `)`
            close = next((i for i, t in enumerate(rest) if isinstance(t, RParen)), None)
            inner = rest[2:close]
            if (close is None or (inner and len(inner) % 2 == 0)
                    or not all(isinstance(t, Ident) for t in inner[0::2])
                    or not all(isinstance(t, Comma) for t in inner[1::2])):
                raise MacroError(f"line {lineno}: malformed parameter list of {name!r}")
            formals = [t.name for t in inner[0::2]]
            if name in defs:
                raise MacroError(f"line {lineno}: duplicate definition of {name!r}")
            if len(set(formals)) != len(formals):
                raise MacroError(f"line {lineno}: duplicate parameter of {name!r}")
            body = rest[close + 1:]
            _check_balanced(body, f"the body of {name!r}", lineno)
            defs[name] = MacroDef(name, tuple(formals), body)
        else:
            if call is not None:
                raise MacroError(f"line {lineno}: more than one call line")
            call = tokenize(line)
            _check_balanced(call, "the call", lineno)
    if call is None:
        raise MacroError("missing call line")
    return defs, call


_PUNCT = {LParen: "(", RParen: ")", Comma: ","}
_PUNCT_TOKS = {cls: Tok("punct", text, 1, 1) for cls, text in _PUNCT.items()}


def render_tokens(tokens: Iterable[Token], show_hide_sets: bool = False) -> str:
    parts = []
    for t in tokens:
        text = _PUNCT.get(type(t)) or (t.name if isinstance(t, Ident) else t.text)
        if show_hide_sets and isinstance(t, (Ident, LParen, RParen)) and t.hide:
            text += "^{" + ",".join(sorted(t.hide)) + "}"
        parts.append(text)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Agreement with monitored normalization on the first-order fragment


def first_order_violation(defs: Mapping[str, MacroDef], call: TokenSeq) -> str | None:
    """A diagnosis if some macro name occurs outside call position (or is
    shadowed by a formal), None when the system is first-order."""
    for d in defs.values():
        clash = set(d.formals) & set(defs)
        if clash:
            return f"formal {sorted(clash)[0]!r} of {d.name!r} shadows a macro"
    def scan(tokens: TokenSeq, where: str) -> str | None:
        for i, t in enumerate(tokens):
            if isinstance(t, Ident) and t.name in defs:
                if i + 1 >= len(tokens) or not isinstance(tokens[i + 1], LParen):
                    return f"{t.name!r} is used in non-applied position in {where}"
        return None
    for d in defs.values():
        bad = scan(d.body, f"the body of {d.name!r}")
        if bad:
            return bad
    return scan(call, "the call")


def _term_of_tokens(tokens: TokenSeq, what: str, formals: frozenset[str] = frozenset()) -> Term:
    # The error below keeps no position, so tokens of equal text are shared:
    # building one per input token costs more than reading it.
    shared: dict = dict(_PUNCT_TOKS)  # keyed by class for punctuation, by text for names
    toks = []
    for t in tokens:
        key = t.name if type(t) is Ident else t.text if type(t) is Other else type(t)
        tok = shared.get(key)
        if tok is None:
            tok = shared[key] = Tok("name", key, 1, 1)
        toks.append(tok)
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
    for i, t in enumerate(tokens):
        if (
            isinstance(t, Ident)
            and t.name in defs
            and t.name in t.hide
            and i + 1 < len(tokens)
            and isinstance(tokens[i + 1], LParen)
        ):
            return True
    return False


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
