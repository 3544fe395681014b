"""Reading machinery shared by the input languages.

Each language lists its tokens as `(kind, regex)` pairs; `scanner` compiles
them into one pattern and `lex` splits text into located tokens with it,
skipping whitespace between tokens. A `Cursor` walks the tokens and raises
its class's `error`, a `SourceError` that carries the `line:col` of the
offending token.
"""
from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple, Sequence


class SourceError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = f"{line}:{col}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class Tok(NamedTuple):
    kind: str  # one of the language's kinds, or "eof"
    text: str
    line: int
    col: int


SKIP = "skip"  # kind of tokens `lex` drops, such as comments


class Scanner(NamedTuple):
    pattern: re.Pattern
    kinds: tuple  # kinds[i] is the kind group i matches; None for an error


def scanner(*rules: tuple[str, str]) -> Scanner:
    """One pattern trying the rules in order after optional whitespace;
    any other character is matched alone, as an error. A rule's regex
    must not capture."""
    alts = "".join(f"({regex})|" for _kind, regex in rules)
    kinds = (None, *(kind for kind, _regex in rules), None)
    return Scanner(re.compile(rf"\s*(?:{alts}(\S))"), kinds)


# `_make_tok((kind, text, line, col))` skips the Python-level `__new__` that
# NamedTuple generates; readers build tokens by the thousand.
_make_tok = partial(tuple.__new__, Tok)


def lex(text: str, scan: Scanner, error: type[SourceError]) -> list[Tok]:
    kinds, finditer = scan.kinds, scan.pattern.finditer
    toks: list[Tok] = []
    push = toks.append
    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        for m in finditer(line):
            i = m.lastindex
            kind = kinds[i]
            if kind is None:
                raise error(f"unexpected character {m[i]!r}", lineno, m.start(i) + 1)
            if kind != SKIP:
                push(_make_tok((kind, m[i], lineno, m.start(i) + 1)))
    toks.append(Tok("eof", "", len(lines), len(lines[-1]) + 1))  # after the last character
    return toks


class Cursor:
    """A position in a token list that ends with an `eof` token."""

    error: type[SourceError] = SourceError

    def __init__(self, toks: Sequence[Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> Tok:
        return self.toks[self.pos + ahead]

    def next(self) -> Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str, tok: Tok) -> SourceError:
        return self.error(message, tok.line, tok.col)

    def expect(self, text: str) -> Tok:
        t = self.next()
        if t.text != text:
            raise self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}", t)
        return t

    def expect_kind(self, kind: str, what: str) -> Tok:
        t = self.next()
        if t.kind != kind:
            raise self.fail(f"expected {what}, found {t.text or 'end of input'!r}", t)
        return t

    def end(self) -> None:
        tail = self.peek()
        if tail.kind != "eof":
            raise self.fail(f"unexpected trailing input {tail.text!r}", tail)
