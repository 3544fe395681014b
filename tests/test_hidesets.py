"""`cppmacro.expand` against an independent hide-set expander.

`prosser_expand` follows Prosser's algorithm (X3J11/86-196) over plain
frozensets and recursion, sharing no code with the library: a call of a
visible macro name followed by `(` takes the intersection of the hide sets
of the name and of its `)`, adds the name, substitutes the fully expanded
actuals, adds that set to every token and rescans the result with the rest
of the input. The tests require the same text and the same hide set per
token, including the sets of the input tokens.
"""
import random

import pytest

from shapecheck import cppmacro as P
from shapecheck import fixtures as F
from shapecheck import oracle as O


def split_call(tokens, i):
    """The actuals of the call whose `(` is `tokens[i]`, the hide set of its
    `)` and the index after it."""
    depth, actuals, current = 1, [], []
    for j in range(i + 1, len(tokens)):
        text, hide = tokens[j]
        if hide is not None and text == "(":
            depth += 1
        elif hide is not None and text == ")":
            depth -= 1
            if depth == 0:
                if actuals or current:
                    actuals.append(current)
                return actuals, hide, j + 1
        elif hide is None and text == "," and depth == 1:
            actuals.append(current)
            current = []
            continue
        current.append(tokens[j])
    raise P.MalformedCallError("unbalanced")


def prosser_expand(tokens, defs):
    """`tokens`, `(text, frozenset or None)` pairs, fully expanded under
    `defs`, a map from a name to its formals and body pairs."""
    tokens = list(tokens)
    out = []
    i = 0
    while i < len(tokens):
        text, hide = tokens[i]
        following = tokens[i + 1] if i + 1 < len(tokens) else (None, None)
        if (hide is None or text not in defs or text in hide
                or following[0] != "(" or following[1] is None):
            out.append(tokens[i])
            i += 1
            continue
        actuals, close_hide, after = split_call(tokens, i + 1)
        formals, body = defs[text]
        if len(actuals) != len(formals):
            raise P.MalformedCallError("arity")
        expanded = {}
        substituted = []
        for b_text, b_hide in body:
            if b_hide is not None and b_text in formals:
                k = formals.index(b_text)
                if k not in expanded:
                    expanded[k] = prosser_expand(actuals[k], defs)
                substituted += expanded[k]
            else:
                substituted.append((b_text, b_hide))
        added = (hide & close_hide) | {text}
        stamped = [(t, h if h is None else h | added) for t, h in substituted]
        # rescan the result together with the rest of the input
        tokens = stamped + tokens[after:]
        i = 0
    return out


def plain(defs):
    return {d.name: (d.formals, list(d.body)) for d in defs.values()}


def assert_same(tokens, defs):
    got = P.expand(tokens, defs)
    want = prosser_expand(tokens, plain(defs))
    assert got == want
    # an identifier's empty set stays apart from a literal's None
    assert [h is None for _, h in got] == [h is None for _, h in want]


def parsed(text):
    defs, call = P.parse_macro_file(text)
    return call, defs


def chain_text(n, last="k(x)"):
    lines = [f"#define g0(x) {last}"] + [f"#define g{i}(x) g{i - 1}(x)" for i in range(1, n + 1)]
    return "\n".join(lines) + f"\ng{n}(a)\n"


def dup_text(n):
    lines = ["#define z(x,y) c", "#define f0(x) z(x,x)"]
    lines += [f"#define f{i}(x) f{i - 1}(k(x,x))" for i in range(1, n + 1)]
    return "\n".join(lines) + f"\nf{n}(a)\n"


def rehidden(tokens, names, rng):
    """`tokens` with random hide sets drawn from `names` on identifiers and
    parentheses; equal sets are sometimes one object, sometimes not."""
    pool = [frozenset(rng.sample(names, rng.randint(0, len(names)))) for _ in range(4)]
    out = []
    for t in tokens:
        if t[1] is not None:  # literals and the one comma object stay
            t = (t[0], rng.choice(pool) if rng.random() < 0.5 else frozenset(rng.sample(
                names, rng.randint(0, len(names)))))
        out.append(t)
    return out


def mdef(name, formals, body):
    return P.MacroDef(name, tuple(formals), P.tokenize(body))


@pytest.mark.parametrize("seed, params", [
    (4242, O.GenParams(count=500, max_arity=2)),
    (7, O.GenParams(count=60, max_arity=3)),
], ids=["seed4242", "seed7"])
def test_generated_systems(seed, params):
    for defs, call in O.gen_macros(seed, params):
        assert_same(call, defs)


def test_generated_systems_with_hidden_input():
    rng = random.Random(5)
    for defs, call in O.gen_macros(7, O.GenParams(count=60, max_arity=3)):
        names = sorted(defs) + ["q", "r"]
        for _ in range(3):
            assert_same(rehidden(call, names, rng), defs)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 30])
def test_chain_and_dup_ladders(n):
    assert_same(*parsed(chain_text(n)))
    assert_same(*parsed(dup_text(min(n, 8))))


def test_fixtures():
    for text in (F.NIL_CPP, F.ACHAIN_CPP, F.FSTOP_CPP, F.LOOP_CPP, F.ID_CPP):
        assert_same(*parsed(text))


def test_call_blocked_deep_in_a_long_chain():
    call, defs = parsed(chain_text(400, last="g200(x)"))
    assert_same(call, defs)
    out = P.expand(call, defs)
    assert P.render_tokens(out) == "g200 ( a )"
    assert all(len(h) == 401 for _, h in out)


def test_name_and_parenthesis_with_different_sets():
    defs = {d.name: d for d in (mdef("open", "x", "g(x"), mdef("close", "x", "x )"),
                                mdef("id", "x", "x"), mdef("r", "xy", "x ( y )"),
                                mdef("g", "x", "h(x, x)"), mdef("h", "xy", "y x"))}
    # `g` from `open`, its `)` from the input
    assert_same(P.tokenize("open(a) )"), defs)
    # `g^{id,r}` and its `)^{close,r}`: two sets off one path, which meet at `{r}`
    call = P.tokenize("r(id(g), close(b))")
    assert_same(call, defs)
    assert P.expand(call, defs)[0] == ("b", frozenset({"close", "g", "h", "r"}))
    assert_same(P.tokenize("r(id(g), close(id(b)) ) id(g)(c)"), defs)


def test_stamp_unites_sets_off_one_path():
    # `two` stamps `a^{id}` from its expanded actual with `{two}`
    call, defs = parsed("#define id(x) x\n#define two(x) p(x, x)\ntwo(id(id(a)))\n")
    assert_same(call, defs)
    defs["w"] = mdef("w", "x", "x")
    tokens = [("w", frozenset({"s"})), ("(", frozenset({"s", "t"})), ("b", frozenset({"u"})),
              ("id", frozenset({"v"})), ("(", frozenset()), ("c", frozenset({"two"})),
              (")", frozenset({"t"})), (")", frozenset({"s", "u"}))]
    assert_same(tokens, defs)
    assert P.expand(tokens, defs)[0] == ("b", frozenset({"s", "u", "w"}))


def test_input_sets_pass_through_and_literals_stay_none():
    defs = {"m": mdef("m", "x", "x 42 , x")}
    tokens = [("m", frozenset({"m"})), ("(", frozenset({"z"})), ("y", frozenset()),
              (")", frozenset({"z"})), ("7", None)]
    assert P.expand(tokens, defs) == tokens
    out = P.expand(P.tokenize("m(y) 7"), defs)
    assert out == [("y", frozenset({"m"})), ("42", None), (",", None),
                   ("y", frozenset({"m"})), ("7", None)]
    assert_same(P.tokenize("m(m(y)) x ( )"), defs)
