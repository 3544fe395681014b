"""`cppmacro.expand` against GNU cpp, an expander written by other people.

Generated first-order macro systems go to one `cpp -P` process, each as its
`#define` lines, its call, a marker line and an `#undef` per macro, so that
the next system starts with no macro defined. The output before each
marker, read back with `cppmacro.tokenize`, must have the same token texts
as `expand`. A system whose expansion passes a budget or has more than
`MAX_TOKENS` tokens is left out and counted: GNU cpp can die on one such.
"""
import shutil
import subprocess

import pytest

from shapecheck import cppmacro as P
from shapecheck import oracle as O

# cheap seeds: no system of these passes a budget, and each takes under 0.5 s
SEEDS = [(4242, 300), (13, 400), (3, 300), (17, 300), (21, 300)]
MARKER = "SYSTEM_END"  # no generated system uses this name
MAX_TOKENS = 5000


def source(defs, call):
    lines = [f"#define {d.name}({', '.join(d.formals)}) {P.render_tokens(d.body)}"
             for d in defs.values()]
    lines += [P.render_tokens(call), MARKER]
    return lines + [f"#undef {name}" for name in defs]


@pytest.mark.skipif(shutil.which("cpp") is None, reason="GNU cpp is not on the PATH")
def test_generated_systems_expand_as_in_gnu_cpp():
    lines, expected, left_out = [], [], 0
    for seed, count in SEEDS:
        for defs, call in O.gen_macros(seed, O.GenParams(count=count, max_arity=2)):
            try:
                out = P.expand(call, defs)
            except P.ExpansionBudgetError:
                left_out += 1
                continue
            if len(out) > MAX_TOKENS:
                left_out += 1
                continue
            lines += source(defs, call)
            expected.append([text for text, _ in out])
    assert len(expected) >= 1500
    assert left_out == 13  # each above MAX_TOKENS tokens
    run = subprocess.run(["cpp", "-P"], input="\n".join(lines) + "\n", capture_output=True,
                         text=True, timeout=60, check=True)
    outputs, current = [], []
    for line in run.stdout.splitlines():
        if line.strip() == MARKER:
            outputs.append(current)
            current = []
        else:
            current += [text for text, _ in P.tokenize(line)]
    assert len(outputs) == len(expected)
    differ = [i for i, (got, want) in enumerate(zip(outputs, expected)) if got != want]
    assert not differ, f"{len(differ)} systems differ, the first is system {differ[0]}"
