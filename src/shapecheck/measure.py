"""Termination measure for monitored reduction.

A node is keyed by its trace (variable and bare-name leaves get a bottom
key); a node's measure is the multiset of keys on its path from the root,
and a term's measure is the multiset of its node measures. Every monitored
reduction step strictly decreases the term measure under the multiset
ordering, which is checked at runtime by `assert_decrease`. This module is
assertion tooling only: reduction never consults it.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable, Iterable

from .calculus import AnnTerm, Mode, Var


BOTTOM = None  # the key of variable and bare-name leaves; `render_key` spells it `bot`

TraceKey = frozenset  # of names; BOTTOM stands below every key
NodeMeasure = tuple  # of TraceKey, canonically sorted
TreeMeasure = list  # of NodeMeasure


def key_less(a, b) -> bool:
    """Strict order on trace keys: bottom below everything, otherwise
    strict superset (longer traces are smaller)."""
    return b is not BOTTOM and (a is BOTTOM or a > b)


def _key_sort_token(k) -> tuple:
    if k is BOTTOM:
        return (0, ())
    return (1, tuple(sorted(k)))


def _node_measure(keys: Iterable) -> NodeMeasure:
    return tuple(sorted(keys, key=_key_sort_token))


def tree_measure(term: AnnTerm, mode: Mode = Mode.FIRST_ORDER) -> TreeMeasure:
    """Multiset of per-node root-path key multisets, one entry per node.

    In first-order terms the head name of an application is part of the
    node itself; in closed-higher-order terms the application node is
    measured by its trace and head/name leaves count as bottom nodes.
    """
    out: TreeMeasure = []
    stack: list[tuple[AnnTerm, tuple]] = [(term, ())]
    while stack:
        t, path_keys = stack.pop()
        if isinstance(t, Var):
            out.append(_node_measure(path_keys + (BOTTOM,)))
            continue
        key = frozenset(t.trace)
        here = path_keys + (key,)
        out.append(_node_measure(here))
        if mode is Mode.FIRST_ORDER:
            children = t.args
        else:
            children = (t.head,) + t.args
        for child in children:
            stack.append((child, here))
    return out


def multiset_less(m1: Iterable[Hashable], m2: Iterable[Hashable],
                  strictly_less: Callable) -> bool:
    """Multiset ordering: m1 < m2 iff, after removing the common part,
    what remains of m2 is nonempty and every leftover element of m1 is
    strictly below some leftover element of m2."""
    c1 = Counter(m1)
    c2 = Counter(m2)
    common = c1 & c2
    n1 = list((c1 - common).elements())
    n2 = list((c2 - common).elements())
    if not n2:
        return False
    return all(any(strictly_less(a, b) for b in n2) for a in n1)


def node_measure_less(a: NodeMeasure, b: NodeMeasure) -> bool:
    return multiset_less(a, b, key_less)


def tree_measure_less(a: TreeMeasure, b: TreeMeasure) -> bool:
    return multiset_less(a, b, node_measure_less)


def assert_decrease(before: AnnTerm, after: AnnTerm, mode: Mode = Mode.FIRST_ORDER) -> bool:
    """True iff the measure of `after` is strictly below that of `before`."""
    return tree_measure_less(tree_measure(after, mode), tree_measure(before, mode))


def render_key(k) -> str:
    if k is BOTTOM:
        return "bot"
    return "{" + ",".join(sorted(k)) + "}"


def render_node_measure(m: NodeMeasure) -> str:
    return "[" + " ".join(render_key(k) for k in m) + "]"


def render_tree_measure(m: TreeMeasure) -> str:
    return "{" + ", ".join(sorted(render_node_measure(n) for n in m)) + "}"
