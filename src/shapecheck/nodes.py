"""Slotted, immutable values: the term, type and shape nodes.

A `Frozen` class lists its fields as `__slots__` and sets them in a plain
`__init__` through the slots' own setters (`setters`), which costs about
two thirds of a frozen dataclass's `object.__setattr__`. Afterwards it acts
as the frozen dataclass it replaces: assignment and deletion raise
`FrozenInstanceError`, `repr` has the dataclass's form, `==` holds only
between instances of one class, and `copy` and `pickle` work.

A `Node` may nest thousands of levels deep. Its `==` walks pairs of nodes
on an explicit stack, identity first, and its hash is computed once, in
postorder on an explicit stack, and kept in a slot. A subclass says what
it holds through `_leaves`, the values compared with `==` and hashed, and
`_kids`, its nested nodes in order. `_matches` tests a pair's own fields;
it compares the leaves unless a subclass also tests a field that the hash
leaves out, as `calculus.AnnApp` does with its trace.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError


def setters(cls: type) -> tuple:
    """The slot setters of `cls`'s own fields, in `__slots__` order."""
    return tuple(getattr(cls, f).__set__ for f in cls.__slots__)


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()  # the public slots of the class and its bases

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(f for f in own if not f.startswith("_"))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def _leaves(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._leaves() == other._leaves()

    def __hash__(self) -> int:
        return hash(self._leaves())


class Node(Frozen):
    __slots__ = ("_hash",)

    def _leaves(self) -> tuple:
        return ()

    def _kids(self) -> tuple:
        return ()

    def _matches(self, other: Node) -> bool:
        return self._leaves() == other._leaves()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or not a._matches(b):
                return False
            ka, kb = a._kids(), b._kids()
            if len(ka) != len(kb):
                return False
            pairs.extend(zip(ka, kb))
        return True

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            t = stack[-1]
            todo = [k for k in t._kids() if not hasattr(k, "_hash")]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            _set_hash(t, hash((t._leaves(), *[k._hash for k in t._kids()])))
        return self._hash


(_set_hash,) = setters(Node)
