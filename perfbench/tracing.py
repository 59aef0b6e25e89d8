"""Spans and counters recorded from outside the program.

A span wraps one callable at the name where its caller looks it up: a
module attribute (`radfiner.pipeline.select_moving`), a method on a class
(`AdamW.step`) or a bound method on one object (`net.block2.attn.infer`).
Nested spans charge their duration to the enclosing span, so each span's
self time is its duration minus the time its child spans cover.  All
records stay in memory; `restore` puts every original callable back.

A target that no longer exists is recorded as absent, so a later change
that deletes a wrapped function shows as a missing row, not as a zero and
not as an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

_MISSING = object()


@dataclass
class SpanStat:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStat] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time of each open span
        self._undo: list = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """`before(args)` runs ahead of the span's clock and
        `after(result)` after it, so counting costs no span time."""
        stat = self.spans.setdefault(name, SpanStat())
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - child
            if after is not None:
                after(return_value)
            return return_value

        return traced

    def patch(self, name: str, owner, attr: str, before=None, after=None) -> None:
        """Replace `owner.attr` by a traced wrapper, or record `name` as
        absent when the owner or the attribute does not exist."""
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            if name not in self.absent and name not in self.spans:
                self.absent.append(name)
            return
        self.absent = [a for a in self.absent if a != name]
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.wrap(name, fn, before, after))
        self._undo.append((owner, attr, own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)  # a bound method shadowed on an instance
            else:
                setattr(owner, attr, own)


def tape_size(root) -> int:
    """Nodes reachable from a loss root through recorded parents: the
    graph `radfiner.autodiff.backward` walks."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)
