"""Outside-in tracing of locsync: wrap module attributes, keep spans in memory.

The program is not instrumented.  Instead the tracer replaces the names
that callers look up at call time (``continuation.jacobian``, not
``lattice.jacobian``, because ``continuation`` binds the name at import)
with wrappers that record one span per call: name, start, end and the
enclosing span on the same thread.  Spans live in flat arrays, so a
verify run with 200k ``chain_rhs`` calls costs a few MB.  Self time is a
span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from array import array

import numpy as np


class Tracer:
    """Span recorder for wrapped callables; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._targets: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; keep the wrapped targets."""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cpu: dict[int, tuple[float, float]] = {}
        self.counters: dict[str, int] = {}

    def target(self, owner, attr: str, name: str, on_return=None,
               cpu: bool = False) -> None:
        """Register ``owner.attr`` to be traced as span ``name``.

        ``on_return(tracer, args, result)`` runs after each call to add
        counters; ``cpu`` records process CPU seconds (children included)
        at both ends of the span.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self._targets.append((owner, attr, self._name_ids[name], on_return, cpu))

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def installed(self):
        """Swap every registered target for its wrapper; restore on exit."""
        try:
            for owner, attr, nid, on_return, cpu in self._targets:
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, nid, on_return, cpu))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, nid: int, on_return, cpu: bool):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.start)
                tracer.name_id.append(nid)
                tracer.parent.append(stack[-1] if stack else -1)
                tracer.start.append(0.0)
                tracer.end.append(0.0)
            stack.append(idx)
            cpu0 = _cpu_seconds() if cpu else 0.0
            tracer.start[idx] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                if cpu:
                    tracer.cpu[idx] = (cpu0, _cpu_seconds())
                stack.pop()
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s``, ``self_s`` and ``cpu_s``."""
        n_names = len(self.names)
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.intp)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        # Children run on their parent's thread, one at a time and inside it,
        # so the time they cover is the sum of their durations.
        self_time = dur - child_time
        calls = np.bincount(nid, minlength=n_names)
        total = np.bincount(nid, weights=dur, minlength=n_names)
        own = np.bincount(nid, weights=self_time, minlength=n_names)
        cpu = np.zeros(n_names)
        for idx, (c0, c1) in self.cpu.items():
            cpu[nid[idx]] += c1 - c0
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]),
                   "self_s": float(own[i]), "cpu_s": float(cpu[i])}
            for i, name in enumerate(self.names)
        }

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        want, above = self._name_ids[name], self._name_ids[ancestor]
        hits = 0
        for idx, nid in enumerate(self.name_id):
            if nid != want:
                continue
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] != above:
                p = self.parent[p]
            hits += p >= 0
        return hits


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system
