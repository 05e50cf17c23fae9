"""Spans and counters recorded from outside cellflux.

Every wrapper is installed at the name its caller looks up (a module global
or a dict entry), so the package itself is not modified, and every wrapper
is restored by `Tracer.restore`.  Spans are kept in memory as
(name, start, end, parent) tuples and written out only when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()  # calls counted without timing
        self.errors: Counter = Counter()  # spans that ended in an exception
        self._stack: list[int] = []
        self._patched: list = []  # (owner, key, original) in install order

    def timed(self, name: str, fn):
        """fn wrapped in a span named `name`."""
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return wrapper

    def counted(self, name: str, fn):
        """fn wrapped so each call only bumps a counter.  Timing every call
        of a function called millions of times would dominate the run."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, key: str, wrap):
        """Replace owner.key (or owner[key] for a dict) by wrap(original)."""
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        self._patched.append((owner, key, original))
        if is_dict:
            owner[key] = wrap(original)
        else:
            setattr(owner, key, wrap(original))

    def restore(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, max seconds,
        and errors.  Self time is a span's duration minus the time covered by
        its child spans; calls are nested, so children never overlap."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "max": 0.0})
            s["calls"] += 1
            s["total"] += t1 - t0
            s["self"] += t1 - t0 - child[i]
            s["max"] = max(s["max"], t1 - t0)
        for name, n in self.errors.items():
            out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "max": 0.0})["errors"] = n
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent}\n")
