"""Spans and counters recorded around calls into nlspread's modules.

A span is (name, start, end, parent).  Functions are wrapped at the module
attribute their callers look them up through, so the package itself is
not edited; ``Tracer.close`` puts every original back.  Spans live in
flat arrays while the run lasts and are written out once, at its end.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counts; the wrappers stay in place."""
        self.name, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.counts = Counter()

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a spanning wrapper.

        ``count(counts, args, kwargs, result)`` adds work counts at the
        same boundary.
        """
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        self._patched.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def close(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    # ------------------------------------------------------------------
    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}


def span_totals(spans: dict, names: list[str]) -> dict:
    """Per span name: calls, total seconds, and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; wrapped calls nest strictly, so children never overlap.
    """
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    own = dur - child
    out = {}
    for nid, name in enumerate(names):
        sel = spans["name"] == nid
        if np.any(sel):
            out[name] = {"calls": int(np.sum(sel)), "s": float(np.sum(dur[sel])),
                         "self_s": float(np.sum(own[sel]))}
    return out


def save(path, names: list[str], arrays: dict, counts: list[dict]) -> None:
    """Write the spans (per-round arrays) and counters of a traced run."""
    np.savez_compressed(path, names=np.array(names), counts=np.array(json.dumps(counts)),
                        **arrays)
