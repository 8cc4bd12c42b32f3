"""Span recording for the traced benchmark runs.

`Recorder.install()` wraps every public function of the disctrace layer
modules and rebinds the wrapper under every name a disctrace module looks
the function up by: `from .moments import restrict_to_disc` binds the name
in the importing module, so patching only `moments` would miss the calls
made from `verification`.  Construction of `geometry.CP1Point` is recorded
through its `__post_init__`.  `uninstall()` restores the originals, so
untraced rounds run the unmodified program.

A span is (span id, name index, start, end, parent span id); the parent is
the innermost open span of the same thread (-1 at a thread's root, which
includes calls made by the moment-assembly worker threads).  Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("geometry", "discs", "crlifts", "boundary", "moments", "verification", "cli")

# functions whose return value also records the work done, as
# (span name, function of the result)
WORK = {
    "verification.build_moment_matrix": lambda m: m.matrix.size,
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.work: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        nid = self._name_index(name)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, nid, t0, t1, parent))
            if work is not None:
                self.work[name] = self.work.get(name, 0) + work(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every disctrace layer module that is
        imported, and CP1Point construction."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "disctrace" or n.startswith("disctrace."))
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"disctrace.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, obj, wrappers[obj])
        geometry = sys.modules.get("disctrace.geometry")
        if geometry is not None:
            cls = geometry.CP1Point
            post_init = cls.__post_init__
            self._patch(cls, "__post_init__", post_init,
                        self._wrap("geometry.CP1Point", post_init))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {
            "names": np.array(self.names, dtype=str),
            "span_id": rows[:, 0].astype(np.int64),
            "name_index": rows[:, 1].astype(np.int64),
            "start": rows[:, 2],
            "end": rows[:, 3],
            "parent": rows[:, 4].astype(np.int64),
            "work_names": np.array(list(self.work), dtype=str),
            "work_values": np.array(list(self.work.values()), dtype=float),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def summarize(arrays: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total (inclusive) time and self time,
    where self time is a span's duration minus that of its children."""
    sid, parent = arrays["span_id"], arrays["parent"]
    dur = arrays["end"] - arrays["start"]
    out: dict[str, dict[str, float]] = {}
    if len(sid):
        pos = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
        pos[sid] = np.arange(len(sid))
        child = np.zeros(len(sid))
        has_parent = parent >= 0
        np.add.at(child, pos[parent[has_parent]], dur[has_parent])
        own = dur - child
        for i, name in enumerate(arrays["names"]):
            sel = arrays["name_index"] == i
            out[str(name)] = {
                "calls": float(np.sum(sel)),
                "total_s": float(np.sum(dur[sel])),
                "self_s": float(np.sum(own[sel])),
            }
    for name, value in zip(arrays["work_names"], arrays["work_values"]):
        out.setdefault(str(name), {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
        out[str(name)]["work"] = float(value)
    return out


def merge(summaries) -> dict[str, dict[str, float]]:
    total: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = total.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0.0) + value
    return total
