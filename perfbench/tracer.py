"""In-memory span tracer that wraps the program's public functions from outside.

The tracer patches each target function everywhere it is bound: in the module
that defines it and in every loaded ``repro.*`` module that imported it by
name (``from repro.walks.models import advance`` binds a second reference that
patching the defining module alone would miss). Methods are patched on their
class. ``uninstall`` restores every original object.

Each wrapped call records one span: name, parent span, start, end and an
optional work count (walks, probes, rows ...). Spans live in flat arrays in
memory and are written out once, at the end of a run. A span's self time is
its duration minus the durations of its direct children; calls are nested on
one thread, so the self times of all spans under a root add up to the root's
duration.
"""
from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

# work(args, kwargs, result) -> int, the amount of work one call did.
WorkFn = Callable[[tuple, dict, object], int]


@dataclass(frozen=True)
class Target:
    """One function or method to trace.

    ``where`` is ``"module:attr"`` for a function or ``"module:Class.attr"``
    for a method or classmethod.
    """

    where: str
    span: str
    work: WorkFn | None = None


class Tracer:
    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _nid(self, span: str) -> int:
        if span not in self._name_id:
            self._name_id[span] = len(self.names)
            self.names.append(span)
        return self._name_id[span]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.t0.append(0.0)
        self.t1.append(0.0)
        self.work.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.t0[sid] = t0
        self.t1[sid] = t1

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        sid = self._open(self._nid(name))
        t0 = perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, t0, perf_counter())

    @contextmanager
    def tracing(self, root: str, spans: set[str] | None = None):
        """Install the targets (see ``install``) for the duration of one root
        span; yields the root span's id."""
        self.install(spans)
        try:
            with self.span(root) as sid:
                yield sid
        finally:
            self.uninstall()

    def _wrap(self, fn: Callable, span: str, work: WorkFn | None) -> Callable:
        nid = self._nid(span)

        def traced(*args, **kwargs):
            sid = self._open(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, t0, perf_counter())
            if work is not None:
                self.work[sid] = int(work(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    # -- patching -------------------------------------------------------
    def install(self, spans: set[str] | None = None) -> None:
        """Patch the targets, or only those whose span name is in ``spans``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            for t in self.targets:
                if spans is None or t.span in spans:
                    self._install_one(t)
        except Exception:
            self.uninstall()
            raise

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install_one(self, t: Target) -> None:
        mod_name, path = t.where.split(":")
        mod = sys.modules.get(mod_name) or __import__(mod_name, fromlist=["_"])
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, t.span, t.work)))
            else:
                self._set(cls, attr, self._wrap(raw, t.span, t.work))
            return
        fn = getattr(mod, path)
        traced = self._wrap(fn, t.span, t.work)
        for m in [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "repro"]:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    self._set(m, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis -------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": name, "parent": parent, "t0": t0, "t1": t1, "dur": dur,
            "self": dur - child, "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def summary(self, root: int) -> dict[str, dict[str, float]]:
        """Per-span-name totals over ``root`` and every span inside it:
        calls, inclusive seconds ``s``, ``self_s`` and summed ``work``."""
        a = self.arrays()
        inside = (a["t0"] >= a["t0"][root]) & (a["t1"] <= a["t1"][root])
        out: dict[str, dict[str, float]] = {}
        for nid, span in enumerate(self.names):
            m = inside & (a["name"] == nid)
            out[span] = {
                "calls": int(m.sum()),
                "s": float(a["dur"][m].sum()),
                "self_s": float(a["self"][m].sum()),
                "work": int(a["work"][m].sum()),
            }
        return out

    def find(self, span: str, root: int) -> np.ndarray:
        """Ids of the spans named ``span`` inside ``root``, in start order."""
        a = self.arrays()
        inside = (a["t0"] >= a["t0"][root]) & (a["t1"] <= a["t1"][root])
        return np.flatnonzero(inside & (a["name"] == self._name_id.get(span, -1)))

    def save(self, path: Path) -> None:
        a = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=a["name"], parent=a["parent"],
            t0=a["t0"], t1=a["t1"], work=a["work"],
        )
