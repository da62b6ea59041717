"""Span tracer that instruments sqbath from outside the package.

Each traced target is a public function or method of one sqbath module.
``install`` wraps it by identity: every attribute of every loaded
``sqbath`` module that is bound to the target object is replaced by the
wrapper (so ``from .matkernel import herm_eig`` copies are covered), and
methods are replaced on their class. ``uninstall`` puts the originals
back. A target that does not exist in the code under test is skipped and
reports zero calls, so the same tracer measures versions of the package
that add or remove functions.

Spans are kept in memory as (op, target, start, end, parent, size) tuples
and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

PACKAGE = "sqbath"

# (module, attribute path, counts evaluations by the length of argument 1).
# states_at is the batched form of state_at; its size is the number of
# time points it evaluates.
TARGETS = (
    ("matkernel", "matrix_exp", False),
    ("matkernel", "herm_eig", False),
    ("matkernel", "matrix_sqrt_psd", False),
    ("model", "dfs_unitary", False),
    ("model", "build_liouvillian", False),
    ("dynamics", "ExactPropagator.state_at", False),
    ("dynamics", "ExactPropagator.states_at", True),
    ("dynamics", "evolve_exact", False),
    ("dynamics", "evolve_rk4", False),
    ("entanglement", "concurrence_wootters", False),
    ("entanglement", "ppt_min_eigenvalue", False),
    ("events", "event_scan", False),
    ("events", "detect_events", False),
    ("validation", "vacuum_report", False),
    ("validation", "concurrence_report", False),
    ("validation", "general_form_report", False),
    ("cli", "main", False),
)

NAMES = tuple(f"{module}.{attr}" for module, attr, _ in TARGETS)
_INDEX = {name: k for k, name in enumerate(NAMES)}


class Tracer:
    """Records nested call spans of the traced targets while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, sized: bool):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = len(args[1]) if sized and len(args) > 1 else 1
                spans[sid] = (self.op, index, start, end, parent, size)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for index, (module_name, attr, sized) in enumerate(TARGETS):
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(index, original, sized)
            if path:
                self._set(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time (span minus its children) per target name."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for sid, (_, index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += end - start - child[sid]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(NAMES)}

    def scan_evaluations(self) -> tuple[int, int, int]:
        """Scans, grid evaluations and refinement evaluations.

        A state evaluation under ``detect_events`` is a refinement; one
        under ``event_scan`` but outside ``detect_events`` is a grid point.
        """
        scan = _INDEX["events.event_scan"]
        detect = _INDEX["events.detect_events"]
        evals = {_INDEX["dynamics.ExactPropagator.state_at"],
                 _INDEX["dynamics.ExactPropagator.states_at"]}
        scans = grid = refine = 0
        for _, index, _, _, parent, size in self.spans:
            if index == scan:
                scans += 1
            if index not in evals:
                continue
            in_scan = in_detect = False
            while parent >= 0:
                ancestor = self.spans[parent]
                in_scan |= ancestor[1] == scan
                in_detect |= ancestor[1] == detect
                parent = ancestor[4]
            if in_detect:
                refine += size
            elif in_scan:
                grid += size
        return scans, grid, refine

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start,end,size\n")
            for sid, (op, index, start, end, parent, size) in enumerate(self.spans):
                fh.write(f"{op},{sid},{parent},{NAMES[index]},{start!r},{end!r},{size}\n")
