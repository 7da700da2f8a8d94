"""Outside-in tracer: spans recorded around calls into the library.

The benchmark replaces names that library modules bound at import (for
example ``siegeltheta.suites.residue_kernel``) with wrappers that record a
span per call: name, start, end, parent span and op id.  Spans stay in
memory, in flat arrays, until the run ends.  Nothing inside the package is
changed; a name that a later version moves or renames is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        """Record a finished span directly (used by tests and by op spans)."""
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return index

    def wrap(self, func, name: str, after=None):
        """A wrapper of func that records one span per call.

        ``after(index, args, kwargs, result, error)`` runs once the span has
        ended, outside the timed interval, to attach untimed notes.
        """
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(index)
            result = error = None
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.end[index] = clock()
                stack.pop()
                if after is not None:
                    after(index, args, kwargs, result, error)

        return traced

    def install(self, module, attr: str, name: str, after=None) -> bool:
        """Replace module.attr by a traced wrapper; False if the name is gone."""
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            self.absent.append(name)
            return False
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, after))
        return True

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, index: int) -> float:
        return self.end[index] - self.start[index]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it that child spans cover.

        Children may overlap one another (a tree recorded from several
        threads would); the union of their intervals, clipped to the
        parent, is subtracted.
        """
        children: dict[int, list[int]] = {}
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        result = [self.end[i] - self.start[i] for i in range(len(self.start))]
        for parent, kids in children.items():
            lo, hi = self.start[parent], self.end[parent]
            intervals = sorted(
                (max(lo, self.start[k]), min(hi, self.end[k])) for k in kids
            )
            covered = 0.0
            run_start = run_end = None
            for a, b in intervals:
                if b <= a:
                    continue
                if run_end is None or a > run_end:
                    if run_end is not None:
                        covered += run_end - run_start
                    run_start, run_end = a, b
                else:
                    run_end = max(run_end, b)
            if run_end is not None:
                covered += run_end - run_start
            result[parent] -= covered
        return result

    def write_tsv(self, path: str, max_ops: int) -> None:
        """Write the spans of the first max_ops ops as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                if self.op[i] >= max_ops:
                    continue
                handle.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )
