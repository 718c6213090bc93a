"""Span tracer for the traced (``--trace 1``) benchmark run.

The tracer wraps each layer's public functions where their callers look
them up (a module attribute such as ``repro.core.verifier.ltl_to_buchi``,
or a method on its class such as ``PartialIsoType.extend``).  Every wrapped
call records one span: name, start, end, parent span and the id of the
verify call or job it belongs to.  Spans are kept in flat typed arrays
(about 36 bytes each) and written to disk only when the run ends.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of all spans under a root span add up to the
root's duration exactly.
"""

from __future__ import annotations

import importlib
import threading
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The span whose subtree is the repeated-reachability phase.
REPEATED_ROOT = "repeated.analyse"


class Tracer:
    """Records spans into typed arrays; one tracer per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        #: A number measured at the span's boundary (moves returned,
        #: candidates returned, 1 for a true/consistent answer, ...).
        self.value = array("d")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Job id -> call id, for spans tagged by ``job_of``.
        self._job_ids: Dict[Any, int] = {}

    # ------------------------------------------------------------------ recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        function: Callable,
        value_of: Optional[Callable[[Any], float]] = None,
        new_call: bool = False,
        job_of: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable:
        """*function* wrapped so that every call records a span *name*.

        *value_of(result)* gives the span's boundary value.  The span's call
        id is the current verify call's (*new_call* starts a fresh one, for
        the root span of a verify call), or the id of the job that
        *job_of(args, result)* names.
        """
        nid = self.name_id(name)
        local, lock = self._local, self._lock
        name_of, start, end, parent, call, value = (
            self.name_of, self.start, self.end, self.parent, self.call, self.value,
        )
        stack_of = self._stack
        job_ids = self._job_ids
        next_call = [0]

        def wrapper(*args, **kwargs):
            stack = stack_of()
            if new_call:
                with lock:
                    next_call[0] += 1
                local.call = next_call[0]
            with lock:
                index = len(start)
                name_of.append(nid)
                start.append(0.0)
                end.append(0.0)
                parent.append(stack[-1] if stack else -1)
                call.append(getattr(local, "call", 0))
                value.append(0.0)
            stack.append(index)
            began = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                finished = perf_counter()
                stack.pop()
                start[index] = began
                end[index] = finished
            if value_of is not None:
                value[index] = value_of(result)
            if job_of is not None:
                job = job_of(args, result)
                if job is not None:
                    with lock:
                        call[index] = job_ids.setdefault(job, len(job_ids) + 1)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    # ------------------------------------------------------------------ patching

    def patch(self, target: str, name: str, **wrap_options) -> None:
        """Wrap the attribute at dotted path *target* (``module.attr`` or
        ``module.Class.method``) in place, remembering how to undo it."""
        module_path, _, attribute = target.rpartition(".")
        try:
            owner: Any = importlib.import_module(module_path)
        except ImportError:
            class_module, _, class_name = module_path.rpartition(".")
            owner = getattr(importlib.import_module(class_module), class_name)
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, **wrap_options))

    def unpatch(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ analysis

    def __len__(self) -> int:
        return len(self.start)

    def in_repeated(self) -> bytearray:
        """1 for every span inside a ``repeated.analyse`` span."""
        flags = bytearray(len(self.start))
        repeated_id = self._name_ids.get(REPEATED_ROOT, -1)
        parent, name_of = self.parent, self.name_of
        for index in range(len(flags)):  # parents always precede their children
            up = parent[index]
            if up >= 0 and (flags[up] or name_of[up] == repeated_id):
                flags[index] = 1
        return flags

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``s`` (self time), ``total_s`` and
        ``value`` (summed boundary values), the same four restricted to the
        repeated-reachability phase under ``repeated.<key>``, and the
        calls and boundary values outside that phase by parent span name
        under ``calls@<parent>`` and ``value@<parent>``."""
        count = len(self.start)
        duration = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * count
        parent, name_of = self.parent, self.name_of
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child_time[up] += duration[index]
        in_repeated = self.in_repeated()
        result: Dict[str, Dict[str, float]] = {
            name: defaultdict(float) for name in self.names
        }
        for index in range(count):
            entry = result[self.names[name_of[index]]]
            self_time = duration[index] - child_time[index]
            entry["calls"] += 1
            entry["s"] += self_time
            entry["total_s"] += duration[index]
            entry["value"] += self.value[index]
            up = parent[index]
            if up >= 0 and not in_repeated[index]:
                entry["calls@" + self.names[name_of[up]]] += 1
                entry["value@" + self.names[name_of[up]]] += self.value[index]
            if in_repeated[index]:
                entry["repeated.calls"] += 1
                entry["repeated.s"] += self_time
                entry["repeated.total_s"] += duration[index]
                entry["repeated.value"] += self.value[index]
        return {name: dict(entry) for name, entry in result.items()}

    def per_call(self, name: str, parent_name: str, main_only: bytearray,
                 count: bool = False) -> Dict[int, float]:
        """Summed boundary values (or, with *count*, the number) of *name*
        spans per call id, counting only spans whose parent is
        *parent_name* and that are outside the repeated phase (*main_only*
        is :meth:`in_repeated`)."""
        nid = self._name_ids.get(name)
        pid = self._name_ids.get(parent_name, -2)
        sums: Dict[int, float] = defaultdict(float)
        for index, span_name in enumerate(self.name_of):
            if span_name != nid or main_only[index]:
                continue
            up = self.parent[index]
            if up >= 0 and self.name_of[up] == pid:
                sums[self.call[index]] += 1.0 if count else self.value[index]
        return sums

    def roots(self) -> Dict[str, int]:
        """How many spans of each name have no parent span."""
        counts: Dict[str, int] = defaultdict(int)
        for index, up in enumerate(self.parent):
            if up < 0:
                counts[self.names[self.name_of[index]]] += 1
        return dict(counts)

    def write(self, path: str) -> None:
        """Write the spans as one binary file: a header line with the span
        count and the names, then the six arrays in order."""
        with open(path, "wb") as handle:
            header = f"{len(self)}\t" + "\t".join(self.names) + "\n"
            handle.write(header.encode("utf-8"))
            for column in (
                self.name_of, self.start, self.end, self.parent, self.call, self.value
            ):
                column.tofile(handle)
