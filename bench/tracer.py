"""Span tracer that wraps povmkit's public names from outside the library.

Every target is a ``(module, name)`` pair.  A function is replaced at each of
its import sites: every ``povmkit`` module global that holds it, and every
``staticmethod`` in a ``povmkit`` class that holds it.  A class is traced
through its ``__init__`` (so subclass construction counts too), and
``Class.method`` through the method in the class that defines it.  Nothing
under ``src/`` is edited, and ``uninstall`` puts every original back.

A target whose module or name is gone at the commit under test is reported as
absent instead of failing the run, so the same benchmark code can measure a
parent commit and its child.

Per target the tracer keeps exact call counts, inclusive time, self time (span
time minus the time covered by child spans on the same thread) and the number
of calls that raised.  Spans stay in memory, capped at ``span_cap``, and are
written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

#: Traced public names, as ``(module, name)``; a metric is named
#: ``<module>.<name>.<stat>``.
TARGETS = (
    ("operators", "as_operator"),
    ("operators", "tensor"),
    ("tables", "ProbabilityTable"),
    ("tables", "ProbabilityTable.marginal"),
    ("measures", "PovmMeasure"),
    ("measures", "PovmMeasure.marginal"),
    ("measures", "povm_violations"),
    ("measures", "pvm_violations"),
    ("measures", "born_probabilities"),
    ("nonideality", "solve_nonideality"),
    ("nonideality", "check_martens"),
    ("srt", "srt_bivariate"),
    ("srt", "path_pvm"),
    ("srt", "interference_pvm"),
    ("srt", "tradeoff_sweep"),
    ("aspect", "arm_povm"),
    ("aspect", "quadrivariate_povm"),
    ("aspect", "joint_probabilities"),
    ("aspect", "standard_composite"),
    ("aspect", "chsh_value"),
    ("feasibility", "joint_exists"),
    ("feasibility", "phase1_simplex"),
    ("feasibility", "check_no_signaling"),
    ("serialize", "load_json"),
    ("serialize", "dump_json"),
    ("cli", "main"),
)

TARGET_NAMES = tuple(f"{module}.{name}" for module, name in TARGETS)
LAYERS = tuple(dict.fromkeys(module for module, _ in TARGETS))

_PACKAGE = "povmkit"


class _ThreadState:
    __slots__ = ("stack", "calls", "self_ns", "incl_ns", "raised", "top_ns")

    def __init__(self, n: int):
        self.stack: list[list[int]] = []
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.incl_ns = [0] * n
        self.raised = [0] * n
        self.top_ns = 0


class Tracer:
    """Wraps the targets on ``install`` and aggregates their spans."""

    def __init__(self, span_cap: int = 20000):
        n = len(TARGETS)
        self.span_cap = span_cap
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.item = -1
        self.absent: list[str] = []
        self._n = n
        self._local = threading.local()
        self._states: list[tuple[bool, _ThreadState]] = []
        self._states_lock = threading.Lock()
        self._main = threading.main_thread()
        self._span_ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        # Aggregates absorbed from traced child processes.
        self._extra = {"calls": [0] * n, "self_ns": [0] * n, "incl_ns": [0] * n,
                       "raised": [0] * n, "top_ns": 0}
        self.child_import_ns: list[int] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        self.absent = []
        for idx, (module_name, name) in enumerate(TARGETS):
            try:
                module = importlib.import_module(f"{_PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(TARGET_NAMES[idx])
                continue
            owner_name, _, method = name.partition(".")
            original = module.__dict__.get(owner_name)
            if isinstance(original, type):
                self._wrap_method(original, method or "__init__", idx)
            elif callable(original) and not method:
                self._wrap_function(original, idx)
            else:
                self.absent.append(TARGET_NAMES[idx])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap_method(self, cls: type, method: str, idx: int) -> None:
        original = cls.__dict__.get(method)
        if not callable(original):
            self.absent.append(TARGET_NAMES[idx])
            return
        self._patch(cls, method, self._wrapper(original, idx))

    def _wrap_function(self, original, idx: int) -> None:
        wrapper = self._wrapper(original, idx)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == _PACKAGE or module_name.startswith(_PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)
                elif isinstance(value, type) and value.__module__.startswith(_PACKAGE):
                    for cls_attr, member in list(vars(value).items()):
                        if isinstance(member, staticmethod) and member.__func__ is original:
                            self._patch(value, cls_attr, staticmethod(wrapper))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = _ThreadState(self._n)
        self._local.state = state
        with self._states_lock:
            self._states.append((threading.current_thread() is self._main, state))
        return state

    def _wrapper(self, fn, idx: int):
        local = self._local
        clock = time.perf_counter_ns
        spans = self.spans
        span_ids = self._span_ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or tracer._state()
            stack = state.stack
            span_id = next(span_ids)
            parent = stack[-1][1] if stack else -1
            frame = [0, span_id]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                state.calls[idx] += 1
                state.incl_ns[idx] += duration
                state.self_ns[idx] += duration - frame[0]
                if raised:
                    state.raised[idx] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    state.top_ns += duration
                if len(spans) < tracer.span_cap:
                    spans.append((span_id, parent, idx, tracer.item, start, end))

        return traced

    def absorb(self, child: dict) -> None:
        """Add the aggregates a traced child process wrote (see ``totals``).

        The child's import of povmkit counts as one more outermost span.
        """
        for key in ("calls", "self_ns", "incl_ns", "raised"):
            for name, value in child[key].items():
                if name in TARGET_NAMES:
                    self._extra[key][TARGET_NAMES.index(name)] += value
        self._extra["top_ns"] += child["top_ns"] + child["import_ns"]
        self.child_import_ns.append(child["import_ns"])

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Aggregates over every thread, keyed by target name.

        ``top_ns`` sums the outermost spans of the main thread only: spans on
        worker threads overlap the main-thread span that waits for them.
        """
        out = {key: list(self._extra[key]) for key in ("calls", "self_ns", "incl_ns", "raised")}
        top_ns = self._extra["top_ns"]
        with self._states_lock:
            states = list(self._states)
        for is_main, state in states:
            for key in ("calls", "self_ns", "incl_ns", "raised"):
                column = getattr(state, key)
                for i in range(self._n):
                    out[key][i] += column[i]
            if is_main:
                top_ns += state.top_ns
        result = {key: dict(zip(TARGET_NAMES, values)) for key, values in out.items()}
        result["top_ns"] = top_ns
        result["absent"] = list(self.absent)
        return result

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV: id, parent, name, item, start and end in ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,name,item,start_ns,end_ns\n")
            for span_id, parent, idx, item, start, end in self.spans:
                handle.write(f"{span_id},{parent},{TARGET_NAMES[idx]},{item},{start},{end}\n")
