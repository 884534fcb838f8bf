"""In-memory spans around calls into the program's public functions.

The tracer wraps functions from outside (it edits nothing under
``src/``).  Each span records name, start, end, parent span and request
id.  Spans stay in memory and each process writes its own out once, at
the end: the benchmark process when it asks, forked pool workers from
a ``multiprocessing`` exit finalizer.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import pathlib
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from typing import Callable, Iterator, Optional


def traced_calls() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every traced public call."""
    from repro.analysis import engine, runner
    from repro.common.cache import ResultCache
    from repro.consistency.model import TsoChecker
    from repro.system.simulator import SimulationResult, System
    from repro.system.summary import ResultSummary
    from repro.workloads import generator

    # The package re-exports a function named ``fuzz``; take the module.
    fuzz = importlib.import_module("repro.consistency.fuzz")
    return [
        (generator, "generate_workload", "workloads.generate_workload"),
        (runner, "generate_workload", "workloads.generate_workload"),
        (System, "__init__", "system.System.__init__"),
        (System, "run", "system.System.run"),
        (SimulationResult, "summary", "system.summarize"),
        (ResultSummary, "canonical_json", "system.summarize"),
        (runner, "run_benchmark", "analysis.run_benchmark"),
        (engine, "run_benchmark", "analysis.run_benchmark"),
        (engine, "prefetch", "analysis.prefetch"),
        (ResultCache, "get", "cache.get"),
        (ResultCache, "put", "cache.put"),
        (fuzz, "run_case", "consistency.run_case"),
        (TsoChecker, "admissible", "consistency.admissible"),
    ]


def _run_benchmark_attrs(args, kwargs) -> dict:
    benchmark, policy, scale = args[:3]
    return {"point": f"{benchmark}/{policy.name}/s{scale.seed}"}


def _run_result_attrs(result) -> dict:
    return {"cycles": result.cycles, **(result.fastforward or {})}


#: Extra attributes recorded from a call's arguments or its result.
ARG_ATTRS = {"analysis.run_benchmark": _run_benchmark_attrs}
RESULT_ATTRS = {"system.System.run": _run_result_attrs}


class Tracer:
    """Span recorder for one process and the workers forked from it."""

    def __init__(self, out_dir: pathlib.Path) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[str]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._request: contextvars.ContextVar[Optional[str]] = (
            contextvars.ContextVar("perfbench_request", default=None)
        )
        self._patches: list[tuple[object, str, object]] = []

    def _adopt_fork(self) -> None:
        """In a forked child: drop the parent's spans, flush at exit."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            mp_util.Finalize(None, self.flush, exitpriority=10)

    def context(self) -> tuple[Optional[str], Optional[str]]:
        """(current span id, request id), to hand to another process."""
        return self._current.get(), self._request.get()

    @contextmanager
    def adopted(self, context: tuple[Optional[str], Optional[str]]) -> Iterator[None]:
        """Make spans opened inside children of another process's span."""
        span_token = self._current.set(context[0])
        request_token = self._request.set(context[1])
        try:
            yield
        finally:
            self._current.reset(span_token)
            self._request.reset(request_token)

    @contextmanager
    def span(self, name: str, request: Optional[str] = None, **attrs) -> Iterator[dict]:
        self._adopt_fork()
        span_id = f"{self.pid}:{next(self._ids)}"
        parent, inherited = self.context()
        request = request if request is not None else inherited
        start = time.perf_counter()
        try:
            with self.adopted((span_id, request)):
                yield attrs
        finally:
            self.spans.append(
                {
                    "name": name,
                    "id": span_id,
                    "parent": parent,
                    "request": request,
                    "start": start,
                    "end": time.perf_counter(),
                    "attrs": attrs,
                }
            )

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        request_of: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a spanned call of it."""
        original = getattr(owner, attribute)
        arg_attrs = ARG_ATTRS.get(name)
        result_attrs = RESULT_ATTRS.get(name)

        def open_span(args, kwargs):
            request = request_of(args, kwargs) if request_of else None
            attrs = arg_attrs(args, kwargs) if arg_attrs else {}
            return self.span(name, request=request, **attrs)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def traced(*args, **kwargs):
                with open_span(args, kwargs):
                    return await original(*args, **kwargs)

        else:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                with open_span(args, kwargs) as attrs:
                    result = original(*args, **kwargs)
                    if result_attrs:
                        attrs.update(result_attrs(result))
                    return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def install(self) -> "Tracer":
        for owner, attribute, name in traced_calls():
            self.wrap(owner, attribute, name)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def flush(self) -> None:
        """Write this process's spans to ``spans-<pid>.json``."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.spans))
        self.spans = []


def load_spans(out_dir: pathlib.Path) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(out_dir.glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result
