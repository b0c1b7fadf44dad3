"""Span tracing of the program from outside.

A traced repetition replaces module-level names that the program looks up at
call time (``qho_cal.cli.measure_ensemble``, ``qho_cal.analytics.gauss_legendre``
and so on) with wrappers that record a span around each call, and restores
them afterwards. The untraced repetitions therefore run the program
unchanged. Spans are kept in memory as (name, start_ns, end_ns, parent
index, run id) and written out when the run ends; a span's self time is its
duration minus the durations of its direct children.

Names that later versions of the program rename or delete are reported as
missing hooks; the metrics that need them are left out, and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    span: str
    kind: str = "span"   # "span", "count", "generator", "measure" or "integrate"


# Every layer boundary the benchmark times. The generator hook wraps the
# record stream returned by iter_ensemble and times each next(); the count
# hook only counts calls, because gauss_legendre is called tens of thousands
# of times per analytic run and a span per call would distort it.
HOOKS: tuple[Hook, ...] = (
    Hook("qho_cal.cli", "iter_ensemble", "trajectories.next", "generator"),
    Hook("qho_cal.cli", "measure_ensemble", "work.measure", "measure"),
    Hook("qho_cal.cli", "write_moments_csv", "work.csv"),
    Hook("qho_cal.cli", "write_analytic_csv", "analytics.csv"),
    Hook("qho_cal.cli", "integrate", "lindblad.integrate", "integrate"),
    Hook("qho_cal.cli", "write_populations_csv", "lindblad.csv"),
    Hook("qho_cal.analytics", "truncated_calorimetric_moment", "analytics.perturbative"),
    Hook("qho_cal.analytics", "truncated_projective_moment", "analytics.perturbative"),
    Hook("qho_cal.analytics", "unitary_projective_moments", "analytics.unitary"),
    Hook("qho_cal.analytics", "unitary_calorimetric_moment", "analytics.unitary"),
    Hook("qho_cal.analytics", "gauss_legendre", "analytics.gl", "count"),
    Hook("qho_cal.analytics", "displacement_matrix", "fock.displacement"),
    Hook("qho_cal.trajectories", "matrix_exponential", "fock.expm"),
    Hook("qho_cal.model", "matrix_exponential", "fock.expm"),
)

ROOT = "cli.main"
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Span recorder for one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, int, int, int]] = []   # name, start, end, parent
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        # facts gathered from the records the generator yields
        self.records = 0
        self.jumps: int | None = 0
        self.leak_sum: np.ndarray | None = None
        self.state_bytes: int | None = 0
        self.batch_size: int | None = None
        self.samples_per_traj: int | None = None
        self.hist_bins: int | None = None
        self.integrate_points = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent)

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def counting(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def measuring(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            try:
                self.hist_bins = sum(
                    len(h) for s in (result.projective, result.calorimetric) for h in s.histograms
                )
                self.samples_per_traj = 2 * len(result.projective.times)
            except AttributeError:
                self.hist_bins = self.samples_per_traj = None
            return result
        return wrapper

    def integrating(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            grid = args[3] if len(args) > 3 else kwargs.get("grid", ())
            self.integrate_points += len(grid)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def generating(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            config = args[2] if len(args) > 2 else kwargs.get("config")
            self.batch_size = getattr(config, "batch_size", None)
            return _TimedRecords(self, name, fn(*args, **kwargs))
        return wrapper

    def take_record(self, record) -> None:
        """Bookkeeping on one yielded record, itself timed as a span so that
        it is charged to the tracer and not to the layer that asked for it."""
        self.records += 1
        if self.jumps is not None:
            try:
                self.jumps += len(record.jumps)
            except (AttributeError, TypeError):
                self.jumps = None
        if self.state_bytes is not None:
            try:
                states = record.states
                top = states[:, -1]
                leak = top.real**2 + top.imag**2
                if self.leak_sum is None:
                    self.leak_sum = np.zeros(leak.shape)
                self.leak_sum += leak
                self.state_bytes += states.nbytes
            except (AttributeError, IndexError, TypeError, ValueError):
                self.leak_sum = self.state_bytes = None

    # -- reduction -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["incl_s"] += (end - start) * 1e-9
            t["self_s"] += (end - start - child[i]) * 1e-9
        for name, n in self.calls.items():
            out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})["calls"] += n
        return out

    def dump(self, fh) -> None:
        for name, start, end, parent in self.spans:
            fh.write(json.dumps({"run": self.run_id, "name": name, "start_ns": start,
                                 "end_ns": end, "parent": parent}) + "\n")


class _TimedRecords:
    """Iterator over the record stream that times each next() as a span."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        record = tracer.call(self._name, next, self._inner)
        tracer.call(BOOKKEEPING, tracer.take_record, record)
        return record


class installed:
    """Context manager: install the hooks on a tracer, restore on exit.

    ``missing`` lists the hooks whose module or name does not exist."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        t = self.tracer
        makers = {"span": t.wrap, "count": t.counting, "generator": t.generating,
                  "measure": t.measuring, "integrate": t.integrating}
        for hook in self.hooks:
            try:
                module = importlib.import_module(hook.module)
                original = getattr(module, hook.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            wrapped = makers[hook.kind](hook.span, original)
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False
