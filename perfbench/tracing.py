"""Spans around riskflow's public functions, recorded from outside the package.

A :class:`Tracer` replaces a function object by a timing wrapper in every
``riskflow`` module namespace that binds it.  Callers inside the package look
such names up in their module globals at call time (``scenario`` calls the
``simulate_path`` it imported from ``markov``), so patching the bindings is
enough to see every call without editing the package.

Each span keeps its call count, its self time (duration minus the time of
traced calls nested inside it) and its total time (recursive calls of the
same span are counted once).  Times are CPU time of the calling thread:
``run_experiment`` evaluates paths on a thread pool by default, and wall time
there would also count the waits of each worker for the interpreter lock
and of the caller for its workers.  Counters live per thread and are merged
on read.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Iterable

#: Spans recorded in a traced run, as ``<module>.<function>`` of riskflow.
SPANS = (
    "markov.simulate_path",
    "markov.one_step_linked_expectation",
    "distributions.sample",
    "distributions.expected_positive_part",
    "static_risk.var",
    "static_risk.cvar_tail",
    "static_risk.cvar_ru",
    "static_risk.ru_objective",
    "dynamic_risk.recursive_var_gaussian_closed",
    "dynamic_risk.recursive_var_weibull_closed",
    "dynamic_risk.recursive_cvar",
    "dynamic_risk.modulated_var_trajectory",
    "dynamic_risk.modulated_cvar_trajectory",
    "scenario.run_experiment",
    "scenario.emit_trajectories",
    "scenario.fit_gaussian",
    "scenario.fit_weibull",
    "axioms.check_static_axiom",
    "axioms.check_dynamic_axiom",
)

#: Spans whose first argument (the return model) is collected, so that the
#: share of distinct models among static evaluations can be reported.
MODEL_SPANS = ("static_risk.var", "static_risk.cvar_tail")


class _ThreadState:
    def __init__(self, spans: Iterable[str]) -> None:
        # Per span: [calls, self_ns, total_ns, active depth].
        self.stats = {name: [0, 0, 0, 0] for name in spans}
        self.models: set[object] = set()
        # Traced time of the children of each open span.
        self.stack: list[int] = []


class Tracer:
    """Install with :meth:`install`, read with :meth:`snapshot`, then :meth:`uninstall`."""

    def __init__(self, spans: Iterable[str] = SPANS) -> None:
        self.spans = tuple(spans)
        self.missing: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(self.spans)
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.thread_time_ns
        collect_model = name in MODEL_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stat = state.stats[name]
            if collect_model and args:
                state.models.add(args[0])
            stack = state.stack
            stack.append(0)
            stat[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[3] -= 1
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stat[3] == 0:
                    stat[2] += elapsed
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        """Patch every riskflow binding of each span's function."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "riskflow" or n.startswith("riskflow."))
        ]
        for name in self.spans:
            module_name, attr = name.split(".")
            try:
                fn = getattr(importlib.import_module(f"riskflow.{module_name}"), attr)
            except (ImportError, AttributeError):
                if name not in self.missing:
                    print(f"tracing: riskflow has no {name}; its span reads 0", file=sys.stderr)
                    self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def snapshot(self) -> tuple[dict[str, tuple[int, int, int]], int]:
        """Per span ``(calls, self_ns, total_ns)`` over all threads, and the
        number of distinct models seen by :data:`MODEL_SPANS`."""
        with self._lock:
            states = list(self._states)
        merged = {name: (0, 0, 0) for name in self.spans}
        models: set[object] = set()
        for state in states:
            for name, (calls, self_ns, total_ns, _) in state.stats.items():
                c, s, t = merged[name]
                merged[name] = (c + calls, s + self_ns, t + total_ns)
            models |= state.models
        return merged, len(models)
