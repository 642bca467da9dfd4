"""Hooks installed from outside the program: a span tracer and an iteration clock.

Each hooked function is replaced, in every ``ssqite`` module that binds it,
by a wrapper.  Wrapping the binding where the caller looks the name up
matters: ``subspace`` calls ``apply`` through its own module globals, so
replacing ``ssqite.simulator.apply`` alone would see no call from the
subspace loop.  A listed function that no longer exists reads as zero calls.
"""

from __future__ import annotations

import sys
import time

# Public functions whose spans make the per-layer metrics, named
# ``<module>.<function>`` after the module that defines them.
TRACED = (
    "bench_cli.cmd_scan",
    "bench_cli.cmd_trace",
    "pauli_algebra.load_geometry_series",
    "exact_oracle.eigensolve",
    "subspace.run",
    "subspace.iteration",
    "subspace.ortho_report",
    "qite_engine.assemble",
    "qite_engine.solve",
    "simulator.derivative_stack",
    "simulator.apply",
    "simulator.apply_pauli_sum",
    "simulator.overlap",
)

ITERATION = "subspace.iteration"


class _Hooks:
    """Replace and later restore every binding of the functions in NAMES."""

    NAMES: tuple[str, ...] = ()

    def __init__(self):
        self._restore = []

    def _wrap(self, name, fn):
        raise NotImplementedError

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ssqite" or key.startswith("ssqite."))]
        for name in self.NAMES:
            module_name, func_name = name.split(".")
            home = sys.modules.get(f"ssqite.{module_name}")
            original = getattr(home, func_name, None) if home else None
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


class Tracer(_Hooks):
    """Calls and self time per traced function, and every iteration's span.

    Self time is span time minus the time of the spans it directly encloses.
    """

    NAMES = TRACED

    def __init__(self):
        super().__init__()
        self.calls = {name: 0 for name in TRACED}
        self.self_s = {name: 0.0 for name in TRACED}
        self.starts = []  # start of every iteration span
        self.iteration_s = []  # and its duration
        self._child = []  # time covered by child spans, one slot per open span

    def _wrap(self, name, fn):
        clock = time.perf_counter
        child = self._child
        sampled = name == ITERATION

        def span(*args, **kwargs):
            child.append(0.0)
            start = clock()
            if sampled:
                self.starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = child.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - inner
                if child:
                    child[-1] += duration
                if sampled:
                    self.iteration_s.append(duration)

        return span


class IterationClock(_Hooks):
    """The clock read at the start of every iteration; nothing else is hooked."""

    NAMES = (ITERATION,)

    def __init__(self):
        super().__init__()
        self.starts = []

    def _wrap(self, name, fn):
        clock = time.perf_counter
        starts = self.starts

        def tick(*args, **kwargs):
            starts.append(clock())
            return fn(*args, **kwargs)

        return tick
