"""Spans and counters around calls into the program's public functions.

The tracer replaces each public function of each package module, in
every module namespace that holds it, with a wrapper that times each
call as a span whose parent is the innermost traced call still open.
Per function it accumulates calls, total time and self time: a span's
duration minus the time covered by its child spans.  Counters are read
from arguments and return values at the same boundaries.  Nothing in
the program is edited; `uninstall` puts the original functions back.

`cli.main` dispatches through a handler table bound at import, so the
subcommand handlers run inside `cli.main`'s self time together with
argument parsing, JSON rendering and file writes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from collections import defaultdict
from types import ModuleType

LAYERS = ("poly", "completion", "gqsp", "circuit", "sim", "oracle", "testgen", "cli")
COUNTERS = (
    "completion.factorize.repeat_calls",
    "completion.factorize.cepstrum_results",
    "gqsp.degenerate_steps",
    "circuit.gates_emitted",
    "sim.realize.gates_applied",
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._children: list[float] = []  # child time of each open span
        self._seen_defects: set[bytes] = set()
        self._restore: list[tuple[ModuleType, str, object]] = []

    def install(self, package: ModuleType) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for module in (package, *modules):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_ms and self_ms of every traced function that ran."""
        return {
            name: {
                "calls": self.calls[name],
                "total_ms": self.total_s[name] * 1e3,
                "self_ms": self.self_s[name] * 1e3,
            }
            for name in sorted(self.calls)
        }

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - child
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


def _factorize(tracer: Tracer, args, kwargs, result) -> None:
    gram = args[0] if args else kwargs["gram"]
    key = hashlib.sha256(gram.as_array().tobytes()).digest()
    if key in tracer._seen_defects:
        tracer.counters["completion.factorize.repeat_calls"] += 1
    tracer._seen_defects.add(key)
    if result.method == "cepstrum":
        tracer.counters["completion.factorize.cepstrum_results"] += 1


def _synthesize_angles(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["gqsp.degenerate_steps"] += len(result.degenerate_steps)


def _build_reflection(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["circuit.gates_emitted"] += len(result.gates)


def _realize(tracer: Tracer, args, kwargs, result) -> None:
    circuit = args[0] if args else kwargs["c"]
    tracer.counters["sim.realize.gates_applied"] += len(circuit.gates)


_OBSERVERS = {
    "completion.factorize": _factorize,
    "gqsp.synthesize_angles": _synthesize_angles,
    "circuit.build_reflection": _build_reflection,
    "sim.realize": _realize,
}
