"""Spans around flextrack's layers, installed from the benchmark's own files.

Each wrapper replaces one module-level name with a function that records a
span (layer, start, end, parent span) in memory; the spans are written out
when the run ends. A layer's self time is its span minus the part covered by
its child spans. Names that one module imports from another (``cli`` takes
``solve_qubo``, ``read_qubo_file`` and ``brute_force_qubo``; ``sb`` takes
``qubo_to_ising``, ``ising_energy`` and ``qubo_energy``; ``assign`` takes
``qubo_energy``) are wrapped in every module that looks them up, and call
counts are checked per layer against what the run's structure implies, so a
refactor that routes a call past every wrapper fails the run instead of
reading zero.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter

import numpy as np

# (module, name, layer) for every binding the program looks a layer up through
WRAPPED = (
    ("track", "step", "track.step"),
    ("track", "predict", "track.predict"),
    ("track", "update", "track.update"),
    ("track", "similarity_matrix", "track.similarity"),
    ("assign", "flexible_assign", "assign.flexible_assign"),
    ("assign", "hungarian_assign", "assign.hungarian_assign"),
    ("assign", "build_assignment_qubo", "assign.build_qubo"),
    ("assign", "hungarian", "assign.hungarian"),
    ("assign", "qubo_energy", "ising.qubo_energy"),
    ("sb", "solve_qubo", "sb.solve_qubo"),
    ("sb", "solve_ising", "sb.solve_ising"),
    ("sb", "qubo_to_ising", "ising.to_ising"),
    ("sb", "ising_energy", "ising.ising_energy"),
    ("sb", "qubo_energy", "ising.qubo_energy"),
    ("ising", "qubo_to_ising", "ising.to_ising"),
    ("ising", "ising_energy", "ising.ising_energy"),
    ("ising", "qubo_energy", "ising.qubo_energy"),
    ("ising", "read_qubo_file", "ising.read_qubo"),
    ("ising", "brute_force_qubo", "ising.brute_force"),
    ("cli", "solve_qubo", "sb.solve_qubo"),
    ("cli", "read_qubo_file", "ising.read_qubo"),
    ("cli", "brute_force_qubo", "ising.brute_force"),
    ("cli", "read_mot_file", "cli.read_mot"),
    ("cli", "write_mot_file", "cli.write_mot"),
)


class Tracer:
    """In-memory spans plus per-layer hooks that see each call's arguments and result."""

    def __init__(self):
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.hooks: dict = {}

    def wrap(self, layer: str, fn):
        layers, starts, ends, parents, stack = (
            self.layers, self.starts, self.ends, self.parents, self._stack,
        )
        hooks = self.hooks

        def traced(*args, **kwargs):
            i = len(layers)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = time.perf_counter()
                stack.pop()
            hook = hooks.get(layer)
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every binding in :data:`WRAPPED`; ``modules`` maps short names to modules."""
        for module, name, layer in WRAPPED:
            mod = modules[module]
            setattr(mod, name, self.wrap(layer, getattr(mod, name)))

    def reset(self) -> None:
        """Drop the spans recorded so far (the warm-up)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        for spans in (self.layers, self.starts, self.ends, self.parents):
            spans.clear()

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per layer: call count, total seconds and self seconds."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        calls, total, own = Counter(), Counter(), Counter()
        for layer, d, c in zip(self.layers, dur.tolist(), covered.tolist()):
            calls[layer] += 1
            total[layer] += d
            own[layer] += d - c
        return calls, total, own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"layers": self.layers, "starts": self.starts, "ends": self.ends,
                 "parents": self.parents},
                fh,
            )


def bound_arguments(fn, args, kwargs) -> dict:
    """The call's arguments by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def check_call_counts(calls: Counter, expected: dict) -> list[str]:
    """Mismatches between the recorded call counts and the expected ones."""
    return [
        f"{layer}: {calls.get(layer, 0)} calls, expected {want}"
        for layer, want in sorted(expected.items())
        if calls.get(layer, 0) != want
    ]


def layer_metrics(calls: Counter, total: Counter, own: Counter, ops: int, passes: int) -> dict:
    """Per-operation (and per ``flextrack track`` run) times in ms from the spans."""
    def per_op(seconds):
        return 1e3 * seconds / ops

    def per_pass(seconds):
        return 1e3 * seconds / passes if passes else 0.0

    return {
        "track.similarity_ms": per_op(total["track.similarity"]),
        "track.kalman_ms": per_op(total["track.predict"] + total["track.update"]),
        "track.step_self_ms": per_op(own["track.step"]),
        "assign.qubo_build_ms": per_op(total["assign.build_qubo"]),
        "assign.arbitrate_ms": per_op(own["assign.flexible_assign"] + own["assign.hungarian_assign"]),
        "assign.hungarian_ms": per_op(total["assign.hungarian"]),
        "sb.solve_ms": per_op(own["sb.solve_qubo"] + own["sb.solve_ising"]),
        "ising.to_ising_ms": per_op(total["ising.to_ising"]),
        "ising.energy_ms": per_op(total["ising.qubo_energy"] + total["ising.ising_energy"]),
        "ising.read_qubo_ms": per_op(total["ising.read_qubo"]),
        "cli.read_mot_ms": per_pass(total["cli.read_mot"]),
        "cli.write_mot_ms": per_pass(total["cli.write_mot"]),
    }
