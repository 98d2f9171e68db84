"""The measured process of one benchmark run: a closed-loop client of flextrack.

Usage: ``python3 bench/worker.py PLAN.json [--probe]`` with ``PYTHONPATH``
pointing at the checkout's ``src``; ``bench/run.py`` writes the plan and
starts this process. The client hands the program one operation at a time
through ``flextrack.cli`` and sends the next only when the previous returned:
a frame of ``flextrack track`` or one ``flextrack solve-qubo`` call. A round
is a fixed list of such calls (passes over detection files, or solves); after
a short warm-up the client runs whole rounds, at least ``min_rounds`` of
them, and stops when one more round would end past ``seconds``. It then
writes what it measured to the plan's result file.

``--probe`` skips the warm-up and stops at the moment the first operation of
the first round would be handed to the program, so the parent can time set-up
alone; it then times the "sb" reference kernel a few times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

from tracing import WRAPPED, Tracer, bound_arguments, check_call_counts, layer_metrics

MAX_VIOLATIONS = 20

# Reference kernels, frozen here apart from the program and timed right after
# every operation, so that run.py can express each operation in units of one:
# the host's speed swings by up to 1.9 times for tens of seconds, and moves a
# kernel and an operation of the same kind of work alike. "sb" is 100
# ballistic steps on 25 spins, small NumPy updates driven from Python as in a
# tracking frame, a file parse or an IOU loop; "matvec" is 10 BLAS products
# with a dense 576 x 576 matrix, the coupling product of a 24 x 24 assignment.
_REF_RNG = np.random.default_rng(0)
_SB_J = _REF_RNG.normal(size=(25, 25))
_SB_J = (_SB_J + _SB_J.T) / 2.0
_SB_H = _REF_RNG.normal(size=25)
_SB_Y0 = _REF_RNG.uniform(-0.1, 0.1, size=25)
_MV_J = _REF_RNG.normal(size=(576, 576))
_MV_X = _REF_RNG.normal(size=576)


def _sb_kernel() -> None:
    x, y = np.zeros(25), _SB_Y0
    for k in range(100):
        y = y + (-(1.0 - k / 100) * x - 0.8 * _SB_H + 0.8 * (_SB_J @ x)) * 0.3
        x = x + y * 0.3
        over = np.abs(x) > 1.0
        if over.any():
            x = np.where(over, np.sign(x), x)
            y = np.where(over, 0.0, y)


def _matvec_kernel() -> None:
    for _ in range(10):
        _MV_J @ _MV_X


REFERENCES = {"sb": _sb_kernel, "matvec": _matvec_kernel}
# set-up is imports and file reads, interpreter-bound work: a probe times the
# "sb" kernel this many times once set-up is over
SETUP_REFS = 5


def time_kernel(kernel) -> float:
    """Seconds one call of a reference kernel takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class ProbeDone(Exception):
    """Raised at the first hand-off in probe mode."""


class Client:
    """Runs warm-up and whole rounds; subclasses say what a round is."""

    COUNTS = ("spin_updates", "restarts")

    def __init__(self, plan: dict, modules: dict, tracer: Tracer | None, probe: bool):
        self.plan = plan
        self.m = modules
        self.tracer = tracer
        self.probe = probe
        self.handoff = None
        self.warming = False
        self.times: list[tuple[float, float]] = []
        self.refs: list[float] = []
        self.kernel = REFERENCES[plan["reference"]]
        self.rounds = 0
        self.violations: list[str] = []
        self.reset_counts()
        if tracer is not None:
            tracer.hooks["sb.solve_ising"] = self._on_solve_ising

    def hand_off(self) -> None:
        if self.handoff is None and not self.warming:
            self.handoff = time.monotonic()
            if self.probe:
                raise ProbeDone

    def violation(self, message: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(message)

    def elapsed(self) -> float:
        return self.times[-1][1] - self.times[0][0]

    def reference(self) -> None:
        """Time the workload's reference kernel once."""
        self.refs.append(time_kernel(self.kernel))

    def main(self, argv) -> None:
        rc = self.m["cli"].main(argv)
        if rc != 0:
            raise RuntimeError(f"flextrack {argv[0]} exited with code {rc}")

    def run(self) -> None:
        self.warming = not self.probe
        if self.warming:
            self.warm_up()
            if self.tracer is not None:
                self.tracer.reset()
            self.reset_counts()
            self.times.clear()
            self.refs.clear()
            self.warming = False
        while True:
            self.run_round()
            self.rounds += 1
            if self.rounds < self.plan["min_rounds"]:
                continue
            if self.elapsed() * (self.rounds + 1) / self.rounds > self.plan["seconds"]:
                break

    def warm_up(self) -> None:
        raise NotImplementedError

    def reset_counts(self) -> None:
        self.stats = dict.fromkeys(self.COUNTS, 0)

    def _on_solve_ising(self, fn, args, kwargs, result):
        bound = bound_arguments(fn, args, kwargs)
        params = bound["params"]
        self.stats["spin_updates"] += bound["p"].n * params.n_steps * params.restarts
        self.stats["restarts"] += params.restarts

    def sb_metrics(self, calls, own) -> dict:
        ops = len(self.times)
        sb_seconds = own["sb.solve_qubo"] + own["sb.solve_ising"]
        return {
            "sb.solves": calls["sb.solve_ising"] / ops,
            "sb.spin_updates": self.stats["spin_updates"] / ops,
            "sb.spin_update_rate": self.stats["spin_updates"] / sb_seconds if sb_seconds else 0.0,
        }

    def run_round(self) -> None:
        raise NotImplementedError


class TrackClient(Client):
    """Frames of ``flextrack track``, timed around ``MultiObjectTracker.step``."""

    COUNTS = (
        "frames", "both", "predicted", "spawned", "deleted", "repairs", "repair_free",
        "match", "potential_match", "unmatch", "unclaimed", "pairs", "qubo_bytes",
        "spin_updates", "restarts",
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.capturing = False
        self.sims: list[np.ndarray] = []
        self.tables: list[np.ndarray] = []
        self.passes = 0
        self.mot = None
        self.max_id = 0
        self.problem_weights: dict[int, float] = {}
        self.raw_strict = None
        cli, track = self.m["cli"], self.m["track"]
        base = cli.MultiObjectTracker
        client = self

        class BenchTracker(base):
            def step(self, detections):
                return client.frame(self, base.step, detections)

        cli.MultiObjectTracker = BenchTracker
        similarity = track.similarity_matrix

        def capture_similarity(trackers, detections):
            s = similarity(trackers, detections)
            if client.capturing:
                client.sims.append(s)
            return s

        track.similarity_matrix = capture_similarity
        if self.tracer is not None:
            self.tracer.hooks.update({
                "assign.build_qubo": self._on_build,
                "sb.solve_qubo": self._on_solve_qubo,
                "track.similarity": self._on_similarity,
            })

    def reset_counts(self) -> None:
        super().reset_counts()
        self.trackers_max = 0
        self.age_min = 0

    def _on_build(self, fn, args, kwargs, result):
        problem = result[0]
        self.problem_weights[id(problem)] = bound_arguments(fn, args, kwargs)["c"]
        self.stats["qubo_bytes"] += problem.q.nbytes

    def _on_solve_qubo(self, fn, args, kwargs, result):
        problem = bound_arguments(fn, args, kwargs)["p"]
        if self.problem_weights.get(id(problem)) == self.plan["c_large"]:
            self.raw_strict = np.asarray(result[0])

    def _on_similarity(self, fn, args, kwargs, result):
        self.stats["pairs"] += result.size

    def frame(self, mot, step, detections):
        self.hand_off()
        if mot is not self.mot:
            # each pass is a fresh run of flextrack track, with ids from 1 again
            self.mot, self.max_id = mot, 0
        before = list(mot.trackers)
        self.raw_strict = None
        self.problem_weights.clear()
        t0 = time.perf_counter()
        result = step(mot, detections)
        t1 = time.perf_counter()
        self.times.append((t0, t1))
        self.reference()
        both = bool(before) and bool(detections)
        if self.capturing and both:
            self.tables.append(np.asarray(result.table_large))
        if self.tracer is not None:
            self.account(mot, before, detections, result, both)
        return result

    def account(self, mot, before, detections, result, both) -> None:
        """Counters and invariants of one frame, computed here from the tracker state."""
        states = self.m["assign"].TrackerState
        st = self.stats
        st["frames"] += 1
        st["predicted"] += len(before)
        table = np.asarray(result.table_large)
        if table.size and ((table.sum(axis=0) > 1).any() or (table.sum(axis=1) > 1).any()):
            self.violation(f"frame {st['frames']}: strict table has a doubled row or column")
        matched = [d.detection for d in result.decisions if d.state is states.MATCH]
        claimed = set(matched)
        if len(claimed) != len(matched):
            self.violation(f"frame {st['frames']}: two MATCH decisions share a detection")
        for d in result.decisions:
            if d.state is states.POTENTIAL_MATCH:
                st["potential_match"] += 1
                # known fault: parked on a detection that also spawns a tracker
                st["unclaimed"] += d.detection not in claimed
            elif d.state is states.UNMATCH:
                st["unmatch"] += 1
        st["match"] += len(matched)
        if both:
            st["both"] += 1
            st["repairs"] += result.repairs
            raw = table if self.raw_strict is None else self.raw_strict.reshape(table.shape)
            st["repair_free"] += bool((raw.sum(axis=0) <= 1).all() and (raw.sum(axis=1) <= 1).all())
        after = mot.trackers
        ids_before = {t.id for t in before}
        ids_after = {t.id for t in after}
        new = [t for t in after if t.id not in ids_before]
        deleted = [t for t in before if t.id not in ids_after]
        unmatched = len(result.unmatched_detections)
        if len(new) != unmatched or len(before) + unmatched != len(after) + len(deleted):
            self.violation(
                f"frame {st['frames']}: {len(before)} trackers + {unmatched} unmatched detections"
                f" -> {len(after)} kept, {len(deleted)} deleted, {len(new)} new"
            )
        if any(t.id <= self.max_id for t in new):
            self.violation(f"frame {st['frames']}: a new tracker reuses an id")
        max_age = self.plan["max_age"]
        if any(t.age <= max_age for t in deleted) or any(t.age > max_age for t in after):
            self.violation(f"frame {st['frames']}: deletion does not follow age > max_age")
        self.max_id = max([self.max_id] + [t.id for t in new])
        st["spawned"] += len(new)
        st["deleted"] += len(deleted)
        if after:
            self.trackers_max = max(self.trackers_max, len(after))
            # known fault: no floor on age, so a long-parked tracker goes far below 0
            self.age_min = min(self.age_min, min(t.age for t in after))
            x = np.array([t.x for t in after])
            cov = np.array([t.cov for t in after])
            if not (np.isfinite(x).all() and np.isfinite(cov).all()):
                self.violation(f"frame {st['frames']}: non-finite Kalman state")
                return
            scale = np.abs(cov).max(axis=(1, 2))
            asym = np.abs(cov - cov.transpose(0, 2, 1)).max(axis=(1, 2))
            low = np.linalg.eigvalsh((cov + cov.transpose(0, 2, 1)) / 2.0)[:, 0]
            if (asym > 1e-9 * scale).any():
                self.violation(f"frame {st['frames']}: Kalman covariance not symmetric")
            if (low < -1e-9 * scale).any():
                self.violation(f"frame {st['frames']}: Kalman covariance not PSD")

    def warm_up(self) -> None:
        self.main(self.plan["warmup_argv"])

    def run_round(self) -> None:
        plan = self.plan
        # the first round's outputs are the ones audited
        self.capturing = self.rounds == 0
        for k, argv in enumerate(plan["argvs"]):
            self.main(argv + ["-o", plan["output"].format(self.rounds, k)])
            self.passes += 1
        self.capturing = False

    def expected_calls(self) -> dict:
        st = self.stats
        solves = 0 if self.plan["baseline"] else 2 * st["both"]
        hungarian = st["both"] if self.plan["baseline"] else 0
        return {
            "track.step": len(self.times),
            "track.predict": st["predicted"],
            "track.update": st["match"],
            "track.similarity": st["both"],
            "assign.flexible_assign": solves // 2,
            "assign.build_qubo": solves,
            "assign.hungarian_assign": hungarian,
            "assign.hungarian": hungarian,
            "sb.solve_qubo": solves,
            "sb.solve_ising": solves,
            "ising.to_ising": solves,
            "ising.ising_energy": st["restarts"],
            "ising.qubo_energy": 2 * solves,
            "ising.read_qubo": 0,
            "ising.brute_force": 0,
            "cli.read_mot": self.passes,
            "cli.write_mot": self.passes,
        }

    def per_layer(self, calls, total, own) -> dict:
        st = self.stats
        ops, passes = len(self.times), self.passes
        metrics = layer_metrics(calls, total, own, ops, passes)
        metrics.update(self.sb_metrics(calls, own))
        metrics.update({
            "track.similarity_pairs": st["pairs"] / ops,
            "track.spawned": st["spawned"] / passes,
            "track.deleted": st["deleted"] / passes,
            "track.trackers_max": self.trackers_max,
            "track.age_min": self.age_min,
            "assign.qubo_bytes": st["qubo_bytes"] / ops,
            "assign.repairs": st["repairs"] / ops,
            "assign.strict_repair_free": st["repair_free"] / st["both"] if st["both"] else 0.0,
            "assign.match": st["match"] / passes,
            "assign.potential_match": st["potential_match"] / passes,
            "assign.unmatch": st["unmatch"] / passes,
            "assign.unclaimed_potential_matches": st["unclaimed"] / passes,
        })
        return metrics

    def report(self) -> dict:
        np.savez(self.plan["captures"], *self.sims, *self.tables)
        return {"captured": len(self.sims)}


class QuboClient(Client):
    """Calls of ``flextrack solve-qubo``, one per planted instance, in whole rounds."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lines: list[str] = []

    def solve(self, argv) -> str:
        self.hand_off()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.main(argv)
        return out.getvalue()

    def warm_up(self) -> None:
        self.solve(self.plan["solves"][0])

    def run_round(self) -> None:
        for argv in self.plan["solves"]:
            t0 = time.perf_counter()
            text = self.solve(argv)
            self.times.append((t0, time.perf_counter()))
            self.reference()
            self.lines.append(text.strip())

    def expected_calls(self) -> dict:
        ops = len(self.times)
        expected = {layer: 0 for _, _, layer in WRAPPED}
        expected.update({
            "sb.solve_qubo": ops,
            "sb.solve_ising": ops,
            "ising.to_ising": ops,
            "ising.ising_energy": self.stats["restarts"],
            "ising.qubo_energy": ops,
            "ising.read_qubo": ops,
        })
        return expected

    def per_layer(self, calls, total, own) -> dict:
        ops = len(self.times)
        metrics = layer_metrics(calls, total, own, ops, 0)
        metrics.update(self.sb_metrics(calls, own))
        metrics.update({
            "track.similarity_pairs": 0.0, "track.spawned": 0.0, "track.deleted": 0.0,
            "track.trackers_max": 0, "track.age_min": 0, "assign.qubo_bytes": 0.0,
            "assign.repairs": 0.0, "assign.strict_repair_free": 0.0, "assign.match": 0.0,
            "assign.potential_match": 0.0, "assign.unmatch": 0.0,
            "assign.unclaimed_potential_matches": 0.0,
        })
        return metrics

    def report(self) -> dict:
        return {"lines": self.lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("plan")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    from flextrack import assign, cli, ising, sb, track

    src = os.path.realpath(plan["src"]) + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        print(f"flextrack imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    modules = {"assign": assign, "cli": cli, "ising": ising, "sb": sb, "track": track}
    tracer = None
    if plan["trace"] and not args.probe:
        tracer = Tracer()
        tracer.install(modules)
    kind = TrackClient if plan["kind"] == "track" else QuboClient
    client = kind(plan, modules, tracer, args.probe)
    out = {}
    try:
        client.run()
    except ProbeDone:
        out["references"] = [time_kernel(REFERENCES["sb"]) for _ in range(SETUP_REFS)]
    else:
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["durations"] = [t1 - t0 for t0, t1 in client.times]
        out["references"] = client.refs
        out["rounds"] = client.rounds
        out["window_s"] = client.elapsed()
        out.update(client.report())
        if tracer is not None:
            calls, total, own = tracer.totals()
            out["per_layer"] = client.per_layer(calls, total, own)
            out["violations"] = client.violations + check_call_counts(
                calls, client.expected_calls()
            )
            tracer.dump(plan["trace_out"])
    out["handoff"] = client.handoff
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
