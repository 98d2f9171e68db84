"""Acceptance suite: one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and threshold is pinned here.
"""

import itertools
from pathlib import Path

import numpy as np

from flextrack.assign import (
    TrackerState,
    build_assignment_qubo,
    flexible_assign,
    hungarian,
)
from flextrack.cli import main
from flextrack.ising import (
    QuboProblem,
    brute_force_qubo,
    ising_energy,
    qubo_energy,
    qubo_to_ising,
)
from flextrack.sb import SbParams, solve_qubo
from flextrack.scenario import (
    generate,
    id_switches,
    occlusion_survival,
    occlusion_windows,
    parse_scenario,
)
from flextrack.track import (
    BoundingBox,
    Detection,
    MultiObjectTracker,
    TrackConfig,
    make_baseline_assigner,
    step,
)
from flextrack.assign import AssignmentResult, TrackerDecision
from oracles import check_one_to_one

# five objects: a slow overtake with a sweep across it and a head-on crossing
FIVE_CROSSING = Path(__file__).resolve().parents[1] / "scenarios" / "five_crossing.txt"

def report(n, name, ok=True):
    print(f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def brute_solver(problem):
    return brute_force_qubo(problem)[0]


def test_c1_dual_weight_behavior():
    """Strict weight yields (1,0); tolerant weight yields (1,1); arbitration follows."""
    s = np.array([[0.8], [0.7]])
    strict, _ = build_assignment_qubo(s, c=1.0)
    tolerant, _ = build_assignment_qubo(s, c=0.1)
    bits_strict, _ = brute_force_qubo(strict)
    bits_tolerant, _ = brute_force_qubo(tolerant)
    assert np.array_equal(bits_strict, [1, 0])
    assert np.array_equal(bits_tolerant, [1, 1])
    result = flexible_assign(s, brute_solver, c_small=0.1, c_large=1.0)
    assert result.decisions[0] == TrackerDecision(TrackerState.MATCH, 0)
    assert result.decisions[1] == TrackerDecision(TrackerState.POTENTIAL_MATCH, 0)
    assert result.unmatched_detections == []
    report(1, "dual-weight assignment tables and arbitration")


def test_c2_feasible_space_counting():
    """Exactly n! of the 2^(n^2) tables satisfy one-to-one for n in {2, 3}."""
    for n, expected in ((2, 2), (3, 6)):
        count = 0
        for flat in itertools.product((0, 1), repeat=n * n):
            count += check_one_to_one(np.array(flat).reshape(n, n))
        assert count == expected
        assert 1 << (n * n) == (16 if n == 2 else 512)
    report(2, "feasible tables number n! out of 2^(n^2)")


def test_c3_sb_solver_quality():
    """SB at its default operating point hits the brute-force optimum on
    >= 90% of 200 random 10-variable instances and >= 95% of 100 assignment
    instances up to 4x4 at c = 1.0."""
    hits = 0
    for i in range(200):
        rng = np.random.default_rng(i)
        problem = QuboProblem(rng.uniform(-1, 1, size=(10, 10)))
        _, best = brute_force_qubo(problem)
        _, got = solve_qubo(problem, SbParams(seed=i))
        hits += abs(got - best) < 1e-9
    assert hits >= 180, f"random instances: {hits}/200"

    rng = np.random.default_rng(0)
    assignment_hits = 0
    for i in range(100):
        n_t = int(rng.integers(1, 5))
        n_d = int(rng.integers(1, 5))
        s = rng.uniform(0, 1, size=(n_t, n_d))
        problem, _ = build_assignment_qubo(s, c=1.0)
        _, best = brute_force_qubo(problem)
        _, got = solve_qubo(problem, SbParams(seed=i))
        assignment_hits += abs(got - best) < 1e-9
    assert assignment_hits >= 95, f"assignment instances: {assignment_hits}/100"
    report(3, f"SB quality ({hits}/200 random, {assignment_hits}/100 assignment)")


def test_c4_hungarian_ising_agreement():
    """Whenever the brute-forced strict table is feasible, its similarity sum
    equals the Hungarian optimum."""
    rng = np.random.default_rng(0)
    feasible_seen = 0
    for _ in range(100):
        n_t = int(rng.integers(1, 5))
        n_d = int(rng.integers(1, 5))
        s = rng.uniform(0, 1, size=(n_t, n_d))
        problem, _ = build_assignment_qubo(s, c=1.0)
        bits, _ = brute_force_qubo(problem)
        table = bits.reshape(n_t, n_d)
        if check_one_to_one(table):
            feasible_seen += 1
            hung = hungarian(s)
            assert abs(float((s * table).sum()) - float((s * hung).sum())) < 1e-9
    assert feasible_seen > 0
    report(4, f"Hungarian agreement on {feasible_seen}/100 feasible strict tables")


def test_c5_energy_identity():
    """QUBO and Ising energies reconcile through the offset on every assignment
    of 50 random problems with n <= 10, tolerance 1e-9."""
    for i in range(50):
        rng = np.random.default_rng(i)
        n = 1 + (i % 10)
        problem = QuboProblem(rng.uniform(-2, 2, size=(n, n)))
        converted = qubo_to_ising(problem)
        for v in range(1 << n):
            bits = np.array([(v >> (n - 1 - k)) & 1 for k in range(n)])
            lhs = qubo_energy(problem, bits)
            rhs = ising_energy(converted, 2 * bits - 1) + converted.offset
            assert abs(lhs - rhs) <= 1e-9
    report(5, "QUBO/Ising energy identity on 50 problems, all assignments")


def _run_pipeline(detections_by_frame, baseline):
    cfg = TrackConfig()
    assigner = make_baseline_assigner(cfg) if baseline else None
    mot = MultiObjectTracker(cfg, assigner=assigner)
    tracks = []
    for frame_dets in detections_by_frame:
        mot.step(frame_dets)
        tracks.append([(t.id, t.box) for t in mot.trackers])
    return tracks


def test_c6_occlusion_survival_five_object_scenario():
    """The flexible pipeline tracks all five objects through the simultaneous
    crossings (0 switches, survival 1.0); the Hungarian baseline loses at
    least one identity."""
    spec = parse_scenario(FIVE_CROSSING)
    gt, detections = generate(spec)
    windows = occlusion_windows(gt)
    assert any(w for w in windows.values()), "scenario produced no occlusions"
    hidden = [sum(1 for e in f.values() if not e.visible) for f in gt.frames]
    assert max(hidden) >= 2  # three-object and two-object crossings overlap

    proposed = _run_pipeline(detections, baseline=False)
    assert id_switches(proposed, gt) == 0
    assert occlusion_survival(proposed, gt, anti_aging=TrackConfig().anti_aging) == 1.0

    baseline = _run_pipeline(detections, baseline=True)
    baseline_switches = id_switches(baseline, gt)
    assert baseline_switches >= 1
    report(6, f"occlusion survival (proposed 0 switches, baseline {baseline_switches})")


def test_c7_lifecycle_properties():
    """Randomized 1000-frame suite: deletion exactly when age > max_age, age
    reset on match, net anti-aging on potential match, no id reuse."""
    cfg = TrackConfig()
    rng = np.random.default_rng(99)
    trackers = []
    counter = itertools.count(1)
    all_ids = set()

    def scripted(states):
        def assigner(s):
            n_t, n_d = s.shape
            decisions = [TrackerDecision(st, d) for st, d in states]
            matched = {d.detection for d in decisions if d.state is TrackerState.MATCH}
            zeros = np.zeros((n_t, n_d), dtype=int)
            return AssignmentResult(
                decisions=decisions,
                unmatched_detections=[d for d in range(n_d) if d not in matched],
                table_large=zeros,
                table_small=zeros.copy(),
            )

        return assigner

    for _ in range(1000):
        ages_before = {t.id: t.age for t in trackers}
        n_d = int(rng.integers(0, 4))
        detections = [
            Detection(BoundingBox(float(rng.uniform(0, 900)), 0.0, 10.0, 10.0))
            for _ in range(n_d)
        ]
        states = []
        free = list(range(n_d))
        for _ in trackers:
            roll = rng.uniform()
            if roll < 0.35 and free:
                states.append((TrackerState.MATCH, free.pop()))
            elif roll < 0.65 and n_d:
                states.append((TrackerState.POTENTIAL_MATCH, 0))
            else:
                states.append((TrackerState.UNMATCH, None))
        assigner = scripted(states) if trackers else None
        survivors, _ = step(trackers, detections, cfg, assigner=assigner, id_counter=counter)
        survivor_ids = {t.id for t in survivors}
        for tracker, (state, _) in zip(trackers, states):
            if state is TrackerState.MATCH:
                assert tracker.age == 0
            elif state is TrackerState.POTENTIAL_MATCH:
                assert tracker.age == ages_before[tracker.id] + 1 - cfg.anti_aging
            else:
                assert tracker.age == ages_before[tracker.id] + 1
            assert (tracker.id in survivor_ids) == (tracker.age <= cfg.max_age)
        for t in survivors:
            if t.id not in ages_before:
                assert t.age == 0
                assert t.id not in all_ids, "tracker id reused"
                all_ids.add(t.id)
        trackers = survivors
    assert len(all_ids) > 30  # the suite actually churned through trackers
    report(7, f"lifecycle properties over 1000 frames ({len(all_ids)} trackers)")


def test_c8_cmd_track_determinism(tmp_path):
    """Two runs of cmd_track with the same inputs and seed are byte-identical."""
    spec = parse_scenario(FIVE_CROSSING)
    _, detections = generate(spec)
    det_path = tmp_path / "det.txt"
    with open(det_path, "w", encoding="utf-8") as fh:
        for k, frame in enumerate(detections, start=1):
            for d in frame:
                b = d.box
                fh.write(f"{k},-1,{b.left:.2f},{b.top:.2f},{b.width:.2f},{b.height:.2f},1.000000,-1,-1,-1\n")
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(["track", str(det_path), "-o", str(out1), "--seed", "0"]) == 0
    assert main(["track", str(det_path), "-o", str(out2), "--seed", "0"]) == 0
    data1 = out1.read_bytes()
    data2 = out2.read_bytes()
    assert data1 == data2 and len(data1) > 0
    report(8, "cmd_track byte-identical across runs")
