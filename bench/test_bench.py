"""Tests of the benchmark's own generators and scorers (no flextrack involved)."""

import itertools

import numpy as np
import pytest

import scenes
import scoring


def _one_object_scene(hidden_frames, n_frames=12):
    """One object standing still; a second, larger one parked over it while hidden."""
    box = np.array([[100.0, 100.0, 40.0, 40.0]])
    return scenes.Scene(
        640.0, 480.0,
        ids=[np.array([0]) for _ in range(n_frames)],
        boxes=[box for _ in range(n_frames)],
        visible=[np.array([k not in hidden_frames]) for k in range(n_frames)],
        detections=[box if k not in hidden_frames else np.zeros((0, 4)) for k in range(n_frames)],
    )


def _tracks(ids_by_frame):
    box = np.array([[101.0, 100.0, 40.0, 40.0]])
    return {
        k + 1: (np.array([i]), box) if i is not None else (np.zeros(0, np.int64), np.zeros((0, 4)))
        for k, i in enumerate(ids_by_frame)
    }


HIDDEN = {4, 5, 6}


def test_id_kept_and_occlusion_survived():
    scene = _one_object_scene(HIDDEN)
    assoc = scoring.associate(scene, _tracks([7] * 12))
    assert sum(len(a) for a in assoc) == 12 - len(HIDDEN)
    assert scoring.identities_kept(scene, assoc)
    assert scoring.occlusion_outcomes(scene, assoc, anti_aging=5) == (1, 1)


def test_id_switched_loses_the_occlusion():
    scene = _one_object_scene(HIDDEN)
    assoc = scoring.associate(scene, _tracks([7] * 4 + [8] * 8))
    assert not scoring.identities_kept(scene, assoc)
    assert scoring.occlusion_outcomes(scene, assoc, anti_aging=5) == (0, 1)


def test_late_return_counts_as_lost():
    scene = _one_object_scene(HIDDEN)
    # the old id comes back only anti_aging frames after reappearance
    ids = [7] * 4 + [None] * 3 + [None] * 2 + [7] * 3
    assoc = scoring.associate(scene, _tracks(ids))
    assert scoring.occlusion_outcomes(scene, assoc, anti_aging=2) == (0, 1)
    assert scoring.occlusion_outcomes(scene, assoc, anti_aging=3) == (1, 1)


def test_window_without_reappearance_is_not_assessed():
    scene = _one_object_scene({9, 10, 11})
    assoc = scoring.associate(scene, _tracks([7] * 12))
    assert scoring.occlusion_outcomes(scene, assoc, anti_aging=5) == (0, 0)


def test_parse_mot_rejects_bad_outputs():
    good = "1,3,10.00,10.00,5.00,5.00,1.000000,-1,-1,-1\n"
    assert list(scoring.parse_mot(good)) == [1]
    for bad in (
        good + good,  # duplicate id in a frame
        "1,3,10.00,10.00,0.00,5.00,1.000000,-1,-1,-1\n",  # zero width
        "1,3,nan,10.00,5.00,5.00,1.000000,-1,-1,-1\n",
        "1,3,10.00,10.00,5.00\n",
    ):
        with pytest.raises(scoring.CheckError):
            scoring.parse_mot(bad)


@pytest.mark.parametrize("n", [4, 7, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planted_state_is_the_exhaustive_minimum(n, seed):
    upper, planted = scenes.planted_qubo(np.random.default_rng(seed), n, alpha=0.5)
    assert np.array_equal(upper, np.triu(upper))
    bits = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    energies = np.einsum("bi,ij,bj->b", bits, upper, bits)
    planted_energy = scenes.qubo_energy(upper, planted)
    assert planted_energy < 0
    assert planted_energy == pytest.approx(energies.min(), abs=1e-9)


def test_qubo_file_lists_the_matrix(tmp_path):
    upper, _ = scenes.planted_qubo(np.random.default_rng(3), 6, alpha=0.5)
    path = tmp_path / "q.txt"
    scenes.write_qubo(upper, path)
    lines = path.read_text().splitlines()
    read = np.zeros((6, 6))
    for line in lines[1:]:
        i, j, v = line.split()
        read[int(i), int(j)] = float(v)
    assert lines[0] == "6" and np.array_equal(read, upper)


def test_check_solve_compares_to_print_precision():
    upper = np.array([[-1.0, 4.0], [0.0, -2.0]])
    assert scoring.check_solve(upper, -2.0, "bits=01 energy=-2") == -2.0
    with pytest.raises(scoring.CheckError):
        scoring.check_solve(upper, -2.0, "bits=01 energy=-1.9")
    with pytest.raises(scoring.CheckError):  # below the planted ground state
        scoring.check_solve(upper, -1.5, "bits=01 energy=-2")


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_assignment_ground_state_is_minus_the_lsa_optimum(shape):
    rng = np.random.default_rng(sum(shape))
    s = rng.uniform(0.0, 1.0, size=shape) * (rng.uniform(size=shape) < 0.6)
    n = s.size
    best = min(
        scoring.assignment_energy(s, np.array(bits).reshape(shape), 1.0)
        for bits in itertools.product((0, 1), repeat=n)
    )
    assert best == pytest.approx(-scoring.lsa_optimum(s), abs=1e-12)


def test_exact_audit_rejects_a_suboptimal_table():
    s = np.array([[0.9, 0.8], [0.7, 0.1]])
    best = np.array([[0, 1], [1, 0]])
    assert scoring.audit_assignments([s], [best], 1.0, exact=True)["energy_ratio"] == pytest.approx(1.0)
    with pytest.raises(scoring.CheckError):
        scoring.audit_assignments([s], [np.eye(2, dtype=int)], 1.0, exact=True)


@pytest.mark.parametrize("n_view", [24, 64])
def test_traffic_scene_keeps_count_and_occlusions_throughout(n_view):
    scene = scenes.traffic_scene(0, 5, n_view, 150)
    counts = np.array([len(ids) for ids in scene.ids])
    assert abs(counts.mean() - n_view) < 0.15 * n_view
    assert counts.min() > 0.75 * n_view and counts.max() < 1.3 * n_view
    hidden = np.array([(~v).sum() for v in scene.visible])
    # some object is hidden in every stretch of ten frames
    assert all(hidden[k:k + 10].sum() > 0 for k in range(0, 150, 10))
    windows = scenes.occlusion_windows(scene)
    starts = [start for _, start, _ in windows]
    assert len(windows) > n_view and min(starts) < 15 and max(starts) > 135


def test_five_crossing_matches_the_paper_scene():
    scene = scenes.five_crossing_scene(0)
    assert scene.n_frames == 46
    hidden = [(~v).sum() for v in scene.visible]
    assert max(hidden) >= 2  # two objects hidden at once
    assert {obj for obj, _, _ in scenes.occlusion_windows(scene)} >= {1}
