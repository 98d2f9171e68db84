"""Scenario generation rules and tracking-quality metrics."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flextrack.scenario import (
    GroundTruth,
    MovingObject,
    ScenarioSpec,
    TruthEntry,
    associate,
    generate,
    id_switches,
    occlusion_survival,
    occlusion_windows,
    parse_scenario,
)
from flextrack.track import (
    BoundingBox,
    MultiObjectTracker,
    TrackConfig,
    make_baseline_assigner,
)
from oracles import iou, loop_associate, loop_suppressed

FIVE_CROSSING = Path(__file__).resolve().parents[1] / "scenarios" / "five_crossing.txt"


def two_object_pass(jitter=0.0, occlusion_iou=0.7):
    # a large static box with a smaller one sweeping through it
    return ScenarioSpec(
        objects=(
            MovingObject(BoundingBox.from_center(200.0, 100.0, 40.0, 40.0), 0.0, 0.0),
            MovingObject(BoundingBox.from_center(40.0, 100.0, 38.0, 38.0), 10.0, 0.0),
        ),
        n_frames=32,
        occlusion_iou=occlusion_iou,
        width=640.0,
        height=480.0,
        jitter=jitter,
    )


class TestGenerate:
    def test_passing_objects_have_one_contiguous_window(self):
        gt, dets = generate(two_object_pass())
        windows = occlusion_windows(gt)
        assert windows[0] == []
        assert len(windows[1]) == 1
        start, end = windows[1][0]
        assert end > start
        for k in range(len(gt.frames)):
            expected = 1 if start <= k < end else 2
            assert len(dets[k]) == expected

    def test_suppression_rule_recomputed_independently(self):
        spec = two_object_pass()
        gt, _ = generate(spec)
        for k, frame in enumerate(gt.frames):
            boxes = {
                i: BoundingBox(
                    obj.box.left + k * obj.vx,
                    obj.box.top + k * obj.vy,
                    obj.box.width,
                    obj.box.height,
                )
                for i, obj in enumerate(spec.objects)
            }
            overlap = iou(boxes[0], boxes[1]) > spec.occlusion_iou
            # object 1 is the smaller one, so it hides whenever they overlap
            assert frame[1].visible == (not overlap)
            assert frame[0].visible

    def test_parallel_objects_always_emit(self):
        spec = ScenarioSpec(
            objects=(
                MovingObject(BoundingBox.from_center(100.0, 100.0, 30.0, 30.0), 5.0, 0.0),
                MovingObject(BoundingBox.from_center(100.0, 300.0, 30.0, 30.0), 5.0, 0.0),
            ),
            n_frames=20,
            width=640.0,
            height=480.0,
        )
        _, dets = generate(spec)
        assert all(len(frame) == 2 for frame in dets)

    def test_frame_out_stops_emitting(self):
        spec = ScenarioSpec(
            objects=(MovingObject(BoundingBox.from_center(50.0, 100.0, 20.0, 20.0), -30.0, 0.0),),
            n_frames=10,
            width=640.0,
            height=480.0,
            jitter=0.0,
        )
        gt, dets = generate(spec)
        counts = [len(frame) for frame in dets]
        assert counts[0] == 1 and counts[-1] == 0
        assert counts == sorted(counts, reverse=True)

    def test_deterministic_under_seed(self):
        spec = two_object_pass(jitter=1.0)
        _, a = generate(spec, noise_seed=42)
        _, b = generate(spec, noise_seed=42)
        _, c = generate(spec, noise_seed=43)
        assert a == b
        assert a != c

    def test_jitter_bounded(self):
        spec = two_object_pass(jitter=1.0)
        gt, dets = generate(spec, noise_seed=0)
        for k, frame_dets in enumerate(dets):
            visible = [e.box for e in gt.frames[k].values() if e.visible]
            for d, box in zip(frame_dets, visible):
                assert abs(d.box.left - box.left) <= 1.0
                assert abs(d.box.top - box.top) <= 1.0


class TestFiveObjectCrossing:
    def test_event_structure(self):
        gt, _ = generate(parse_scenario(FIVE_CROSSING))
        windows = occlusion_windows(gt)
        lengths = {obj: [e - s for s, e in w] for obj, w in windows.items() if w}
        # the overtaken object endures a long occlusion, longer than max_age
        assert max(lengths[1]) > 5
        # the head-on crossing hides the smaller partner briefly
        assert 4 in lengths
        hidden = [sum(1 for e in f.values() if not e.visible) for f in gt.frames]
        assert max(hidden) >= 2
        # the three-object and two-object events overlap in time
        both = [k for k, h in enumerate(hidden) if h >= 2]
        assert both == list(range(both[0], both[-1] + 1))

    def test_every_window_frame_keeps_occluder_overlap(self):
        # while hidden, an object still overlaps something visible, so the
        # tolerant assignment always has a detection to point at
        spec = parse_scenario(FIVE_CROSSING)
        gt, _ = generate(spec)
        for frame in gt.frames:
            for obj, entry in frame.items():
                if entry.visible:
                    continue
                overlaps = [
                    iou(entry.box, other.box)
                    for oid, other in frame.items()
                    if oid != obj and other.visible
                ]
                assert max(overlaps) > 0.1


class TestBaselineOnLongOcclusion:
    def test_tracker_dies_and_survival_is_zero(self):
        # slow overtake hides the smaller object for 11 frames, past max_age
        spec = ScenarioSpec(
            objects=(
                MovingObject(BoundingBox.from_center(100.0, 100.0, 44.0, 44.0), 5.0, 0.0),
                MovingObject(BoundingBox.from_center(160.0, 100.0, 36.0, 36.0), 3.0, 0.0),
            ),
            n_frames=46,
            occlusion_iou=0.5,
            width=640.0,
            height=480.0,
        )
        gt, detections = generate(spec)
        (window,) = occlusion_windows(gt)[1]
        cfg = TrackConfig()
        assert window[1] - window[0] > cfg.max_age
        mot = MultiObjectTracker(cfg, assigner=make_baseline_assigner(cfg))
        tracks = []
        for frame_dets in detections:
            mot.step(frame_dets)
            tracks.append([(t.id, t.box) for t in mot.trackers])
        assert occlusion_survival(tracks, gt, anti_aging=cfg.anti_aging) == 0.0
        assert id_switches(tracks, gt) >= 1


def make_gt(visible_pattern, box=BoundingBox(0, 0, 10, 10)):
    """Single-object ground truth from a visibility string like '111000111'."""
    frames = [{0: TruthEntry(box, ch == "1")} for ch in visible_pattern]
    return GroundTruth(frames)


def tracks_with_ids(ids, box=BoundingBox(0, 0, 10, 10)):
    return [[(i, box)] if i is not None else [] for i in ids]


class TestMetrics:
    def test_perfect_tracking(self):
        gt = make_gt("1111")
        tracks = tracks_with_ids([7, 7, 7, 7])
        assert id_switches(tracks, gt) == 0
        assert occlusion_survival(tracks, gt) == 1.0  # vacuous

    def test_single_switch(self):
        gt = make_gt("1111")
        tracks = tracks_with_ids([7, 7, 8, 8])
        assert id_switches(tracks, gt) == 1

    def test_association_requires_iou(self):
        gt = make_gt("11")
        far = BoundingBox(100, 100, 10, 10)
        tracks = [[(1, far)], [(1, far)]]
        assert associate(tracks, gt) == [{}, {}]

    def test_invisible_frames_not_associated(self):
        gt = make_gt("101")
        tracks = tracks_with_ids([1, 2, 1])  # different id during the gap
        assert id_switches(tracks, gt) == 0

    def test_survival_recovered_id(self):
        gt = make_gt("110011")
        tracks = tracks_with_ids([5, 5, None, None, 5, 5])
        assert occlusion_survival(tracks, gt, anti_aging=5) == 1.0

    def test_survival_lost_id(self):
        gt = make_gt("110011")
        tracks = tracks_with_ids([5, 5, None, None, 9, 9])
        assert occlusion_survival(tracks, gt, anti_aging=5) == 0.0
        assert id_switches(tracks, gt) == 1

    def test_survival_horizon_is_anti_aging_frames(self):
        gt = make_gt("1" * 2 + "0" * 2 + "1" * 7)
        # reappears at frame 4; old id only comes back at frame 8
        late = tracks_with_ids([5, 5, None, None, 9, 9, 9, 9, 5, 5, 5])
        assert occlusion_survival(late, gt, anti_aging=5) == 1.0
        assert occlusion_survival(late, gt, anti_aging=4) == 0.0

    def test_window_without_prior_association_skipped(self):
        # visible at frame 0 but unassociated, so the window has no prior id;
        # with one, the new id at frame 2 would count as a lost survival
        gt = make_gt("1011")
        assert occlusion_survival(tracks_with_ids([None, None, 9, 9]), gt) == 1.0
        assert occlusion_survival(tracks_with_ids([5, None, 9, 9]), gt) == 0.0

    def test_window_open_at_end_skipped(self):
        gt = make_gt("1100")
        tracks = tracks_with_ids([5, 5, None, None])
        assert occlusion_survival(tracks, gt) == 1.0

    def test_windows_from_truth(self):
        gt = make_gt("1001101")
        assert occlusion_windows(gt)[0] == [(1, 3), (5, 6)]


# boxes on an integer grid, where ties and equal areas are common
GRID_BOX = st.builds(BoundingBox, st.integers(0, 6), st.integers(0, 6),
                     st.integers(1, 3), st.integers(1, 3))
GRID_FRAME = st.tuples(
    st.dictionaries(st.integers(0, 7), st.tuples(GRID_BOX, st.booleans()), max_size=6),
    st.lists(st.tuples(st.integers(1, 5), GRID_BOX), max_size=6),
)


class TestKernelAgainstLoops:
    """The metrics' association and the generator's occlusion rule take one IOU
    matrix a frame, and give what the pair-by-pair loops they replaced give."""

    @staticmethod
    def assert_associations_agree(tracks, gt):
        for iou_min in (0.05, 0.5, 1.0):
            assert associate(tracks, gt, iou_min) == loop_associate(tracks, gt, iou_min)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(GRID_FRAME, min_size=1, max_size=4))
    def test_association_matches_loop(self, frames):
        gt = GroundTruth([{obj: TruthEntry(box, visible) for obj, (box, visible) in truth.items()}
                          for truth, _ in frames])
        self.assert_associations_agree([tracks for _, tracks in frames], gt)

    def test_ties_go_to_the_last_tracker(self):
        gt = make_gt("1")
        box = BoundingBox(0, 0, 10, 10)
        tracks = [[(4, box), (2, BoundingBox(5, 0, 10, 10)), (3, box)]]
        assert associate(tracks, gt) == [{0: 3}]
        self.assert_associations_agree(tracks, gt)

    def test_frame_without_tracks(self):
        gt = make_gt("11")
        tracks = [[], [(1, BoundingBox(0, 0, 10, 10))]]
        assert associate(tracks, gt) == [{}, {0: 1}]
        self.assert_associations_agree(tracks, gt)

    def test_frame_without_visible_objects(self):
        gt = make_gt("01")
        tracks = tracks_with_ids([1, 1])
        assert associate(tracks, gt) == [{}, {0: 1}]
        self.assert_associations_agree(tracks, gt)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.builds(MovingObject, GRID_BOX, st.integers(-1, 1), st.integers(-1, 1)),
                 min_size=1, max_size=8),
        st.sampled_from([0.05, 0.3, 0.5, 1.0]),
    )
    def test_generate_matches_loop(self, objects, occlusion_iou):
        spec = ScenarioSpec(objects=objects, n_frames=4, occlusion_iou=occlusion_iou,
                            width=8.0, height=8.0, jitter=0.0)
        gt, detections = generate(spec)
        for frame, emitted in zip(gt.frames, detections):
            hidden = loop_suppressed({i: entry.box for i, entry in frame.items()}, occlusion_iou)
            assert {i for i, entry in frame.items() if not entry.visible} == hidden
            assert [d.box for d in emitted] == [e.box for i, e in sorted(frame.items())
                                                if i not in hidden]


class TestParseScenario:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text(
            "# demo\n"
            "frames 12\n"
            "occlusion_iou 0.6\n"
            "jitter 0.5\n"
            "seed 3\n"
            "width 800\n"
            "height 600\n"
            "object 100 100 40 40 5 0\n"
            "object 300 100 30 30 -5 0\n"
        )
        spec = parse_scenario(path)
        assert spec.n_frames == 12
        assert spec.occlusion_iou == 0.6
        assert spec.jitter == 0.5
        assert spec.seed == 3
        assert spec.width == 800 and spec.height == 600
        assert len(spec.objects) == 2
        assert spec.objects[0].box.left == pytest.approx(80.0)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("frames 5\nbogus 1\nobject 0 0 10 10 0 0\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_scenario(path)

    def test_malformed_object_line(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("frames 5\nobject 0 0 10 10\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_scenario(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("object 0 0 x 10 0 0", "bad object line 'object 0 0 x 10 0 0\\n'"),
            ("object 0 0 10 10 0 1e", "bad object line 'object 0 0 10 10 0 1e\\n'"),
            ("frames", "expected 'frames value'"),
            ("jitter  # none", "expected 'jitter value'"),
            ("frames x", "bad value for frames: 'x'"),
            ("seed 1.5", "bad value for seed: '1.5'"),
        ],
    )
    def test_bad_line_message(self, tmp_path, line, message):
        path = tmp_path / "scene.txt"
        path.write_text(f"# scene\n{line}\nframes 5\nobject 0 0 10 10 0 0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            parse_scenario(path)

    def test_no_objects(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("frames 5\n# object 0 0 10 10 0 0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: scenario has no objects')}$"):
            parse_scenario(path)

    def test_missing_frames(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("object 0 0 10 10 0 0\n")
        with pytest.raises(ValueError, match="frames"):
            parse_scenario(path)

    def test_defaults_are_the_spec_defaults(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("frames 5\nobject 100 100 40 40 5 0\n")
        spec = parse_scenario(path)
        assert spec == ScenarioSpec(objects=spec.objects, n_frames=5)

    @pytest.mark.parametrize(
        "line",
        [
            "frames 0",
            "occlusion_iou 2",
            "jitter nan",
            "jitter 1e308",  # [-jitter, jitter] is longer than the largest float
            "width nan",
            "height -5",
            "object inf 100 20 20 0 0",
            "object 100 100 1e308 1e308 0 0",  # the area overflows
            "object 100 100 nan 20 0 0",
            "object 100 100 20 20 0 inf",
        ],
    )
    def test_rejected_value_names_line(self, tmp_path, line):
        path = tmp_path / "scene.txt"
        path.write_text(f"frames 5\n{line}\nobject 100 100 40 40 5 0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            parse_scenario(path)
