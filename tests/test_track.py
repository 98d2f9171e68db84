"""Kalman tracking primitives and the per-frame lifecycle."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flextrack import track
from flextrack.assign import AssignmentResult, TrackerDecision, TrackerState
from flextrack.track import (
    KF_F,
    KF_H,
    KF_P0,
    KF_Q,
    KF_R,
    MIN_AREA,
    BoundingBox,
    Detection,
    MultiObjectTracker,
    TrackConfig,
    Tracker,
    _edges,
    _tracker_edges,
    iou_matrix,
    new_tracker,
    predict,
    similarity_matrix,
    step,
    update,
)
from oracles import iou


def det(left, top, width, height, confidence=1.0):
    return Detection(BoundingBox(left, top, width, height), confidence)


def scripted_assigner(states):
    """Assigner returning a fixed outcome per tracker; detections fall out."""

    def assigner(s):
        n_t, n_d = s.shape
        decisions = [
            TrackerDecision(state, target) for state, target in states
        ]
        matched = {d.detection for d in decisions if d.state is TrackerState.MATCH}
        return AssignmentResult(
            decisions=decisions,
            unmatched_detections=[d for d in range(n_d) if d not in matched],
            table_large=np.zeros((n_t, n_d), dtype=int),
            table_small=np.zeros((n_t, n_d), dtype=int),
        )

    return assigner


def kernel_iou(a, b):
    return iou_matrix(_edges([a]), _edges([b]))[0, 0]


class TestIou:
    """The scalar oracle, and the kernel on the same pair."""

    def test_identical(self):
        a = BoundingBox(3, 4, 10, 12)
        assert iou(a, a) == kernel_iou(a, a) == 1.0

    def test_disjoint(self):
        a, b = BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 2, 2)
        assert iou(a, b) == kernel_iou(a, b) == 0.0

    def test_partial_overlap(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 0, 2, 2)
        assert iou(a, b) == kernel_iou(a, b) == pytest.approx(1 / 3)

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 2)


NAN, INF = float("nan"), float("inf")
# floats near the edges of the box rule: non-finite, huge, tiny and ordinary
EDGE_FLOATS = st.one_of(
    st.sampled_from([NAN, INF, -INF, 0.0, -1.0, 1e-300, 1e-160, 1e150, 1.3e154, 1.5e154, 1.7e308]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestBoundingBox:
    """The one box rule: positive sides, and finite right and bottom edges,
    doubled area, squared sides and aspect ratio."""

    @pytest.mark.parametrize(
        "values",
        [
            (NAN, 0, 10, 10),
            (0, NAN, 10, 10),
            (0, 0, NAN, 10),
            (0, 0, 10, NAN),
            (INF, 0, 10, 10),
            (-INF, 0, 10, 10),
            (0, INF, 10, 10),
            (0, -INF, 10, 10),
            (0, 0, INF, 10),
            (0, 0, 10, INF),
            (1.7e308, 0, 1e300, 10),  # the right edge overflows
            (0, 1.7e308, 10, 1e300),  # the bottom edge overflows
            (0, 0, 1e154, 1e154),  # the doubled area overflows
            (0, 0, 1.5e154, 1e150),  # the squared width overflows
            (0, 0, 1e150, 1.5e154),  # the squared height overflows
            (0, 0, 1e150, 1e-160),  # the aspect ratio overflows
            (0, 0, 0, 10),
            (0, 0, 10, -1),
        ],
    )
    def test_rejected(self, values):
        with pytest.raises(ValueError):
            BoundingBox(*values)
        # NumPy scalars, as a tracker's state gives them, raise the same and never warn
        with pytest.raises(ValueError):
            BoundingBox(*np.array(values, dtype=np.float64))

    def test_near_limit_box_accepted(self):
        # every derived value just fits below the largest float
        box = BoundingBox(-1.7e308, 1.7e308, 1.3e154, 1.3e154 / 2)
        assert 2 * box.area == pytest.approx(1.69e308)

    def test_non_finite_detection_never_reaches_a_tracker(self):
        mot = MultiObjectTracker()
        with pytest.raises(ValueError):
            mot.step([det(NAN, 0, 10, 10)])
        assert mot.trackers == []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        a=st.tuples(*[EDGE_FLOATS] * 4),
        shift=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
        scale=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    )
    def test_accepted_boxes_keep_kalman_state_finite(self, a, shift, scale):
        # a box the rule accepts spawns a finite tracker, and a box moved and
        # scaled from it (matched when they overlap enough) updates it to a
        # finite state, without a warning (an error here); every other box
        # raises ValueError
        left, top, width, height = a
        b = (left + shift[0] * width, top + shift[1] * height, width * scale[0], height * scale[1])
        try:
            frames = [[det(*a)], [det(*b)]]
        except ValueError:
            return
        mot = MultiObjectTracker(assigner=track.make_baseline_assigner(TrackConfig()))
        for detections in frames:
            mot.step(detections)
            assert all(np.isfinite(t.x).all() for t in mot.trackers)


def loop_similarity(trackers, detections):
    """``iou`` over every pair: ``similarity_matrix``'s oracle."""
    s = np.zeros((len(trackers), len(detections)))
    for ti, tracker in enumerate(trackers):
        for di, detection in enumerate(detections):
            s[ti, di] = iou(tracker.box, detection.box)
    return s


def assert_bit_identical(trackers, detections):
    got = similarity_matrix(trackers, detections)
    want = loop_similarity(trackers, detections)
    assert got.shape == want.shape == (len(trackers), len(detections))
    assert got.tobytes() == want.tobytes()


def trackers_at(boxes):
    return [new_tracker(det(*box), tracker_id=i) for i, box in enumerate(boxes)]


class TestSimilarityMatrix:
    def test_edge_cases(self):
        # touching edges (iw == 0 and ih == 0), containment, identity, overlap, disjoint
        trackers = trackers_at([(0, 0, 4, 2), (8, 8, 16, 16)])
        detections = [
            det(4, 0, 4, 2),
            det(0, 2, 4, 2),
            det(12, 12, 2, 4),
            det(0, 0, 4, 2),
            det(2, 1, 4, 2),
            det(100, 100, 1, 1),
        ]
        assert trackers[0].box.right == detections[0].box.left
        assert trackers[0].box.bottom == detections[1].box.top
        assert_bit_identical(trackers, detections)
        s = similarity_matrix(trackers, detections)
        assert s[0, 0] == s[0, 1] == 0.0 and s[0, 3] == 1.0
        assert s[1, 2] == pytest.approx(8 / 256)

    @pytest.mark.parametrize("n_t,n_d", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, n_t, n_d):
        # similarity_matrix is the kernel on the two edge arrays, so these are
        # also the kernel's 0 x n and n x 0 cases
        assert_bit_identical(trackers_at([(i, i, 2, 2) for i in range(n_t)]),
                             [det(i, i, 2, 2) for i in range(n_d)])

    def test_grid_boxes_touch_often(self):
        rng = np.random.default_rng(11)
        boxes = np.column_stack([rng.integers(0, 12, (60, 2)), rng.integers(1, 5, (60, 2))])
        trackers = trackers_at(boxes[:30].astype(float))
        assert_bit_identical(trackers, [det(*b) for b in boxes[30:].astype(float)])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(*[st.floats(0.5, 40.0)] * 4), max_size=12),
           st.lists(st.tuples(*[st.floats(0.5, 40.0)] * 4), max_size=12))
    def test_identical_to_iou_loop(self, tracker_boxes, detection_boxes):
        assert_bit_identical(trackers_at(tracker_boxes), [det(*b) for b in detection_boxes])


def tracker_in_state(tracker_id, cx, cy, area, aspect):
    return Tracker(id=tracker_id, x=np.array([cx, cy, area, aspect, 0.0, 0.0, 0.0]), cov=KF_P0)


class TestTrackerEdges:
    """``similarity_matrix``'s tracker edges come from one stack of the states."""

    def assert_edges_bit_identical(self, trackers):
        got = _tracker_edges(trackers)
        want = _edges([t.box for t in trackers])
        assert got.shape == want.shape == (len(trackers), 5)
        assert got.tobytes() == want.tobytes()

    def test_clamped_states(self):
        # area * aspect under MIN_AREA, area under MIN_AREA, negative area
        trackers = [
            tracker_in_state(0, 10.0, 20.0, 1e-4, 1e-3),
            tracker_in_state(1, -3.0, 4.5, 1e-8, 50.0),
            tracker_in_state(2, 0.0, 0.0, MIN_AREA, 1.0),
            tracker_in_state(3, 7.0, 7.0, -2.0, 0.5),
            tracker_in_state(4, 1e3, -1e3, 1e-7, 1e-7),
        ]
        assert trackers[0].x[2] * trackers[0].x[3] < MIN_AREA
        self.assert_edges_bit_identical(trackers)
        assert_bit_identical(trackers, [det(9.9, 19.9, 0.2, 0.2), det(-1, -1, 2, 2)])

    def test_empty(self):
        self.assert_edges_bit_identical([])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(
        st.tuples(
            st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
            st.one_of(st.floats(-1.0, 1e-5), st.floats(1e-5, 1e5)),
            st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 100.0)),
        ),
        max_size=20,
    ))
    @example([(0.0, 0.0, 1e-3, 1e-4), (5.0, 5.0, 1e-9, 1e-9)])
    def test_identical_to_box_edges(self, states):
        trackers = [tracker_in_state(i, *state) for i, state in enumerate(states)]
        self.assert_edges_bit_identical(trackers)
        assert_bit_identical(trackers, [det(-2.0, -2.0, 4.0, 4.0), det(10.0, 10.0, 30.0, 5.0)])


class TestNewTracker:
    def test_state_from_box(self):
        t = new_tracker(det(0, 0, 10, 20), tracker_id=7)
        assert t.id == 7 and t.age == 0
        assert np.allclose(t.x[:4], [5.0, 10.0, 200.0, 0.5])
        assert np.all(t.x[4:] == 0.0)

    def test_box_roundtrip(self):
        box = BoundingBox(12.0, 30.0, 8.0, 16.0)
        t = new_tracker(Detection(box), tracker_id=1)
        got = t.box
        assert got.left == pytest.approx(box.left)
        assert got.top == pytest.approx(box.top)
        assert got.width == pytest.approx(box.width)
        assert got.height == pytest.approx(box.height)

    def test_spawn_then_predict_keeps_position(self):
        t = new_tracker(det(0, 0, 10, 20), tracker_id=1)
        before = t.x[:4].copy()
        predict(t)
        assert np.allclose(t.x[:4], before)
        assert t.age == 1


class TestPredict:
    def make(self, r, r_dot):
        t = new_tracker(det(0, 0, 10, 10), tracker_id=1)
        t.x[:4] = r
        t.x[4:] = r_dot
        return t

    def test_constant_velocity(self):
        t = self.make([10, 10, 100, 1], [2, 0, 0])
        predict(t)
        assert np.allclose(t.x[:4], [12, 10, 100, 1])
        assert t.age == 1

    def test_zero_velocity(self):
        t = self.make([10, 10, 100, 1], [0, 0, 0])
        predict(t)
        assert np.allclose(t.x[:4], [10, 10, 100, 1])

    def test_chained_predicts_drift_linearly(self):
        t = self.make([10, 10, 100, 1], [2, 0, 0])
        for _ in range(5):
            predict(t)
        assert t.x[0] == pytest.approx(10 + 5 * 2)
        assert t.age == 5

    def test_area_clamped_positive(self):
        t = self.make([10, 10, 5, 1], [0, 0, -50])
        predict(t)
        assert t.x[2] > 0
        assert t.box.width > 0

    def test_shrinking_box_stops_instead_of_collapsing(self):
        # updates from boxes shrinking 60 -> 12 px leave a steep negative area
        # velocity; SORT's rule drops it once it would take the area below zero
        t = new_tracker(det(100, 100, 60, 60), tracker_id=1)
        for side in (48, 36, 24, 12):
            predict(t)
            update(t, det(130 - side / 2, 130 - side / 2, side, side))
        widths = []
        for _ in range(5):
            predict(t)
            widths.append(round(t.box.width, 2))
        assert widths == [13.99, 11.67, 8.75, 4.13, 4.13]
        assert t.x[6] == 0.0


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        t = new_tracker(det(0, 0, 10, 10), tracker_id=1)
        predict(t)
        update(t, det(0, 0, 10, 10))
        assert np.allclose(t.x[:4], [5, 5, 100, 1])
        assert t.age == 0

    def test_age_always_reset(self):
        t = new_tracker(det(0, 0, 10, 10), tracker_id=1)
        for _ in range(4):
            predict(t)
        assert t.age == 4
        update(t, det(1, 1, 10, 10))
        assert t.age == 0

    def test_update_pulls_toward_detection(self):
        # after one predict a fresh tracker's center variance is 10 + 1e4 + 1
        # (spawn, velocity, process noise); against KF_R's 1 the center moves
        # 10011/10012 of the way to the detection, and the velocity follows
        t = new_tracker(det(0, 0, 10, 10), tracker_id=1)
        predict(t)
        update(t, det(20, 6, 10, 10))
        gain = 10011 / 10012
        assert np.allclose(t.x[:4], [5 + 20 * gain, 5 + 6 * gain, 100, 1])
        assert t.x[4] > 0 and t.x[5] > 0
        assert t.age == 0


class TestInputChecks:
    """Config and detection checks, and update's floor on area and aspect."""

    @pytest.mark.parametrize("key", ["max_age", "anti_aging"])
    def test_negative_age_limits(self, key):
        with pytest.raises(ValueError, match="^max_age and anti_aging must be non-negative$"):
            TrackConfig(**{key: -1})

    @pytest.mark.parametrize("c_small, c_large", [(1.0, 1.0), (2.0, 1.0)])
    def test_weights_out_of_order(self, c_small, c_large):
        with pytest.raises(ValueError, match=f"^need c_small < c_large, got {c_small} >= {c_large}$"):
            TrackConfig(c_small=c_small, c_large=c_large)

    @pytest.mark.parametrize("confidence", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_confidence(self, confidence):
        with pytest.raises(ValueError, match="^detection confidence must be finite$"):
            Detection(BoundingBox(0, 0, 10, 10), confidence)

    def test_update_floors_area_and_aspect(self):
        # half the innovation at KF_P0's variance 10 against KF_R's 10 leaves
        # both far below zero, where the floor sets them
        t = tracker_in_state(1, 5.0, 5.0, -1e6, -1e6)
        update(t, det(0, 0, 10, 10))
        assert t.x[2] == t.x[3] == MIN_AREA

    def test_update_keeps_nan_area_and_aspect(self):
        # as max(nan, MIN_AREA) does
        t = tracker_in_state(1, 5.0, 5.0, float("nan"), float("nan"))
        update(t, det(0, 0, 10, 10))
        assert np.isnan(t.x[2]) and np.isnan(t.x[3])


def reference_predict(tracker: Tracker) -> Tracker:
    """``predict`` with the covariance recomputed on every call: the memoized one's reference."""
    if tracker.x[2] + tracker.x[6] <= 0:
        tracker.x[6] = 0.0
    tracker.x = KF_F @ tracker.x
    tracker.cov = KF_F @ tracker.cov @ KF_F.T + KF_Q
    tracker.x[3] = max(tracker.x[3], MIN_AREA)
    tracker.age += 1
    return tracker


def reference_update(tracker: Tracker, detection: Detection) -> Tracker:
    """``update`` with the gain and covariance recomputed on every call: its reference."""
    box = detection.box
    z = np.array([box.left + box.width / 2.0, box.top + box.height / 2.0,
                  box.width * box.height, box.width / box.height])
    innovation = z - KF_H @ tracker.x
    s_mat = KF_H @ tracker.cov @ KF_H.T + KF_R
    gain = np.linalg.solve(s_mat, KF_H @ tracker.cov).T
    tracker.x = tracker.x + gain @ innovation
    tracker.cov = (np.eye(7) - gain @ KF_H) @ tracker.cov
    tracker.x[2] = max(tracker.x[2], MIN_AREA)
    tracker.x[3] = max(tracker.x[3], MIN_AREA)
    tracker.age = 0
    return tracker


def replay_history(spawn_box, frames):
    """Run a tracker and its reference through one history, checking every frame.

    ``frames`` holds one detection box per frame, or None for a frame without
    an update.
    """
    got = new_tracker(det(*spawn_box), tracker_id=1)
    want = Tracker(id=1, x=got.x.copy(), cov=got.cov.copy())
    for box in frames:
        predict(got)
        reference_predict(want)
        if box is not None:
            update(got, det(*box))
            reference_update(want, det(*box))
        assert got.x.tobytes() == want.x.tobytes()
        assert got.cov.tobytes() == want.cov.tobytes()
        assert got.age == want.age
    return got


boxes = st.tuples(st.floats(-100.0, 1000.0), st.floats(-100.0, 1000.0),
                  st.floats(0.5, 200.0), st.floats(0.5, 200.0))


class TestKalmanMemo:
    """``predict`` and ``update`` share covariances through a bounded memo."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(boxes, st.lists(st.one_of(st.none(), boxes), min_size=1, max_size=40))
    def test_bit_identical_to_reference(self, spawn_box, frames):
        replay_history(spawn_box, frames)

    def test_past_the_bound(self):
        # a parked tracker reaches a new covariance every frame, so the
        # predict memo fills, is emptied and fills again
        n_parked = track.KALMAN_MEMO_SIZE + 50
        replay_history((0, 0, 10, 10), [None] * n_parked + [(5.0, 5.0, 10.0, 10.0)] * 20)
        assert len(track._predict_memo) <= track.KALMAN_MEMO_SIZE

    def test_small_bound_keeps_going(self, monkeypatch):
        monkeypatch.setattr(track, "KALMAN_MEMO_SIZE", 5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            frames = [
                None if rng.uniform() < 0.4 else tuple(rng.uniform([0, 0, 5, 5], [300, 300, 60, 60]))
                for _ in range(int(rng.integers(1, 60)))
            ]
            replay_history(tuple(rng.uniform([0, 0, 5, 5], [300, 300, 60, 60])), frames)
            assert len(track._predict_memo) <= 5 and len(track._update_memo) <= 5

    def test_keyed_by_the_whole_covariance(self):
        # covariances a tracker reaches differ everywhere; these differ in one entry
        for i, j in [(0, 0), (6, 6), (3, 5)]:
            cov = KF_P0.copy()
            cov[i, j] += 1.0
            for start in (KF_P0.copy(), cov):
                got = Tracker(id=1, x=np.array([5.0, 5.0, 100.0, 1.0, 0.0, 0.0, 0.0]), cov=start)
                want = Tracker(id=1, x=got.x.copy(), cov=start.copy())
                for tracker, kalman_predict, kalman_update in (
                    (got, predict, update), (want, reference_predict, reference_update)
                ):
                    kalman_predict(tracker)
                    kalman_update(tracker, det(1, 1, 10, 10))
                    kalman_predict(tracker)
                assert got.x.tobytes() == want.x.tobytes()
                assert got.cov.tobytes() == want.cov.tobytes()

    @staticmethod
    def changed_in_place(owner, holder, kalman_step, reference_step):
        """Three trackers in turn hold the caller's writable ``owner`` (or a
        read-only view of it), with an in-place write to ``owner`` between two
        steps; each must get the reference's bytes, and ``owner`` stays writable."""
        held = owner
        if holder == "read_only_view":
            held = owner.view()
            held.flags.writeable = False
        x = np.array([5.0, 5.0, 100.0, 1.0, 2.0, -1.0, 3.0])
        for k in range(3):
            got = Tracker(id=1, x=x.copy(), cov=held)
            want = Tracker(id=1, x=x.copy(), cov=held.copy())
            kalman_step(got)
            reference_step(want)
            assert got.x.tobytes() == want.x.tobytes()
            assert got.cov.tobytes() == want.cov.tobytes()
            owner[k, k] += 1.0
            owner[4 + k, k] = owner[k, 4 + k] = 0.5 * (k + 1)
        assert owner.flags.writeable

    @pytest.mark.parametrize("holder", ["array", "read_only_view"])
    def test_writable_covariance_changed_between_predicts(self, holder):
        # a memo keyed by bare id() would serve the first result again here
        self.changed_in_place(KF_P0.copy(), holder, predict, reference_predict)

    @pytest.mark.parametrize("holder", ["array", "read_only_view"])
    def test_writable_covariance_changed_between_updates(self, holder):
        detection = det(1, 1, 10, 10)
        self.changed_in_place(
            KF_P0.copy(), holder,
            lambda t: update(t, detection), lambda t: reference_update(t, detection),
        )

    def test_shared_covariance_is_read_only(self):
        a = new_tracker(det(0, 0, 10, 10), tracker_id=1)
        b = new_tracker(det(50, 80, 20, 40), tracker_id=2)
        # every new tracker holds the one read-only P0
        assert a.cov is b.cov
        assert a.cov.tobytes() == np.diag([10.0] * 4 + [1e4] * 3).tobytes()
        with pytest.raises(ValueError):
            b.cov[4, 4] = 1.0
        predict(a)
        predict(b)
        assert a.cov is b.cov
        with pytest.raises(ValueError):
            a.cov[0, 0] = 1.0
        update(a, det(1, 1, 10, 10))
        update(b, det(52, 78, 20, 40))
        assert a.cov is b.cov
        with pytest.raises(ValueError):
            b.cov += 1.0
        assert not np.array_equal(a.x, b.x)


class TestStep:
    def cfg(self):
        return TrackConfig()

    def test_spawn_from_empty(self):
        detections = [det(0, 0, 10, 10), det(50, 0, 10, 10), det(100, 0, 10, 10)]
        trackers, result = step([], detections, self.cfg())
        assert len(trackers) == 3
        assert sorted(t.id for t in trackers) == [1, 2, 3]
        assert all(t.age == 0 for t in trackers)
        assert result.unmatched_detections == [0, 1, 2]

    def test_zero_detection_frame_ages_and_deletes(self):
        cfg = self.cfg()
        young = new_tracker(det(0, 0, 10, 10), 1)
        old = new_tracker(det(50, 50, 10, 10), 2)
        old.age = cfg.max_age  # one more predict pushes it over
        trackers, result = step([young, old], [], cfg)
        assert [t.id for t in trackers] == [1]
        assert trackers[0].age == 1
        assert all(d.state is TrackerState.UNMATCH for d in result.decisions)

    def test_unmatched_at_limit_deleted(self):
        cfg = self.cfg()
        t = new_tracker(det(0, 0, 10, 10), 1)
        t.age = cfg.max_age
        assigner = scripted_assigner([(TrackerState.UNMATCH, None)])
        trackers, _ = step([t], [det(500, 500, 10, 10)], cfg, assigner=assigner)
        assert all(tr.id != 1 for tr in trackers)

    def test_potential_match_goes_negative_and_survives(self):
        cfg = self.cfg()
        t = new_tracker(det(0, 0, 10, 10), 1)
        t.age = 3
        assigner = scripted_assigner([(TrackerState.POTENTIAL_MATCH, 0)])
        trackers, _ = step([t], [det(0, 0, 10, 10)], cfg, assigner=assigner)
        survivor = next(tr for tr in trackers if tr.id == 1)
        assert survivor.age == 3 + 1 - cfg.anti_aging == -1

    def test_potential_match_keeps_prediction(self):
        cfg = self.cfg()
        t = new_tracker(det(0, 0, 10, 10), 1)
        t.x[4] = 3.0  # moving right
        assigner = scripted_assigner([(TrackerState.POTENTIAL_MATCH, 0)])
        trackers, _ = step([t], [det(0, 0, 10, 10)], cfg, assigner=assigner)
        survivor = next(tr for tr in trackers if tr.id == 1)
        assert survivor.x[0] == pytest.approx(8.0)  # prediction, not the detection

    def test_match_updates_and_resets_age(self):
        cfg = self.cfg()
        t = new_tracker(det(0, 0, 10, 10), 1)
        t.age = 2
        assigner = scripted_assigner([(TrackerState.MATCH, 0)])
        trackers, _ = step([t], [det(2, 0, 10, 10)], cfg, assigner=assigner)
        survivor = next(tr for tr in trackers if tr.id == 1)
        assert survivor.age == 0

    def test_ids_not_reused_after_deletion(self):
        cfg = self.cfg()
        mot = MultiObjectTracker(cfg)
        mot.step([det(0, 0, 10, 10)])
        assert [t.id for t in mot.trackers] == [1]
        for _ in range(cfg.max_age + 1):
            mot.step([])  # starve it out
        assert mot.trackers == []
        mot.step([det(0, 0, 10, 10)])
        assert [t.id for t in mot.trackers] == [2]

    def test_deterministic_with_sb_assigner(self):
        frames = [
            [det(0, 0, 10, 10), det(40, 0, 12, 12)],
            [det(2, 0, 10, 10), det(38, 0, 12, 12)],
            [det(4, 0, 10, 10), det(36, 0, 12, 12)],
        ]

        def run():
            mot = MultiObjectTracker(TrackConfig())
            out = []
            for dets in frames:
                mot.step(dets)
                out.append([(t.id, tuple(t.x)) for t in mot.trackers])
            return out

        assert run() == run()


class TestLifecycleProperties:
    def test_random_outcome_suite(self):
        # drive the corrector with arbitrary but consistent assignment outcomes
        cfg = TrackConfig()
        rng = np.random.default_rng(17)
        trackers = []
        counter = itertools.count(1)
        seen_ids = set()
        for _ in range(300):
            ages_before = {t.id: t.age for t in trackers}
            n_d = int(rng.integers(0, 4))
            detections = [det(float(rng.uniform(0, 500)), 0, 10, 10) for _ in range(n_d)]
            states = []
            free = list(range(n_d))
            for _ in trackers:
                roll = rng.uniform()
                if roll < 0.4 and free:
                    states.append((TrackerState.MATCH, free.pop()))
                elif roll < 0.7 and n_d:
                    states.append((TrackerState.POTENTIAL_MATCH, 0))
                else:
                    states.append((TrackerState.UNMATCH, None))
            if trackers:
                assigner = scripted_assigner(states)
            else:
                assigner = None
            survivors, result = step(
                trackers, detections, cfg, assigner=assigner, id_counter=counter
            )
            survivor_ids = {t.id for t in survivors}
            for (tracker, (state, _)) in zip(trackers, states):
                if state is TrackerState.MATCH:
                    assert tracker.age == 0
                elif state is TrackerState.POTENTIAL_MATCH:
                    assert tracker.age == ages_before[tracker.id] + 1 - cfg.anti_aging
                else:
                    assert tracker.age == ages_before[tracker.id] + 1
                assert (tracker.id in survivor_ids) == (tracker.age <= cfg.max_age)
            for t in survivors:
                if t.id not in ages_before:  # fresh spawn
                    assert t.age == 0
                    assert t.id not in seen_ids
                    seen_ids.add(t.id)
            trackers = survivors


# an object of a crowded scene, on its own cell of a 6-wide grid at a 100-pixel
# pitch: offset from the cell's corner, size and velocity in pixels, and the
# first frame and length of a run without its detection. Neighbours overlap and
# cross, but no crowd piles onto one spot: SB leaves the strict table of such an
# all-tied frame empty from 10 x 10 up, so every detection would spawn
CROWD_OBJECT = st.tuples(
    st.integers(-30, 30), st.integers(-30, 30), st.integers(30, 70), st.integers(30, 70),
    st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 14), st.integers(0, 8),
)


class TestNorthStarInvariants:
    """The pipeline's guarantees on crowded scenes through the default SB
    assigner, whatever tables the solver returns."""

    @staticmethod
    def check_frame(mot, result):
        table = result.table_large
        assert (table.sum(axis=0) <= 1).all() and (table.sum(axis=1) <= 1).all()
        claimed = {d.detection for d in result.decisions if d.state is TrackerState.MATCH}
        assert len(claimed) == sum(d.state is TrackerState.MATCH for d in result.decisions)
        for decision in result.decisions:
            if decision.state is TrackerState.POTENTIAL_MATCH:
                assert decision.detection in claimed
                assert decision.detection not in result.unmatched_detections
        ids = [t.id for t in mot.trackers]
        assert ids == sorted(set(ids))
        for t in mot.trackers:
            assert np.isfinite(t.x).all() and np.isfinite(t.cov).all()
            scale = np.abs(t.cov).max()
            assert np.abs(t.cov - t.cov.T).max() <= 1e-9 * scale
            assert np.linalg.eigvalsh((t.cov + t.cov.T) / 2.0)[0] >= -1e-9 * scale

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        objects=st.lists(CROWD_OBJECT, min_size=16, max_size=24),
        n_frames=st.integers(10, 15),
    )
    def test_crowded_scenes(self, objects, n_frames):
        mot = MultiObjectTracker()
        for k in range(n_frames):
            detections = [
                det(100 * (i % 6) + dx + k * vx, 100 * (i // 6) + dy + k * vy, width, height)
                for i, (dx, dy, width, height, vx, vy, hide_from, hide_for) in enumerate(objects)
                if not hide_from <= k < hide_from + hide_for
            ]
            self.check_frame(mot, mot.step(detections))


# an object of a stream: top-left corner, size and velocity in pixels, the
# frame it enters and how long it stays, a jitter amplitude, and the first
# frame and length of a run without its detection. Corners share a 400 x 300
# area, so boxes overlap and cross
STREAM_OBJECT = st.tuples(
    st.integers(0, 400), st.integers(0, 300), st.integers(20, 80), st.integers(20, 80),
    st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 20), st.integers(8, 60),
    st.integers(0, 3), st.integers(0, 40), st.integers(0, 6),
)


class TestReferenceKalmanStream:
    """The shipped loop, with its shared covariances, memo and decisions, against
    the same loop with ``predict`` and ``update`` recomputing every covariance,
    over crowd-sized streams through the baseline assigner."""

    @staticmethod
    def run(frames):
        cfg = TrackConfig()
        mot = MultiObjectTracker(cfg, track.make_baseline_assigner(cfg))
        history = []
        for detections in frames:
            result = mot.step(detections)
            history.append((
                [(d.state, d.detection) for d in result.decisions],
                result.unmatched_detections,
                [(t.id, t.age, t.x.tobytes(), t.cov.tobytes()) for t in mot.trackers],
            ))
        return history

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        objects=st.lists(STREAM_OBJECT, min_size=16, max_size=32),
        n_frames=st.integers(30, 45),
    )
    def test_identical_to_reference_kalman(self, objects, n_frames):
        frames = [
            [
                det(left + k * vx + jitter * ((3 * k + i) % 5 - 2), top + k * vy, width, height)
                for i, (left, top, width, height, vx, vy, born, life, jitter, hide_from, hide_for)
                in enumerate(objects)
                if born <= k < born + life and not hide_from <= k < hide_from + hide_for
            ]
            for k in range(n_frames)
        ]
        shipped = self.run(frames)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(track, "predict", reference_predict)
            mp.setattr(track, "update", reference_update)
            reference = self.run(frames)
        assert shipped == reference
        assert max(len(trackers) for _, _, trackers in shipped) >= 8
