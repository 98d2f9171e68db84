"""Command-line interface and the MOT text-file plumbing.

Subcommands:

  track       run the tracking loop over a MOT detection file
  simulate    roll a scenario spec into ground-truth and detection files
  eval        score a results file against ground truth
  solve-qubo  solve a QUBO text file with the simulated-bifurcation solver

Records use the MOT-Challenge text convention, one per line:
``frame,id,left,top,width,height,confidence,-1,-1,-1`` with id -1 for raw
detections. Pixels serialize with 2 decimals and confidences with 6. In
ground-truth files written by ``simulate`` the confidence column carries the
visibility flag (1 visible, 0 occluded).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields, replace

from . import __version__
from .assign import AssignmentResult
from .ising import BRUTE_FORCE_MAX_VARS, _content_lines, brute_force_qubo, read_qubo_file
from .sb import SbParams, solve_qubo
from .scenario import (
    IOU_MIN,
    GroundTruth,
    TruthEntry,
    generate,
    id_switches,
    occlusion_survival,
    parse_scenario,
)
from .track import (
    BoundingBox,
    Detection,
    MultiObjectTracker,
    TrackConfig,
    make_baseline_assigner,
    make_flexible_assigner,
    mot_printable,
)

USAGE_ERROR = 1
DATA_ERROR = 2


@dataclass(frozen=True)
class MotRecord:
    frame: int
    track_id: int
    box: BoundingBox
    confidence: float = 1.0


def parse_mot_line(line: str) -> MotRecord:
    parts = line.split(",")
    if len(parts) < 7:
        raise ValueError(f"expected at least 7 comma-separated fields, got {len(parts)}")
    frame = int(parts[0])
    track_id = int(parts[1])
    left, top, width, height, confidence = (float(v) for v in parts[2:7])
    if frame < 1:
        raise ValueError(f"frame numbers must be positive, got {frame}")
    if not math.isfinite(confidence):
        raise ValueError(f"confidence must be finite, got {confidence}")
    return MotRecord(frame, track_id, BoundingBox(left, top, width, height), confidence)


def read_mot_file(path) -> list[MotRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                records.append(parse_mot_line(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records


def format_mot_record(r: MotRecord) -> str:
    b = r.box
    return (
        f"{r.frame},{r.track_id},{b.left:.2f},{b.top:.2f},"
        f"{b.width:.2f},{b.height:.2f},{r.confidence:.6f},-1,-1,-1"
    )


def write_mot_file(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(format_mot_record(r) + "\n")


# every TrackConfig and SbParams field, parsed with the type of its default
_CONFIG_KEYS = {
    f.name: type(f.default)
    for f in fields(TrackConfig) + fields(SbParams)
    if f.name != "sb_params"
}
_SB_KEYS = {f.name for f in fields(SbParams)}


def read_config(path) -> TrackConfig:
    """Parse the flat ``key = value`` config format; unknown keys are errors."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw, line in _content_lines(fh):
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                valid = ", ".join(sorted(_CONFIG_KEYS))
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; valid keys: {valid}")
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    sb_kwargs = {k: v for k, v in values.items() if k in _SB_KEYS}
    track_kwargs = {k: v for k, v in values.items() if k not in _SB_KEYS}
    return TrackConfig(sb_params=SbParams(**sb_kwargs), **track_kwargs)


def _detections_by_frame(records) -> dict[int, list[Detection]]:
    out: dict[int, list[Detection]] = {}
    for r in records:
        out.setdefault(r.frame, []).append(Detection(r.box, r.confidence))
    return out


class _TimedAssigner:
    """An assigner that keeps the wall time of its latest call in ``seconds``."""

    def __init__(self, assigner):
        self.assigner = assigner
        self.seconds = 0.0

    def __call__(self, s):
        t0 = time.perf_counter()
        result = self.assigner(s)
        self.seconds = time.perf_counter() - t0
        return result


def cmd_track(args) -> int:
    if not math.isfinite(args.min_confidence):
        raise ValueError(f"--min-confidence must be finite, got {args.min_confidence}")
    records = read_mot_file(args.detections)
    cfg = read_config(args.config) if args.config else TrackConfig()
    if args.seed is not None:
        cfg = replace(cfg, sb_params=replace(cfg.sb_params, seed=args.seed))
    by_frame = _detections_by_frame(records)
    out_records: list[MotRecord] = []
    diag_rows: list[str] = []
    make_assigner = make_baseline_assigner if args.baseline else make_flexible_assigner
    assigner = _TimedAssigner(make_assigner(cfg))
    tracker = MultiObjectTracker(cfg, assigner=assigner)
    if by_frame:
        first, last = min(by_frame), max(by_frame)
        for frame in range(first, last + 1):
            detections = [
                d for d in by_frame.get(frame, []) if d.confidence >= args.min_confidence
            ]
            # frames without trackers or without detections never call the assigner
            assigner.seconds = 0.0
            result: AssignmentResult = tracker.step(detections)
            # ascending ids: survivors keep their order, spawns take rising ids
            for t in tracker.trackers:
                box = t.box
                # a side that would print as 0.00 could not be read back
                if mot_printable(box):
                    out_records.append(MotRecord(frame, t.id, box, 1.0))
            diag_rows.append(
                f"{frame},{len(result.decisions)},{len(detections)},"
                f"{result.energy_large:.9g},{result.energy_small:.9g},"
                f"{result.repairs},{assigner.seconds:.6f}"
            )
    write_mot_file(args.output, out_records)
    with open(args.output + ".diag.csv", "w", encoding="utf-8") as fh:
        fh.write("frame,n_trackers,n_detections,energy_large,energy_small,repairs,solve_time_s\n")
        for row in diag_rows:
            fh.write(row + "\n")
    return 0


def cmd_simulate(args) -> int:
    spec = parse_scenario(args.spec)
    gt, detections = generate(spec, noise_seed=args.seed)
    gt_records = []
    det_records = []
    for k, (frame_gt, frame_dets) in enumerate(zip(gt.frames, detections)):
        frame = k + 1
        for obj, entry in sorted(frame_gt.items()):
            gt_records.append(MotRecord(frame, obj, entry.box, 1.0 if entry.visible else 0.0))
        for det in frame_dets:
            det_records.append(MotRecord(frame, -1, det.box, det.confidence))
    write_mot_file(args.out_prefix + ".gt.txt", gt_records)
    write_mot_file(args.out_prefix + ".det.txt", det_records)
    return 0


def _ground_truth_from_records(records) -> tuple[GroundTruth, int]:
    if not records:
        raise ValueError("ground-truth file contains no records")
    first = min(r.frame for r in records)
    last = max(r.frame for r in records)
    frames: list[dict[int, TruthEntry]] = [{} for _ in range(last - first + 1)]
    for r in records:
        frames[r.frame - first][r.track_id] = TruthEntry(r.box, r.confidence > 0.5)
    return GroundTruth(frames), first


def _tracks_from_records(records, first: int, n_frames: int):
    tracks = [[] for _ in range(n_frames)]
    for r in records:
        idx = r.frame - first
        if 0 <= idx < n_frames:
            tracks[idx].append((r.track_id, r.box))
    return tracks


def cmd_eval(args) -> int:
    gt, first = _ground_truth_from_records(read_mot_file(args.ground_truth))
    tracks = _tracks_from_records(read_mot_file(args.results), first, gt.n_frames)
    switches = id_switches(tracks, gt, iou_min=args.iou_min)
    survival = occlusion_survival(tracks, gt, anti_aging=args.anti_aging, iou_min=args.iou_min)
    print(f"id_switches={switches}")
    print(f"occlusion_survival={survival:.6f}")
    return 0


def cmd_solve_qubo(args) -> int:
    problem = read_qubo_file(args.qubo)
    if args.oracle and problem.n > BRUTE_FORCE_MAX_VARS:
        print(f"error: --oracle supports at most {BRUTE_FORCE_MAX_VARS} variables", file=sys.stderr)
        return USAGE_ERROR
    params = SbParams(**{name: getattr(args, name) for name in _SB_KEYS})
    bits, energy = solve_qubo(problem, params)
    print(f"bits={''.join(str(b) for b in bits)} energy={energy:g}")
    if args.oracle:
        oracle_bits, oracle_energy = brute_force_qubo(problem)
        print(
            f"oracle_bits={''.join(str(b) for b in oracle_bits)} "
            f"oracle_energy={oracle_energy:g}"
        )
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flextrack", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"flextrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("track", help="run tracking over a MOT detection file")
    p.add_argument("detections", help="MOT detection file")
    p.add_argument("-o", "--output", required=True, help="MOT results file to write")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="override the solver seed")
    p.add_argument("--baseline", action="store_true",
                   help="use the Hungarian baseline (potentially-match disabled)")
    p.add_argument("--min-confidence", type=float, default=0.0,
                   help="drop detections below this confidence (default 0: keep all)")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("simulate", help="generate ground truth and detections from a scenario")
    p.add_argument("spec", help="scenario spec file")
    p.add_argument("-o", "--out-prefix", required=True,
                   help="writes <prefix>.gt.txt and <prefix>.det.txt")
    p.add_argument("--seed", type=int, help="override the spec's jitter seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="score a results file against ground truth")
    p.add_argument("results", help="MOT results file")
    p.add_argument("ground_truth", help="MOT ground-truth file")
    p.add_argument("--anti-aging", type=int, default=TrackConfig.anti_aging,
                   help="frames allowed for re-association after reappearance")
    p.add_argument("--iou-min", type=float, default=IOU_MIN, help="association IOU floor")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve-qubo", help="solve a QUBO text file")
    p.add_argument("qubo", help="QUBO text file: first line n, then 'i j value' lines")
    p.add_argument("--oracle", action="store_true",
                   help=f"also print the brute-force optimum (n <= {BRUTE_FORCE_MAX_VARS})")
    for f in fields(SbParams):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default,
                       help=f"solver parameter (default {f.default})")
    p.set_defaults(func=cmd_solve_qubo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
