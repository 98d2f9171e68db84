"""CLI subcommands, file formats, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flextrack
from flextrack import track
from flextrack.assign import build_assignment_qubo
from flextrack.cli import (
    MotRecord,
    format_mot_record,
    main,
    parse_mot_line,
    read_config,
    read_mot_file,
    write_mot_file,
)
from flextrack.ising import BRUTE_FORCE_MAX_VARS, qubo_to_ising
from flextrack.sb import SbParams, solve_ising
from flextrack.track import BoundingBox, TrackConfig


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
TWO_OBJECT_SPEC = """\
frames 30
occlusion_iou 0.6
jitter 0.0
seed 1
width 640
height 480
object 200 100 40 40 0 0
object 40 100 38 38 10 0
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def fresh_python(*args):
    """Run a new interpreter on ``args`` with this package importable."""
    src = str(Path(flextrack.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


def single_error(capsys, message):
    """The run printed ``error: <message>`` as its one stderr line, and nothing else."""
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


class TestInputChecks:
    """Input checks of the MOT, config and ground-truth readers: each bad file
    exits 2 with one ``error:`` line and no traceback."""

    @pytest.mark.parametrize("frame", ["0", "-3"])
    def test_frame_must_be_positive(self, tmp_path, capsys, frame):
        det = write(tmp_path / "det.txt", f"1,-1,0,0,10,10,1,-1,-1,-1\n{frame},-1,0,0,10,10,1,-1,-1,-1\n")
        out = tmp_path / "r.txt"
        assert main(["track", det, "-o", str(out)]) == 2
        single_error(capsys, f"{det}:2: frame numbers must be positive, got {int(frame)}")
        assert not out.exists()

    def test_blank_lines_are_skipped(self, tmp_path):
        lines = ["1,-1,0,0,10,10,1,-1,-1,-1", "2,-1,1,0,10,10,1,-1,-1,-1"]
        plain = read_mot_file(write(tmp_path / "plain.txt", "\n".join(lines) + "\n"))
        spaced = read_mot_file(write(tmp_path / "spaced.txt", f"\n{lines[0]}\n  \n\t\n{lines[1]}\n\n"))
        assert spaced == plain and len(plain) == 2

    @pytest.mark.parametrize("line", ["max_age 7", "max_age: 7 # seven"])
    def test_config_line_needs_an_equals_sign(self, tmp_path, capsys, line):
        det = write(tmp_path / "det.txt", "1,-1,0,0,10,10,1,-1,-1,-1\n")
        cfg = write(tmp_path / "cfg.txt", f"# config\n\n{line}\n")
        out = tmp_path / "r.txt"
        assert main(["track", det, "-o", str(out), "--config", cfg]) == 2
        single_error(capsys, f"{cfg}:3: expected 'key = value', got {line + chr(10)!r}")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_eval_on_empty_ground_truth(self, tmp_path, capsys, text):
        results = write(tmp_path / "r.txt", "1,1,0,0,10,10,1,-1,-1,-1\n")
        assert main(["eval", results, write(tmp_path / "gt.txt", text)]) == 2
        single_error(capsys, "ground-truth file contains no records")


class TestMotFormat:
    def test_roundtrip(self, tmp_path):
        records = [
            MotRecord(1, -1, BoundingBox(10.25, 20.5, 30.0, 40.75), 0.875),
            MotRecord(2, 5, BoundingBox(0.0, 1.0, 2.0, 3.0), 1.0),
        ]
        path = tmp_path / "a.txt"
        write_mot_file(path, records)
        assert read_mot_file(path) == records

    def test_serialized_shape(self):
        line = format_mot_record(MotRecord(3, 7, BoundingBox(1.234, 5.678, 9.0, 10.0), 0.5))
        assert line == "3,7,1.23,5.68,9.00,10.00,0.500000,-1,-1,-1"

    def test_parse_accepts_ten_fields(self):
        r = parse_mot_line("1,-1,10,20,30,40,0.9,-1,-1,-1")
        assert r == MotRecord(1, -1, BoundingBox(10.0, 20.0, 30.0, 40.0), 0.9)

    def test_parse_error_names_line(self, tmp_path):
        path = write(tmp_path / "bad.txt", "1,-1,10,20,30,40,0.9\nnot a record\n")
        with pytest.raises(ValueError, match=":2:"):
            read_mot_file(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        corner=st.tuples(*[st.floats(-1e150, 1e150)] * 2),
        sides=st.tuples(*[
            st.one_of(
                st.sampled_from([0.005, 0.0049999999999999, 0.0050000000000001, 0.015]),
                st.floats(0.004, 0.006),
                st.floats(0.004, 1e150),
            )
        ] * 2),
    )
    def test_every_printable_box_reads_back(self, corner, sides):
        # the rule track and simulate write by: sides that stay positive at 2 decimals
        box = BoundingBox(*corner, *sides)
        if not track.mot_printable(box):
            return
        r = parse_mot_line(format_mot_record(MotRecord(3, 7, box, 0.5)))
        assert (r.frame, r.track_id, r.confidence) == (3, 7, 0.5)
        for name in ("left", "top", "width", "height"):
            value = getattr(box, name)
            assert abs(getattr(r.box, name) - value) <= 0.005 + 1e-15 * abs(value)


class TestBoxRejections:
    """A box whose doubled area or squared sides overflow, or whose width or
    height is not positive, exits 2 with one ``error:`` line naming
    ``path:line``, no output and no warning (an error here)."""

    @pytest.mark.parametrize(
        "box",
        [
            "0,0,1e154,1e154",  # two such areas overflow IOU's union
            "0,0,1.5e154,1e150",  # a tracker's box squares the width
            "0,0,1e150,1.5e154",
            "5,5,0.00,10",  # a tracker narrower than 0.005 px, as track writes it
            "5,5,10,-1",
        ],
    )
    @pytest.mark.parametrize("command", ["track", "eval"])
    def test_single_error_naming_the_line(self, tmp_path, capsys, box, command):
        good = "1,1,0,0,10,10,1,-1,-1,-1"
        bad = write(tmp_path / "bad.txt", f"{good}\n2,1,{box},1,-1,-1,-1\n")
        out = tmp_path / "out.txt"
        if command == "track":
            argv = ["track", bad, "-o", str(out)]
        else:
            # frame 2 lies past the one-frame ground truth and is rejected all the same
            argv = ["eval", bad, write(tmp_path / "gt.txt", good + "\n")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}:2: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()


class TestConfig:
    def test_full_config(self, tmp_path):
        path = write(
            tmp_path / "cfg.txt",
            "max_age = 7\nanti_aging = 3\nc_small = 0.2\nc_large = 2.0\n"
            "s_min = 0.05\nseed = 9\nn_steps = 100\n",
        )
        cfg = read_config(path)
        assert cfg.max_age == 7 and cfg.anti_aging == 3
        assert cfg.c_small == 0.2 and cfg.c_large == 2.0 and cfg.s_min == 0.05
        assert cfg.sb_params.seed == 9 and cfg.sb_params.n_steps == 100

    def test_defaults_when_empty(self, tmp_path):
        path = write(tmp_path / "cfg.txt", "# nothing\n")
        assert read_config(path) == TrackConfig()

    def test_every_field_round_trips(self, tmp_path):
        # a value off each default, written in the default's own type
        track_fields = [f for f in fields(TrackConfig) if f.name != "sb_params"]
        values = {f.name: f.default + 1 for f in track_fields + list(fields(SbParams))}
        path = write(tmp_path / "cfg.txt", "".join(f"{k} = {v!r}\n" for k, v in values.items()))
        cfg = read_config(path)
        for f in track_fields:
            got = getattr(cfg, f.name)
            assert got == values[f.name] and type(got) is type(f.default), f.name
        for f in fields(SbParams):
            got = getattr(cfg.sb_params, f.name)
            assert got == values[f.name] and type(got) is type(f.default), f.name

    def test_int_field_rejects_a_fraction(self, tmp_path):
        path = write(tmp_path / "cfg.txt", "n_steps = 1.5\n")
        with pytest.raises(ValueError, match="bad value for n_steps: '1.5'"):
            read_config(path)

    def test_unknown_key_lists_valid(self, tmp_path):
        path = write(tmp_path / "cfg.txt", "maxage = 7\n")
        with pytest.raises(ValueError, match="valid keys.*max_age"):
            read_config(path)


_TRACK_FLOATS = [f.name for f in fields(TrackConfig) if type(f.default) is float]
_SB_FLOATS = [f.name for f in fields(SbParams) if type(f.default) is float]


class TestBadSettings:
    """Every float setting rejects nan and inf as a data error: exit 2, an
    ``error:`` line, no traceback and no output file."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", _TRACK_FLOATS + _SB_FLOATS)
    def test_track_config(self, tmp_path, capsys, key, value):
        det = write(
            tmp_path / "det.txt",
            "1,-1,10,20,30,40,1,-1,-1,-1\n2,-1,12,20,30,40,1,-1,-1,-1\n",
        )
        cfg = write(tmp_path / "cfg.txt", f"{key} = {value}\n")
        out = tmp_path / "r.txt"
        assert main(["track", det, "-o", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", _SB_FLOATS)
    def test_solve_qubo_flag(self, tmp_path, capsys, key, value):
        qubo = write(tmp_path / "q.txt", "1\n0 0 -2.5\n")
        assert main(["solve-qubo", qubo, "--" + key.replace("_", "-"), value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and key in captured.err
        assert captured.out == ""

    def test_negative_weight_before_any_assignment(self, tmp_path, capsys):
        # one frame never reaches the QUBO builder: the config itself is checked
        det = write(tmp_path / "det.txt", "1,-1,10,20,30,40,1,-1,-1,-1\n")
        cfg = write(tmp_path / "cfg.txt", "c_small = -0.5\n")
        assert main(["track", det, "-o", str(tmp_path / "r.txt"), "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: c_small")

    def test_overflowing_weight_prints_only_the_error(self, tmp_path):
        # run as a process, where a NumPy warning would reach stderr uncaptured
        det = write(
            tmp_path / "det.txt",
            "1,-1,10,20,30,40,1,-1,-1,-1\n2,-1,12,20,30,40,1,-1,-1,-1\n",
        )
        cfg = write(tmp_path / "cfg.txt", "c_large = 1e308\n")
        proc = fresh_python(
            "-m", "flextrack.cli", "track", det, "-o", str(tmp_path / "r.txt"), "--config", cfg
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: assignment QUBO overflows at penalty weight 1e+308\n"
        assert proc.stdout == ""

    def test_weight_whose_ising_form_overflows_prints_only_the_error(self, tmp_path):
        # the QUBO is finite at 1e307, the Ising offset (its total sum) is not
        prefix = str(tmp_path / "five")
        spec = str(SCENARIOS / "five_crossing.txt")
        assert main(["simulate", spec, "--seed", "1", "-o", prefix]) == 0
        cfg = write(tmp_path / "cfg.txt", "c_large = 1e307\n")
        proc = fresh_python(
            "-m", "flextrack.cli", "track", prefix + ".det.txt", "-o", str(tmp_path / "r.txt"),
            "--config", cfg,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stdout == ""

    def test_qubo_whose_ising_form_overflows_prints_only_the_error(self, tmp_path):
        entries = [f"{i} {j} 8e307" for i in range(3) for j in range(3)]
        qubo = write(tmp_path / "q.txt", "\n".join(["3", *entries]) + "\n")
        proc = fresh_python("-m", "flextrack.cli", "solve-qubo", qubo)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "flag,value",
        # the momenta's range 2 * init_noise overflows; a seed numpy cannot take
        [("--init-noise", "1e308"), ("--seed", "-1")],
    )
    def test_solve_qubo_setting_out_of_range_prints_only_the_error(self, tmp_path, flag, value):
        qubo = write(tmp_path / "q.txt", "1\n0 0 -2.5\n")
        proc = fresh_python("-m", "flextrack.cli", "solve-qubo", qubo, flag, value)
        assert proc.returncode == 2
        key = flag[2:].replace("-", "_")
        assert proc.stderr.startswith(f"error: {key} must ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "config,extra",
        [("init_noise = 1e308\n", []), ("seed = -1\n", []), ("", ["--seed", "-1"])],
    )
    def test_track_setting_out_of_range_prints_only_the_error(self, tmp_path, config, extra):
        det = write(
            tmp_path / "det.txt",
            "1,-1,10,20,30,40,1,-1,-1,-1\n2,-1,12,20,30,40,1,-1,-1,-1\n",
        )
        cfg = write(tmp_path / "cfg.txt", config)
        out = tmp_path / "r.txt"
        proc = fresh_python(
            "-m", "flextrack.cli", "track", det, "-o", str(out), "--config", cfg, *extra
        )
        assert proc.returncode == 2
        key = "init_noise" if "init_noise" in config else "seed"
        assert proc.stderr.startswith(f"error: {key} must ") and proc.stderr.count("\n") == 1
        assert proc.stdout == "" and not out.exists()

    def test_gate_off_with_minus_inf(self, tmp_path):
        det = write(tmp_path / "det.txt", "1,-1,10,20,30,40,1,-1,-1,-1\n")
        cfg = write(tmp_path / "cfg.txt", "s_min = -inf\n")
        assert main(["track", det, "-o", str(tmp_path / "r.txt"), "--config", cfg]) == 0


_MOT_LINES = ["1,-1,10,20,30,40,1,-1,-1,-1", "2,-1,12,20,30,40,1,-1,-1,-1"]
_SCENE_LINES = [
    "frames 8", "occlusion_iou 0.5", "jitter 1.0", "width 640", "height 480",
    "object 100 100 40 40 5 0", "object 200 100 36 36 -5 0",
]
_SIMULATE = ["simulate", "BAD", "-o", "OUT"]
# (argv, lines of the file BAD, their separator, line index, field index) for
# every float of the inputs; a flag takes VALUE in its argv and has no file.
# "--flag=-inf" because "-inf" alone would read as a flag.
_SLOTS = (
    [
        (argv, _MOT_LINES, ",", line, field)
        for argv in (["track", "BAD", "-o", "OUT"], ["eval", "BAD", "GOOD"], ["eval", "GOOD", "BAD"])
        for line in range(2)
        for field in range(2, 7)
    ]
    + [(_SIMULATE, _SCENE_LINES, " ", line, 1) for line in range(1, 5)]
    + [(_SIMULATE, _SCENE_LINES, " ", line, word) for line in (5, 6) for word in range(1, 7)]
    + [
        (["eval", "GOOD", "GOOD", "--iou-min=VALUE"], None, None, None, None),
        (["track", "GOOD", "-o", "OUT", "--min-confidence=VALUE"], None, None, None, None),
    ]
)


class TestNonFiniteValues:
    """A float in any input file or flag set to nan, +-inf or 1e308: non-finite
    values exit 2 with one ``error:`` line (naming ``path:line`` for a file);
    1e308 may also succeed. No traceback, and no warning (an error here)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(slot=st.sampled_from(_SLOTS), value=st.sampled_from(["nan", "inf", "-inf", "1e308"]))
    def test_exit_code_and_single_error_line(self, slot, value):
        template, lines, sep, line, field = slot
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: str(Path(tmp) / name) for name in ("GOOD", "BAD", "OUT")}
            write(Path(paths["GOOD"]), "\n".join(_MOT_LINES) + "\n")
            if lines is not None:
                words = lines[line].split(sep)
                words[field] = value
                changed = lines[:line] + [sep.join(words)] + lines[line + 1:]
                write(Path(paths["BAD"]), "\n".join(changed) + "\n")
            argv = [paths.get(arg, arg.replace("VALUE", value)) for arg in template]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
        errors = stderr.getvalue().splitlines()
        if value != "1e308":
            assert rc == 2, (argv, stdout.getvalue())
        if rc == 2:
            assert len(errors) == 1 and errors[0].startswith("error: "), errors
            if lines is not None:
                assert f"{paths['BAD']}:{line + 1}: " in errors[0], errors
            assert stdout.getvalue() == ""
        else:
            assert rc == 0 and errors == []


# finite QUBO entries whose sums, products and energies can overflow
_HUGE = [8e307, -8e307, 6e307, -6e307, 4e307, -4e307]
_SMALL = [1e-300, 5e-324, 0.0, 1.0, -1.0]


@st.composite
def huge_qubo_files(draw):
    """A QUBO text with entries up to +-8e307: at most 362 variables (a dense
    coupling) or above (few entries, so the CSR coupling), the entries on a
    few rows so that their sums overflow."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(363, 400)))
    index = st.integers(0, min(n, 5) - 1)
    value = st.one_of(
        st.sampled_from(_HUGE), st.sampled_from(_HUGE), st.sampled_from(_SMALL),
        st.floats(-8e307, 8e307),
    )
    entries = draw(st.lists(st.tuples(index, index, value), max_size=20))
    return "\n".join([str(n)] + [f"{i} {j} {v!r}" for i, j, v in entries]) + "\n"


class TestHugeQuboEntries:
    """``solve-qubo`` on finite entries up to +-8e307 exits 0 with one line and a
    finite energy, or 2 with one ``error:`` line; no traceback and no warning
    (the warning is recorded here, and an error under the test settings)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(text=huge_qubo_files(), restarts=st.sampled_from([1, 3]))
    # a row of alternating +-8e307: finite row sums, an overflowing product
    @example(text="7\n" + "".join(f"0 {k} {(-1) ** k * 8e307}\n{k} 0 {(-1) ** k * 8e307}\n"
                                   for k in range(1, 6)), restarts=1)
    @example(text="370\n" + "".join(f"0 {k} {(-1) ** k * 8e307}\n{k} 0 {(-1) ** k * 8e307}\n"
                                     for k in range(1, 9)), restarts=3)
    # finite Ising energies, but the chosen bits' QUBO energy overflows
    @example(text="4\n0 0 -8e307\n1 0 4e307\n1 2 8e307\n2 0 -8e307\n2 2 -4e307\n3 2 4e307\n",
             restarts=1)
    def test_exit_code_and_single_line(self, text, restarts):
        with tempfile.TemporaryDirectory() as tmp:
            qubo = write(Path(tmp) / "q.txt", text)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rc = main(["solve-qubo", qubo, "--restarts", str(restarts)])
        assert caught == [], [str(w.message) for w in caught]
        out, errors = stdout.getvalue().splitlines(), stderr.getvalue().splitlines()
        if rc == 2:
            assert len(errors) == 1 and errors[0].startswith("error: ") and out == [], errors
        else:
            assert rc == 0 and errors == [] and len(out) == 1, (rc, errors)
            assert np.isfinite(float(out[0].rpartition("energy=")[2]))


class TestSolveQubo:
    def test_single_variable(self, tmp_path, capsys):
        qubo = write(tmp_path / "q.txt", "1\n0 0 -2.5\n")
        assert main(["solve-qubo", qubo]) == 0
        out = capsys.readouterr().out
        assert "bits=1 energy=-2.5" in out

    def test_all_zero(self, tmp_path, capsys):
        qubo = write(tmp_path / "q.txt", "2\n")
        assert main(["solve-qubo", qubo]) == 0
        assert "energy=0" in capsys.readouterr().out

    def test_oracle_agreement_rate(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        raw = rng.uniform(-1, 1, size=(10, 10))
        lines = ["10"] + [f"{i} {j} {raw[i, j]}" for i in range(10) for j in range(10)]
        qubo = write(tmp_path / "q.txt", "\n".join(lines) + "\n")
        hits = 0
        for seed in range(20):
            assert main(["solve-qubo", qubo, "--oracle", "--seed", str(seed)]) == 0
            out = capsys.readouterr().out
            solved, oracle = out.strip().splitlines()
            hits += solved.split("energy=")[1] == oracle.split("oracle_energy=")[1]
        assert hits >= 18

    def test_oracle_size_limit(self, tmp_path, capsys):
        qubo = write(tmp_path / "q.txt", f"{BRUTE_FORCE_MAX_VARS + 1}\n")
        assert main(["solve-qubo", qubo, "--oracle"]) == 1
        captured = capsys.readouterr()
        assert f"at most {BRUTE_FORCE_MAX_VARS} variables" in captured.err
        # refused before the solve: no bits= line on a run that exits 1
        assert captured.out == ""

    def test_oracle_above_twenty_variables(self, tmp_path, capsys):
        lines = ["21"] + [f"{i} {i} -1" for i in range(21)]
        qubo = write(tmp_path / "q.txt", "\n".join(lines) + "\n")
        assert main(["solve-qubo", qubo, "--oracle"]) == 0
        assert f"oracle_bits={'1' * 21} oracle_energy=-21" in capsys.readouterr().out

    def test_init_noise(self, tmp_path, capsys):
        # zero biases and antiferromagnetic coupling: without momentum noise the
        # oscillators never leave x = 0 and digitize to the symmetric 11
        qubo = write(tmp_path / "q.txt", "2\n0 0 -1\n1 1 -1\n0 1 2\n")
        assert main(["solve-qubo", qubo, "--init-noise", "0"]) == 0
        assert "bits=11 energy=0" in capsys.readouterr().out
        assert main(["solve-qubo", qubo]) == 0
        assert "energy=-1" in capsys.readouterr().out
        assert main(["solve-qubo", qubo, "--init-noise", "-1"]) == 2

    def test_bad_file_is_data_error(self, tmp_path, capsys):
        qubo = write(tmp_path / "q.txt", "2\n0 zzz 1\n")
        assert main(["solve-qubo", qubo]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_outputs_and_occlusion_gap(self, tmp_path, capsys):
        spec = write(tmp_path / "scene.txt", TWO_OBJECT_SPEC)
        prefix = str(tmp_path / "out")
        assert main(["simulate", spec, "-o", prefix]) == 0
        gt = read_mot_file(prefix + ".gt.txt")
        det = read_mot_file(prefix + ".det.txt")
        assert all(r.track_id == -1 for r in det)
        frames = sorted({r.frame for r in gt})
        assert frames[0] == 1 and frames[-1] == 30
        gt_counts = {f: sum(r.frame == f for r in gt) for f in frames}
        det_counts = {f: sum(r.frame == f for r in det) for f in frames}
        assert all(v == 2 for v in gt_counts.values())
        hidden = [f for f in frames if det_counts.get(f, 0) == 1]
        assert hidden  # the crossing suppressed somebody
        assert hidden == list(range(hidden[0], hidden[-1] + 1))
        # visibility flag rides in the confidence column
        for r in gt:
            assert r.confidence in (0.0, 1.0)
            assert (r.confidence == 0.0) == (r.frame in hidden and r.track_id == 1)

    def test_static_object_emits_every_frame(self, tmp_path):
        spec = write(
            tmp_path / "scene.txt",
            "frames 6\njitter 0\nobject 100 100 20 20 0 0\n",
        )
        prefix = str(tmp_path / "o")
        assert main(["simulate", spec, "-o", prefix]) == 0
        det = read_mot_file(prefix + ".det.txt")
        assert len(det) == 6
        assert len({r.box for r in det}) == 1

    def test_thin_object_rejected_at_parse(self, tmp_path, capsys):
        # a side below 0.005 px would be written as 0.00, which track and eval reject
        spec = write(tmp_path / "scene.txt", "frames 3\nobject 100 100 20 0.004 0 0\n")
        prefix = tmp_path / "o"
        assert main(["simulate", spec, "-o", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}:2: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [Path(spec)]

    def test_malformed_line_is_data_error(self, tmp_path, capsys):
        spec = write(tmp_path / "scene.txt", "frames 5\nobject 1 2 3\n")
        assert main(["simulate", spec, "-o", str(tmp_path / "x")]) == 2
        assert ":2:" in capsys.readouterr().err


class TestTrack:
    def test_empty_detections(self, tmp_path):
        det = write(tmp_path / "det.txt", "")
        out = str(tmp_path / "res.txt")
        assert main(["track", det, "-o", out]) == 0
        assert Path(out).read_text() == ""

    def test_single_detection_spawns_id_1(self, tmp_path):
        det = write(tmp_path / "det.txt", "1,-1,10.00,20.00,30.00,40.00,1.000000,-1,-1,-1\n")
        out = str(tmp_path / "res.txt")
        assert main(["track", det, "-o", out]) == 0
        records = read_mot_file(out)
        assert len(records) == 1
        assert records[0].frame == 1 and records[0].track_id == 1

    def test_fills_frame_gaps(self, tmp_path):
        # a gap in frame numbers still ages trackers in between
        lines = [
            "1,-1,10,20,30,40,1,-1,-1,-1",
            "9,-1,400,20,30,40,1,-1,-1,-1",
        ]
        det = write(tmp_path / "det.txt", "\n".join(lines) + "\n")
        out = str(tmp_path / "res.txt")
        assert main(["track", det, "-o", out]) == 0
        records = read_mot_file(out)
        # the frame-1 tracker dies of old age before frame 9, so a new id appears
        assert {r.track_id for r in records if r.frame == 9} == {2}

    def test_output_with_a_thin_tracker_reads_back(self, tmp_path):
        # a tracker 0.004 px wide would print with width 0.00, which no
        # reader accepts, so it is left out; the other tracker is written
        rows = "".join(
            f"{f},-1,10,20,0.004,40,1,-1,-1,-1\n{f},-1,200,20,30,40,1,-1,-1,-1\n" for f in (1, 2)
        )
        det = write(tmp_path / "det.txt", rows)
        out = str(tmp_path / "res.txt")
        for extra in ([], ["--baseline"]):
            assert main(["track", det, "-o", out] + extra) == 0
            assert [(r.frame, r.box.left) for r in read_mot_file(out)] == [(1, 200.0), (2, 200.0)]
            assert main(["track", out, "-o", str(tmp_path / "again.txt")]) == 0
            assert main(["eval", out, det]) == 0

    @pytest.mark.parametrize(
        "sides",
        [
            # the matched area grows so fast that the next prediction's box overflows
            [(3.1622776601683794e153,) * 2, (9.433981132056603e153,) * 2, (10, 10)],
            # the update blends area and aspect into a width that overflows
            [(1.3e154, 1.625e153), (1.3e154, 6.5e153)],
        ],
    )
    def test_tracker_past_the_float_range_is_one_error(self, tmp_path, capsys, sides):
        # every detection is a valid box; the tracker extrapolated from them is not
        rows = "".join(
            f"{f},-1,0,0,{w!r},{h!r},1,-1,-1,-1\n" for f, (w, h) in enumerate(sides, start=1)
        )
        det = write(tmp_path / "det.txt", rows)
        out = tmp_path / "res.txt"
        assert main(["track", det, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_diagnostics_sidecar(self, tmp_path):
        det = write(tmp_path / "det.txt", "1,-1,10,20,30,40,1,-1,-1,-1\n")
        out = str(tmp_path / "res.txt")
        assert main(["track", det, "-o", out]) == 0
        diag = Path(out + ".diag.csv").read_text().splitlines()
        assert diag[0] == "frame,n_trackers,n_detections,energy_large,energy_small,repairs,solve_time_s"
        assert len(diag) == 2 and diag[1].startswith("1,0,1,")

    def test_solve_time_excludes_similarity(self, tmp_path, monkeypatch):
        # the solve_time_s column times the assigner alone, not the IOU and
        # Kalman work around it in the tracking step
        delay = 0.05
        similarity = track.similarity_matrix

        def slow_similarity(trackers, detections):
            time.sleep(delay)
            return similarity(trackers, detections)

        monkeypatch.setattr(track, "similarity_matrix", slow_similarity)
        rows = "".join(f"{f},-1,10,20,30,40,1,-1,-1,-1\n" for f in range(1, 5))
        det = write(tmp_path / "det.txt", rows)
        out = str(tmp_path / "res.txt")
        for extra in ([], ["--baseline"]):
            assert main(["track", det, "-o", out] + extra) == 0
            diag = Path(out + ".diag.csv").read_text().splitlines()[1:]
            assert len(diag) == 4
            times = [float(row.split(",")[-1]) for row in diag]
            assert times[0] == 0.0  # no trackers yet: nothing to assign
            assert all(0.0 < t < delay for t in times[1:])

    def test_unknown_config_key(self, tmp_path, capsys):
        det = write(tmp_path / "det.txt", "1,-1,10,20,30,40,1,-1,-1,-1\n")
        cfg = write(tmp_path / "cfg.txt", "wibble = 3\n")
        assert main(["track", det, "-o", str(tmp_path / "r.txt"), "--config", cfg]) == 2
        assert "valid keys" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        det = write(tmp_path / "det.txt", "nope\n")
        assert main(["track", det, "-o", str(tmp_path / "r.txt")]) == 2
        assert ":1:" in capsys.readouterr().err

    def test_confidence_filter(self, tmp_path):
        det = write(
            tmp_path / "det.txt",
            "1,-1,10,20,30,40,0.20,-1,-1,-1\n1,-1,200,20,30,40,0.90,-1,-1,-1\n",
        )
        out = str(tmp_path / "res.txt")
        assert main(["track", det, "-o", out, "--min-confidence", "0.5"]) == 0
        assert len(read_mot_file(out)) == 1


@pytest.fixture(scope="module")
def five_object_runs(tmp_path_factory):
    """Simulate the five-object crossing and track it with both pipelines."""
    root = tmp_path_factory.mktemp("five")
    spec = SCENARIOS / "five_crossing.txt"
    prefix = str(root / "sim")
    assert main(["simulate", str(spec), "-o", prefix]) == 0
    proposed = str(root / "proposed.txt")
    baseline = str(root / "baseline.txt")
    assert main(["track", prefix + ".det.txt", "-o", proposed]) == 0
    assert main(["track", prefix + ".det.txt", "-o", baseline, "--baseline"]) == 0
    return prefix + ".gt.txt", proposed, baseline


class TestEvalCommand:
    def test_proposed_beats_baseline_on_crossing_scene(self, five_object_runs, capsys):
        gt, proposed, baseline = five_object_runs

        def switches(results):
            assert main(["eval", results, gt]) == 0
            out = capsys.readouterr().out
            return int(out.split("id_switches=")[1].splitlines()[0])

        assert switches(proposed) < switches(baseline)

    def test_end_to_end_scores(self, tmp_path, capsys):
        spec = write(tmp_path / "scene.txt", TWO_OBJECT_SPEC)
        prefix = str(tmp_path / "sim")
        assert main(["simulate", spec, "-o", prefix]) == 0
        out = str(tmp_path / "res.txt")
        assert main(["track", prefix + ".det.txt", "-o", out]) == 0
        capsys.readouterr()
        assert main(["eval", out, prefix + ".gt.txt"]) == 0
        printed = capsys.readouterr().out
        assert "id_switches=0" in printed
        assert "occlusion_survival=1.000000" in printed

    def test_shifted_id_counts_one_switch(self, tmp_path, capsys):
        gt_lines = [f"{f},0,10.00,10.00,20.00,20.00,1.000000,-1,-1,-1" for f in range(1, 5)]
        res_lines = [
            "1,4,10.00,10.00,20.00,20.00,1.000000,-1,-1,-1",
            "2,4,10.00,10.00,20.00,20.00,1.000000,-1,-1,-1",
            "3,6,10.00,10.00,20.00,20.00,1.000000,-1,-1,-1",
            "4,6,10.00,10.00,20.00,20.00,1.000000,-1,-1,-1",
        ]
        gt = write(tmp_path / "gt.txt", "\n".join(gt_lines) + "\n")
        res = write(tmp_path / "res.txt", "\n".join(res_lines) + "\n")
        assert main(["eval", res, gt]) == 0
        assert "id_switches=1" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "flag", ["--iou-min=0", "--iou-min=2", "--iou-min=nan", "--anti-aging=-3"]
    )
    def test_meaningless_flag_is_data_error(self, tmp_path, capsys, flag):
        records = write(tmp_path / "r.txt", "1,0,10.00,10.00,20.00,20.00,1.000000,-1,-1,-1\n")
        assert main(["eval", records, records, flag]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["track"]) == 1  # missing required arguments

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["track", str(tmp_path / "absent.txt"), "-o", str(tmp_path / "o.txt")]) == 2


class TestDeterminism:
    def test_track_twice_byte_identical(self, tmp_path):
        spec_path = write(tmp_path / "scene.txt", TWO_OBJECT_SPEC)
        prefix = str(tmp_path / "sim")
        assert main(["simulate", spec_path, "-o", prefix]) == 0
        out1, out2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
        assert main(["track", prefix + ".det.txt", "-o", out1, "--seed", "5"]) == 0
        assert main(["track", prefix + ".det.txt", "-o", out2, "--seed", "5"]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


# the scipy modules a process holds, as the last line of its stdout
_PRINT_SCIPY = "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))"
_RUN_MAIN = f"""
import json, sys
from flextrack.cli import main
assert main(sys.argv[1:]) == 0
{_PRINT_SCIPY}
"""
_SOLVE_ASSIGNMENT = f"""
import json, sys
import numpy as np
from flextrack.assign import build_assignment_qubo
from flextrack.ising import qubo_to_ising
from flextrack.sb import SbParams, solve_ising
problem = build_assignment_qubo(np.load(sys.argv[1]), 1.0)[0]
assert "scipy.sparse" not in sys.modules
p = qubo_to_ising(problem)
print(json.dumps(solve_ising(p, SbParams(seed=3, restarts=int(sys.argv[2]), n_steps=80)).tolist()))
{_PRINT_SCIPY}
"""


def scipy_modules_after(*args):
    """Run ``args`` in a fresh interpreter; its stdout lines before the last, and
    the scipy modules it had loaded when it ended."""
    proc = fresh_python(*args)
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    return out, json.loads(loaded)


class TestScipyLoadedOnDemand:
    """Only ``track --baseline`` and solves above 362 spins import scipy.

    pytest has imported scipy before any test runs, so a deferred import that
    went missing (a ``NameError`` on ``sparse``) shows only in a new process.
    """

    def test_import_loads_no_scipy(self):
        code = f"import json, sys, flextrack, flextrack.cli\n{_PRINT_SCIPY}"
        assert scipy_modules_after("-c", code)[1] == []

    @pytest.mark.parametrize("baseline", [False, True])
    def test_track_loads_scipy_only_for_baseline(self, five_object_runs, tmp_path, baseline):
        gt, proposed, in_process = five_object_runs
        det = gt.replace(".gt.txt", ".det.txt")
        out = str(tmp_path / "res.txt")
        extra = ["--baseline"] if baseline else []
        _, loaded = scipy_modules_after("-c", _RUN_MAIN, "track", det, "-o", out, *extra)
        assert "scipy.optimize" in loaded if baseline else loaded == []
        assert Path(out).read_bytes() == Path(in_process if baseline else proposed).read_bytes()

    @pytest.mark.parametrize("n", [256, 400])
    def test_dense_solve_qubo_loads_no_scipy(self, tmp_path, capsys, n):
        # 400 variables pass the size test of the CSR rule but not its fill test
        q = np.random.default_rng(n).normal(size=(n, n))
        i, j = np.triu_indices(n)
        lines = [f"{a} {b} {v!r}" for a, b, v in zip(i.tolist(), j.tolist(), q[i, j].tolist())]
        qubo = write(tmp_path / "q.txt", "\n".join([str(n)] + lines) + "\n")
        out, loaded = scipy_modules_after("-c", _RUN_MAIN, "solve-qubo", qubo)
        assert loaded == []
        assert main(["solve-qubo", qubo]) == 0
        assert out == capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_assignment_above_362_spins_solves_on_csr(self, tmp_path, restarts):
        rng = np.random.default_rng(20)
        s = np.where(rng.uniform(size=(20, 20)) < 0.1, rng.uniform(0.05, 0.95, (20, 20)), 0.0)
        path = str(tmp_path / "s.npy")
        np.save(path, s)
        (spins,), loaded = scipy_modules_after("-c", _SOLVE_ASSIGNMENT, path, str(restarts))
        # the conversion imported scipy.sparse: the 400-spin coupling went to CSR
        assert "scipy.sparse" in loaded
        p = qubo_to_ising(build_assignment_qubo(s, 1.0)[0])
        want = solve_ising(p, SbParams(seed=3, restarts=restarts, n_steps=80))
        assert json.loads(spins) == want.tolist()
