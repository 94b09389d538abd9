"""CLI reports pinned byte for byte: each job's stdout (its ``wall_time_s``
value masked), stderr and exit code equal the files in tests/golden/.

A change that should not alter any report (a faster evaluation route, a
refactor) must leave these tests passing unchanged.  To record the reports
of a deliberate change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/golden/ like any other.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from cartanflat.cli import main

_WALL_TIME = re.compile(r'("wall_time_s": )[-+.0-9eE]+')

GOLDEN = Path(__file__).resolve().parent / "golden"

_CIRCLE = {
    "preset": "half_plane",
    "connection": "h",
    "steps_per_unit": 64,
    "curve": {"kind": "circle", "center": [0.0, 2.0], "radius": 1.0},
}
_TWO_SEGMENTS = {
    "preset": "sphere3",
    "variant": "s",
    "steps_per_unit": 16,
    "path": [
        {"start": [1.0, 1.0, 1.0], "end": [1.5, 2.0, 2.0]},
        {"start": [1.5, 2.0, 2.0], "end": [2.0, 1.5, 3.0]},
    ],
}
# passes the 4 x 4 construction sample; g_yy dips below zero near (0.6, 0.6)
_DIPPING = {
    "metric": {
        "names": ["x", "y"],
        "box": [[-1, 1], [-1, 1]],
        "entries": [["1", "0"], ["0", "1.2 - 2*exp(-100*((x-0.6)^2 + (y-0.6)^2))"]],
    },
    "grid": 21,
}

#: name -> (argv, config written to a file and passed with --config, or None)
JOBS = {
    "flatness_sphere3_s": (["flatness", "--preset", "sphere3", "--variant", "s", "--grid", "6"], None),
    "flatness_sphere3_h": (["flatness", "--preset", "sphere3", "--variant", "h", "--grid", "6"], None),
    "flatness_half_plane_h": (
        ["flatness", "--preset", "half_plane", "--variant", "h", "--grid", "6"], None,
    ),
    "curvature_hyperbolic3": (["curvature", "--preset", "hyperbolic3", "--grid", "6"], None),
    "compat_sphere3_s": (["compat", "--preset", "sphere3", "--variant", "s"], None),
    "compat_hyperbolic3_h": (["compat", "--preset", "hyperbolic3", "--variant", "h"], None),
    "identity_hyperbolic3_h": (
        ["identity", "--preset", "hyperbolic3", "--variant", "h", "--grid", "2"], None,
    ),
    "compat_dipping_h": (["compat", "--variant", "h"], _DIPPING),
    "identity_dipping_h": (["identity", "--variant", "h"], _DIPPING),
    "zcr_kink": (["zcr"], None),
    "transport_half_plane_circle": (["transport"], _CIRCLE),
    # h = 1/100 is not a power of two: the one golden that sees the node grid
    "transport_half_plane_circle_100": (["transport"], {**_CIRCLE, "steps_per_unit": 100}),
    "develop_sphere3_two_segments": (["develop"], _TWO_SEGMENTS),
}


def run_job(name: str) -> dict:
    """The job's exit code, stdout with ``wall_time_s`` masked, and stderr."""
    argv, config = JOBS[name]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "job.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    stdout = _WALL_TIME.sub(r'\1"masked"', out.getvalue())
    return {"exit_code": code, "stdout": stdout, "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_report_equals_its_golden_file(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run_job(name) == golden


def test_every_golden_file_has_a_job():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(JOBS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for job in sorted(JOBS):
        text = json.dumps(run_job(job), indent=2, sort_keys=True) + "\n"
        (GOLDEN / f"{job}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / job}.json", file=sys.stderr)
