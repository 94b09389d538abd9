"""The traced benchmark wraps package names; a refactor must keep them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json
import sys
import spans
from cartanflat import cli

transport_config, develop_config = sys.argv[1:]
tracer = spans.Tracer().install()
codes = [
    cli.main(["flatness", "--preset", "half_plane", "--variant", "h", "--grid", "3"]),
    cli.main(["compat", "--preset", "half_plane", "--variant", "h", "--grid", "2", "--trials", "1"]),
    cli.main(["curvature", "--preset", "half_plane", "--grid", "2"]),
    cli.main(["identity", "--preset", "half_plane", "--variant", "h", "--grid", "2", "--trials", "1"]),
    cli.main(["zcr", "--grid", "3"]),
    cli.main(["transport", "--config", transport_config]),
    cli.main(["develop", "--config", develop_config]),
]
report = tracer.report("hooks")
print(json.dumps({"codes": codes, "calls": report["calls"], "counts": report["counts"]}))
"""


def test_tracer_installs_and_records_every_layer(tmp_path):
    transport_config = tmp_path / "transport.json"
    transport_config.write_text(json.dumps({
        "preset": "half_plane",
        "connection": "h",
        "curve": {"kind": "circle", "center": [0.0, 2.0], "radius": 1.0},
        "steps_per_unit": 4,
        "tol": 1.0,
    }))
    develop_config = tmp_path / "develop.json"
    develop_config.write_text(json.dumps({
        "preset": "sphere3",
        "variant": "s",
        "path": [{"start": [1.0, 1.0, 2.0], "end": [1.1, 1.0, 2.0]}],
        "steps_per_unit": 4,
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(transport_config), str(develop_config)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7
    # the integrator's third argument carries the step count: 4 steps on
    # the circle and 4 on the develop segment, both over t in [0, 1]
    assert result["counts"]["rk4_steps"] == 4 + 4
    for span in (
        "cli.main",
        "exprlang.compile",
        "exprlang.eval",
        "metricspace.metric_build",
        "cartan.frame_at",
        "sasaki.form_at",
        "sasaki.scan",
        "bundle.covariant_derivative",
        "zcr.rep_build",
        "zcr.scan",
        "transport.integrate",
    ):
        assert result["calls"].get(span, 0) > 0, span
