"""The traced benchmark wraps package names; a refactor must keep them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json
import spans
from cartanflat import cli

tracer = spans.Tracer().install()
codes = [
    cli.main(["flatness", "--preset", "half_plane", "--variant", "h", "--grid", "3"]),
    cli.main(["compat", "--preset", "half_plane", "--variant", "h", "--grid", "2", "--trials", "1"]),
    cli.main(["zcr", "--grid", "3"]),
]
print(json.dumps({"codes": codes, "calls": tracer.report("hooks")["calls"]}))
"""


def test_tracer_installs_and_records_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
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
    ):
        assert result["calls"].get(span, 0) > 0, span
