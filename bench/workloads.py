"""The benchmark's workloads: seeded inputs, jobs and their known answers.

A job is one verdict a user would wait for.  ``call`` is the only part a
worker times; ``verdict`` then looks at what the call returned and says why
it differs from the known answer from the paper's claims (``None`` when it
agrees).  Each job also has a minimum-size twin (grid 2, one trial,
``steps_per_unit`` 1) whose cold time is the fixed cost that ``setup_s``
sums.  Minimum-size twins are checked only for running cleanly, since their
coarse grids and single RK4 steps are not claims.

All inputs derive from the run seed, and every pass of a run uses the same
inputs, so a pass repeats the same work and its counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cartanflat import cli, sasaki
from cartanflat.presets import KINK_TEXT, get_preset, random_metric
from cartanflat.transport import circle_curve, develop_cloud, holonomy

WORKLOADS = ("scan", "develop", "build")

#: Per workload, the job also timed twice in one worker for the isolation
#: check; each leans on a module-level cache in the package, if any does.
PROBES = {"scan": "compat_sphere3_s", "develop": "develop_sphere3_s", "build": "identity_hyperbolic3_h"}

_PERTURBED_KINK = f"{KINK_TEXT} + 0.01 * sin(x1)"
_CLOUD_TARGETS = 16
_PAIRING_TOL = 1e-8


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], object]
    verdict: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        return code, out.getvalue()

    return call


def _expect_cli(exit_code: int, **checks: Callable[[dict], bool]) -> Callable[[object], str | None]:
    """Known answer for a CLI job: the exit code, then named report checks."""

    def verdict(raw) -> str | None:
        code, text = raw
        if code != exit_code:
            return f"exit code {code}, expected {exit_code}"
        report = json.loads(text)
        for label, holds in checks.items():
            if not holds(report):
                return f"report fails {label}"
        return None

    return verdict


def _runs_cleanly(raw) -> str | None:
    if isinstance(raw, tuple) and isinstance(raw[0], int) and raw[0] not in (0, 1):
        return f"exit code {raw[0]}"
    return None


# ---------------------------------------------------------------------------
# develop: closed-form chart distances for the developed clouds
# ---------------------------------------------------------------------------


def _hyperbolic_pairings(points: np.ndarray) -> np.ndarray:
    """-<Phi(p), Phi(q)> = 1 + |p - q|^2 / (2 p3 q3) in the half-space model."""
    diff = points[:, None, :] - points[None, :, :]
    height = points[:, 2]
    return 1.0 + np.sum(diff**2, axis=-1) / (2.0 * np.outer(height, height))


def _sphere_pairings(points: np.ndarray) -> np.ndarray:
    """<Phi(p), Phi(q)> = cos p1 cos q1 + sin p1 sin q1 cos(p2 - q2)."""
    theta, phi = points[:, 0], points[:, 1]
    return np.outer(np.cos(theta), np.cos(theta)) + np.outer(
        np.sin(theta), np.sin(theta)
    ) * np.cos(phi[:, None] - phi[None, :])


def _expect_cloud(variant: str, base, targets) -> Callable[[object], str | None]:
    """Every ambient pairing among base and targets matches its chart distance."""
    chart_points = np.array([base, *targets], dtype=float)
    if variant == "h":
        expected = _hyperbolic_pairings(chart_points)
        sign = np.array([1.0] * (chart_points.shape[1]) + [-1.0])
        scale = -1.0
    else:
        expected = _sphere_pairings(chart_points)
        sign = np.ones(chart_points.shape[1] + 1)
        scale = 1.0

    def verdict(rows) -> str | None:
        start = np.zeros(len(sign))
        start[-1] = 1.0
        ambient = np.vstack([start, np.asarray(rows, dtype=float)])
        measured = scale * (ambient * sign) @ ambient.T
        gap = float(np.max(np.abs(measured - expected) / np.maximum(1.0, np.abs(expected))))
        return None if gap <= _PAIRING_TOL else f"pairing off its chart distance by {gap:.3e}"

    return verdict


def _expect_trivial_holonomy(matrix) -> str | None:
    gap = float(np.max(np.abs(np.asarray(matrix) - np.eye(len(matrix)))))
    return None if gap <= 1e-6 else f"holonomy differs from the identity by {gap:.3e}"


# ---------------------------------------------------------------------------
# build: random metrics
# ---------------------------------------------------------------------------


def _random_flatness(seed: int, grid: int):
    # looked up at call time, so that the traced run's wrapper sees the call
    return lambda: sasaki.flatness_scan(random_metric(3, seed), "h", resolution=grid)


def _expect_not_flat(report) -> str | None:
    # curvature near 0, far from -1: the "h" connection is not flat
    return None if report.max_residual > 0.5 else f"residual {report.max_residual:.3e} reads flat"


def _random_curvature(seed: int, grid: int):
    """The CLI `curvature` job's scan, for a metric that has no preset."""

    def call():
        metric = random_metric(3, seed)
        planes = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        return [
            metric.sectional_curvature(point, plane)
            for point in metric.chart.grid(grid)
            for plane in planes
        ]

    return call


def _expect_small_curvature(values) -> str | None:
    worst = max(abs(v) for v in values)
    if not all(math.isfinite(v) for v in values) or worst > 0.5:
        return f"sectional curvature {worst:.3e} is not that of a near-flat metric"
    return None


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _scan(seed: int, small: bool, workdir: Path) -> list[Job]:
    compat_seed = _seed_int(_rng(seed, "scan"))

    def grid(full: int) -> list[str]:
        return ["--grid", str(2 if small else full)]

    return [
        Job(
            "flatness_sphere3_s",
            _cli_call(["flatness", "--preset", "sphere3", "--variant", "s", *grid(20)]),
            _expect_cli(0, points=lambda r: r["points"] == 8000),
        ),
        Job(
            "flatness_sphere3_h",
            _cli_call(["flatness", "--preset", "sphere3", "--variant", "h", *grid(20)]),
            _expect_cli(1, residual_near_2=lambda r: abs(r["max_residual"] - 2.0) < 1e-6),
        ),
        Job(
            "flatness_half_plane_h",
            _cli_call(["flatness", "--preset", "half_plane", "--variant", "h", *grid(60)]),
            _expect_cli(0),
        ),
        Job(
            "curvature_hyperbolic3",
            _cli_call(["curvature", "--preset", "hyperbolic3", *grid(16)]),
            _expect_cli(0, constant_minus_1=lambda r: abs(r["max_curvature"] + 1.0) < 1e-6),
        ),
        Job(
            "compat_sphere3_s",
            _cli_call(
                ["compat", "--preset", "sphere3", "--variant", "s", "--seed", str(compat_seed)]
                + grid(6)
                + (["--trials", "1"] if small else [])
            ),
            _expect_cli(0),
        ),
        Job("zcr_kink", _cli_call(["zcr", *grid(61)]), _expect_cli(0)),
        Job(
            "zcr_perturbed_kink",
            _cli_call(["zcr", "--u", _PERTURBED_KINK, *grid(61)]),
            _expect_cli(1, correlation_near_1=lambda r: r["correlation"] > 0.999),
        ),
    ]


def _develop(seed: int, small: bool, workdir: Path) -> list[Job]:
    rng = _rng(seed, "develop")
    steps = 1 if small else 256
    count = 1 if small else _CLOUD_TARGETS
    h_base = (0.0, 0.0, 1.0)
    h_targets = [
        (float(x), float(y), float(z))
        for x, y, z in zip(
            rng.uniform(-1.0, 1.0, count), rng.uniform(-1.0, 1.0, count), rng.uniform(0.5, 2.0, count)
        )
    ]
    s_base = (0.5 * math.pi, math.pi)
    s_targets = [
        (float(a), float(b))
        for a, b in zip(rng.uniform(0.6, 2.5, count), rng.uniform(math.pi - 1.2, math.pi + 1.2, count))
    ]
    corners = rng.uniform(0.6, 2.5, size=(4, 3))
    corners[:, 2] = rng.uniform(1.0, 5.0, 4)
    config = {
        "preset": "sphere3",
        "variant": "s",
        "steps_per_unit": steps,
        "path": [
            {"start": [float(v) for v in a], "end": [float(v) for v in b]}
            for a, b in zip(corners, corners[1:])
        ],
    }
    config_path = workdir / f"develop_sphere3_{'small' if small else 'full'}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    def cloud(variant, preset, base, targets):
        return lambda: develop_cloud(
            variant, get_preset(preset).metric(), base, targets, steps_per_unit=steps
        )

    def loop():
        metric = get_preset("half_plane").metric()
        return holonomy("h", metric, circle_curve(metric.chart, (0.0, 2.0), 1.0, steps))

    return [
        Job(
            "cloud_hyperbolic3_h",
            cloud("h", "hyperbolic3", h_base, h_targets),
            _expect_cloud("h", h_base, h_targets),
        ),
        Job(
            "cloud_sphere2_s",
            cloud("s", "sphere2", s_base, s_targets),
            _expect_cloud("s", s_base, s_targets),
        ),
        Job("holonomy_half_plane_h", loop, _expect_trivial_holonomy),
        Job(
            "develop_sphere3_s",
            _cli_call(["develop", "--config", str(config_path)]),
            _expect_cli(0, nodes=lambda r: r["nodes"] == 3 * 256 + 1),
        ),
    ]


def _build(seed: int, small: bool, workdir: Path) -> list[Job]:
    rng = _rng(seed, "build")
    first, second, identity_seed = (_seed_int(rng) for _ in range(3))
    return [
        Job("flatness_random3_a", _random_flatness(first, 2), _expect_not_flat),
        Job("flatness_random3_b", _random_flatness(second, 2), _expect_not_flat),
        Job("curvature_random3_a", _random_curvature(first, 2), _expect_small_curvature),
        Job(
            "identity_hyperbolic3_h",
            _cli_call(
                ["identity", "--preset", "hyperbolic3", "--variant", "h", "--grid", "2"]
                + ["--seed", str(identity_seed)]
                + (["--trials", "1"] if small else [])
            ),
            _expect_cli(0),
        ),
    ]


_BUILDERS = {"scan": _scan, "develop": _develop, "build": _build}


def jobs(workload: str, seed: int, workdir: Path, small: bool = False) -> list[Job]:
    """The workload's jobs for this seed; ``small`` gives the minimum-size
    twins, whose verdicts are only checked for a clean run."""
    built = _BUILDERS[workload](seed, small, workdir)
    if small:
        return [Job(job.name, job.call, _runs_cleanly) for job in built]
    return built
