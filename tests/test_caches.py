"""What the package derives from a metric lives in the metric: no module-level
cache keeps a metric, a seeded section, a frame or a representation alive."""

import ast
import gc
import weakref
from pathlib import Path

from cartanflat import bundle
from cartanflat.bundle import identity_residual, metric_compatibility_residual, random_section
from cartanflat.cartan import orthonormal_frame
from cartanflat.presets import KINK_TEXT, preset_metric
from cartanflat.sasaki import _curvature_of, flatness_scan
from cartanflat.transport import develop_cloud
from cartanflat.zcr import equivalence_scan, representation

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cartanflat"
_CACHE_DECORATORS = {"lru_cache", "cache"}
_SEED = 7919  # drawn by no other test, so no shared cache could already hold these sections


def _used_objects():
    """Build a metric, run each entry point that derives and keeps something
    from it, and return weak references to what was kept."""
    metric = preset_metric("half_plane")
    point = (0.1, 1.0)
    identity_residual("h", metric, point, trials=1, seed=_SEED)
    metric_compatibility_residual("s", metric, point, trials=1, seed=_SEED)
    flatness_scan(metric, "h", resolution=3)
    develop_cloud("h", metric, (0.0, 1.0), [(0.5, 2.0)], steps_per_unit=4)
    equivalence_scan(KINK_TEXT, resolution=3)
    return {
        "metric": weakref.ref(metric),
        "frame": weakref.ref(orthonormal_frame(metric)),
        "curvature h": weakref.ref(_curvature_of(metric, "h")),
        "rep": weakref.ref(representation(KINK_TEXT)),
    }


def test_nothing_outlives_its_metric(monkeypatch):
    sections = []

    def recording_random_section(chart, rng):
        section = random_section(chart, rng)
        sections.append(weakref.ref(section))
        return section

    monkeypatch.setattr(bundle, "random_section", recording_random_section)
    probes = _used_objects()
    assert len(sections) == 1 + 2  # one identity trial, one compatibility pair
    probes.update((f"seeded section {k}", probe) for k, probe in enumerate(sections))
    gc.collect()
    alive = sorted(name for name, probe in probes.items() if probe() is not None)
    assert alive == []


def _decorator_name(decorator: ast.expr) -> str | None:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else None


def test_the_package_has_no_module_level_cache():
    # an lru_cache or functools.cache on a module-level function keys on its
    # arguments and keeps them, metrics included, for the life of the process
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.extend(
                    f"{path.name}:{node.lineno} {node.name}"
                    for decorator in node.decorator_list
                    if _decorator_name(decorator) in _CACHE_DECORATORS
                )
    assert found == []
