"""CLI fuzzing: configs drawn from docs/config-schema.json, then mutated.

Whatever the config, a run exits 0, 1 or 2, prints no traceback, on exit
0 or 1 prints a report that parses as strict JSON (no NaN or Infinity),
and on exit 2 prints only a refusal (``error: ...``), never the
``internal error`` line of an unexpected exception.  Each subcommand draws the fields its ``x-commands`` tags list,
with values from the field's schema (enums, bounds, array and object
shapes, with ``$ref`` followed), and small grids and step counts so an
example stays cheap; the mutations then delete and replace values at any
depth and set fields, known or not, to wrong types and edge numbers.  The examples are derandomized, so the suite sees the same ones
on every run; raise ``max_examples`` locally to search further.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cartanflat.cli import main
from cartanflat.metricspace import ExprArray
from cartanflat.presets import KINK_TEXT, PRESET_NAMES

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "config-schema.json").read_text(encoding="utf-8")
)
PROPERTIES = SCHEMA["properties"]
COMMANDS = sorted({c for spec in PROPERTIES.values() for c in spec["x-commands"]} | {"presets"})

#: The schema's free strings: preset names and sine-Gordon fields, good and bad.
_STRINGS = {
    "preset": [*PRESET_NAMES, "nope"],
    "u": [
        KINK_TEXT, f"{KINK_TEXT} + 0.01 * sin(x1)", "x1", "x1*x2", "0", "log(x1)", "1/x2",
        "sqrt(x1 - 1)", "exp(exp(exp(9)))", "1e400", "", "(", "sin(", "x1 +", "q",
    ],
}
#: Diagonal metric entries: mostly positive on the box, a few not.
_DIAGONAL = [
    "1", "2", "x^2 + 1", "1 + 0.1*sin(x)*cos(y)", "exp(x)", "y", "log(x)", "x", "1/x", "(", "1e300*x",
]
#: A diagonal entry whose sectional curvatures reach about 1e296 in size,
#: both signs, on the box.
_STEEP = "1 + 1e-3*sin(1e150*x)"
#: A diagonal entry that turns indefinite for x near 0.6: between the
#: construction check's 4 points per axis, on finer grids.
_DIP = "1.2 - 2*exp(-30*(x-0.6)^2)"
#: Expected curvatures at the edge of the float range: |K - expected|
#: overflows where K is as large as a steep metric's and of the other sign.
_FAR = [1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308]
#: Values a mutation puts anywhere: edge numbers (huge integers, non-finite
#: floats), drawn half the time, and wrong types.
_EDGE_NUMBERS = [10**400, 2**64, -1, 0, -0.0, 1e-300, 1e308, math.nan, math.inf, -math.inf]
_WRONG_TYPES = [
    None, True, "", "x", [], {}, [1.0], [[0.0, 1.0]], {"kind": "line"},
    [{"start": [1.0], "end": [2.0]}],
]


def _resolve(spec: dict) -> dict:
    ref = spec.get("$ref")
    return SCHEMA["definitions"][ref.rsplit("/", 1)[1]] if ref else spec


def _values(spec: dict, name: str) -> st.SearchStrategy:
    """Values the schema allows for a field (``name`` picks its strings)."""
    spec = _resolve(spec)
    if "enum" in spec:
        return st.sampled_from(spec["enum"])
    kind = spec["type"]
    if kind == "string":
        return st.sampled_from(_STRINGS[name])
    if kind == "integer":
        low = spec.get("minimum", 0)
        return st.integers(low, low + 3)  # small grids, steps and trials
    if kind == "number":
        if "exclusiveMinimum" in spec:
            return st.floats(1e-12, 3.0)
        edges = [0.0, -0.0, 1e-300, *(_FAR if name == "expected" else ())]
        return st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from(edges)
    if spec is SCHEMA["definitions"]["point"]:
        # two or three coordinates inside most preset charts
        return st.lists(st.floats(0.2, 2.5), min_size=2, max_size=3)
    if kind == "array":
        return st.lists(
            _values(spec["items"], name),
            min_size=spec.get("minItems", 0),
            max_size=spec.get("maxItems", 3),
        )
    # an object: every property (a curve's job reads those of its kind)
    return st.fixed_dictionaries({key: _values(value, key) for key, value in spec["properties"].items()})


def _metric(diagonals: list[str] = _DIAGONAL) -> st.SearchStrategy:
    """An inline metric of the schema's shape whose names, box and entries
    agree in size and whose entries are symmetric, so that mutations and a
    few bad diagonal entries, not chance, decide whether it holds."""

    def build(n: int) -> st.SearchStrategy:
        upper = st.lists(st.sampled_from(["0", "0", "0.1*x*y", "1"]), min_size=n * n, max_size=n * n)
        diagonal = st.lists(st.sampled_from(diagonals), min_size=n, max_size=n)

        def entries(parts):
            off, diag = parts
            return [
                [diag[i] if i == j else off[min(i, j) * n + max(i, j)] for j in range(n)]
                for i in range(n)
            ]

        return st.fixed_dictionaries({
            "names": st.just(["x", "y", "z"][:n]),
            "box": st.just([[-1.0, 1.0], [0.5, 2.0], [1.0, 3.0]][:n]),
            "entries": st.tuples(upper, diagonal).map(entries),
        })

    return st.integers(1, 3).flatmap(build)


#: Fields the schema leaves optional but without which the job cannot run.
_NEEDED = {"curve", "path"}


def _config(command: str, diagonals: list[str] | None = None) -> st.SearchStrategy:
    """The command's fields: those it requires, one metric source (a preset
    or an inline metric, its diagonal entries drawn from ``diagonals``) when
    it takes one, and any of the rest."""
    fields = {key: spec for key, spec in PROPERTIES.items() if command in spec["x-commands"]}
    source = st.just({})
    if diagonals is None:
        # curvature configs also draw steep metrics, whose curvatures take a
        # residual against a far expected value past the float range
        diagonals = [*_DIAGONAL, _STEEP] if command == "curvature" else _DIAGONAL
    if "preset" in fields:
        del fields["preset"], fields["metric"]
        source = st.one_of(
            st.fixed_dictionaries({"preset": _values(PROPERTIES["preset"], "preset")}),
            st.fixed_dictionaries({"metric": _metric(diagonals)}),
        )
    required = {
        key for key, spec in fields.items() if command in spec.get("x-required", ()) or key in _NEEDED
    }
    base = st.fixed_dictionaries(
        {key: _values(fields[key], key) for key in required},
        optional={key: _values(spec, key) for key, spec in fields.items() if key not in required},
    )
    return st.tuples(source, base).map(lambda parts: {**parts[0], **parts[1]})


def _slots(value, slots: list):
    """Every (container, key) pair inside a config, the top level included."""
    keys = value.keys() if isinstance(value, dict) else range(len(value))
    for key in keys:
        slots.append((value, key))
        if isinstance(value[key], (dict, list)):
            _slots(value[key], slots)
    return slots


def _mutate(data, command: str, config: dict) -> dict:
    """The config after a few deletions, replacements and settings of any
    field the command takes (or an unknown one), made on a copy, as drawn
    values may be shared."""
    config = copy.deepcopy(config)
    junk = st.one_of(st.sampled_from(_EDGE_NUMBERS), st.sampled_from(_WRONG_TYPES).map(copy.deepcopy))
    keys = sorted(key for key, spec in PROPERTIES.items() if command in spec["x-commands"])
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 1, 2, 3]), label="mutations")):
        slots = _slots(config, [])
        action = data.draw(st.sampled_from(["replace", "delete", "set"]), label="action")
        if action == "set" or not slots:
            config[data.draw(st.sampled_from([*keys, "extra"]), label="key")] = data.draw(junk)
            continue
        container, key = data.draw(st.sampled_from(slots), label="slot")
        if action == "delete":
            del container[key]
        else:
            container[key] = data.draw(junk, label="junk")
    return config


def _refuse_constant(name: str):
    raise ValueError(f"report holds {name}")


_FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _outcome(tmp_path_factory, command: str, config) -> tuple[int, str, str]:
    """The exit code, standard output and standard error of a run."""
    path = tmp_path_factory.mktemp("fuzz") / "job.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def _check_run(tmp_path_factory, command: str, config) -> None:
    code, out, err = _outcome(tmp_path_factory, command, config)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code in (0, 1):
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["command"] == command
    else:
        # a refusal names what it refused; "internal error: ..." is a fault
        assert out == "" and err.startswith("error: "), err


@_FUZZ
@given(st.data())
def test_any_config_exits_0_1_or_2_with_strict_json(tmp_path_factory, data):
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    config = _mutate(data, command, data.draw(_config(command), label="config"))
    _check_run(tmp_path_factory, command, config)


@settings(_FUZZ, max_examples=40)
@given(st.data())
def test_curvature_of_a_steep_metric_against_a_far_value_exits_with_strict_json(
    tmp_path_factory, data
):
    # every example puts a residual near or past the float range
    metric = data.draw(_metric([_STEEP]).filter(lambda m: len(m["names"]) > 1), label="metric")
    config = {"metric": metric, "grid": data.draw(st.integers(2, 4), label="grid")}
    config["expected"] = data.draw(st.sampled_from(_FAR), label="expected")
    _check_run(tmp_path_factory, "curvature", config)


def _untimed(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "wall_time_s" not in line)


@settings(_FUZZ, max_examples=100)
@given(st.data())
def test_metric_scans_report_as_their_full_scans(tmp_path_factory, data):
    # constant and 0.1*x*y entries, and the presets' charts, leave axes
    # unread, so flatness and curvature scan a sub-grid; each run must
    # match the run that evaluates every grid point
    command = data.draw(st.sampled_from(["flatness", "curvature"]), label="command")
    config = data.draw(
        _config(command, [_DIP, _STEEP, *_DIAGONAL]).filter(
            lambda c: "metric" not in c or len(c["metric"]["names"]) > 1
        ),
        label="config",
    )
    # 23 and 9 split 2-d and 3-d grids into a full chunk and a part
    config["grid"] = data.draw(st.sampled_from([9, 23, 5, 3, 2]), label="grid")
    if command == "curvature":
        config["expected"] = data.draw(st.sampled_from([*_FAR, -1.0]), label="expected")
    code, out, err = _outcome(tmp_path_factory, command, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExprArray, "read_axes", property(lambda self: tuple(range(self.chart.dim))))
        full = _outcome(tmp_path_factory, command, config)
    assert (code, _untimed(out), err) == (full[0], _untimed(full[1]), full[2])
