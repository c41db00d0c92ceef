"""The ten bundled suites, pinned bit for bit against a golden file.

Every row of ``scenarios.suite_rows(name, SUITE_SEED)`` goes through
``load_scenario_text`` and ``build_scenario`` and then the call its kind
names: ``verify_bound``, ``ratio_study``, ``maximal_composite_check``, or
``ap_constant`` / ``rh_constant`` for ``weights`` rows (the two-window
stability probe of the Muckenhoupt gate).  The golden file records, per row,
the verdict, the type and ``repr`` of every value, and each value's
``divergent`` and ``truncated`` flags.  Verdicts are recorded as computed:
c4-04 is ``holds=False``.

A change to any recorded value must show in the diff of the golden file.
Regenerate it with ``PYTHONPATH=src python tests/test_suites_golden.py``;
``--diff`` instead prints each row and field that would change, one line
each, and writes nothing.
"""

import copy
import json
import sys
from pathlib import Path

from radialpadic import harness, scenarios, weights
from radialpadic.numeric import ExtendedValue
from radialpadic.scenario_io import build_scenario, load_scenario_text

GOLDEN = Path(__file__).with_name("golden_suites.json")


def _value(v):
    if isinstance(v, ExtendedValue):
        return [type(v.value).__name__, repr(v.value), v.divergent, v.truncated]
    return [type(v).__name__, repr(v)]


def _checks(rec):
    return {k: repr(v) for k, v in sorted(rec.items())}


def run_row(row):
    """One bundled row through the public API, as a JSON-ready record."""
    (model,) = load_scenario_text(json.dumps(row))
    b = build_scenario(model)
    if b.kind in ("bound", "composite"):
        if b.kind == "bound":
            rep = harness.verify_bound(b.constant, b.scenario, b.scenario.inputs, window=b.window)
        else:
            rep = harness.maximal_composite_check(b.scenario, window=b.window)
        values = [rep.constant, rep.lhs, rep.rhs, rep.slack, rep.envelope]
        return {"verdict": rep.holds, "values": [_value(v) for v in values],
                "checks": _checks(rep.checks)}
    if b.kind == "ratio":
        rep = harness.ratio_study(b.constant, b.scenario, b.rs, tol=b.tol, window=b.window)
        values = [rep.target, *rep.ratios]
        return {"verdict": rep.converged, "values": [_value(v) for v in values], "note": rep.note}
    half = weights.ap_constant(b.weight, b.ell, window=max(12, b.window // 2))
    full = weights.ap_constant(b.weight, b.ell, window=b.window)
    values = [half, full]
    if b.rh is not None:
        values.append(weights.rh_constant(b.weight, b.rh, window=b.window))
    stable = (half.is_finite and full.is_finite and not full.truncated
              and float(full.value) <= 2.0 * float(half.value))
    return {"verdict": stable, "values": [_value(v) for v in values]}


def all_rows():
    out = {}
    for name in scenarios.SUITE_NAMES:
        for row in scenarios.suite_rows(name, scenarios.SUITE_SEED):
            out[f"{name}/{row['id']}"] = {"kind": row["kind"], **run_row(row)}
    return out


def test_bundled_suites_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(all_rows()))
    assert len(got) == 115
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"rows differing from {GOLDEN.name}: {changed}"


def test_golden_records_c4_04_as_computed():
    golden = json.loads(GOLDEN.read_text())
    failing = [k for k, v in golden.items() if v["kind"] != "weights" and v["verdict"] is False]
    assert failing == ["c4-morrey/c4-04"]


def test_golden_diff_names_each_changed_field():
    golden = json.loads(GOLDEN.read_text())
    got = copy.deepcopy(golden)
    row = got["c4-morrey/c4-04"]
    row["values"][1][1] = "1.0"
    del row["checks"]["delta"]
    assert golden_diff(golden, golden) == []
    assert golden_diff(golden, got) == [
        'c4-morrey/c4-04 checks.delta: "Fraction(3, 2)" -> "<absent>"',
        'c4-morrey/c4-04 values[1]: ["float", "21059.226589955895", false, false] -> ["float", "1.0", false, false]',
    ]


def _fields(record, path=""):
    """(path, value) of each recorded field of a row: nested dicts down to
    their leaves, and each item of ``values`` on its own."""
    if isinstance(record, dict):
        for k, v in record.items():
            yield from _fields(v, f"{path}.{k}" if path else k)
    elif path == "values":
        for i, v in enumerate(record):
            yield f"values[{i}]", v
    else:
        yield path, record


def golden_diff(golden, got):
    """One line 'row field: old -> new' per field that differs; a field one
    side lacks reads <absent> there."""
    lines = []
    for key in sorted(golden.keys() | got.keys()):
        old, new = dict(_fields(golden.get(key, {}))), dict(_fields(got.get(key, {})))
        for field in sorted(old.keys() | new.keys()):
            a, b = old.get(field, "<absent>"), new.get(field, "<absent>")
            if a != b:
                lines.append(f"{key} {field}: {json.dumps(a)} -> {json.dumps(b)}")
    return lines


if __name__ == "__main__":
    rows = json.loads(json.dumps(all_rows()))
    if sys.argv[1:] == ["--diff"]:
        print("\n".join(golden_diff(json.loads(GOLDEN.read_text()), rows)) or "no change")
    else:
        GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
