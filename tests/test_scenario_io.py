"""Scenario files: the bundled suites round-trip, and bad input names its field."""

import copy
import hashlib
import json

import pytest

from radialpadic import harness, scenarios
from radialpadic.scenario_io import SchemaError, build_scenario, load_scenario_file, load_scenario_text


def load_and_build(row):
    (model,) = load_scenario_text(json.dumps(row))
    return build_scenario(model)


def test_bundled_suites_round_trip(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("building a scenario must not verify it")

    monkeypatch.setattr(harness, "verify_bound", refuse)
    count = 0
    for name in scenarios.SUITE_NAMES:
        for row in scenarios.suite_rows(name, scenarios.SUITE_SEED):
            built = load_and_build(row)
            assert (built.scenario_id, built.kind) == (row["id"], row["kind"])
            count += 1
    assert count == 115


@pytest.mark.parametrize("seed", [scenarios.CALIBRATION_SEED, scenarios.SUITE_SEED])
def test_commutator_bound_rows_build_and_validate(seed):
    rows = scenarios.commutator_bound_rows(seed, 40)
    assert len(rows) == 40
    for row in rows:
        built = load_and_build(row)
        assert (built.scenario_id, built.kind) == (row["id"], "bound")
        harness.validate_scenario(built.constant, built.scenario, window=built.window)


def first_row(suite):
    return copy.deepcopy(scenarios.suite_rows(suite, scenarios.SUITE_SEED)[0])


def with_boolean_ell(row):
    row["ell"] = True
    return row


def with_prime_four(row):
    row["prime"] = 4
    return row


def with_empty_term_range(row):
    row["inputs"][0]["terms"][0][3:5] = [3, 1]
    return row


def with_undecided_prime(row):
    row["prime"] = 2 ** 89 - 1  # prime, above the bound of is_prime
    return row


def with_negative_logpow(row):
    row["inputs"][0]["terms"][0][2] = -1
    return row


@pytest.mark.parametrize("suite, spoil, field", [
    ("prop-power-weights", with_boolean_ell, "'ell'"),
    ("prop-power-weights", with_prime_four, "'prime'"),
    ("prop-power-weights", with_undecided_prime, "'prime': primality"),
    ("c2-lebesgue", with_empty_term_range, "'terms'"),
    ("c2-lebesgue", with_negative_logpow, "'terms'"),
])
def test_schema_error_names_the_field(suite, spoil, field):
    row = spoil(first_row(suite))
    with pytest.raises(SchemaError, match=f"field {field}"):
        load_and_build(row)


def test_scenario_file_loads_like_its_text(tmp_path):
    rows = scenarios.suite_rows("c2-lebesgue", scenarios.SUITE_SEED)
    path = tmp_path / "c2-lebesgue.json"
    path.write_text(json.dumps(rows))
    models = load_scenario_file(path)
    assert [m.id for m in models] == [row["id"] for row in rows]
    assert models == load_scenario_text(json.dumps(rows))


def test_scenario_file_errors_name_the_path(tmp_path):
    with pytest.raises(SchemaError, match="cannot read .*missing.json"):
        load_scenario_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(SchemaError, match="bad.json: not valid JSON"):
        load_scenario_file(bad)


def test_generated_rows_are_pinned_beyond_the_first_pass():
    # every benchmark pass draws the suites at SUITE_SEED + k, and the
    # envelope calibration reads the bound rows at CALIBRATION_SEED, so the
    # draw order of every generator is part of its contract
    batches = [scenarios.suite_rows(name, scenarios.SUITE_SEED + k)
               for k in range(50) for name in scenarios.SUITE_NAMES]
    batches += [scenarios.commutator_bound_rows(seed, 40)
                for seed in (scenarios.CALIBRATION_SEED, scenarios.SUITE_SEED)]
    batches += [scenarios.bound_rows(cid, scenarios.CALIBRATION_SEED, 40)
                for cid in ("C2", "C4", "C5", "C6", "C7", "C10")]
    rows = [row for batch in batches for row in batch]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "c3c934f46966e585ed6898bd231478315d6a9a0318d4d177544853c55be88791"
