"""Scenario files: the bundled suites round-trip, and bad input names its field."""

import copy
import json

import pytest

from radialpadic import harness, scenarios
from radialpadic.scenario_io import SchemaError, build_scenario, load_scenario_text


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


@pytest.mark.parametrize("suite, spoil, field", [
    ("prop-power-weights", with_boolean_ell, "'ell'"),
    ("prop-power-weights", with_prime_four, "'prime'"),
    ("c2-lebesgue", with_empty_term_range, "'terms'"),
])
def test_schema_error_names_the_field(suite, spoil, field):
    row = spoil(first_row(suite))
    with pytest.raises(SchemaError, match=f"field {field}"):
        load_and_build(row)
