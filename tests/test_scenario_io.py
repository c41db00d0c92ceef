"""Scenario files: the bundled suites round-trip, and bad input names its field."""

import copy
import hashlib
import json
import math

from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic import harness, scenarios
from radialpadic.families import ConstantMatrix
from radialpadic.padic import PAdicMatrix
from radialpadic.radial import RadialFunction
from radialpadic.scenario_io import (
    ScenarioModel, SchemaError, _MAX_EXPONENT, _parse_exact, build_scenario, fmt_num, load_scenario_file,
    load_scenario_text,
)
from radialpadic.weights import Weight


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


DELETE = object()


def put(path, value, name):
    """A spoil that sets the entry at a dotted path (list entries by index)
    to value, or removes it when value is DELETE."""
    def spoil(row):
        *parents, last = path.split(".")
        node = row
        for key in parents:
            node = node[int(key) if isinstance(node, list) else key]
        key = int(last) if isinstance(node, list) else last
        if value is DELETE:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
        return row
    spoil.__name__ = name
    return spoil


TERM = [1, 0, 0, None, None]


@pytest.mark.parametrize("suite, spoil, field", [
    ("prop-power-weights", with_boolean_ell, "'ell'"),
    ("prop-power-weights", with_prime_four, "'prime'"),
    ("prop-power-weights", with_undecided_prime, "'prime': primality"),
    ("c2-lebesgue", with_empty_term_range, "'terms'"),
    ("c2-lebesgue", with_negative_logpow, "'terms'"),
    # unknown keys, at the top level and nested
    ("c2-lebesgue", put("colour", "red", "with_unknown_key"), "'colour': unknown"),
    ("c2-lebesgue", put("params.qq", 2, "with_unknown_param"), "'params.qq': unknown"),
    ("c2-lebesgue", put("families.0.scale", 2, "with_unknown_family_key"), "'families.0.scale': unknown"),
    ("c2-lebesgue", put("inputs.0.beta", 2, "with_unknown_profile_key"), "'inputs.0.beta': unknown"),
    # required fields
    ("c2-lebesgue", put("id", DELETE, "without_id"), "'id': field required"),
    ("c2-lebesgue", put("kind", DELETE, "without_kind"), "'kind': field required"),
    ("c2-lebesgue", put("prime", DELETE, "without_prime"), "'prime': field required"),
    ("c2-lebesgue", put("inputs.0.terms", DELETE, "without_terms"), "'inputs.0.terms': field required"),
    ("c2-lebesgue", put("prime", None, "with_null_prime"), "'prime': must not be null"),
    ("c2-lebesgue", put("dim", None, "with_null_dim"), "'dim': must not be null"),
    # listed values and strings
    ("c2-lebesgue", put("kind", "bounds", "with_unlisted_kind"), "'kind'"),
    ("c2-lebesgue", put("constant", "C11", "with_unlisted_constant"), "'constant'"),
    ("c2-lebesgue", put("constant", 2, "with_numeric_constant"), "'constant'"),
    ("c2-lebesgue", put("id", "", "with_empty_id"), "'id': must not be empty"),
    ("c2-lebesgue", put("id", 7, "with_numeric_id"), "'id'"),
    # range bounds
    ("c2-lebesgue", put("prime", 1, "with_prime_one"), "'prime': must be at least 2"),
    ("c2-lebesgue", put("dim", 0, "with_dim_zero"), "'dim': must be at least 1"),
    ("c2-lebesgue", put("arity", 0, "with_arity_zero"), "'arity': must be at least 1"),
    ("prop-power-weights", put("window", 3, "with_window_three"), "'window': must be at least 4"),
    ("c1-sharpness", put("tol", 0, "with_tol_zero"), "'tol': must be greater than 0"),
    ("c1-sharpness", put("tol", -0.5, "with_negative_tol"), "'tol': must be greater than 0"),
    ("c1-sharpness", put("tol", 10 ** 400, "with_tol_past_the_floats"), "'tol': too large"),
    # terms
    ("c2-lebesgue", put("inputs.0.terms.0", [1, 0, 0, None], "with_four_entry_term"), "'inputs.0.terms.0'"),
    ("c2-lebesgue", put("kernel.terms.0", 1, "with_scalar_term"), "'kernel.terms.0'"),
    ("c2-lebesgue", put("inputs.0.terms.0.1", "1/0", "with_zero_denominator"), "'inputs.0.terms.0.1'"),
    # the one-shape rules
    ("c2-lebesgue", put("families.0.matrix", [[1]], "with_family_of_both_shapes"), "'families.0': a family"),
    ("c2-lebesgue", put("families.0", {}, "with_family_of_no_shape"), "'families.0': a family"),
    ("c2-lebesgue", put("families.0.offset", DELETE, "with_family_without_offset"), "'families.0': scalar"),
    ("c2-lebesgue", put("weight.terms", [TERM], "with_weight_of_both_shapes"), "'weight': a weight"),
    ("c2-lebesgue", put("weight", {}, "with_weight_of_no_shape"), "'weight': a weight"),
    ("c2-lebesgue", put("weight", {"terms": [TERM], "coeff": 2}, "with_coeff_on_weight_terms"),
     "'weight': coeff"),
    ("c5-local", put("symbols.1.terms", [TERM], "with_symbol_of_both_shapes"), "'symbols.1': a symbol"),
    ("c5-local", put("symbols.0", {}, "with_symbol_of_no_shape"), "'symbols.0': a symbol"),
    # a scalar where a list or an object is expected
    ("c2-lebesgue", put("params.q_i", 5, "with_scalar_q_i"), "'params.q_i': expected a list"),
    ("c2-lebesgue", put("families", {"slope": 1, "offset": 1}, "with_object_families"),
     "'families': expected a list"),
    ("c2-lebesgue", put("inputs.0.terms", TERM, "with_flat_terms"), "'inputs.0.terms.0'"),
    ("c2-lebesgue", put("kernel", [TERM], "with_list_kernel"), "'kernel': expected an object"),
    # integer fields take JSON integers only
    ("c2-lebesgue", put("dim", True, "with_boolean_dim"), "'dim': expected an integer"),
    ("c2-lebesgue", put("inputs.0.terms.0.2", True, "with_boolean_logpow"), "'inputs.0.terms.0.2'"),
    ("c2-lebesgue", put("inputs.0.terms.0.3", "-3", "with_string_lo"), "'inputs.0.terms.0.3'"),
    ("c2-lebesgue", put("kernel.terms.0.4", 2.0, "with_float_hi"), "'kernel.terms.0.4'"),
    ("c2-lebesgue", put("families.0.slope", 1.0, "with_float_slope"), "'families.0.slope'"),
    ("c2-lebesgue", put("families.0.offset", "2", "with_string_offset"), "'families.0.offset'"),
    ("c2-lebesgue", put("arity", 1.0, "with_float_arity"), "'arity'"),
    ("prop-power-weights", put("window", "48", "with_string_window"), "'window'"),
    ("prop-power-weights", put("prime", 3.0, "with_float_prime"), "'prime': expected an integer"),
    ("c5-local", put("params.gamma", 2.0, "with_float_gamma"), "'params.gamma'"),
    ("c1-sharpness", put("rs", [True, 2], "with_boolean_radius"), "'rs.0'"),
    ("c1-sharpness", put("rs", [1, "2"], "with_string_radius"), "'rs.1'"),
    ("c1-sharpness", put("tol", True, "with_boolean_tol"), "'tol'"),
    ("c1-sharpness", put("tol", "0.05", "with_string_tol"), "'tol'"),
    ("c1-sharpness", put("rs", [], "with_no_radii"), "'rs': must hold at least one entry"),
    # matrix families
    ("c2-lebesgue", put("families.0", {"matrix": [[1, 0]]}, "with_non_square_matrix"),
     "'families': matrix must be square"),
    ("c2-lebesgue", put("families.0", {"matrix": [[1, 0], [0]]}, "with_ragged_matrix"),
     "'families': matrix must be square"),
    ("c2-lebesgue", put("families.0", {"matrix": []}, "with_empty_matrix"), "'families': matrix must be square"),
    ("c2-lebesgue", put("families.0", {"matrix": [[1, 2], ["1/2", 1]]}, "with_singular_matrix"),
     "'families': family matrix must be invertible"),
    # {terms} weights and symbols
    ("c2-lebesgue", put("weight", {"terms": [[1, -1, 0, 3, 1]]}, "with_weight_of_empty_term"), "'weight'"),
    ("c5-local", put("symbols.0", {"terms": [[1, 0, 1, 3, 1]]}, "with_symbol_of_empty_term"), "'terms'"),
    # the fields a kind requires, checked at build time
    ("c2-lebesgue", put("constant", DELETE, "bound_without_constant"), "'constant' is required"),
    ("c2-lebesgue", put("kernel", DELETE, "bound_without_kernel"), "'kernel' is required"),
    ("c2-lebesgue", put("families", DELETE, "bound_without_families"), "'families' is required"),
    ("prop-power-weights", put("weight", DELETE, "weights_without_weight"), "'weight' is required"),
    ("prop-power-weights", put("ell", DELETE, "weights_without_ell"), "'ell' is required"),
    ("c1-sharpness", put("rs", [2, 0], "with_radius_zero"), "'rs': entries must be positive"),
    ("c7-composite", put("constant", "C6", "composite_of_c6"), "'constant': composite scenarios"),
    ("c2-lebesgue", put("arity", 2, "with_arity_past_the_families"), "'arity': does not match"),
    ("c2-lebesgue", put("kernel.terms", [[-1, 0, 0, 0, 0]], "with_negative_kernel"),
     "'kernel': kernel must be nonnegative"),
    # a decimal exponent past the bound, which Fraction would build as 10^e
    ("c2-lebesgue", put("params.q_star", "1e10001", "with_exponent_past_the_bound"),
     "'params.q_star': decimal exponent 10001 is larger than 10000"),
    ("c2-lebesgue", put("params.q_i.0", "2.5E-1000000000", "with_negative_exponent_past_the_bound"),
     "'params.q_i.0': decimal exponent -1000000000"),
])
def test_schema_error_names_the_field(suite, spoil, field):
    row = spoil(first_row(suite))
    with pytest.raises(SchemaError, match=f"field {field}"):
        load_and_build(row)


def test_matrix_families_build_constant_matrix_slots():
    row = first_row("c2-lebesgue")
    row["families"] = [{"matrix": [["1/2", 0], [0, 2]]}]
    (fam,) = load_and_build(row).scenario.families
    assert isinstance(fam, ConstantMatrix)
    assert fam.matrix == PAdicMatrix(2, ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(2))))
    assert (fam.k_norm, fam.k_inverse) == (1, 1)


def test_terms_spell_the_same_weight_and_symbol():
    row = first_row("c5-local")
    row["weight"] = {"terms": [["3/2", "-1/2", 0, None, None]]}
    row["symbols"] = [{"terms": [[2, 0, 1, None, None]]}, {"log_coeff": 2}]
    built = load_and_build(row)
    assert built.weight == Weight.power(3, 2, Fraction(-1, 2), Fraction(3, 2))
    assert built.scenario.symbols == (RadialFunction.log(3, 2, 2),) * 2


@pytest.mark.parametrize("x, text", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (Fraction(1, 3), "0.333333333333333"),
])
def test_fmt_num_renders_fifteen_digits_and_the_non_finite(x, text):
    assert fmt_num(x) == text


def test_only_the_first_error_is_reported():
    row = first_row("c2-lebesgue")
    row["dim"] = True
    row["window"] = "48"
    with pytest.raises(SchemaError) as info:
        load_and_build(row)
    assert str(info.value) == "field 'dim': expected an integer, got a boolean"


def test_a_parsed_model_equals_the_one_its_constructor_builds():
    (model,) = load_scenario_text('{"id": "w", "kind": "weights", "prime": 3, "ell": "3/2"}')
    assert model == ScenarioModel(id="w", kind="weights", prime=3, ell=Fraction(3, 2))
    assert vars(model) == vars(ScenarioModel(id="w", kind="weights", prime=3, ell=Fraction(3, 2)))
    with pytest.raises(FrozenInstanceError):
        model.dim = 2


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="-+/0123456789_. e\u0663", max_size=8))
def test_exact_strings_read_as_fraction_reads_them(text):
    # Fraction builds 10^e for an exponent e, so one past the bound is refused
    _, e, exp = text.partition("e")
    try:
        too_large = bool(e) and abs(int(exp)) > _MAX_EXPONENT
    except ValueError:
        too_large = False
    if too_large:
        with pytest.raises(ValueError, match="decimal exponent .* is larger than 10000"):
            _parse_exact(text)
        return
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match="not a rational number"):
            _parse_exact(text)
    else:
        assert _parse_exact(text) == expected


@pytest.mark.parametrize("text, value", [
    ("1e-3", Fraction(1, 1000)), ("2.5E2", Fraction(250)), ("-1e10000", -Fraction(10) ** 10000),
    ("1E-10000", Fraction(1, 10 ** 10000)),
])
def test_exponents_up_to_the_bound_are_read(text, value):
    assert _MAX_EXPONENT == 10_000
    row = first_row("c2-lebesgue")
    row["params"]["q_star"] = text
    assert load_and_build(row).scenario.params.q_star == value


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
