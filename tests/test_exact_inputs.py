"""Exact numbers in: a float or a bool datum is refused with a named error,
while decimal literals in a scenario file are read as exact rationals."""

import copy
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialpadic import harness, scenarios
from radialpadic.radial import RadialFunction, RadialTerm
from radialpadic.scenario_io import build_scenario, load_scenario_text
from radialpadic.weights import (
    Weight,
    ap_constant,
    cmo_norm,
    integral_abs_power,
    lebesgue_norm,
    morrey_norm,
    rh_constant,
)

F = RadialFunction.chi_ball(2, 1, 0)
W = Weight.power(2, 1, 0)

# (field the error names, the call with the inexact value x in that field)
SITES = [
    ("coeff", lambda x: RadialTerm(x, 0, 0)),
    ("beta", lambda x: RadialTerm(1, x, 0)),
    ("coeff", lambda x: RadialFunction.power(2, 1, x, 0)),
    ("beta", lambda x: RadialFunction.power(2, 1, 1, x)),
    ("coeff", lambda x: RadialFunction.constant(2, 1, x)),
    ("coeff", lambda x: RadialFunction.log(2, 1, x)),
    ("beta", lambda x: Weight.power(2, 1, x)),
    ("coeff", lambda x: Weight.power(2, 1, 0, x)),
    ("q", lambda x: integral_abs_power(F, W, x)),
    ("q", lambda x: lebesgue_norm(F, W, x)),
    ("q", lambda x: morrey_norm(F, W, x, Fraction(-1, 4))),
    ("lam", lambda x: morrey_norm(F, W, 2, x)),
    ("r", lambda x: cmo_norm(RadialFunction.log(2, 1), W, x)),
    ("ell", lambda x: ap_constant(W, x)),
    ("r", lambda x: rh_constant(W, x)),
]

INEXACT = st.one_of(st.floats(allow_nan=False), st.booleans())


def build(row):
    (model,) = load_scenario_text(json.dumps(row))
    return build_scenario(model)


C1_SCENARIO = build(scenarios.suite_rows("c1-sharpness", scenarios.SUITE_SEED)[0]).scenario
WEIGHT_ROW = scenarios.suite_rows("prop-power-weights", scenarios.SUITE_SEED)[0]


@settings(max_examples=100, deadline=None)
@given(x=INEXACT, site=st.sampled_from(SITES), param=st.sampled_from(["q", "alpha"]))
def test_inexact_data_is_refused_by_name(x, site, param):
    field, call = site
    with pytest.raises(ValueError, match=f"^{field} must be an int or a Fraction, got {type(x).__name__}"):
        call(x)
    # a scenario parameter, at validation
    s = replace(C1_SCENARIO, params=replace(C1_SCENARIO.params, **{param: x}))
    with pytest.raises(harness.ScenarioError) as exc:
        harness.validate_scenario(harness.ConstantId.C1, s)
    assert exc.value.condition == "param-inexact"
    # decimal literals in a scenario file are read as exact rationals
    row = copy.deepcopy(WEIGHT_ROW)
    row["weight"] = {"alpha": 0.1, "coeff": "3/4"}
    row["ell"] = "3/4"
    built = build(row)
    (term,) = built.weight.profile.terms
    assert (term.beta, term.coeff, built.ell) == (Fraction(1, 10), Fraction(3, 4), Fraction(3, 4))
    assert type(term.beta) is type(term.coeff) is type(built.ell) is Fraction
