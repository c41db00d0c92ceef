"""Declarative scenario files: schema, exact-number parsing, and builders.

A scenario file is a JSON document holding one scenario (or a list of them).
Numbers that enter exact computations may be written as integers, decimal
strings, fraction strings ("3/4"), or floats (read with decimal intent, so
0.1 means 1/10).  Unknown keys are rejected; kind-specific required fields
are checked at build time and reported with the offending field name.

Scenario kinds
--------------
bound      one inequality verified on concrete inputs (verify_bound)
ratio      a sharpness study driving the extremal family (ratio_study)
composite  the maximal-of-commutator bound (maximal_composite_check)
weights    a Muckenhoupt/reverse-Holder class report for one weight
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Annotated, Any, Literal

from pydantic import BaseModel, BeforeValidator, ConfigDict, Field, ValidationError, model_validator

from .families import ConstantMatrix, Family, ScalarRadial
from .harness import ConstantId, Scenario, SpaceParams
from .numeric import Number
from .operators import KernelSpec
from .padic import PAdicMatrix, is_prime
from .radial import RadialFunction, RadialTerm
from .weights import Weight

__all__ = [
    "SchemaError",
    "ScenarioModel",
    "BuiltScenario",
    "load_scenario_text",
    "load_scenario_file",
    "build_scenario",
    "fmt_num",
]

class SchemaError(ValueError):
    """A scenario file fails schema or kind-specific structural checks."""


def _parse_exact(v: Any) -> Any:
    if isinstance(v, bool):
        raise ValueError("booleans are not numbers")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if math.isinf(v) or math.isnan(v):
            raise ValueError("numbers must be finite")
        return Fraction(str(v))
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {v!r}") from exc
    raise ValueError(f"expected a number, got {type(v).__name__}")


Qnum = Annotated[Any, BeforeValidator(_parse_exact)]
TermTuple = tuple[Qnum, Qnum, int, int | None, int | None]


class _Strict(BaseModel):
    model_config = ConfigDict(extra="forbid")


class ProfileModel(_Strict):
    """A radial power-log function as a list of term tuples.

    Each term is [coeff, beta, logpow, lo, hi] with lo/hi nullable.
    """

    terms: list[TermTuple]


class FamilyModel(_Strict):
    slope: int | None = None
    offset: int | None = None
    matrix: list[list[Qnum]] | None = None

    @model_validator(mode="after")
    def _one_shape(self) -> "FamilyModel":
        scalar = self.slope is not None or self.offset is not None
        if scalar == (self.matrix is not None):
            raise ValueError("a family is either {slope, offset} or {matrix}, not both or neither")
        if scalar and (self.slope is None or self.offset is None):
            raise ValueError("scalar families need both slope and offset")
        return self


class WeightModel(_Strict):
    alpha: Qnum | None = None
    coeff: Qnum | None = None
    terms: list[TermTuple] | None = None

    @model_validator(mode="after")
    def _one_shape(self) -> "WeightModel":
        if (self.alpha is not None) == (self.terms is not None):
            raise ValueError("a weight is either {alpha[, coeff]} or {terms}, not both or neither")
        if self.terms is not None and self.coeff is not None:
            raise ValueError("coeff only applies to the {alpha} form")
        return self


class SymbolModel(_Strict):
    log_coeff: Qnum | None = None
    terms: list[TermTuple] | None = None

    @model_validator(mode="after")
    def _one_shape(self) -> "SymbolModel":
        if (self.log_coeff is not None) == (self.terms is not None):
            raise ValueError("a symbol is either {log_coeff} or {terms}, not both or neither")
        return self


class ParamsModel(_Strict):
    q: Qnum | None = None
    q_i: list[Qnum] | None = None
    alpha: Qnum | None = None
    alpha_i: list[Qnum] | None = None
    lam: Qnum | None = None
    lam_i: list[Qnum] | None = None
    r_i: list[Qnum] | None = None
    r_star_i: list[Qnum] | None = None
    q_star_i: list[Qnum] | None = None
    q_star: Qnum | None = None
    zeta: Qnum | None = None
    delta: Qnum | None = None
    gamma: int | None = None


class ScenarioModel(_Strict):
    id: str = Field(min_length=1)
    kind: Literal["bound", "ratio", "composite", "weights"]
    prime: int = Field(ge=2)
    dim: int = Field(default=1, ge=1)
    constant: Literal["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10"] | None = None
    arity: int | None = Field(default=None, ge=1)
    kernel: ProfileModel | None = None
    families: list[FamilyModel] | None = None
    params: ParamsModel | None = None
    weight: WeightModel | None = None
    symbols: list[SymbolModel] | None = None
    inputs: list[ProfileModel] | None = None
    ell: Qnum | None = None
    rh: Qnum | None = None
    rs: list[int] | None = None
    window: int = Field(default=48, ge=4)
    tol: float = Field(default=0.05, gt=0)


@dataclass(frozen=True)
class BuiltScenario:
    """A scenario file element converted to library objects."""

    scenario_id: str
    kind: str
    constant: ConstantId | None
    scenario: Scenario | None       # bound / ratio / composite
    weight: Weight | None           # weights kind
    ell: Number | None
    rh: Number | None
    rs: tuple[int, ...]
    window: int
    tol: float


def _require(value, name: str):
    if value is None:
        raise SchemaError(f"field '{name}' is required for this scenario kind")
    return value


def radial_from_terms(p: int, n: int, terms) -> RadialFunction:
    try:
        return RadialFunction(p, n, tuple(RadialTerm(*t) for t in terms))
    except ValueError as exc:
        raise SchemaError(f"field 'terms': {exc}") from exc


def _build_family(p: int, fm: FamilyModel) -> Family:
    if fm.matrix is not None:
        rows = tuple(tuple(v for v in row) for row in fm.matrix)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise SchemaError("field 'families': matrix must be square")
        try:
            return ConstantMatrix(PAdicMatrix(p, rows))
        except ValueError as exc:
            raise SchemaError(f"field 'families': {exc}") from exc
    return ScalarRadial(fm.slope, fm.offset)


def _build_weight(p: int, n: int, wm: WeightModel) -> Weight:
    try:
        if wm.alpha is not None:
            coeff = wm.coeff if wm.coeff is not None else Fraction(1)
            return Weight.power(p, n, wm.alpha, coeff)
        return Weight(radial_from_terms(p, n, wm.terms))
    except ValueError as exc:
        raise SchemaError(f"field 'weight': {exc}") from exc


def _build_symbol(p: int, n: int, sm: SymbolModel) -> RadialFunction:
    if sm.log_coeff is not None:
        return RadialFunction.log(p, n, sm.log_coeff)
    return radial_from_terms(p, n, sm.terms)


def build_scenario(model: ScenarioModel) -> BuiltScenario:
    """Convert a validated schema model into library objects.

    Structural problems (bad matrices, negative kernels, missing
    kind-specific fields) raise :class:`SchemaError` naming the field;
    theorem-hypothesis checks are left to the harness so their named
    conditions surface per operation.
    """
    p, n = model.prime, model.dim
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise SchemaError(f"field 'prime': {exc}") from exc
    if not prime:
        raise SchemaError(f"field 'prime': {p} is not prime")
    rs = tuple(model.rs) if model.rs else tuple(range(1, 9))
    if any(r < 1 for r in rs):
        raise SchemaError("field 'rs': entries must be positive")

    scenario = None
    constant = ConstantId(model.constant) if model.constant is not None else None
    weight = _build_weight(p, n, model.weight) if model.weight is not None else None

    if model.kind in ("bound", "ratio", "composite"):
        if model.kind == "composite":
            constant = constant or ConstantId.C7
            if constant is not ConstantId.C7:
                raise SchemaError("field 'constant': composite scenarios use the composite bound only")
        else:
            _require(model.constant, "constant")
        kernel_model = _require(model.kernel, "kernel")
        family_models = _require(model.families, "families")
        if model.arity is not None and model.arity != len(family_models):
            raise SchemaError("field 'arity': does not match the number of families")
        try:
            kernel = KernelSpec(radial_from_terms(p, n, kernel_model.terms))
        except ValueError as exc:
            raise SchemaError(f"field 'kernel': {exc}") from exc
        families = tuple(_build_family(p, fm) for fm in family_models)
        symbols = (tuple(_build_symbol(p, n, sm) for sm in model.symbols)
                   if model.symbols is not None else None)
        inputs = (tuple(radial_from_terms(p, n, pm.terms) for pm in model.inputs)
                  if model.inputs is not None else None)
        scenario = Scenario(
            p=p, n=n, m=len(families), kernel=kernel, families=families,
            params=SpaceParams(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in model.params or ParamsModel()}),
            symbols=symbols,
            weight=weight, inputs=inputs,
        )
    elif model.kind == "weights":
        _require(model.weight, "weight")
        _require(model.ell, "ell")

    return BuiltScenario(
        scenario_id=model.id, kind=model.kind, constant=constant,
        scenario=scenario, weight=weight, ell=model.ell, rh=model.rh,
        rs=rs, window=model.window, tol=model.tol,
    )


def _format_validation_error(exc: ValidationError) -> str:
    parts = []
    for err in exc.errors():
        loc = ".".join(str(x) for x in err["loc"]) or "<root>"
        parts.append(f"field '{loc}': {err['msg']}")
    return "; ".join(parts)


def load_scenario_text(text: str) -> list[ScenarioModel]:
    """Parse a JSON document holding one scenario object or a list of them."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    items = payload if isinstance(payload, list) else [payload]
    models = []
    for idx, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaError(f"entry {idx}: each scenario must be an object")
        try:
            models.append(ScenarioModel.model_validate(item))
        except ValidationError as exc:
            raise SchemaError(_format_validation_error(exc)) from exc
    return models


def load_scenario_file(path: str | Path) -> list[ScenarioModel]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return load_scenario_text(text)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def fmt_num(x) -> str:
    """Fixed 15-significant-digit decimal rendering; infinities print as inf."""
    v = float(x)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return f"{v:.15g}"
