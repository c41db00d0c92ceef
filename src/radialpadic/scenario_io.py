"""Declarative scenario files: schema, exact-number parsing, and builders.

A scenario file is a JSON document holding one scenario (or a list of them).
Each scenario is an object with these fields; a field not listed here is
refused, at the top level and in every nested object.

=========  ============================================  ====================
field      type                                          range / default
=========  ============================================  ====================
id         string                                        nonempty, required
kind       "bound" | "ratio" | "composite" | "weights"   required
prime      integer                                       >= 2, required
dim        integer                                       >= 1, default 1
constant   "C1" ... "C10"                                optional
arity      integer                                       >= 1, optional
kernel     profile                                       optional
families   list of family                                optional
params     params                                        optional
weight     weight                                        optional
symbols    list of symbol                                optional
inputs     list of profile                               optional
ell, rh    exact number                                  optional
rs         list of integers                              nonempty, optional
                                                         (default 1..8)
window     integer                                       >= 4, default 48
tol        integer or float                              > 0, default 0.05
=========  ============================================  ====================

profile   {"terms": [term, ...]}, terms required.
term      a list of 5 entries [coeff, beta, logpow, lo, hi]: coeff and beta
          exact numbers, logpow an integer, lo and hi integers or null.
family    {"slope": integer, "offset": integer} or {"matrix": [[exact, ...],
          ...]}: one shape, not both or neither.
weight    {"alpha": exact[, "coeff": exact]} or {"terms": [term, ...]}.
symbol    {"log_coeff": exact} or {"terms": [term, ...]}.
params    optional exact numbers q, alpha, lam, q_star, zeta, delta; optional
          lists of exact numbers q_i, alpha_i, lam_i, r_i, r_star_i,
          q_star_i; gamma an integer.

Exact numbers may be written as integers, decimal strings, fraction
strings ("3/4"), or floats (read with decimal intent, so 0.1 means 1/10);
they are read as :class:`~fractions.Fraction`.  A decimal string's exponent
may be at most 10 000 in size ("1e-3" and "2.5E2" are read, "1e10001" is
refused).  Integer fields take JSON integers only: a boolean, a float (even
3.0) or a string is refused.  Null is accepted where a field is optional and
its default is none.
Kind-specific required fields are checked at build time.  Every error is a
:class:`SchemaError` reading ``field '<dotted.path>': <reason>``, the path
counting list entries from 0 (``families.0``); only the first error found
is reported.

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
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Literal

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


_MAX_EXPONENT = 10_000


def _parse_exact(v: Any) -> Any:
    """An exact number of a scenario file as a Fraction.

    A string whose text after its first "e" or "E" reads as an integer of
    size above _MAX_EXPONENT = 10 000 is refused: Fraction builds 10^e
    exactly, in time and memory that grow with e.
    """
    t = type(v)
    if t is int:
        return Fraction(v)
    if t is str:
        # "[-]digits[/digits]" is split here, which is what Fraction(v)
        # does after a slower regular-expression match; any other spelling
        # goes to Fraction(v)
        num, slash, den = v.partition("/")
        try:
            if (num.isdecimal() or num[:1] == "-" and num[1:].isdecimal()) and (
                    den.isdecimal() or not slash):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            _, e, exp = v.lower().partition("e")
            if not (e and abs(int(exp)) > _MAX_EXPONENT):
                return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {v!r}") from exc
        raise ValueError(f"decimal exponent {exp.strip()} is larger than {_MAX_EXPONENT} in size")
    if t is float:
        if math.isinf(v) or math.isnan(v):
            raise ValueError("numbers must be finite")
        return Fraction(str(v))
    if t is bool:
        raise ValueError("booleans are not numbers")
    raise ValueError(f"expected a number, got {t.__name__}")


TermTuple = tuple[Fraction, Fraction, int, int | None, int | None]


@dataclass(frozen=True)
class ProfileModel:
    """A radial power-log function as a tuple of term tuples.

    Each term is (coeff, beta, logpow, lo, hi) with lo/hi possibly None.
    """

    terms: tuple[TermTuple, ...]


@dataclass(frozen=True)
class FamilyModel:
    slope: int | None = None
    offset: int | None = None
    matrix: tuple[tuple[Fraction, ...], ...] | None = None


@dataclass(frozen=True)
class WeightModel:
    alpha: Fraction | None = None
    coeff: Fraction | None = None
    terms: tuple[TermTuple, ...] | None = None


@dataclass(frozen=True)
class SymbolModel:
    log_coeff: Fraction | None = None
    terms: tuple[TermTuple, ...] | None = None


@dataclass(frozen=True)
class ScenarioModel:
    """One scenario as :func:`load_scenario_text` reads it; the constructor
    itself checks nothing."""

    id: str
    kind: Literal["bound", "ratio", "composite", "weights"]
    prime: int
    dim: int = 1
    constant: Literal["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10"] | None = None
    arity: int | None = None
    kernel: ProfileModel | None = None
    families: tuple[FamilyModel, ...] | None = None
    params: SpaceParams | None = None
    weight: WeightModel | None = None
    symbols: tuple[SymbolModel, ...] | None = None
    inputs: tuple[ProfileModel, ...] | None = None
    ell: Fraction | None = None
    rh: Fraction | None = None
    rs: tuple[int, ...] | None = None
    window: int = 48
    tol: float = 0.05


# --- the schema check ------------------------------------------------------
#
# Every field value is read by a parser: a function of the JSON value that
# returns the model value or raises ValueError.  A container parser that
# catches a failure below it prefixes the key or index it was reading, so
# the error that reaches load_scenario_text carries the whole path.


class _Invalid(ValueError):
    """A schema violation at a path of keys and list indices."""

    def __init__(self, loc: list, msg: str):
        super().__init__(msg)
        self.loc = loc
        self.msg = msg


def _at(key, exc: ValueError) -> _Invalid:
    if isinstance(exc, _Invalid):
        exc.loc.insert(0, key)
        return exc
    return _Invalid([key], str(exc))


_JSON_KINDS = {bool: "a boolean", int: "an integer", float: "a float", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}


def _kind(v) -> str:
    return _JSON_KINDS.get(type(v), type(v).__name__)


def _integer(v) -> int:
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {_kind(v)}")
    return v


def _integer_from(least: int):
    def parse(v) -> int:
        if _integer(v) < least:
            raise ValueError(f"must be at least {least}")
        return v
    return parse


def _positive_real(v) -> float:
    if type(v) is not int and type(v) is not float:
        raise ValueError(f"expected a number, got {_kind(v)}")
    if not v > 0:
        raise ValueError("must be greater than 0")
    try:
        return float(v)
    except OverflowError:
        raise ValueError("too large for a float") from None


def _nonempty_string(v) -> str:
    if type(v) is not str:
        raise ValueError(f"expected a string, got {_kind(v)}")
    if not v:
        raise ValueError("must not be empty")
    return v


def _one_of(*allowed: str):
    options = frozenset(allowed)

    def parse(v) -> str:
        if type(v) is not str or v not in options:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {v!r}")
        return v
    return parse


def _first_failure(parsers, values) -> _Invalid:
    for i, (parse, v) in enumerate(zip(parsers, values)):
        try:
            parse(v)
        except ValueError as exc:
            return _at(i, exc)
    raise AssertionError("no entry fails")


def _list_of(parse, nonempty: bool = False):
    def parse_list(v) -> tuple:
        if type(v) is not list:
            raise ValueError(f"expected a list, got {_kind(v)}")
        if nonempty and not v:
            raise ValueError("must hold at least one entry")
        try:
            return tuple([parse(x) for x in v])
        except ValueError:
            raise _first_failure([parse] * len(v), v) from None
    return parse_list


def _optional_integer(v) -> int | None:
    return v if v is None else _integer(v)


_TERM_ENTRIES = (_parse_exact, _parse_exact, _integer, _optional_integer, _optional_integer)


def _term(v) -> TermTuple:
    if type(v) is not list or len(v) != 5:
        raise ValueError(f"a term is a list of 5 entries [coeff, beta, logpow, lo, hi], got "
                         + (f"{len(v)} entries" if type(v) is list else _kind(v)))
    c, b, k, lo, hi = v
    try:
        return (_parse_exact(c), _parse_exact(b), _integer(k),
                lo if lo is None else _integer(lo), hi if hi is None else _integer(hi))
    except ValueError:
        raise _first_failure(_TERM_ENTRIES, v) from None


def _model(cls, parsers: dict, shape=None):
    """The parser of a JSON object into ``cls``: one parser per field, the
    field's default deciding whether it is required (no default) or may be
    null (default None); ``shape`` checks the built model."""
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    required = [f.name for f in fields(cls) if f.default is MISSING]
    nullable = frozenset(name for name, default in defaults.items() if default is None)

    def parse(v):
        if type(v) is not dict:
            raise ValueError(f"expected an object, got {_kind(v)}")
        values = defaults.copy()
        for key, value in v.items():
            parse_field = parsers.get(key)
            if parse_field is None:
                raise _Invalid([key], "unknown field")
            if value is None:
                if key not in nullable:
                    raise _Invalid([key], "must not be null")
                continue
            try:
                values[key] = parse_field(value)
            except ValueError as exc:
                raise _at(key, exc) from None
        for key in required:
            if key not in values:
                raise _Invalid([key], "field required")
        # the frozen __init__ sets each field through object.__setattr__,
        # which costs three times as much as filling the instance dict
        model = object.__new__(cls)
        vars(model).update(values)
        if shape is not None:
            shape(model)
        return model
    return parse


def _family_shape(m: FamilyModel) -> None:
    scalar = m.slope is not None or m.offset is not None
    if scalar == (m.matrix is not None):
        raise ValueError("a family is either {slope, offset} or {matrix}, not both or neither")
    if scalar and (m.slope is None or m.offset is None):
        raise ValueError("scalar families need both slope and offset")


def _weight_shape(m: WeightModel) -> None:
    if (m.alpha is not None) == (m.terms is not None):
        raise ValueError("a weight is either {alpha[, coeff]} or {terms}, not both or neither")
    if m.terms is not None and m.coeff is not None:
        raise ValueError("coeff only applies to the {alpha} form")


def _symbol_shape(m: SymbolModel) -> None:
    if (m.log_coeff is not None) == (m.terms is not None):
        raise ValueError("a symbol is either {log_coeff} or {terms}, not both or neither")


_terms = _list_of(_term)
_exact_list = _list_of(_parse_exact)
_profile = _model(ProfileModel, {"terms": _terms})

_parse_scenario = _model(ScenarioModel, {
    "id": _nonempty_string,
    "kind": _one_of("bound", "ratio", "composite", "weights"),
    "prime": _integer_from(2),
    "dim": _integer_from(1),
    "constant": _one_of("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10"),
    "arity": _integer_from(1),
    "kernel": _profile,
    "families": _list_of(_model(FamilyModel, {
        "slope": _integer, "offset": _integer, "matrix": _list_of(_exact_list),
    }, _family_shape)),
    "params": _model(SpaceParams, {
        **dict.fromkeys(("q", "alpha", "lam", "q_star", "zeta", "delta"), _parse_exact),
        **dict.fromkeys(("q_i", "alpha_i", "lam_i", "r_i", "r_star_i", "q_star_i"), _exact_list),
        "gamma": _integer,
    }),
    "weight": _model(WeightModel, {
        "alpha": _parse_exact, "coeff": _parse_exact, "terms": _terms,
    }, _weight_shape),
    "symbols": _list_of(_model(SymbolModel, {
        "log_coeff": _parse_exact, "terms": _terms,
    }, _symbol_shape)),
    "inputs": _list_of(_profile),
    "ell": _parse_exact,
    "rh": _parse_exact,
    "rs": _list_of(_integer, nonempty=True),
    "window": _integer_from(4),
    "tol": _positive_real,
})


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
        rows = fm.matrix
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
    rs = model.rs if model.rs is not None else tuple(range(1, 9))
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
            params=model.params or SpaceParams(),
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
            models.append(_parse_scenario(item))
        except _Invalid as exc:
            loc = ".".join(str(x) for x in exc.loc)
            raise SchemaError(f"field '{loc}': {exc.msg}") from exc
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
