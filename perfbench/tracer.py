"""Per-layer spans recorded from outside the library.

The tracer replaces each traced name with a wrapper at every place the name
is bound: ``harness`` imports ``morrey_norm`` and friends by name, so patching
``weights.morrey_norm`` alone would miss the calls made from ``harness``.
Methods are patched on their class.  Nothing under ``src/`` changes, and
``uninstall`` puts every original back.

A span's self time is its duration minus the time of the traced spans it
encloses.  Counts and self times are summed per name in memory.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from types import ModuleType
from typing import Iterable

#: traced names, grouped by the end-to-end figure each should move
#: (README.md carries the full map, with the workloads)
SPANS = (
    # windowed sups and weight classes: windowed-suites
    "weights.morrey_norm",
    "weights.cmo_norm",
    "weights.integral_abs_power",
    "weights.weight_ball_mass",
    "weights.ap_constant",
    "weights.rh_constant",
    "operators.maximal_mod",
    # closed forms and the harness: every suite row
    "weights.lebesgue_norm",
    "operators.hausdorff_apply",
    "radial.shell_sum",
    "radial.integrate_radial",
    "series.power_log_sum",
    "harness.validate_scenario",
    "harness.compute_constant",
    "harness.verify_bound",
    "harness.ratio_study",
    "harness.maximal_composite_check",
    # the sampled path: monte-carlo
    "sampling.integrate_mc",
    "sampling.sample_sphere",
    "padic.PAdicMatrix.det",
    "padic.PAdicMatrix.matvec",
    "families.matrix_at",
    # set-up
    "scenario_io.load_scenario_text",
    "scenario_io.build_scenario",
    "scenarios.suite_rows",
    "scenarios.mc_cases",
)

#: counted, not timed: a span per construction would cost more than the work
COUNTS = ("radial.RadialFunction",)

PACKAGE = "radialpadic"


class Tracer:
    """Counts calls and sums self time per traced name while installed."""

    def __init__(self, extra_modules: Iterable[ModuleType] = ()) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._extra = list(extra_modules)
        # (owner, attribute, original, wrapper) for every binding of a traced name
        self._patches: list[tuple[object, str, object, object]] = []
        self._installed = False

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - start
                calls[name] += 1
                self_s[name] += total - stack.pop()
                if stack:
                    stack[-1] += total

        return span

    def _count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------------

    def _plan(self) -> None:
        """Find every binding of every traced name; the package must be imported."""
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")] + self._extra

        def method(cls: type, attr: str, name: str, wrapper) -> None:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, wrapper(name, original)))

        for span in SPANS:
            module, *path = span.split(".")
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if module == "families":
                # one name for the method of every family kind
                for cls in vars(owner).values():
                    if isinstance(cls, type) and "matrix_at" in cls.__dict__:
                        method(cls, "matrix_at", span, self._span)
            elif len(path) == 2:
                method(getattr(owner, path[0]), path[1], span, self._span)
            else:
                original = getattr(owner, path[0])
                wrapped = self._span(span, original)
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, key, original, wrapped))
        for name in COUNTS:
            module, clsname = name.split(".")
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], clsname)
            method(cls, "__init__", name, self._count)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        if not self._patches:
            self._plan()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._installed = False

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_ms"] = self.self_s[span] * 1e3
        for name in COUNTS:
            out[f"{name}.calls"] = self.calls[name]
        return out
