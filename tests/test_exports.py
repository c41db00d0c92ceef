"""Every name a radialpadic module lists in ``__all__`` resolves, and every
definition in the library has a caller."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import radialpadic


def _modules():
    yield radialpadic
    for info in pkgutil.iter_modules(radialpadic.__path__, "radialpadic."):
        yield importlib.import_module(info.name)


EXPORTING = [m for m in _modules() if hasattr(m, "__all__")]


def test_exporting_modules_are_found():
    names = {m.__name__ for m in EXPORTING}
    assert names >= {"radialpadic", "radialpadic.harness", "radialpadic.scenario_io", "radialpadic.scenarios"}


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_the_library_imports_only_the_standard_library():
    # a fresh interpreter without site-packages: a third-party import fails
    # there, and every module it holds came from the library's own imports
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import radialpadic\n"
        "for info in pkgutil.iter_modules(radialpadic.__path__, 'radialpadic.'):\n"
        "    importlib.import_module(info.name)\n"
        "print('\\n'.join(sys.modules))\n"
    )
    src = str(Path(radialpadic.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "radialpadic.scenario_io" in loaded
    foreign = [name for name in loaded
               if name != "__main__" and name.partition(".")[0] not in sys.stdlib_module_names
               and name.partition(".")[0] != "radialpadic"]
    assert foreign == []


# Definitions that nothing in src/ or perfbench/ calls, each kept on purpose.
UNCALLED = {
    "operators.maximal": "the paper's centered maximal function, tested against brute force; "
                         "only maximal_mod enters a bound",
    "harness.extremal_family": "public access to a bound's extremal inputs; ratio_study reads the spec",
    "scenario_io.load_scenario_file": "public loader of a scenario file; the suites are built in memory",
    "scenarios.commutator_bound_rows": "the commutator calibration rows; tests build and pin them",
    "padic.PAdicVector.norm": "the max norm |x|_p; tests check sampled points and matrix bounds with it",
    "padic.PAdicVector.scale": "vector dilation; tests move points between shells with it",
    "padic.PAdicMatrix.norm": "the operator norm ||A||_p; tests check log_norm and det bounds with it",
    "padic.PAdicMatrix.identity": "public constructor of I_n; tests build a pointwise identity family",
    "padic.pnorm": "the p-adic absolute value, exported; called only by the two norm methods above",
    "radial.RadialFunction.zero": "public constructor of the zero function, used by tests",
    # perfbench/tracer.py traces these two by name, but no workload calls them
    "harness.compute_constant": "public entry point to a bound's constant; the bound checks call _constant",
    "sampling.sample_sphere": "public draw of one sphere point; integrate_mc draws from _sphere_points",
}


def _definitions(root):
    """{qualified name: (class name or None, node)} of the functions, classes
    and methods of the library, dunder methods aside, and its module-level
    code."""
    defs, code = {}, []
    for path in sorted(root.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                code.append(node)
                continue
            defs[f"{module}.{node.name}"] = (None, node)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        defs[f"{module}.{node.name}.{sub.name}"] = (node.name, sub)
    return defs, code


def _run_with(node):
    """The code that runs once the definition ``node`` is called: a
    function's whole body; a class's own statements and dunder methods, which
    run implicitly (its other methods need callers of their own)."""
    if isinstance(node, ast.FunctionDef):
        return [node]
    return [sub for sub in node.body if not isinstance(sub, ast.FunctionDef)] + [
        sub for sub in node.body if isinstance(sub, ast.FunctionDef) and sub.name.startswith("__")]


def test_every_definition_has_a_caller():
    # A caller counts only when it runs: the module-level code of src/ and
    # all of perfbench/, then the code of every definition they call, to a
    # fixpoint.  A module-level function or class is called by its bare name
    # or as an attribute of its module, never as an attribute of another
    # value (spec.maximal does not call operators.maximal).  A method is
    # called as an attribute of its class, of self or cls inside that class,
    # or of any other value.
    root = Path(radialpadic.__file__).resolve().parent
    defs, code = _definitions(root)
    modules = {path.stem for path in root.glob("*.py")}
    named: dict[tuple[bool, str], list[str]] = {}  # (is a method, last name) -> qualified names
    for qual, (cls, _) in defs.items():
        named.setdefault((cls is not None, qual.rsplit(".", 1)[1]), []).append(qual)
    todo = [(node, None) for node in code]
    todo += [(ast.parse(path.read_text()), None) for path in sorted((root.parents[1] / "perfbench").glob("*.py"))]
    called = set()
    while todo:
        node, owner = todo.pop()
        for ref in ast.walk(node):
            if not isinstance(getattr(ref, "ctx", None), ast.Load):
                continue  # a bound name, such as the field BoundSpec.maximal, calls nothing
            if isinstance(ref, ast.Name):
                hits = named.get((False, ref.id), [])
            elif isinstance(ref, ast.Attribute):
                recv = ref.value.id if isinstance(ref.value, ast.Name) else None
                recv = owner if recv in ("self", "cls") else recv
                methods = named.get((True, ref.attr), [])
                hits = ([f"{recv}.{ref.attr}"] if recv in modules
                        else [q for q in methods if defs[q][0] == recv] or methods)
            else:
                continue
            for qual in hits:
                if qual in defs and qual not in called:
                    called.add(qual)
                    cls, found = defs[qual]
                    cls = cls or (found.name if isinstance(found, ast.ClassDef) else None)
                    todo += [(sub, cls) for sub in _run_with(found)]
    assert len(called) > 200
    uncalled = set(defs) - called
    assert sorted(uncalled - UNCALLED.keys()) == [], "new uncalled definitions"
    assert sorted(UNCALLED.keys() - uncalled) == [], "allowlisted definitions that now have callers"
