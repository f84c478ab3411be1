import ast
import importlib.util
import json
import types
from pathlib import Path

import hirzebruch

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(hirzebruch.__file__).resolve().parent
BENCH = ROOT / "bench"

# Public definitions of the package that nothing in src/ or bench/ uses,
# each with the reason it stays.
UNREFERENCED_ALLOWLIST = {
    # Builds the total transform of a base class: the constructor the tests
    # and library users write classes with; production builds D* - t E_r*
    # from its coordinates directly.
    "pullback",
}


def _load_bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_lists_the_public_names_and_no_module():
    modules = [
        name
        for name in hirzebruch.__all__
        if isinstance(getattr(hirzebruch, name), types.ModuleType)
    ]
    assert modules == []
    public = {
        name
        for name in dir(hirzebruch)
        if not name.startswith("_")
        and not isinstance(getattr(hirzebruch, name), types.ModuleType)
    }
    assert sorted(hirzebruch.__all__) == sorted(public)


def test_every_traced_target_resolves():
    # The bench tracer resolves ``layer.function`` targets by layer module;
    # a target that stops resolving drops its per-layer metrics silently.
    tracing = _load_bench_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    produced = set(tracing.layer_metrics(tracer.summary()))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # ``bench/run.py`` adds the overhead ratio itself.
    expected = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_ratio"}
    assert produced == expected


def _references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_test_only_api_and_no_assert_in_src():
    # A top-level function or class of the package, public or private, must
    # be used by the library itself or by the benchmark, so no helper stays
    # in src/ for the tests alone; re-exports in __init__.py do not count,
    # the traced targets of bench/tracing.py do.
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    defined = {}
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.stem
    used = set()
    for path in [*modules, *sorted(BENCH.glob("*.py"))]:
        used |= _references(path)
    used |= {target.split(".", 1)[1] for target in _load_bench_tracing().TARGETS}
    unreferenced = {name for name in defined if name not in used}
    assert unreferenced == UNREFERENCED_ALLOWLIST

    # Control flow does not rely on ``assert``, which ``python -O`` strips.
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_hidden_parameters_in_src():
    # A public function or method takes no parameter named like a private
    # one: state passed between calls through a ``_name=`` keyword is a
    # hidden option.
    hidden = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        scopes = [tree.body] + [c.body for c in classes if not c.name.startswith("_")]
        for body in scopes:
            for node in body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    a = node.args
                    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                    hidden += [
                        f"{path.stem}.{node.name}({p.arg})"
                        for p in params
                        if p is not None and p.arg.startswith("_")
                    ]
    assert hidden == []


# The names of the closed-form route the oracle checks, with the integer
# helpers its breakpoints and points go through.
CLOSED_FORM = {
    "t_values",
    "_regime",
    "_breakpoints",
    "steps",
    "at_stage",
    "q_points",
    "QPoints",
    "mu_hat",
    "theta",
    "newton_okounkov_body",
    "cone_triangle",
}


def test_sweep_reads_nothing_of_the_closed_form():
    # ``sweep_body`` and every function of the package it reaches by name,
    # transitively, reference no name of the closed-form route: the oracle
    # finds its walls from decompositions alone.
    functions: dict[str, list[ast.FunctionDef]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append(node)
    reached, todo, referenced = set(), ["sweep_body"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in functions[name]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    referenced.add(sub.id)
                    if sub.id in functions:
                        todo.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    referenced.add(sub.attr)
    assert referenced & CLOSED_FORM == set()
    # The guard is live: it follows the walk into the engine.
    assert {"_chamber_walk", "_grow", "_forest_solve"} <= reached


def _fractions_outside_raise(node) -> list[int]:
    """Lines where ``node`` names ``Fraction`` outside a ``raise`` statement."""
    in_raise = {
        id(sub)
        for stmt in ast.walk(node)
        if isinstance(stmt, ast.Raise)
        for sub in ast.walk(stmt)
    }
    return [
        sub.lineno
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and sub.id == "Fraction" and id(sub) not in in_raise
    ]


def test_chamber_walk_builds_fractions_only_to_refuse():
    # The chamber walk, the engine routines it runs and every helper of the
    # zariski module they reach by name, transitively, build a ``Fraction``
    # only inside a ``raise`` statement: the walk carries its walls and
    # roots as integer pairs and prints a fraction only in a refusal.
    tree = ast.parse((SRC / "zariski.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached, todo = set(), ["_chamber_walk", "_grow", "_forest_solve"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for sub in ast.walk(functions[name]):
                if isinstance(sub, ast.Name) and sub.id in functions:
                    todo.append(sub.id)
    outside = [
        f"{name}:{line}"
        for name in sorted(reached)
        for line in _fractions_outside_raise(functions[name])
    ]
    # The polygon's hull, equality and containment and the verification
    # that compares the sweep and the body on them run on the integer form;
    # its ``vertices`` property alone builds the ``Fraction`` vertices.
    tree = ast.parse((SRC / "okounkov.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    (polygon,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Polygon"]
    methods = {n.name: n for n in polygon.body if isinstance(n, ast.FunctionDef)}
    guarded = {
        "Polygon._hull": methods["_hull"],
        "Polygon.__eq__": methods["__eq__"],
        "Polygon._outside": methods["_outside"],
        "verify_body": functions["verify_body"],
    }
    outside += [
        f"{name}:{line}"
        for name, node in sorted(guarded.items())
        for line in _fractions_outside_raise(node)
    ]
    assert outside == []
    # The guard is live: it follows the walk into its root helper, and the
    # vertices are built where it says.
    assert "_least_root_after" in reached
    assert _fractions_outside_raise(methods["vertices"])
