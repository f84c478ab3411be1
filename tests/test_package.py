import ast
import importlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

import hirzebruch
from hirzebruch import (
    BigDivisor,
    Configuration,
    Surface,
    curve_basis,
    div_class,
    divisorial_valuation,
    dual_graph,
    exceptional,
    flag_valuation,
    from_maximal_contact,
    multiplicities,
    newton_okounkov_body,
    pullback,
    q_points,
    verify_body,
    zariski_decompose,
)
from hirzebruch.caseio import load_case

from conftest import CASES

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
    # Each target is defined in the layer module it names, not only
    # reachable from it, so a move shows here before it drops a metric.
    for target in tracing.TARGETS:
        layer, name = target.split(".", 1)
        function = getattr(importlib.import_module(f"hirzebruch.{layer}"), name, None)
        assert callable(function), target
        assert function.__module__ == f"hirzebruch.{layer}", target
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


def _writes_outside(tree, allowed) -> list[str]:
    """What under ``tree`` writes a file, as ``line: what``: calls outside
    the nodes ``allowed`` to ``write_text``, ``write_bytes`` or ``os.open``,
    or to ``open`` with a mode that is not a constant free of ``w``, ``a``,
    ``x`` and ``+``; and every name ``O_TRUNC``, inside ``allowed`` too."""
    found = []
    for node in ast.walk(tree):
        if getattr(node, "id", getattr(node, "attr", None)) == "O_TRUNC":
            found.append(f"{node.lineno}: O_TRUNC")
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        owner = getattr(func.value, "id", "") if isinstance(func, ast.Attribute) else None
        name = func.attr if owner is not None else getattr(func, "id", None)
        if name in {"write_text", "write_bytes"} or (name, owner) == ("open", "os"):
            found.append(f"{node.lineno}: {name}")
        elif name == "open":
            # ``open(file, mode)``, ``io.open(file, mode)`` and ``path.open(mode)``
            first = 1 if owner in (None, "io") else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            for mode in modes + node.args[first : first + 1]:
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                    found.append(f"{node.lineno}: open({ast.unparse(mode)})")
    return found


def test_outputs_are_written_only_in_place():
    # Every file the package writes goes through the CLI's one overwrite
    # primitive, which writes over the old bytes and cuts the file to
    # length: no other truncating open, ``write_text`` or ``write_bytes``,
    # and no ``O_TRUNC`` anywhere, since on ext4 a file truncated to zero
    # and written again is flushed to disk when it is closed.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(sub)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_overwrite"
            for sub in ast.walk(node)
        }
        found += [f"{path.name}:{where}" for where in _writes_outside(tree, allowed)]
    assert found == []
    # The guard is live: the primitive opens its target itself, and all
    # three writes of the CLI, the restore and the staged temporary
    # included, call it.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert [w.split(": ")[1] for w in _writes_outside(functions["_overwrite"], set())] == ["open"]
    calls = [
        sub.func.id
        for sub in ast.walk(functions["_write_outputs"])
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
    ]
    assert calls.count("_overwrite") == 3


def test_no_module_imports_dataclasses():
    # ``dataclasses`` loads ``inspect``, ``ast`` and ``dis`` and runs
    # generated code at import: the records derive from one plain base.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "dataclasses"]
    assert found == []


# The field names of each record of the package, in constructor order.
RECORD_FIELDS = {
    "Surface": ("delta", "point_kind"),
    "Configuration": ("extras", "n_f1", "n_m"),
    "DivisorialValuation": (
        "surface", "config", "r", "m", "beta_bar", "phi_f1", "phi_m", "kind",
    ),
    "FlagValuation": ("base", "eta"),
    "DivisorClassZ": ("delta", "f", "m", "e"),
    "CurveBasis": ("delta", "r", "names", "rows"),
    "BigDivisor": ("a", "b"),
    "QPoints": ("theta", "den", "points"),
    "BodyReport": ("body", "triangle", "sweep", "checks"),
    "ZariskiPair": ("divisor", "components", "basis", "pairings"),
    "Case": ("surface", "valuation", "flag", "divisor"),
}
# Records holding a dict or a list among their fields.
UNHASHABLE = {"CurveBasis", "ZariskiPair"}


def _block_flag():
    """The satellite flag of the block ``[2, 3, 6]`` on the ``delta = 1``
    surface, built afresh."""
    surface = Surface(1)
    return flag_valuation(divisorial_valuation(surface, from_maximal_contact(surface, [2, 3, 6])), 2)


def _record_example(name: str):
    flag, d = _block_flag(), BigDivisor(1, 2)
    basis = curve_basis(flag.base)
    examples = {
        "Surface": lambda: Surface(2),
        "Configuration": lambda: flag.base.config,
        "DivisorialValuation": lambda: flag.base,
        "FlagValuation": lambda: flag,
        "DivisorClassZ": lambda: div_class(1, 1, 2, (1, 0)),
        "CurveBasis": lambda: basis,
        "BigDivisor": lambda: d,
        "QPoints": lambda: q_points(flag, d),
        "BodyReport": lambda: verify_body(flag, d),
        "ZariskiPair": lambda: zariski_decompose(
            pullback(1, 1, 2, 3) - 3 * exceptional(1, 3, 3), basis
        ),
        "Case": lambda: load_case(CASES / "special_f2.json"),
    }
    return examples[name]()


@pytest.mark.parametrize("name", RECORD_FIELDS)
def test_records_are_immutable_values(name):
    # What the frozen dataclasses gave: construction by position and by
    # keyword, equality and hash over the fields within one class, the
    # ``Name(field=value, ...)`` repr, and no assignment or deletion.  A
    # record is no tuple: it equals none and cannot be iterated.
    record = _record_example(name)
    cls, fields = type(record), RECORD_FIELDS[name]
    assert cls.__name__ == name
    values = [getattr(record, field) for field in fields]
    positional, keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert positional == keyword == record
    assert not positional != record
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    assert repr(positional) == repr(record)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(positional) == hash(keyword) == hash(record)
    other = type(name, (cls,), {})(*values)
    assert other != record and record != other and not record == other
    assert record != tuple(values)
    with pytest.raises(TypeError):
        iter(record)
    for attempt in (
        lambda: setattr(record, fields[0], values[0]),
        lambda: setattr(record, "no_such_field", 1),
        lambda: delattr(record, fields[0]),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert [getattr(record, field) for field in fields] == values
    assert not hasattr(record, "no_such_field")


def test_record_caches_stay_out_of_equality():
    # A configuration with computed rows, and a valuation holding its basis
    # and body, equal, hash and print as fresh ones, also after their
    # multiplicities and dual graph were read.
    flag, fresh = _block_flag(), _block_flag()
    config = flag.base.config
    config.curvette_values(2)
    multiplicities(config)
    curve_basis(flag.base)
    dual_graph(flag.base)
    newton_okounkov_body(flag, BigDivisor(1, 2))
    bare = Configuration(config.extras, config.n_f1, config.n_m)
    assert config._rows and flag.base._tables
    assert not bare._rows and not fresh.base._tables
    for warm, cold in ((config, bare), (config, fresh.base.config), (flag.base, fresh.base)):
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert flag == fresh


def test_record_reprs_and_refusals_are_unchanged():
    flag = _block_flag()
    assert repr(Surface(2)) == "Surface(delta=2, point_kind='special')"
    assert repr(BigDivisor(1, 2)) == "BigDivisor(a=1, b=2)"
    config = "Configuration(extras=(None, None, 1), n_f1=1, n_m=1)"
    assert repr(flag.base.config) == config
    assert repr(flag) == (
        "FlagValuation(base=DivisorialValuation(surface=Surface(delta=1, "
        f"point_kind='special'), config={config}, r=3, m=(2, 1, 1), beta_bar=(2, 3, 6), "
        "phi_f1=2, phi_m=2, kind='special'), eta=2)"
    )
    for build, message in (
        (lambda: Surface(-1), "delta must be a non-negative integer"),
        (lambda: Surface(True), "delta must be a non-negative integer"),
        (lambda: Surface(1.5), "delta must be a non-negative integer"),
        (lambda: Surface(2.0), "delta must be a non-negative integer"),
        (lambda: Surface(0, "general"), "every point of the delta=0 surface is special"),
        (lambda: Surface(1, "elsewhere"), "unknown point kind 'elsewhere'"),
        (lambda: BigDivisor(True, 2), "divisor coordinates must be integers: True, 2"),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
