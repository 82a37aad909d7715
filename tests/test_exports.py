import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import epslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(epslab.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"epslab.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def _traced_names():
    """TARGETS and FAILING of bench/spans.py, read without importing bench."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "spans.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name == "TARGETS":
                found[name] = ast.literal_eval(node.value)
            elif name == "FAILING":  # FAILING = frozenset({...})
                found[name] = ast.literal_eval(node.value.args[0])
    return found["TARGETS"], found["FAILING"]


def test_traced_names_resolve():
    targets, failing = _traced_names()
    unresolved = []
    for module, path in targets:
        obj = importlib.import_module(f"epslab.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            unresolved.append(f"{module}.{path}")
    assert unresolved == []
    assert failing <= {f"{module}.{path}" for module, path in targets}


def _traced(module: str, attr: str):
    obj = importlib.import_module(f"epslab.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj.__init__ if isinstance(obj, type) else obj


def test_tracer_installs_on_every_target():
    # bench/run.py --trace 1 installs this tracer; a traced name missing
    # from src/ makes install raise AttributeError
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [hasattr(_traced(*target), "__wrapped__") for target in spans.TARGETS]
    finally:
        tracer.uninstall()
    assert all(wrapped)
    assert not any(hasattr(_traced(*target), "__wrapped__") for target in spans.TARGETS)


def _scipy_imports(tree, in_functions_ok: bool) -> list:
    """scipy imports in tree, but for those inside a function body when
    in_functions_ok."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules) and not (
                in_functions_ok and id(node) in inside):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("name", MODULES)
def test_scipy_imported_only_inside_linalg_functions(name):
    # every factorization goes through linalg.solve_cells, which holds the
    # guard, and only linalg.sqrtm and linalg.expm need scipy: they import
    # it when called, so solve, sweep and check runs never load it
    source = Path(epslab.__file__).resolve().parent / f"{name}.py"
    assert _scipy_imports(ast.parse(source.read_text()), name == "linalg") == []


# the numpy factorizations that linalg.solve_cells does not guard, per
# module; linalg's own is INV, the inverse its guard wraps
UNGUARDED = {"multiplier": ["np.linalg.inv"], "linalg": ["np.linalg.inv"]}


def _unguarded_uses(tree) -> list:
    """numpy or scipy linalg solve, inv and det named in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("solve", "inv", "det"):
            owner = ast.unparse(node.value)
            if owner.endswith("linalg") and owner.split(".")[0] in ("np", "numpy", "scipy"):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "scipy.linalg"):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name in ("solve", "inv", "det")]
    return sorted(found)


@pytest.mark.parametrize("name", MODULES)
def test_unguarded_factorizations_stay_where_stated(name):
    # linalg's docstring names these as the factorizations outside its guard
    source = Path(epslab.__file__).resolve().parent / f"{name}.py"
    assert _unguarded_uses(ast.parse(source.read_text())) == UNGUARDED.get(name, [])


def test_estimates_leaves_the_route_choice_to_solve_batch():
    # elliptic.solve_batch alone picks the modes or the finite difference route
    source = Path(epslab.__file__).resolve().parent / "estimates.py"
    names = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name for a in node.names}
    assert names & {"joint_eigenbasis", "direct_batch"} == set()


# process-wide allocator and thread-pool settings: the package measures
# its speed as it is deployed and sets none of them
FORBIDDEN_SETTINGS = ("mallopt", "MALLOC_", "OPENBLAS_NUM_THREADS",
                      "OMP_NUM_THREADS", "threadpoolctl")


def test_no_allocator_or_thread_settings_in_the_package():
    root = Path(epslab.__file__).resolve().parent
    found = [f"{path.name}: {word}" for path in sorted(root.rglob("*.py"))
             for word in FORBIDDEN_SETTINGS if word in path.read_text()]
    assert found == []
