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


def _lapack_uses(tree) -> list:
    """Imported or referenced names in tree that reach LAPACK or GESV."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return [n for n in names if {"lapack", "GESV"} & set(n.split("."))]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "linalg"])
def test_lapack_only_in_linalg(name):
    # every factorization goes through linalg.gesv, which holds the guard
    source = Path(epslab.__file__).resolve().parent / f"{name}.py"
    assert _lapack_uses(ast.parse(source.read_text())) == []


# the numpy factorizations that linalg.gesv does not run, per module
UNGUARDED = {"multiplier": ["np.linalg.inv"],
             "discretize": ["np.linalg.det", "np.linalg.solve"]}


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
    # linalg's docstring names these as the LU factorizations gesv does not run
    source = Path(epslab.__file__).resolve().parent / f"{name}.py"
    assert _unguarded_uses(ast.parse(source.read_text())) == UNGUARDED.get(name, [])


# process-wide allocator and thread-pool settings: the package measures
# its speed as it is deployed and sets none of them
FORBIDDEN_SETTINGS = ("mallopt", "MALLOC_", "OPENBLAS_NUM_THREADS",
                      "OMP_NUM_THREADS", "threadpoolctl")


def test_no_allocator_or_thread_settings_in_the_package():
    root = Path(epslab.__file__).resolve().parent
    found = [f"{path.name}: {word}" for path in sorted(root.rglob("*.py"))
             for word in FORBIDDEN_SETTINGS if word in path.read_text()]
    assert found == []
