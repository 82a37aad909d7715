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
UNGUARDED = {"linalg": ["np.linalg.inv"]}


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


def test_estimates_sweeps_by_one_solve_batch_call():
    # a sweep hands its whole eps x lam grid to one solve_batch and never
    # rebuilds its spec per lam
    source = Path(epslab.__file__).resolve().parent / "estimates.py"
    calls = [node for node in ast.walk(ast.parse(source.read_text()))
             if isinstance(node, ast.Call)]
    callees = [ast.unparse(node.func) for node in calls]
    assert [c for c in callees if c.split(".")[-1] == "solve_batch"] == ["solve_batch"]
    assert [ast.unparse(node) for node, callee in zip(calls, callees)
            if callee.split(".")[-1] == "replace"
            and any(k.arg == "lam" for k in node.keywords)] == []


# process-wide allocator and thread-pool settings: the package measures
# its speed as it is deployed and sets none of them
FORBIDDEN_SETTINGS = ("mallopt", "MALLOC_", "OPENBLAS_NUM_THREADS",
                      "OMP_NUM_THREADS", "threadpoolctl")


def test_no_allocator_or_thread_settings_in_the_package():
    root = Path(epslab.__file__).resolve().parent
    found = [f"{path.name}: {word}" for path in sorted(root.rglob("*.py"))
             for word in FORBIDDEN_SETTINGS if word in path.read_text()]
    assert found == []


def _address_reads(tree) -> list:
    """.base and .ctypes attribute reads and calls of the builtin id in tree."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("base", "ctypes")
            or isinstance(node, ast.Call) and ast.unparse(node.func) == "id"]


def test_no_code_finds_arrays_by_their_memory():
    # solve_batch hands out its solution stacks (elliptic._Batch), so no
    # code recovers a stack from a view's base, its address or its id
    root = Path(epslab.__file__).resolve().parent
    found = {path.name: _address_reads(ast.parse(path.read_text()))
             for path in sorted(root.rglob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def _realness_judgements(tree) -> list:
    """Calls in tree that judge an array real by value: x.imag.any() and
    np.imag(x)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        func = node.func
        if (func.attr == "any" and isinstance(func.value, ast.Attribute)
                and func.value.attr == "imag") or (
                func.attr == "imag" and ast.unparse(func.value) in ("np", "numpy")):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("name", MODULES)
def test_only_linalg_narrow_judges_realness(name):
    # the dtype is decided once, by linalg.narrow where the data enter;
    # every solver downstream follows numpy's type promotion
    source = Path(epslab.__file__).resolve().parent / f"{name}.py"
    tree = ast.parse(source.read_text())
    if name == "linalg":
        narrow = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "narrow")
        assert _realness_judgements(narrow) == ["x.imag.any()"]
        tree.body.remove(narrow)
    assert _realness_judgements(tree) == []


def test_solve_cells_is_given_only_the_stack_and_skip():
    # solve_cells returns the guarded inverses, and each caller applies
    # its own, so no call hands it a coupling or a load
    calls = [node for tree in _package_trees().values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "solve_cells"]
    assert calls
    assert [ast.unparse(node) for node in calls
            if len(node.args) > 1 or any(k.arg != "skip" for k in node.keywords)] == []


def _functions(tree, prefix=""):
    """(qualified name, node) of every function in tree, methods as
    Class.method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _functions(node, name + ".")


def _parameters(fn) -> list:
    a = fn.args
    return [arg.arg for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
            if arg is not None]


def _package_trees():
    root = Path(epslab.__file__).resolve().parent
    return {name: ast.parse((root / f"{name}.py").read_text()) for name in MODULES}


def test_no_solver_takes_a_loads_argument():
    # the load is the problem's data: every solve reads ProblemSpec.loads
    found = [f"{module}.{name}" for module, tree in _package_trees().items()
             for name, fn in _functions(tree) if "loads" in _parameters(fn)]
    assert found == []


def test_the_load_is_sampled_where_stated():
    # ProblemSpec.loads samples the time grid once per spec; only the
    # off-grid points of the limit solve's midpoints and the whole-line
    # grid are sampled elsewhere
    callers = set()
    for module, tree in _package_trees().items():
        for name, fn in _functions(tree):
            inner = {id(n) for _, sub in _functions(fn) for n in ast.walk(sub)}
            if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "f_samples" and id(node) not in inner
                   for node in ast.walk(fn)):
                callers.add(f"{module}.{name}")
    assert callers == {"elliptic.ProblemSpec.loads", "parabolic.cauchy_solve",
                       "multiplier.whole_line_solve"}


# the explicit complex casts of the package, per module, by enclosing
# function; every other kernel keeps its input's kind, so a real operator
# cast to complex on its way to LAPACK shows up here
COMPLEX_CASTS = {
    # narrow states the dtype rule, and _kind names its complex side
    "linalg": ["_kind", "narrow"],
    # the boundary vectors are stored complex so callers may write complex
    # data into them in place; data_for narrows each on its way out
    "discretize": ["BoundaryData.__post_init__", "BoundaryData.__post_init__"],
    # the boundary system is built from G1 and G2, which come from sqrtm's
    # complex Schur form; its eye takes their kind
    "elliptic": ["_boundary_matrix"],
    # the FFT of the load is complex whatever the load's kind
    "multiplier": ["whole_line_solve"],
    # config vectors parse as complex; BoundaryData.data_for and
    # cauchy_solve narrow them where they enter a solve
    "cli": ["Config.getvector", "Config.getvector"],
    # preset boundary data take a complex scale; data_for narrows them
    "presets": ["_data"],
}


def _is_complex_cast(node) -> bool:
    """np.complex128, dtype=complex or astype(complex)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "complex128"
    if isinstance(node, ast.keyword):
        return node.arg == "dtype" and isinstance(node.value, ast.Name) and node.value.id == "complex"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype" and len(node.args) > 0
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "complex")


def _complex_casts(tree, scope="") -> list:
    """Qualified name of the function around each complex cast in tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}{node.name}."
        elif _is_complex_cast(node):
            found.append(scope.rstrip(".") or "<module>")
        found += _complex_casts(node, inner)
    return sorted(found)


@pytest.mark.parametrize("name", MODULES)
def test_complex_casts_stay_where_stated(name):
    assert _complex_casts(_package_trees()[name]) == COMPLEX_CASTS.get(name, [])
