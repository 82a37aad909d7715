"""In-memory span recorder wrapped around epslab's public functions.

`Tracer.install()` replaces each target function everywhere it is bound:
the defining module, every epslab module that imported the name, and the
class for methods and constructors.  Each call records one span (name,
start, end, parent, thread, failed).  Worker threads of a pool start with
an empty stack; their top-level spans take as parent the innermost span
open on the installing thread, which is the call that fanned them out.

Nothing in epslab changes: `uninstall()` puts every original back.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# (module, attribute path) of every traced function; "Class.method" wraps
# the method, a bare class name wraps its constructor
TARGETS = (
    ("linalg", "sqrtm"), ("linalg", "expm"), ("linalg", "op_norm"),
    ("linalg", "mat_solve"), ("linalg", "inv"),
    ("elliptic", "full_solve"), ("elliptic", "compute_q_system"),
    ("elliptic", "homogeneous_solution"), ("elliptic", "direct_solve"),
    ("multiplier", "whole_line_solve"), ("multiplier", "resolvent_symbol"),
    ("multiplier", "LineSolution.on_grid"),
    ("parabolic", "cauchy_solve"),
    ("discretize", "kfunctional_norm"), ("discretize", "mixed_norm"),
    ("discretize", "OperatorPair"),
    ("estimates", "coercive_report"), ("estimates", "uniformity_sweep"),
    ("estimates", "convergence_study"),
    ("exprparse", "parse"), ("exprparse", "eval_expr"),
    ("cli", "run"),
)

# functions whose own code raises a typed error (SqrtNotConverged,
# SingularMatrix, Overflow, ParseError, EvalError); they also report `fail`
FAILING = frozenset({
    "linalg.sqrtm", "linalg.expm", "linalg.mat_solve", "linalg.inv",
    "elliptic.homogeneous_solution", "parabolic.cauchy_solve",
    "exprparse.parse", "exprparse.eval_expr",
})

NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "failed")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.failed = False


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans = []

    def _stack(self) -> list:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home else None
            span = Span(name, clock(), parent, threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every target; epslab must be importable."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._home = threading.get_ident()
        for mod_name, _ in TARGETS:
            importlib.import_module(f"epslab.{mod_name}")
        modules = [m for k, m in sys.modules.items()
                   if k == "epslab" or k.startswith("epslab.")]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            home = sys.modules[f"epslab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch(getattr(home, cls_name), meth, name)
                continue
            obj = getattr(home, attr)
            if isinstance(obj, type):
                self._patch(obj, "__init__", name)
                continue
            wrapper = self._wrap(name, obj)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is obj:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapper)

    def _patch(self, owner, attr: str, name: str) -> None:
        orig = owner.__dict__[attr]
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []


def _covered(children, lo: float, hi: float) -> float:
    """Length of the union of the children's intervals inside [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s in sorted(children, key=lambda c: c.start):
        a, b = max(s.start, lo), min(s.end, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans, jobs: int) -> dict:
    """Per-name calls, busy_s, self_s and fail, plus the sweep's parallel_eff.

    busy_s sums span durations; self_s subtracts the part of each span
    that its children (in any thread) cover.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    stats = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0}
             for n in NAMES}
    cells = sweep = 0.0
    for s in spans:
        st = stats[s.name]
        dur = s.end - s.start
        st["calls"] += 1
        st["busy_s"] += dur
        st["self_s"] += dur - _covered(children.get(id(s), ()), s.start, s.end)
        st["fail"] += s.failed
        if s.name == "estimates.uniformity_sweep":
            sweep += dur
        elif (s.name == "estimates.coercive_report" and s.parent is not None
              and s.parent.name == "estimates.uniformity_sweep"):
            cells += dur
    stats["parallel_eff"] = cells / (jobs * sweep) if sweep > 0 else 0.0
    return stats


def dump(spans) -> dict:
    """Spans as plain lists: [name, start, end, parent index, thread, failed]."""
    index = {id(s): i for i, s in enumerate(spans)}
    threads = {}
    rows = []
    for s in spans:
        rows.append([s.name, s.start, s.end,
                     index.get(id(s.parent), -1) if s.parent else -1,
                     threads.setdefault(s.thread, len(threads)), s.failed])
    return {"fields": ["name", "start", "end", "parent", "thread", "failed"],
            "spans": rows}
