"""Make ./src importable in subprocesses too.

pyproject's pytest `pythonpath` puts src/ on sys.path of the test
process only; tests that run `python -m epslab` in a child process need
it in PYTHONPATH as well, so the suite runs from a fresh checkout
without installing the package.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
