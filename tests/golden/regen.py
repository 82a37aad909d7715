"""Golden outputs of the shipped scenarios: run, compare and regenerate.

The scenarios are every configs/*.ini plus the INIs next to this script
(the seed-1 benchmark workloads, checked in as text).  Each one's
output files, all but plot.py, live under golden/<scenario>/.
tests/test_golden.py reruns every scenario and compares it with
`compare`: text exactly, numbers to RTOL of their column's scale.

    python3 tests/golden/regen.py

prints the largest change per file and column against the golden files
and then rewrites them; paste its table into CHANGES.md.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RTOL = 1e-9


def scenarios() -> dict:
    """Scenario name -> INI path."""
    inis = sorted((ROOT / "configs").glob("*.ini")) + sorted(HERE.glob("*.ini"))
    return {ini.stem: ini for ini in inis}


def run(ini: Path, out: Path) -> int:
    """One CLI run of ini into out; returns the exit code."""
    from epslab.cli import main
    return main(["--config", str(ini), "--out", str(out)])


def output_files(out: Path) -> list:
    return sorted(p.name for p in out.iterdir() if p.name != "plot.py")


def _number(token):
    try:
        return float(token)
    except ValueError:
        return token


def _flatten(obj, key: str, out: list) -> None:
    # list entries share their parent's column
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.append(("key", k))
            _flatten(v, f"{key}.{k}" if key else k, out)
    elif isinstance(obj, list):
        out.append(("len", len(obj)))
        for v in obj:
            _flatten(v, key, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out.append((key, float(obj)))
    else:
        out.append((key, obj))


def tokens(path: Path) -> list:
    """(column, value) pairs of one output file, in file order.

    Numbers are floats and everything else compares as text: comment
    lines (scenario name and config hash), CSV headers, statuses and
    JSON keys.  A CSV column is named by its header, a .dat column by
    its position, and a JSON leaf by its key path.
    """
    text = path.read_text()
    if path.suffix == ".json":
        out = []
        _flatten(json.loads(text), "", out)
        return out
    out, names = [], None
    for line in text.splitlines():
        if line.startswith("#"):
            out.append(("#", line))
        elif path.suffix == ".csv" and names is None:
            names = line.split(",")
            out.append(("header", line))
        else:
            cells = line.split(",") if path.suffix == ".csv" else line.split()
            out.append(("cells", len(cells)))
            for i, cell in enumerate(cells):
                out.append((names[i] if names and i < len(names) else str(i),
                            _number(cell)))
    return out


def _scales(golden: dict) -> dict:
    """Largest finite magnitude per (file, column) of one scenario.

    uN_im is roundoff on real problems and takes uN_re's scale; the
    converge floor is a roundoff-level difference on zero-load runs and
    takes x_gap's.
    """
    own = {}
    for name, toks in golden.items():
        for col, v in toks:
            if isinstance(v, float):
                m = abs(v) if math.isfinite(v) else 0.0
                own[name, col] = max(own.get((name, col), 0.0), m)
    x_gap = max((s for (_, col), s in own.items() if col == "x_gap"), default=None)
    scales = {}
    for name, col in own:
        m = re.fullmatch(r"u(\d+)_im", col)
        if m and (name, f"u{m[1]}_re") in own:
            scales[name, col] = own[name, f"u{m[1]}_re"]
        elif col == "floor" and x_gap is not None:
            scales[name, col] = x_gap
        else:
            scales[name, col] = own[name, col]
    return scales


def _change(old: float, new: float, scale: float) -> float:
    if math.isnan(old) or math.isnan(new) or math.isinf(old) or math.isinf(new):
        return 0.0 if old == new or (math.isnan(old) and math.isnan(new)) else math.inf
    if old == new:
        return 0.0
    return abs(new - old) / scale if scale > 0 else math.inf


def compare(golden_root: Path, new_root: Path) -> tuple:
    """Compare new_root/<scenario>/ against golden_root/<scenario>/.

    Returns (changes, problems): changes maps (scenario/file, column) to
    the largest change of a number relative to its column's scale, and
    problems lists every mismatch of text, layout or file set.
    """
    changes, problems = {}, []
    for scenario in scenarios():
        old_dir, new_dir = golden_root / scenario, new_root / scenario
        if not old_dir.is_dir():
            problems.append(f"{scenario}: no golden files")
            continue
        names = output_files(old_dir)
        if output_files(new_dir) != names:
            problems.append(f"{scenario}: files {output_files(new_dir)} != {names}")
            continue
        golden = {n: tokens(old_dir / n) for n in names}
        scales = _scales(golden)
        for n in names:
            where = f"{scenario}/{n}"
            new = tokens(new_dir / n)
            if len(new) != len(golden[n]):
                problems.append(f"{where}: {len(new)} tokens != {len(golden[n])}")
                continue
            for (col, a), (col_b, b) in zip(golden[n], new):
                if col != col_b or isinstance(a, float) != isinstance(b, float):
                    problems.append(f"{where}: {col_b}={b!r} where {col}={a!r}")
                elif not isinstance(a, float):
                    if a != b:
                        problems.append(f"{where}: {col}: {b!r} != {a!r}")
                else:
                    d = _change(a, b, scales[n, col])
                    changes[where, col] = max(changes.get((where, col), 0.0), d)
    return changes, problems


def table(changes: dict) -> str:
    """Largest change per file and column; one row per file whose numbers
    did not move at all."""
    rows, files = [], {}
    for (where, col), d in changes.items():
        files[where] = max(files.get(where, 0.0), d)
        if d > 0:
            rows.append((where, col, d))
    rows += [(where, "(every column)", 0.0) for where, d in files.items() if d == 0]
    wide = [max((len(r[i]) for r in rows), default=0) for i in (0, 1)]
    return "\n".join(f"{w:<{wide[0]}}  {c:<{wide[1]}}  {d:.1e}" for w, c, d in sorted(rows))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        new_root = Path(tmp)
        for scenario, ini in scenarios().items():
            code = run(ini, new_root / scenario)
            if code != 0:
                print(f"{scenario}: exit code {code}; golden files left as they are")
                return 1
        changes, problems = compare(HERE, new_root)
        print("\n".join(problems + [table(changes)]))
        for scenario in scenarios():
            shutil.rmtree(HERE / scenario, ignore_errors=True)
            (HERE / scenario).mkdir()
            for name in output_files(new_root / scenario):
                shutil.copy(new_root / scenario / name, HERE / scenario / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
