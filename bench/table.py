"""Per-workload table of where the time went, from traced runs.

    python3 bench/table.py [trace.json ...]

With no arguments reads every .bench_out/*/trace.json written by
`bench/run.py --trace 1`.  For each workload and each traced
module.function it prints calls, self time, busy (inclusive) time and
self time as a share of the untraced wall_s, sorted by self time.  With
--jobs 2 self times add up over both worker threads, so the shares can
sum above 100%.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Span, aggregate, NAMES


def load_spans(trace: dict) -> list:
    spans = []
    for name, start, end, parent, thread, failed in trace["spans"]:
        span = Span(name, start, spans[parent] if parent >= 0 else None, thread)
        span.end = end
        span.failed = failed
        spans.append(span)
    return spans


def table(trace: dict) -> str:
    stats = aggregate(load_spans(trace), trace["jobs"])
    wall = trace["wall_s"]
    lines = [f"== {trace['workload']} seed={trace['seed']} "
             f"ini_hash={trace['ini_hash']} wall_s={wall:.4f} "
             f"traced_wall_s={trace['traced_wall_s']:.4f} "
             f"parallel_eff={stats['parallel_eff']:.3f}",
             f"{'module.function':40s} {'calls':>8s} {'self_s':>10s} "
             f"{'busy_s':>10s} {'self/wall':>9s}"]
    rows = sorted(NAMES, key=lambda n: -stats[n]["self_s"])
    for name in rows:
        st = stats[name]
        lines.append(f"{name:40s} {st['calls']:8d} {st['self_s']:10.4f} "
                     f"{st['busy_s']:10.4f} {st['self_s'] / wall:9.1%}")
    return "\n".join(lines)


def main(paths) -> int:
    files = [Path(p) for p in paths] or sorted(Path(".bench_out").glob("*/trace.json"))
    if not files:
        print("no trace files; run bench/run.py --trace 1 first", file=sys.stderr)
        return 1
    for path in files:
        print(table(json.loads(path.read_text())))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
