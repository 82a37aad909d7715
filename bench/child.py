"""Fresh-process probes for the benchmark; prints one JSON line.

    python3 bench/child.py setup <ini> <preset> <make_pair kwargs as JSON>
        time to import epslab.cli, load the config and build the preset
        pair (which runs the positivity scan)
    python3 bench/child.py run <cli arguments...>
        one CLI run; reports its exit code and the peak resident memory

Run from the root of a checkout: epslab is imported from ./src.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))


def setup(ini: str, preset: str, kwargs: str) -> dict:
    from epslab import cli, presets
    cli.load_config(ini)
    presets.make_pair(preset, **json.loads(kwargs))
    return {"setup_s": time.perf_counter() - T0}


def run(argv) -> dict:
    from epslab import cli
    rc = cli.main(argv)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rc": rc, "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        out = setup(*sys.argv[2:5])
    elif sys.argv[1] == "run":
        out = run(sys.argv[2:])
    else:
        sys.exit(f"unknown probe {sys.argv[1]!r}")
    print(json.dumps(out))
