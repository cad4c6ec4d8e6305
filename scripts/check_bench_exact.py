#!/usr/bin/env python3
"""Exact-metric gate: compare conflux-bench results with the committed baseline.

Usage:
    python3 scripts/check_bench_exact.py RESULT_DIR [--baseline DIR]

For every untraced result file ``<workload>-seed<S>.json`` in RESULT_DIR (as
written by ``conflux-bench --out=RESULT_DIR``), load the file of the same name
from the baseline directory (default ``bench/suite/baseline``) and require
every metric the baseline marks ``exact`` to have the same median, bit for
bit as written. At a fixed seed those metrics (bytes per rank, volume and
makespan ratios) do not depend on the host, so any difference is a schedule
or pricing change that must update the baseline in the same change. A result
with failed ops fails the gate too.

Exit status: 0 when every exact metric matches, 1 on any mismatch or failed
op, 2 on a usage error (no result files, missing baseline file).
"""

import argparse
import json
import pathlib
import re
import sys

# A result file: <workload>-seed<digits>.json. Traced runs write
# <workload>-seed<S>.trace.json and <workload>-seed<S>-traced.json next to
# it; those are not results.
RESULT_NAME = re.compile(r".+-seed\d+\.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=pathlib.Path)
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=pathlib.Path("bench/suite/baseline"))
    args = parser.parse_args()

    files = sorted(p for p in args.results.glob("*-seed*.json")
                   if RESULT_NAME.fullmatch(p.name))
    if not files:
        print(f"no result files in {args.results}", file=sys.stderr)
        return 2

    problems = 0
    for path in files:
        base_path = args.baseline / path.name
        if not base_path.is_file():
            print(f"{path.name}: no baseline {base_path}", file=sys.stderr)
            return 2
        result = json.loads(path.read_text())
        base = json.loads(base_path.read_text())
        if result.get("failed", 0) != 0:
            print(f"{path.name}: {result['failed']} failed op(s): "
                  f"{result.get('failures')}")
            problems += 1
        for name, metric in base["metrics"].items():
            if not metric.get("exact"):
                continue
            got = result["metrics"].get(name, {}).get("median")
            verdict = "ok" if got == metric["median"] else "DIFFERS"
            print(f"{path.name}: {name} baseline {metric['median']!r} "
                  f"got {got!r} {verdict}")
            problems += got != metric["median"]
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
