#!/usr/bin/env python3
"""Checks a bench's JSON output against its checked-in baseline.

Usage: python3 bench/compare_baseline.py BASELINE.json RUN.json

Every field but peak_rss_kb (host memory) is simulated and so deterministic:
the two files must be equal once peak_rss_kb is dropped at every depth. Each
differing field is printed with its path and both values, and the exit status
is non-zero on any difference.
"""

import json
import sys

HOST_FIELDS = {"peak_rss_kb"}
MISSING = "<missing>"


def simulated(value):
    if isinstance(value, dict):
        return {k: simulated(v) for k, v in value.items() if k not in HOST_FIELDS}
    if isinstance(value, list):
        return [simulated(v) for v in value]
    return value


def differences(path, baseline, run):
    if isinstance(baseline, dict) and isinstance(run, dict):
        for key in sorted(set(baseline) | set(run)):
            yield from differences(f"{path}.{key}" if path else key,
                                   baseline.get(key, MISSING), run.get(key, MISSING))
    elif isinstance(baseline, list) and isinstance(run, list) and len(baseline) == len(run):
        for i, (b, r) in enumerate(zip(baseline, run)):
            yield from differences(f"{path}[{i}]", b, r)
    elif baseline != run:
        yield f"{path}:\n  baseline {baseline}\n  run      {run}"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        baseline = simulated(json.load(f))
    with open(argv[2]) as f:
        run = simulated(json.load(f))
    diffs = list(differences("", baseline, run))
    for diff in diffs:
        print(diff)
    if diffs:
        sys.exit(f"{argv[2]} differs from the baseline {argv[1]}")


if __name__ == "__main__":
    main(sys.argv)
