#!/usr/bin/env python3
"""Checks a bench's standard output against its golden block in a document.

Usage: python3 bench/check_golden.py DOC BENCHES NAME COMMAND [ARG...]

DOC (EXPERIMENTS.md) keeps each bench's exact standard output in its own
section, as a fenced block between two markers:

    <!-- BEGIN GOLDEN: NAME -->
    ```text
    ...
    ```
    <!-- END GOLDEN: NAME -->

BENCHES is the comma-separated list of every name that owns a block. The
check runs COMMAND and fails if it exits non-zero, if NAME has no block, if
DOC holds a block that no name in BENCHES owns, or if the output differs from
NAME's block by one byte. On a difference it prints a unified diff and the
block to paste into DOC in place of the old one.
"""

import difflib
import re
import subprocess
import sys

# Markers stand on lines of their own.
BEGIN = re.compile(rb"^<!-- BEGIN GOLDEN: ", re.MULTILINE)
BLOCK = re.compile(rb"^<!-- BEGIN GOLDEN: (\S+) -->\n(.*?)^<!-- END GOLDEN: (\S+) -->$",
                   re.MULTILINE | re.DOTALL)
FENCE_OPEN = b"```text\n"
FENCE_CLOSE = b"```\n"


def blocks(doc):
    """Every golden block in `doc`, by name; exits on a malformed one."""
    found = {}
    for match in BLOCK.finditer(doc):
        name, body, end = match.group(1).decode(), match.group(2), match.group(3).decode()
        if end != name:
            sys.exit(f"golden block {name} ends with the marker of {end}")
        if name in found:
            sys.exit(f"two golden blocks are named {name}")
        found[name] = body
    if len(found) != len(BEGIN.findall(doc)):
        sys.exit("a BEGIN GOLDEN marker has no matching END GOLDEN marker")
    return found


def lines(data):
    return data.decode("utf-8", "replace").splitlines(keepends=True)


def main(argv):
    if len(argv) < 5:
        sys.exit(__doc__)
    doc_path, owners, name, command = argv[1], set(argv[2].split(",")), argv[3], argv[4:]
    with open(doc_path, "rb") as f:
        golden = blocks(f.read())

    failures = []
    orphans = sorted(set(golden) - owners)
    if orphans:
        failures.append(f"{doc_path} holds golden blocks no bench owns: {', '.join(orphans)}")

    run = subprocess.run(command, stdout=subprocess.PIPE)
    if run.returncode != 0:
        failures.append(f"{' '.join(command)} exited with status {run.returncode}")
    expected = FENCE_OPEN + run.stdout + FENCE_CLOSE

    if name not in golden:
        failures.append(f"{doc_path} has no golden block for {name}")
    elif golden[name] != expected:
        sys.stdout.writelines(difflib.unified_diff(
            lines(golden[name]), lines(expected), f"{doc_path} ({name})", f"{name} output"))
        failures.append(f"the output of {name} differs from its golden block in {doc_path}")

    if failures:
        if golden.get(name) != expected and run.returncode == 0:
            print(f"\nthe block for {name}, to paste into {doc_path}:\n")
            sys.stdout.flush()
            sys.stdout.buffer.write(b"<!-- BEGIN GOLDEN: " + name.encode() + b" -->\n" +
                                    expected + b"<!-- END GOLDEN: " + name.encode() + b" -->\n")
            sys.stdout.flush()
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main(sys.argv)
