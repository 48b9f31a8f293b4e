#!/usr/bin/env python3
"""Compare two JSONL row files written by the CLI, ignoring the header line.

Reports how many rows differ byte for byte (and the first few of them), the
largest relative difference of every float field, and any non-float field
whose value changed.  Exits 0 when the rows are byte-identical, 1 on any
difference, and 2 when a file cannot be read or a row is not JSON.

    python scripts/compare_rows.py A.jsonl B.jsonl
"""

import argparse
import json
import sys

SHOWN = 5  # byte-different rows listed in full


def _rows(path: str) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()[1:]


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(a_lines: list[str], b_lines: list[str], out=None) -> bool:
    """Print the comparison; return True when the rows are byte-identical."""
    same = True
    if len(a_lines) != len(b_lines):
        print(f"row counts differ: {len(a_lines)} vs {len(b_lines)}", file=out)
        same = False
    rel: dict[str, float] = {}
    changed: dict[str, int] = {}
    differing = []
    for i, (la, lb) in enumerate(zip(a_lines, b_lines)):
        ra, rb = json.loads(la), json.loads(lb)
        for key in sorted(set(ra) | set(rb)):
            va, vb = ra.get(key), rb.get(key)
            if isinstance(va, float) and isinstance(vb, float):
                rel[key] = max(rel.get(key, 0.0), _rel(va, vb))
            elif va != vb or type(va) is not type(vb):
                changed[key] = changed.get(key, 0) + 1
        if la != lb:
            differing.append(i)
    print(f"{min(len(a_lines), len(b_lines))} rows compared, "
          f"{len(differing)} byte-different", file=out)
    for i in differing[:SHOWN]:
        print(f"  row {i + 1}:\n    A {a_lines[i]}\n    B {b_lines[i]}", file=out)
    for key in sorted(rel):
        print(f"  float {key}: max relative difference {rel[key]:.3e}", file=out)
    for key in sorted(changed):
        print(f"  field {key}: {changed[key]} rows changed", file=out)
    return same and not differing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    try:
        same = compare(_rows(args.a), _rows(args.b))
    except (OSError, ValueError) as exc:  # unreadable file or a line that is not JSON
        print(f"cannot read rows: {exc}", file=sys.stderr)
        return 2
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
