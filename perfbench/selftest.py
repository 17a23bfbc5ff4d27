"""Determinism self-test: repeated and traced runs give identical outputs.

Usage::

    python3 perfbench/selftest.py --workload iscas --seed 0

Runs the workload twice untraced and once traced, each in its own
process, and compares the sha256 digests of every output BLIF across the
three runs (the traced run also checks its traced pass against its own
untraced pass).  Exit code 0 when all agree, 1 otherwise.  Refactors that
claim bit-identical output are judged against this.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="perfbench determinism self-test")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    records = HERE.parent / ".perfbench" / "selftest"
    records.mkdir(parents=True, exist_ok=True)
    digests = {}
    for label, trace in (("first", 0), ("second", 0), ("traced", 1)):
        path = records / f"{args.workload}-s{args.seed}-{label}.json"
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "1", "--trace", str(trace), "--record", str(path),
            ],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            print(f"selftest: {label} run failed:\n{done.stderr}", file=sys.stderr)
            return 1
        record = json.loads(path.read_text())
        digests[label] = record["digests"]
        if trace:
            digests["traced pass"] = record["digests_traced"]
        if record["nondeterministic"] or record["failures"]:
            print(f"selftest: {label} run reported {record['failures'] or record['nondeterministic']}")
            return 1
    reference = digests["first"]
    status = 0
    for label, seen in digests.items():
        differ = sorted(name for name in reference if seen.get(name) != reference[name])
        print(f"{label:<12} " + ("identical" if not differ else "DIFFERS: " + ", ".join(differ)))
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
