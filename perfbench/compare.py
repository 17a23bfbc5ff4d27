"""Compare detail records of two benchmark runs.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a record ``run.py`` wrote (``--record`` or
``.perfbench/records/``).  Prints every end-to-end metric side by side
with the new/base ratio and whether the output digests agree.

Records are paired only when their environment stamps agree on the
workload, seed and whether the native BDD kernel was loaded: the
pure-Python kernel is several times slower, so a mixed pair would read
as a regression.  Exit codes: 0 compared, 3 refused, 2 bad input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"compare: cannot read record {path}: {exc}") from None


def refusal(base: dict, new: dict) -> str | None:
    if base["workload"] != new["workload"]:
        return f"workloads differ: {base['workload']} vs {new['workload']}"
    for key in ("native_kernel", "seed"):
        if base["env"][key] != new["env"][key]:
            return f"{key} differs: {base['env'][key]} vs {new['env'][key]}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    reason = refusal(base, new)
    if reason is not None:
        print(f"compare: refused: {reason}", file=sys.stderr)
        return 3
    print(f"workload {base['workload']} seed {base['env']['seed']}")
    for key, value in base["metrics"].items():
        other = new["metrics"].get(key)
        if value is None or other is None:
            continue
        ratio = other / value if value else float("nan")
        print(f"  {key:<14} {value:>14.4f} {other:>14.4f}  x{ratio:.4f}")
    changed = sorted(
        name for name, digest in base["digests"].items() if new["digests"].get(name) != digest
    )
    print("  outputs " + ("identical" if not changed else "differ: " + ", ".join(changed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
