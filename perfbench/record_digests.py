"""Record the run digests of the given seeds into digests.json.

    python3 perfbench/record_digests.py 0 1 2 6

Runs each workload once per seed (a short run: one repetition) and stores
the digest that run.py reports, so later runs of those seeds check their
outputs against it.  Record only from a commit whose outputs are known to
be right: the digests are the reference that every later commit must match.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    seeds = [int(x) for x in argv]
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for workload in ("heis_bench", "z2_towers", "oracle_search"):
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            if not result["correct"] or isinstance(details["digest"], list):
                print(f"{workload} seed {seed}: not correct, not recorded: {details['problems']}")
                return 1
            table.setdefault(workload, {})[str(seed)] = details["digest"]
            print(f"{workload} seed {seed}: {details['digest']}")
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
