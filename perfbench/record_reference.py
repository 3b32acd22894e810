"""Record the exact first-round results of each workload into reference.json.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py 0-29

Runs the first round of every workload once per seed, checks each result
with the oracle, and stores the pinned part of each summary (values and
deterministic witnesses, not LP vertices).  CLI results on the fixtures do
not depend on the seed and are stored once, under "*".  Re-record only when
a change is meant to alter an exact result.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import Counter

import run


def seeds_from(spec: str):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv) -> int:
    root = run.find_root()
    if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=run.HASH_SEED))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads
    from oracle import Oracle, reference_view

    out = {}
    for name in run.WORKLOADS:
        table = out.setdefault(name, {})
        for seed in seeds_from(argv[0]):
            work = run.workdir_for(root, name, seed)
            wl = workloads.build(name, seed, work, root)
            oracle = Oracle(None, os.path.join(work, "highs-record.jsonl"), wl.orders)
            tally = {"escaped": Counter(), "wrong": []}
            for op in wl.rounds[0]:
                _, result, error = run.run_op(op, lambda: 0.0)
                run.judge(op, result, error, oracle, tally)
            oracle.close()
            if tally["wrong"]:
                sys.exit(f"{name} seed {seed}: {tally['wrong'][:3]}")
            for key, summary in oracle.summaries.items():
                shared = name == "cli_json" and not re.match(r"r\d+/", key)
                slot = table.setdefault("*" if shared else str(seed), {})
                view = reference_view(summary)
                if shared and slot.get(key, view) != view:
                    sys.exit(f"{name}: {key} differs between seeds")
                slot[key] = view
            print(f"{name} seed {seed}: {len(oracle.summaries)} results", file=sys.stderr)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
