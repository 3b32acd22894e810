"""Smoke test of the benchmark itself.

Usage, from the root of a checkout: python3 perfbench/smoke.py

Runs the first round of each workload (``--seconds 0``) untraced and traced,
and checks that each run is correct and emits exactly the metric names
listed in BENCHMARK.json.  Then feeds the oracle deliberately corrupted
results and checks that it rejects each one.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import run


def tiny_runs(root: str) -> list:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"] for m in bench["end_to_end"]},
              1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {lines[-2][:300]}")
            names = set(result["metrics"])
            if names != wanted[trace]:
                problems.append(f"{label}: metrics differ: missing {wanted[trace] - names}, "
                                f"extra {names - wanted[trace]}")
            print(f"{label}: {result['attempted']} ops, {len(names)} metrics", file=sys.stderr)
    return problems


def oracle_rejects(root: str) -> list:
    """Each corrupted result must raise WrongResult."""
    import workloads
    from oracle import Oracle, WrongResult

    problems = []
    work = run.workdir_for(root, "smoke", 0)

    def rejected(label, op, corrupt, oracle):
        result = op.call()
        try:
            oracle.accept(op.key, op.check(corrupt(result), oracle))
        except WrongResult:
            return
        problems.append(f"oracle accepted a corrupted {label}")

    def first(wl, kind):
        return next(op for op in wl.rounds[0] if op.kind == kind)

    highs = os.path.join(work, "highs-smoke.jsonl")
    mech = workloads.build("mech_lp", 0, work, root)
    rejected("mechanism LP value", first(mech, "solve_mechanism_lp"),
             lambda r: (r[0] + Fraction(1, 1000), r[1]), Oracle(None, highs, mech.orders))
    enum = workloads.build("enum_mnl", 0, work, root)
    rejected("assortment value", first(enum, "optimal_assortment"),
             lambda r: (r[0], r[1] + 1), Oracle(None, highs, enum.orders))
    cli = workloads.build("cli_json", 0, work, root)
    clash = next(op for op in cli.rounds[0] if op.key == "four_item_clash/solve-assortment")
    rejected("CLI report", clash, lambda r: (r[0], r[1].replace('"7/6"', '"7/5"'), r[2]),
             Oracle(None, highs, cli.orders))
    # A value that passes every check but differs from the recorded reference.
    op = first(enum, "gen_mnl")
    reference = {op.key: {"lists": -1, "digest": "0"}}
    rejected("reference value", op, lambda r: r, Oracle(reference, highs))
    return problems


def main() -> int:
    root = run.find_root()
    if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=run.HASH_SEED))
    sys.path.insert(0, os.path.join(root, "src"))
    problems = oracle_rejects(root) + tiny_runs(root)
    for line in problems:
        print("FAIL", line)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
