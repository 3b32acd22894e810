"""Re-solve queued LPs with SciPy's HiGHS and compare with the exact optima.

Usage: python3 perfbench/highs_check.py LPS.jsonl

Each line holds one LP (maximization, rows with <=, >= or ==, variable
bounds) and the exact optimum as a float.  Prints one JSON object with the
number of LPs checked and the keys whose HiGHS optimum differs by more than
1e-9 (relative to max(1, |value|)).
"""

import json
import sys

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

TOL = 1e-9
OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _matrix(rows, n):
    data, cols, ptr = [], [], [0]
    for idx, vals in rows:
        cols.extend(idx)
        data.extend(vals)
        ptr.append(len(cols))
    return csr_matrix((data, cols, ptr), shape=(len(rows), n))


def solve(record) -> float:
    n = len(record["c"])
    ub, b_ub, eq, b_eq = [], [], [], []
    for idx, vals, rel, rhs in record["rows"]:
        if rel == "<=":
            ub.append((idx, vals))
            b_ub.append(rhs)
        elif rel == ">=":
            ub.append((idx, [-v for v in vals]))
            b_ub.append(-rhs)
        else:
            eq.append((idx, vals))
            b_eq.append(rhs)
    res = linprog(
        -np.asarray(record["c"]),
        A_ub=_matrix(ub, n) if ub else None,
        b_ub=b_ub or None,
        A_eq=_matrix(eq, n) if eq else None,
        b_eq=b_eq or None,
        bounds=[tuple(b) for b in record["bounds"]],
        method="highs",
        options=OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"{record['key']}: HiGHS status {res.status}: {res.message}")
    return -res.fun


def main(path: str) -> int:
    checked, mismatches = 0, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            got = solve(record)
            checked += 1
            if abs(got - record["value"]) > TOL * max(1.0, abs(record["value"])):
                mismatches.append(f"{record['key']}: HiGHS {got!r} vs exact {record['value']!r}")
    print(json.dumps({"checked": checked, "mismatches": mismatches}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
