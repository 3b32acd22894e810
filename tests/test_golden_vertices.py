"""Pinned optimal vertices of the exact LP solvers.

Every LP solve returns the lexicographically smallest optimal vertex in the
LP's variable order, a point fixed by the feasible set, the objective and
the variable order: the pivot rule, the pivot path and rows that cannot move
the optimal face leave it unchanged.  ``golden_vertices.json`` holds a
sha256 digest of the value and the sorted ``(name, value)`` vertex of each
solve below, so a digest changes only when an LP's feasible set, objective
or variable order changes.  After such a deliberate change, re-record it
with

    PYTHONPATH=src python -m tests.test_golden_vertices
"""

import glob
import hashlib
import json
import os
import random

import pytest

from fixedprice import (
    load_instance,
    solve_bm_lp,
    solve_mechanism_lp,
    solve_multibuyer_lp,
    solve_set_function_lp,
)
from fixedprice import lp as lp_module
from fixedprice.extensions import multibuyer_from_json
from fixedprice.rational import format_rational

from .helpers import random_instance, random_two_buyer

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_vertices.json")
FIXTURES = os.path.join(HERE, "..", "fixtures")


def _digest(value, pairs) -> str:
    lines = [f"value={format_rational(value)}"]
    lines += [f"{name}={format_rational(v)}" for name, v in sorted(pairs)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _single_buyer_digests(inst):
    value, mech = solve_mechanism_lp(inst)
    yield "mechanism", _digest(value, (
        (f"{','.join(map(str, lst.entries))}/{j}", p)
        for lst, row in mech.alloc.items() for j, p in row.items()
    ))
    value, sol = solve_bm_lp(inst)
    yield "bm", _digest(value, sol.assignment.items())
    value, f = solve_set_function_lp(inst)
    yield "set_function", _digest(value, (
        (",".join(sorted(map(str, S))), v) for S, v in f.values.items()
    ))


def _multibuyer_digests(inst):
    for mode in ("dsic", "bic"):
        value, sol = solve_multibuyer_lp(inst, mode)
        yield mode, _digest(value, sol.assignment.items())


def golden_instances():
    """``(key, instance, multibuyer)`` for every golden case: the fixtures,
    then seeded random single-buyer and two-buyer instances."""
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            obj = json.load(fh)
        if "lists" in obj:
            yield f"fixture/{name}", load_instance(json.dumps(obj)), False
        elif "buyers" in obj:
            yield f"fixture/{name}", multibuyer_from_json(obj), True
    for k in range(10):
        yield (f"random/{k}",
               random_instance(random.Random(f"golden/{k}"), n_max=5, max_lists=8), False)
    for k in range(4):
        yield f"random-mb/{k}", random_two_buyer(random.Random(f"golden-mb/{k}")), True


def compute_digests() -> dict:
    out = {}
    for key, inst, multibuyer in golden_instances():
        cases = _multibuyer_digests(inst) if multibuyer else _single_buyer_digests(inst)
        for kind, d in cases:
            out[f"{key}/{kind}"] = d
    return out


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_golden_vertices_unchanged(digests):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(digests) == sorted(golden)
    changed = [key for key in golden if digests[key] != golden[key]]
    assert not changed, f"optimal vertex changed for {changed}"


def test_golden_vertices_do_not_depend_on_the_pivot_rule(digests, monkeypatch):
    # With the limit at 0 every pivot takes Bland's smallest index, a path
    # through other bases than Dantzig's; the lex phases end both at the
    # same vertex.
    monkeypatch.setattr(lp_module, "_DEGENERATE_LIMIT", 0)
    assert compute_digests() == digests


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
