"""Pinned optimal vertices of the exact LP solvers.

The simplex uses Bland's rule, so every LP has one deterministic pivot path
and returns one vertex; where the optimum is not unique, a change to the
pivot path shows up as a different vertex.  ``golden_vertices.json`` holds a
sha256 digest of the value and the sorted ``(name, value)`` vertex of each
solve below.  After a deliberate change of the pivot path, re-record it with

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


def compute_digests() -> dict:
    out = {}
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            obj = json.load(fh)
        if "lists" in obj:
            cases = _single_buyer_digests(load_instance(json.dumps(obj)))
        elif "buyers" in obj:
            cases = _multibuyer_digests(multibuyer_from_json(obj))
        else:
            continue
        for kind, d in cases:
            out[f"fixture/{name}/{kind}"] = d
    for k in range(10):
        inst = random_instance(random.Random(f"golden/{k}"), n_max=5, max_lists=8)
        for kind, d in _single_buyer_digests(inst):
            out[f"random/{k}/{kind}"] = d
    for k in range(4):
        for kind, d in _multibuyer_digests(random_two_buyer(random.Random(f"golden-mb/{k}"))):
            out[f"random-mb/{k}/{kind}"] = d
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


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(compute_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
