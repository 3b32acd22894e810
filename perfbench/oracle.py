"""Correctness checks that run outside the timed spans.

A check raises :class:`WrongResult` when an operation's output is wrong.
Besides the per-operation checks written in ``workloads.py``, the oracle
keeps:

* every operation's exact summary, so a repeated input must give exactly
  the same output within a run;
* the exact values recorded in ``reference.json`` for a set of seeds;
* order relations between values of one input (OPT^S <= OPT^x <= OPT^bm,
  DSIC <= BIC, ...), checked once all their operands are known;
* the LPs to be re-solved in floating point by SciPy's HiGHS.  They are
  written to a file and solved by ``highs_check.py`` in a child process
  after the timed loop, so SciPy is never loaded into the measured process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List, Optional, Tuple


class WrongResult(Exception):
    """An operation returned a result the oracle rejects."""


def fmt(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def names(items) -> List[str]:
    return sorted(str(j) for j in items)


def reference_view(summary: dict) -> dict:
    """The part of a summary pinned across code versions (no LP vertex)."""
    return {k: v for k, v in summary.items() if k != "vertex"}


class Oracle:
    def __init__(self, reference: Optional[Dict[str, dict]], highs_path: str,
                 orders: List[Tuple[str, Tuple[str, ...]]] = ()):
        self.reference = reference or {}
        self.summaries: Dict[str, dict] = {}
        self.values: Dict[Tuple[str, str], Fraction] = {}
        # group -> label chains whose recorded values must not decrease
        self.orders: Dict[str, List[Tuple[str, ...]]] = defaultdict(list)
        for group, chain in orders:
            self.orders[group].append(chain)
        self.checked_orders: set = set()
        self.memo: Dict[object, object] = {}
        self.highs_path = highs_path
        self.highs_keys: set = set()
        self.reference_hits = 0
        self._highs = open(highs_path, "w", encoding="utf-8")

    def close(self) -> None:
        self._highs.close()

    @staticmethod
    def expect(condition: bool, message: str) -> None:
        if not condition:
            raise WrongResult(message)

    def once(self, key, compute):
        """Value of ``compute()`` computed once per key (reference answers)."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def accept(self, key: str, summary: dict) -> dict:
        """Pin ``summary`` for ``key``: repeats and reference must agree."""
        seen = self.summaries.get(key)
        if seen is None:
            self.summaries[key] = summary
        elif seen != summary:
            raise WrongResult(f"{key}: result changed between repeats")
        ref = self.reference.get(key)
        if ref is not None:
            if ref != reference_view(summary):
                raise WrongResult(f"{key}: {reference_view(summary)} != reference {ref}")
            self.reference_hits += 1
        return summary

    def value(self, group: str, label: str, value: Fraction) -> None:
        """Record one exact value of an input, then check the order relations."""
        old = self.values.get((group, label))
        if old is not None and old != value:
            raise WrongResult(f"{group}/{label}: value changed between repeats")
        self.values[(group, label)] = value
        for chain in self.orders.get(group, ()):
            if (group, chain) in self.checked_orders:
                continue
            got = [self.values.get((group, lab)) for lab in chain]
            if any(v is None for v in got):
                continue
            self.checked_orders.add((group, chain))
            for (la, a), (lb, b) in zip(zip(chain, got), zip(chain[1:], got[1:])):
                if not a <= b:
                    raise WrongResult(f"{group}: {la}={fmt(a)} exceeds {lb}={fmt(b)}")

    def highs(self, key: str, lp, value: Fraction) -> None:
        """Queue a RationalLP for the floating-point cross-check (once per key)."""
        if key in self.highs_keys:
            return
        self.highs_keys.add(key)
        index = {var.name: i for i, var in enumerate(lp.variables)}
        rows = []
        for row in lp.rows:
            rows.append([
                [index[name] for name, _ in row.coefs],
                [float(c) for _, c in row.coefs],
                row.rel,
                float(row.rhs),
            ])
        obj = [0.0] * len(lp.variables)
        for name, c in lp.objective.items():
            obj[index[name]] = float(c)
        bounds = [
            [float(v.lo), None if v.hi is None else float(v.hi)] for v in lp.variables
        ]
        record = {"key": key, "value": float(value), "c": obj, "rows": rows,
                  "bounds": bounds}
        self._highs.write(json.dumps(record) + "\n")


HIGHS_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "highs_check.py")


def run_highs(path: str) -> Tuple[int, List[str]]:
    """Solve the queued LPs in a child process; returns (checked, mismatches)."""
    if os.path.getsize(path) == 0:
        return 0, []
    proc = subprocess.run(
        [sys.executable, HIGHS_SCRIPT, path], capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise WrongResult(f"HiGHS cross-check failed to run: {proc.stderr.strip()[-300:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["checked"], out["mismatches"]
