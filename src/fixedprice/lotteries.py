"""Budget-additive lotteries, top-k search, randomized rounding, and the
price-ladder family separating lotteries from assortments.

A budget-additive mechanism is induced by f(S) = min(sum of weights in S, B):
the buyer's k-th item is granted with probability equal to f's increment
along their list.  Top-k lotteries are the uniform-weight case w = 1/k,
B = 1; their value is core's first-hit walk with k hits, and the best one
for every k is found by one pass of core's subset search.  The rounding
constructions replace a mechanism by a random assortment with independent
inclusions and carry multiplicative revenue guarantees, checked numerically
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .core import (SUBSET_SEARCH_CAP, Instance, Item, ListDistribution, _best_subsets,
                   _first_hits_revenue, _parse_at, _parse_rationals)
from .errors import CapExceededError, GuaranteeViolationError, InvalidInstanceError
from .mechanism_lp import Mechanism, _best_over_reports, _increments, mechanism_revenue
from .rational import coerce_rational, format_rational

GUARANTEE_SLACK = 1e-9


@dataclass(frozen=True)
class BudgetAdditiveParams:
    """Nonnegative item weights and a budget B in [0, 1]."""

    weights: Mapping[Item, Fraction]
    budget: Fraction

    def __init__(self, weights, budget):
        weights = {j: coerce_rational(w) for j, w in dict(weights).items()}
        budget = coerce_rational(budget)
        if any(w < 0 for w in weights.values()):
            raise InvalidInstanceError("weights must be nonnegative")
        if not (0 <= budget <= 1):
            raise InvalidInstanceError("budget must lie in [0, 1]")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "budget", budget)

    def f(self, S: Iterable[Item]) -> Fraction:
        total = sum((self.weights.get(j, Fraction(0)) for j in S), Fraction(0))
        return min(total, self.budget)


@dataclass(frozen=True)
class InclusionProbabilities:
    """Independent inclusion probability per item, as floats in [0, 1]."""

    probs: Mapping[Item, float]

    def __init__(self, probs):
        probs = {j: float(p) for j, p in dict(probs).items()}
        if any(not (0.0 <= p <= 1.0) for p in probs.values()):
            raise InvalidInstanceError("inclusion probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)

    def get(self, j: Item) -> float:
        return self.probs.get(j, 0.0)


@dataclass(frozen=True)
class RoundingReport:
    achieved: float
    required: float
    factor: float
    source_revenue: float

    @property
    def ok(self) -> bool:
        return self.achieved >= self.required

    def to_json(self) -> dict:
        return {
            "achieved": self.achieved,
            "required": self.required,
            "factor": self.factor,
            "source_revenue": self.source_revenue,
            "ok": self.ok,
        }


def budget_additive_mechanism(inst: Instance, params: BudgetAdditiveParams) -> Mechanism:
    """The mechanism granting each list position the increment of
    min(cumulative weight, budget); IC by submodularity."""
    return Mechanism({
        lst: {j: inc for j, inc in _increments(params.f, lst) if inc > 0}
        for lst in inst.dist.support
    })


def topk_lottery_value(inst: Instance, k: int, S: Iterable[Item]) -> Fraction:
    """Revenue of the lottery granting each of the buyer's first (up to) k
    reported items from S with probability 1/k."""
    if k < 1:
        raise InvalidInstanceError(f"k must be at least 1, got {k}")
    return _first_hits_revenue(inst, S, k)


def best_topk_lottery(
    inst: Instance, k: Optional[int] = None, cap: int = SUBSET_SEARCH_CAP
) -> Tuple[int, frozenset, Fraction]:
    """Exhaustive best (k, S) lottery; fix ``k`` to restrict the search.

    Ties prefer smaller k, then the lexicographically smallest item tuple.
    The k = 1 case is exactly assortment optimization.
    """
    ks = range(1, max(len(inst.items), 1) + 1) if k is None else (k,)
    subsets = _best_subsets(inst, ks, cap, "best_topk_lottery", "2^n enumeration per k")
    best: Optional[Tuple[int, frozenset, Fraction]] = None
    for kk, (S, value) in zip(ks, subsets):
        if best is None or value > best[2]:
            best = (kk, S, value)
    return best


def independent_assortment_revenue(
    inst: Instance, incl: InclusionProbabilities
) -> float:
    """Expected revenue when each item joins the assortment independently.

    The buyer purchases their first included list entry, so each position
    contributes price * include(this) * prod(exclude(earlier))."""
    total = 0.0
    for lst, prob in inst.dist.support.items():
        survive = 1.0
        for j in lst.entries:
            p = incl.get(j)
            total += float(prob) * float(inst.prices[j]) * p * survive
            survive *= 1.0 - p
    return total


def round_budget_additive(
    inst: Instance, params: BudgetAdditiveParams
) -> Tuple[InclusionProbabilities, RoundingReport]:
    """Round a budget-additive mechanism to inclusion probs 1 - exp(-w_j).

    The random assortment keeps at least a 1/e fraction of the mechanism's
    revenue; the check failing (beyond float slack) is a bug signal.
    """
    incl = InclusionProbabilities(
        {j: 1.0 - math.exp(-float(w)) for j, w in params.weights.items()}
    )
    source = mechanism_revenue(inst, budget_additive_mechanism(inst, params))
    achieved = independent_assortment_revenue(inst, incl)
    required = float(source) / math.e - GUARANTEE_SLACK
    report = RoundingReport(achieved, required, 1.0 / math.e, float(source))
    if not report.ok:
        raise GuaranteeViolationError(
            f"1/e rounding achieved {achieved} < required {required}"
        )
    return incl, report


def _bounded_length_curve(a: float, max_len: int) -> float:
    return 2.0 * a / max_len if a <= 0.5 else 1.0 / max_len


def round_bounded_length(
    inst: Instance, mech: Mechanism
) -> Tuple[InclusionProbabilities, RoundingReport]:
    """Round any IC mechanism on length-capped lists to a random assortment.

    With L the longest supported list, item j is included with probability
    phi(f_j) where f_j is the mechanism's best allocation of j and phi maps
    a to 2a/L below 1/2 and to 1/L above; the guarantee factor is 2/(e L).
    """
    max_len = max((len(lst) for lst in inst.dist.support), default=0)
    max_len = max(max_len, 1)
    incl = InclusionProbabilities(
        {j: _bounded_length_curve(float(_best_over_reports(inst, mech, (j,))), max_len)
         for j in inst.items}
    )
    source = mechanism_revenue(inst, mech)
    achieved = independent_assortment_revenue(inst, incl)
    factor = 2.0 / (math.e * max_len)
    required = factor * float(source) - GUARANTEE_SLACK
    report = RoundingReport(achieved, required, factor, float(source))
    if not report.ok:
        raise GuaranteeViolationError(
            f"2/(eL) rounding achieved {achieved} < required {required}"
        )
    return incl, report


def budget_additive_to_json(params: BudgetAdditiveParams) -> dict:
    return {
        "weights": {
            str(j): format_rational(w)
            for j, w in sorted(params.weights.items(), key=lambda kv: str(kv[0]))
        },
        "budget": format_rational(params.budget),
    }


def budget_additive_from_json(obj: dict, items: Optional[Iterable[Item]] = None
                              ) -> BudgetAdditiveParams:
    if not isinstance(obj, dict) or "weights" not in obj or "budget" not in obj:
        raise InvalidInstanceError('budget-additive JSON needs "weights" and "budget"')
    weights = _parse_rationals(obj["weights"], "weights", items=items)
    return BudgetAdditiveParams(weights, _parse_at("budget", obj["budget"]))


def gen_topk_gap_instance(n: int, M) -> Instance:
    """Price-ladder family where a top-2 lottery earns at least n/2.

    Item j costs M^j.  The buyer's best on-list item is j with probability
    M^-j; below the top item sits one uniformly random cheaper first choice.
    The list is empty with the leftover probability.
    """
    M = coerce_rational(M)
    if n < 1:
        raise InvalidInstanceError("need at least one item")
    if n > 8:
        raise CapExceededError("gen_topk_gap_instance", n, 8, "explicit support")
    if M <= 1:
        raise InvalidInstanceError("the price base must exceed 1")
    items = list(range(1, n + 1))
    prices = {j: M**j for j in items}
    pairs: Dict[Tuple[Item, ...], Fraction] = {}
    used = Fraction(0)
    for j in items:
        pj = M ** (-j)
        used += pj
        if j == 1:
            pairs[(1,)] = pj
        else:
            for jp in range(1, j):
                pairs[(jp, j)] = pj / (j - 1)
    if used > 1:
        raise InvalidInstanceError("list probabilities exceed 1; increase the base")
    if used < 1:
        pairs[()] = 1 - used
    return Instance(items, prices, ListDistribution(pairs))
