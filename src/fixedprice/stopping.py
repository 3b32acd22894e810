"""Stopping policies on the prefix tree, the history-monotone-futures
condition, adjusted prices, and the tier decomposition.

A deterministic stopping policy walks the prefix tree of the buyer's list
and decides at each visited item whether to take it, seeing only the
unordered set of items passed so far.  Monotone policies (stop sets closed
upward in the history) bound IC-mechanism revenue from above; constant
policies are exactly assortments.  The history-monotone-futures condition on
a distribution makes the best monotone policy an assortment, and is checked
here exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .choice_models import MarkovChainParams
from .core import (
    Instance,
    Item,
    ListDistribution,
    Prefix,
    _first_hits,
    _first_hits_revenue,
    _list_key,
    _preorder,
    _subsets,
    assortment_revenue,
)
from .errors import (
    CapExceededError,
    IdentityCheckError,
    InvalidInstanceError,
    MonotonicityViolationError,
    PrefixOverlapError,
)
from .lp import GE, RationalLP, solve_lp
from .rational import coerce_rational, lcm_of_denominators, parse_rational

POLICY_ITEM_CAP = 4


@dataclass(frozen=True)
class MonotoneStoppingPolicy:
    """Per-item stop rules on unordered histories, stored by minimal sets.

    ``generators[j]`` is an antichain of history sets; the policy stops on
    item ``j`` after history ``H`` iff some generator is contained in ``H``.
    Upward closure in the history is structural in this representation.
    """

    generators: Mapping[Item, Tuple[FrozenSet[Item], ...]]

    def __init__(self, generators):
        clean: Dict[Item, Tuple[FrozenSet[Item], ...]] = {}
        for j, gens in dict(generators).items():
            gens = [frozenset(g) for g in gens]
            if any(j in g for g in gens):
                raise InvalidInstanceError(
                    f"stop rule for {j!r} references {j!r} in its own history"
                )
            minimal = tuple(
                sorted(
                    (g for g in gens if not any(h < g for h in gens)),
                    key=lambda g: (len(g), tuple(sorted(map(str, g)))),
                )
            )
            clean[j] = minimal
        object.__setattr__(self, "generators", clean)

    def stops(self, j: Item, history: Iterable[Item]) -> bool:
        history = frozenset(history)
        return any(g <= history for g in self.generators.get(j, ()))

    @classmethod
    def from_assortment(cls, items: Iterable[Item], S: Iterable[Item]):
        S = frozenset(S)
        return cls({j: ((frozenset(),) if j in S else ()) for j in items})

    @classmethod
    def from_table(cls, items: Iterable[Item], table: Mapping[Item, Mapping[FrozenSet[Item], bool]]):
        """Build from explicit truth tables, verifying monotonicity."""
        items = tuple(items)
        gens: Dict[Item, List[FrozenSet[Item]]] = {}
        for j in items:
            rows = {frozenset(H): bool(v) for H, v in dict(table.get(j, {})).items()}
            for H, v in rows.items():
                for Hp, vp in rows.items():
                    if H <= Hp and v and not vp:
                        raise MonotonicityViolationError(
                            f"stop rule for {j!r} is not monotone: "
                            f"{set(H)} stops but {set(Hp)} does not"
                        )
            gens[j] = [H for H, v in rows.items() if v]
        return cls(gens)


def _first_stops(inst: Instance, rule: Callable[[Item, FrozenSet[Item]], bool]):
    """Each realizable prefix (entries, probability) where ``rule`` stops at
    the endpoint and at no earlier entry: a trie walk that ends at stops."""
    stack = [((), inst.dist.node(()))]
    while stack:
        entries, node = stack.pop()
        for item, child in node.children.items():
            if rule(item, frozenset(entries)):
                yield entries + (item,), child.mass
            else:
                stack.append((entries + (item,), child))


def stopping_rule_revenue(
    inst: Instance, rule: Callable[[Item, FrozenSet[Item]], bool]
) -> Fraction:
    """Expected reward of an arbitrary deterministic stop rule.

    Sums, over realizable prefixes, the prefix probability times its endpoint
    price when the rule stops there and nowhere earlier.  No monotonicity is
    assumed; use this to evaluate hand-built non-monotone rules.
    """
    return sum(
        (prob * inst.prices[entries[-1]] for entries, prob in _first_stops(inst, rule)),
        Fraction(0),
    )


def policy_revenue(inst: Instance, policy: MonotoneStoppingPolicy) -> Fraction:
    """Exact expected reward of a monotone stopping policy."""
    return stopping_rule_revenue(inst, policy.stops)


# ---------------------------------------------------------------------------
# Exact optimal monotone policy
# ---------------------------------------------------------------------------


def optimal_policy_bruteforce(
    inst: Instance, cap: int = POLICY_ITEM_CAP
) -> Tuple[MonotoneStoppingPolicy, Fraction]:
    """Exact maximum over all tuples of monotone per-item stop rules.

    Ties prefer fewer stop entries, then the lexicographically smallest
    function bitmaps in item order (bit h: the rule on the history whose
    bits are the item's other items in order).  The item cap is at most
    ``POLICY_ITEM_CAP``, whatever ``cap`` asks: the count of monotone
    boolean functions grows doubly exponentially (Dedekind numbers), 20 per
    item at n = 4 but 168 per item at n = 5.

    A depth-first integer branch and bound (Land and Doig 1960) on one stop
    bit per (item, history) that the trie of ``core._preorder`` realizes.
    Setting a bit sets it on the item's realized supersets, clearing it
    clears the subsets.  The bound folds the trie once in reverse pre-order:
    a node gives its weight if its bit is set, its children's sum if clear,
    the larger if open.  Up-closing an optimal tuple's realized 1-bits keeps
    its revenue and grows no stop-entry count or bitmap, so the tie rule's
    winner is an up-closure.  Those of the set bits bound every completion's
    from below, so a node whose (bound, count, bitmaps) cannot beat the best
    so far is cut.
    """
    items = tuple(sorted(inst.items, key=str))
    n = len(items)
    if n > min(cap, POLICY_ITEM_CAP):
        raise CapExceededError(
            "optimal_policy_bruteforce", n, min(cap, POLICY_ITEM_CAP),
            "Dedekind growth of monotone stop rules (168^n tuples beyond n=4)",
        )
    if not items:
        return MonotoneStoppingPolicy({}), Fraction(0)
    positions, weights, depths, _, scale = _preorder(inst, items)
    above = [0] * (n + 1)  # above[d]: item bits of the first d entries of the path
    bit_of: Dict[Tuple[int, int], int] = {}  # (position, history), in pre-order -> bit
    nodes = []  # (depth, bit, weight) of each node, in pre-order
    for p, d, w in zip(positions, depths, weights):
        # The history bitmap is above[d - 1] with the node's own bit p dropped.
        h = above[d - 1] & ((1 << p) - 1) | above[d - 1] >> (p + 1) << p
        above[d] = above[d - 1] | 1 << p
        nodes.append((d, bit_of.setdefault((p, h), len(bit_of)), w))
    bits = list(bit_of)
    # sup[b], sub[b]: bit b and those of its item on larger or smaller
    # realized histories, which setting b to 1 or to 0 fixes the same way.
    sup = [sum(1 << c for c, (q, g) in enumerate(bits) if q == p and g & h == h)
           for p, h in bits]
    sub = [sum(1 << c for c, (q, g) in enumerate(bits) if q == p and g | h == h)
           for p, h in bits]
    histories = range(1 << (n - 1))
    best = (0, 0, (0,) * n)  # (revenue, -stop entries, -bitmaps): larger is better

    def search(ones: int, zeros: int, masks: Tuple[int, ...]) -> None:
        nonlocal best
        open_bits = (1 << len(bits)) - 1 & ~(ones | zeros)
        target = (open_bits & -open_bits).bit_length() - 1  # the first open bit
        lean = 0  # over target's nodes: weight minus their children's bound
        sums = [0] * (n + 2)  # sums[d]: bounds of depth-d nodes awaiting their parent
        for d, b, w in reversed(nodes):
            go, sums[d + 1] = sums[d + 1], 0
            sums[d] += w if ones >> b & 1 else go if zeros >> b & 1 else max(w, go)
            lean += w - go if b == target else 0
        key = (sums[1], -sum(m.bit_count() for m in masks), tuple(-m for m in masks))
        if key <= best:
            return
        if not open_bits:
            best = key
            return
        p, h = bits[target]
        grown = list(masks)  # masks: each item's up-closure of its set bits
        grown[p] |= sum(1 << g for g in histories if g & h == h)
        branches = [(ones | sup[target], zeros, tuple(grown)),
                    (ones, zeros | sub[target], masks)]
        for args in branches if lean > 0 else reversed(branches):  # 1 first if it leans so
            search(*args)

    search(0, 0, (0,) * n)
    revenue, _, negated = best
    generators: Dict[Item, List[FrozenSet[Item]]] = {}
    for i, j in enumerate(items):
        others = items[:i] + items[i + 1:]
        generators[j] = [frozenset(others[p] for p in range(n - 1) if h >> p & 1)
                         for h in histories if -negated[i] >> h & 1]
    return MonotoneStoppingPolicy(generators), Fraction(revenue, scale)


# ---------------------------------------------------------------------------
# Optimal stopping directly on a transition chain
# ---------------------------------------------------------------------------


def markov_stopping_assortment(
    params: MarkovChainParams, prices: Mapping[Item, object]
) -> Tuple[frozenset, Dict[Item, Fraction]]:
    """Stop set of the repeat-visit stopping problem on a transition chain.

    The value V[j] = max(r_j, sum_k sigma[j][k] V[k]) is the least excessive
    majorant of the prices (Dynkin 1963), the unique optimum of the LP
    min sum_j V[j] subject to V >= r and V >= sigma V (Manne 1960), which one
    exact ``solve_lp`` solves.  Returns V and the items where stopping is
    weakly preferred, r_j >= sum_k sigma[j][k] V[k] (that is, r_j = V[j]),
    and earns a positive price.
    """
    items = tuple(sorted(params.arrivals.keys(), key=str))
    prices = {j: parse_rational(prices[j]) for j in items}
    lp = RationalLP()
    col = {j: lp.add_variable(f"V[{i}]", lo=prices[j]) for i, j in enumerate(items)}
    for j in items:
        row = {col[j]: 1}
        for k, p in params.transitions.get(j, {}).items():
            row[col[k]] = row.get(col[k], 0) - p
        lp.add_index_row(row, GE, 0)
    lp.set_index_objective(dict.fromkeys(col.values(), -1))
    solution = solve_lp(lp)
    V = {j: solution[f"V[{i}]"] for i, j in enumerate(items)}
    return frozenset(j for j in items if 0 < prices[j] == V[j]), V


# ---------------------------------------------------------------------------
# Adjusted prices and the revenue-difference identity
# ---------------------------------------------------------------------------


def s_adjusted_price(inst: Instance, S: Iterable[Item], prefix) -> Fraction:
    """Endpoint price minus the revenue that offering S would still collect
    conditional on the buyer's list starting with this prefix."""
    S = inst.assortment(S)
    prefix = Prefix(prefix)
    inst.dist.node(prefix)  # an unrealizable prefix fails before an overlapping one
    if S & prefix.as_set():
        raise PrefixOverlapError("the assortment intersects the prefix")
    return inst.prices[prefix.endpoint] - _first_hits_revenue(inst, S, 1, prefix)


def adjusted_revenue_identity(
    inst: Instance, S: Iterable[Item], policy: MonotoneStoppingPolicy
) -> Tuple[Fraction, Fraction]:
    """Both sides of the exact identity

        Rev[policy] - Rev[S] = sum over S-disjoint stopped prefixes of
                               adjusted price * prefix probability.

    Requires the policy to stop unconditionally on every item of S (the
    identity is false otherwise); raises on any mismatch.
    """
    S = inst.assortment(S)
    for j in S:
        if not policy.stops(j, frozenset()):
            raise InvalidInstanceError(
                f"policy must stop unconditionally on assortment item {j!r}"
            )
    lhs = policy_revenue(inst, policy) - assortment_revenue(inst, S)
    rhs = sum(
        (s_adjusted_price(inst, S, entries) * prob
         for entries, prob in _first_stops(inst, policy.stops)
         if S.isdisjoint(entries)),
        Fraction(0),
    )
    if lhs != rhs:
        raise IdentityCheckError(
            f"adjusted-revenue identity failed: {lhs} != {rhs} (bug signal)"
        )
    return lhs, rhs


# ---------------------------------------------------------------------------
# Domination and the history-monotone-futures condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationResult:
    holds: bool
    witness: Optional[Tuple[frozenset, Item]] = None  # (S, j) with a reversal


@dataclass(frozen=True)
class ConditionWitness:
    prefix: Tuple[Item, ...]
    other: Tuple[Item, ...]
    assortment: frozenset
    item: Item


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    witness: Optional[ConditionWitness] = None

    def to_json(self) -> dict:
        if self.holds:
            return {"holds": True, "witness": None}
        w = self.witness
        return {
            "holds": False,
            "witness": {
                "rho": list(w.prefix),
                "rho_prime": list(w.other),
                "S": sorted(map(str, w.assortment)),
                "j": str(w.item),
            },
        }


def _tolerance(tol) -> Fraction:
    """A comparison tolerance as an exact Fraction; it must be finite and
    at least 0."""
    try:
        value = coerce_rational(tol)
    except ValueError as exc:
        raise InvalidInstanceError(f"bad tolerance: {exc}") from None
    if value < 0:
        raise InvalidInstanceError(f"tolerance {tol!r} is negative")
    return value


def _integer_trie(dist: ListDistribution, roots=((),)):
    """The subtrees of the prefixes ``roots`` (the whole trie by default) in
    pre-order, one after another, with children in ``str`` order.  Per node:
    its entries, their bits (bit i for ``dist.items[i]``), its mass times D
    (an integer, with D the lcm of the list probabilities' denominators),
    the index just past its subtree and its parent's index (-1 at a root)."""
    D = lcm_of_denominators(dist.support.values())
    rank = {j: i for i, j in enumerate(dist.items)}
    entries, masks, masses, parents = [], [], [], []
    stack = [(dist.node(p), p, sum(1 << rank[j] for j in p), -1) for p in roots][::-1]
    while stack:
        node, prefix, mask, parent = stack.pop()
        k = len(entries)
        entries.append(prefix)
        masks.append(mask)
        masses.append(node.mass.numerator * (D // node.mass.denominator))
        parents.append(parent)
        for j in sorted(node.children, key=rank.__getitem__, reverse=True):
            stack.append((node.children[j], prefix + (j,), mask | 1 << rank[j], k))
    ends = list(range(1, len(entries) + 1))
    for k in reversed(range(len(entries))):
        if parents[k] >= 0:
            ends[parents[k]] = max(ends[parents[k]], ends[k])
    return entries, masks, masses, ends, parents


def _classes(trie) -> List[int]:
    """The future class of each node of an ``_integer_trie``.

    One post-order pass: a node's class is the id of its signature, the set
    of ``(item, child mass/mass, class of child)`` over its children, and
    equal signatures share one id.  Each ratio is kept as its reduced
    numerator and denominator, so signatures compare exactly.  The stop
    chance needs no place: stop/mass is 1 minus the sum of the ratios.  By
    induction on depth, prefixes of one class have equal ``_first_hits`` for
    every S (but may differ in mass).
    """
    entries, _, masses, _, parents = trie
    classes = [0] * len(entries)
    signatures: List[List[tuple]] = [[] for _ in entries]
    ids: Dict[FrozenSet[tuple], int] = {}
    for k in reversed(range(len(entries))):
        mass = masses[k]
        signature = frozenset((j, m // (g := gcd(m, mass)), mass // g, c)
                              for j, m, c in signatures[k])
        classes[k] = ids.setdefault(signature, len(ids))
        if parents[k] >= 0:
            signatures[parents[k]].append((entries[k][-1], mass, classes[k]))
    return classes


def _future_classes(dist: ListDistribution) -> Dict[Tuple[Item, ...], int]:
    """The future class (``_classes``) of every prefix, the empty one included."""
    trie = _integer_trie(dist)
    return dict(zip(trie[0], _classes(trie)))


def _first_reversal(dist: ListDistribution, trie, pairs, tol: Fraction):
    """The first ``(a, b, S, j)`` over the node pairs ``(a, b)`` of ``pairs``,
    then by the size and ``combinations`` order of S, then by j, where
    selling j from S is less likely after node a than after node b by more
    than ``tol``; S avoids both prefixes.  None when there is no such pair.
    Each (node, S) gets one first-hit row when first needed: a walk of the
    node's integer subtree that stops at the first member of S gives each
    member's mass, kept as a reduced fraction of the node's mass.  With
    tol = tn/td, a/ad < b/bd - tn/td is (a·td + tn·ad)·bd < b·ad·td."""
    _, masks, masses, ends, _ = trie
    full = (1 << len(dist.items)) - 1
    tn, td = tol.numerator, tol.denominator
    subsets: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}  # pool -> (S, members)
    rows: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}  # node -> S -> row

    def row(k: int, S: int, members: Tuple[int, ...]) -> List[Tuple[int, int]]:
        hits = dict.fromkeys(members, 0)
        i, end, mass = k + 1, ends[k], masses[k]
        while i < end:  # S avoids node k's prefix, so a hit is the node's own item
            if S & masks[i]:
                hits[S & masks[i]] += masses[i]
                i = ends[i]
            else:
                i += 1
        rows[k][S] = out = [(h // (g := gcd(h, mass)), mass // g) for h in hits.values()]
        return out

    for a, b in pairs:
        pool = full & ~(masks[a] | masks[b])
        if pool not in subsets:
            members = [1 << i for i in range(pool.bit_length()) if pool >> i & 1]
            subsets[pool] = [(sum(c), c) for c in _subsets(members) if c]
        rows_a, rows_b = rows.setdefault(a, {}), rows.setdefault(b, {})
        for S, members in subsets[pool]:
            lhs = rows_a.get(S) or row(a, S, members)
            rhs = rows_b.get(S) or row(b, S, members)
            for j, (x, xd), (y, yd) in zip(members, lhs, rhs):
                if (x * td + tn * xd) * yd < y * xd * td:
                    item = dist.items.__getitem__
                    S = frozenset(item(m.bit_length() - 1) for m in members)
                    return a, b, S, item(j.bit_length() - 1)
    return None


def check_domination(
    dist: ListDistribution, prefix, other, tol=0
) -> DominationResult:
    """Does the future after ``prefix`` dominate the future after ``other``?

    Domination: for every assortment S avoiding both prefixes and every j in
    S, the conditional probability of selling j is at least as high from
    ``prefix``.  Returns the first reversal (smallest S, then item), found
    by the scan of ``check_history_monotone``; an unrealizable prefix raises
    ``UnrealizablePrefixError`` at S = {}.
    """
    prefix, other, tol = Prefix(prefix), Prefix(other), _tolerance(tol)
    trie = _integer_trie(dist, (prefix.entries, other.entries))
    found = _first_reversal(dist, trie, [(0, trie[3][0])], tol)  # the two roots
    return DominationResult(found is None, found[2:] if found else None)


def check_history_monotone(dist: ListDistribution, tol=0) -> ConditionReport:
    """Check that set-wise larger same-endpoint histories dominate.

    For every ordered pair of realizable prefixes with equal endpoints where
    the first body is not contained in the second, the first future must
    dominate.  Comparisons are exact unless a tolerance is supplied for
    float-born distributions.  The witness is the first violation in the
    deterministic (prefix, prefix, assortment, item) order.

    A reversal between two prefixes depends only on each one's future class
    (``_classes``) and entry set: the class fixes its choice
    probabilities, and the two entry sets fix the assortments searched and,
    under a common endpoint, whether the bodies are nested.  So each
    endpoint's prefixes are keyed by (class, entry set), and only the first
    prefix of each key, in the sorted prefix order (``_integer_trie``'s
    pre-order, sorted stably by length), is compared.  Two prefixes with one
    key have equal bodies and are never compared.  The first violating pair
    in the full (prefix, prefix) order is the smallest pair of first
    prefixes over the reversing key pairs, which is the first reversal the
    integer loop over the representatives (``_first_reversal``) meets, with
    the same (assortment, item).  Its rows are keyed by prefix, not class.
    """
    tol = _tolerance(tol)
    trie = entries, masks, *_ = _integer_trie(dist)
    classes = _classes(trie)
    by_endpoint: Dict[Item, Dict[Tuple[int, int], int]] = {}
    for k in sorted(range(1, len(entries)), key=lambda k: len(entries[k])):
        by_endpoint.setdefault(entries[k][-1], {}).setdefault((classes[k], masks[k]), k)
    groups = [by_endpoint[endpoint].values() for endpoint in sorted(by_endpoint, key=str)]
    pairs = ((a, b) for group in groups for a in group for b in group
             if masks[a] & ~masks[b])  # only non-contained bodies must dominate
    found = _first_reversal(dist, trie, pairs, tol)
    if found is None:
        return ConditionReport(True)
    a, b, S, j = found
    return ConditionReport(False, ConditionWitness(entries[a], entries[b], S, j))


# ---------------------------------------------------------------------------
# Tier decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tier:
    prefixes: Tuple[Tuple[Item, ...], ...]
    kind: str  # "incomparable-equal" | "setwise-identical"


@dataclass(frozen=True)
class TierDecomposition:
    tiers: Tuple[Tier, ...]

    def to_json(self) -> list:
        return [[list(p) for p in tier.prefixes] for tier in self.tiers]


def tier_decomposition(
    dist: ListDistribution, S: Iterable[Item], j: Item, tol=0
) -> TierDecomposition:
    """Containment-ordered grouping of the S-avoiding prefixes ending at j.

    Requires the distribution to have history-monotone futures.  Groups the
    prefixes by body set and joins body sets that are incomparable (a
    connected component of the incomparability graph on body sets is one
    tier).  Tiers are ordered by the size of the first prefix's body, then
    by its sorted ``str`` tuple, then by the first prefix.  A tier with one
    body set is "setwise-identical", any other "incomparable-equal".
    Verifies equal conditional choice probabilities within a tier, and
    containment plus dominating probabilities across tiers.  The adjusted
    prices, which need item prices, are checked by ``tier_adjusted_prices``.
    """
    S = frozenset(S)
    if j in S:
        raise InvalidInstanceError("the endpoint item must lie outside the assortment")
    report = check_history_monotone(dist, tol=tol)
    if not report.holds:
        raise InvalidInstanceError(
            "distribution lacks history-monotone futures; no tier structure"
        )
    tol_f = _tolerance(tol)

    prefixes = [
        p.entries
        for p in dist.realizable_prefixes()
        if p.endpoint == j and not (S & p.as_set())
    ]
    prefixes.sort(key=_list_key)
    sets = {p: frozenset(p[:-1]) for p in prefixes}
    by_body: Dict[FrozenSet[Item], List[Tuple[Item, ...]]] = {}
    for p in prefixes:
        by_body.setdefault(sets[p], []).append(p)

    # Each class gathers the body sets linked by a chain of incomparable ones.
    classes: List[List[FrozenSet[Item]]] = []
    for body in by_body:
        joined = [body]
        for cls in [c for c in classes if any(not (body <= b or b <= body) for b in c)]:
            classes.remove(cls)
            joined += cls
        classes.append(joined)
    order = {p: i for i, p in enumerate(prefixes)}
    tiers: List[Tier] = []
    for cls in classes:
        members = sorted((p for body in cls for p in by_body[body]), key=order.get)
        kind = "setwise-identical" if len(cls) == 1 else "incomparable-equal"
        tiers.append(Tier(tuple(members), kind))
    tiers.sort(key=lambda t: (len(sets[t.prefixes[0]]),
                              tuple(sorted(map(str, sets[t.prefixes[0]]))),
                              order[t.prefixes[0]]))

    # Within-tier: equal conditional choice probabilities toward S for every
    # pair of prefixes that differ as sets.  Set-wise identical prefixes may
    # legitimately have different futures.  (A tier may also mix incomparable
    # and contained bodies when a chain of equal futures links them; the
    # distinct-set equality below is the property downstream arguments rely
    # on, so containment inside a tier is tolerated.)
    hits = {p: _first_hits(dist.node(p), S) for p in prefixes}
    choices = {p: [hits[p].get(m, Fraction(0)) for m in sorted(S, key=str)] for p in prefixes}
    for tier in tiers:
        for a_i in range(len(tier.prefixes)):
            for b_i in range(a_i + 1, len(tier.prefixes)):
                pa, pb = tier.prefixes[a_i], tier.prefixes[b_i]
                if frozenset(pa) == frozenset(pb):
                    continue
                if any(abs(a - b) > tol_f for a, b in zip(choices[pa], choices[pb])):
                    raise IdentityCheckError(
                        f"unequal choice probabilities for distinct-set "
                        f"prefixes {pa} and {pb} in one tier (bug signal)"
                    )

    # Across tiers: strict containment and dominating probabilities.
    for t in range(len(tiers)):
        for tp in range(t + 1, len(tiers)):
            for lo in tiers[t].prefixes:
                for hi in tiers[tp].prefixes:
                    if not (sets[lo] | {j}) < (sets[hi] | {j}):
                        raise IdentityCheckError(
                            f"tier order broken: {hi} does not contain {lo} (bug signal)"
                        )
                    if any(a < b - tol_f for a, b in zip(choices[hi], choices[lo])):
                        raise IdentityCheckError("higher tier fails to dominate (bug signal)")
    return TierDecomposition(tuple(tiers))


def tier_adjusted_prices(
    inst: Instance, S: Iterable[Item], j: Item, tol=0
) -> List[List[Fraction]]:
    """Adjusted prices arranged by tier; verifies they never increase with
    the tier and agree within distinct-set tiers up to the tolerance."""
    S = frozenset(S)
    decomposition = tier_decomposition(inst.dist, S, j, tol=tol)
    tol_f = _tolerance(tol)
    rows: List[List[Fraction]] = []
    for tier in decomposition.tiers:
        rows.append([s_adjusted_price(inst, S, p) for p in tier.prefixes])
    floor = None
    for tier, prices in zip(decomposition.tiers, rows):
        if floor is not None and max(prices) > floor + tol_f:
            raise IdentityCheckError("adjusted prices increased across tiers")
        # Equality inside a tier applies to distinct-set pairs only;
        # set-wise identical prefixes may carry different adjusted prices.
        per_set: Dict[frozenset, Fraction] = {}
        for p, price in zip(tier.prefixes, prices):
            per_set.setdefault(frozenset(p), price)
        vals = list(per_set.values())
        if len(vals) > 1 and max(vals) - min(vals) > tol_f:
            raise IdentityCheckError("unequal adjusted prices inside a tier")
        floor = min(prices)
    return rows
