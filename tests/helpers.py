"""Shared instance builders and seeded random generators for the test suite."""

from __future__ import annotations

import math
import random
import string
from fractions import Fraction
from itertools import accumulate, product
from typing import Dict, List, Optional, Tuple

import numpy as np

from fixedprice import (
    Instance,
    ListDistribution,
    MarkovChainParams,
    Menu,
    MenuEntry,
    MnlParams,
    MonotoneStoppingPolicy,
    MultiBuyerInstance,
    NestStructure,
    gen_elimination_by_aspects,
    gen_markov_chain,
    gen_mnl,
    mix_with_singletons,
    policy_revenue,
)
from fixedprice.choice_models import _solve_transient
from fixedprice.core import Assortment, Item, Prefix, _first_hits, _list_key, _preorder, _subsets
from fixedprice.errors import CapExceededError, InvalidInstanceError, MonotonicityViolationError
from fixedprice.lp import EQ, RationalLP, solve_lp
from fixedprice.mechanism_lp import (
    ICReport,
    ICViolation,
    Mechanism,
    _ic_coefs,
    _revenue_lp,
    _var,
)
from fixedprice.rational import coerce_rational, format_rational, parse_rational
from fixedprice.stopping import ConditionReport, ConditionWitness

ITEM_POOL = list(string.ascii_uppercase)


# ---------------------------------------------------------------------------
# Canonical worked instances
# ---------------------------------------------------------------------------


def four_item_clash() -> Instance:
    """One premium item always ranked behind a cheap one; lotteries win here."""
    lists = [("B", "A"), ("C", "A"), ("D", "A"), ("C", "B"), ("D", "B"), ("D", "C")]
    return Instance(
        "ABCD",
        {"A": 2, "B": 1, "C": 1, "D": 1},
        ListDistribution([(l, Fraction(1, 6)) for l in lists]),
    )


def condition_violation_minimal() -> Instance:
    """Smallest support where a longer history has a worse future."""
    return Instance(
        "ABC",
        {"A": 1, "B": 1, "C": 1},
        ListDistribution({("B", "A"): Fraction(1, 2), ("C", "B"): Fraction(1, 2)}),
    )


def history_monotone_tree() -> Instance:
    """Hand-built four-item tree satisfying history-monotone futures."""
    dist = ListDistribution(
        {
            ("B",): Fraction(1, 3),
            ("C", "B", "A"): Fraction(1, 12),
            ("C", "B"): Fraction(1, 12),
            ("C", "D", "B", "A"): Fraction(1, 8),
            ("C", "D", "B"): Fraction(1, 24),
            ("D", "B", "A"): Fraction(1, 12),
            ("D", "B"): Fraction(1, 12),
            ("D", "C", "B", "A"): Fraction(1, 6),
        }
    )
    return Instance("ABCD", {"A": 2, "B": 1, "C": 1, "D": 1}, dist)


def robust_menu_instance() -> Instance:
    """Five items incl. a 3/2-priced specialty; a menu can beat every mechanism."""
    lists = {
        ("2", "1"): Fraction(1, 12),
        ("3", "1"): Fraction(1, 12),
        ("4", "1"): Fraction(1, 12),
        ("3", "2"): Fraction(1, 12),
        ("4", "2"): Fraction(1, 12),
        ("4", "3"): Fraction(1, 12),
        ("5",): Fraction(1, 4),
        ("2", "5", "1"): Fraction(1, 12),
        ("3", "5", "1"): Fraction(1, 12),
        ("4", "5", "1"): Fraction(1, 12),
    }
    return Instance(
        "12345",
        {"1": 2, "2": 1, "3": 1, "4": 1, "5": Fraction(3, 2)},
        ListDistribution(lists),
    )


def seven_entry_menu() -> Menu:
    h = Fraction(1, 2)
    return Menu(
        [
            MenuEntry({"1": h, "2": h}),
            MenuEntry({"1": h, "3": h}),
            MenuEntry({"1": h, "4": h}),
            MenuEntry({"2": h, "3": h}),
            MenuEntry({"2": h, "4": h}),
            MenuEntry({"3": h, "4": h}),
            MenuEntry({"5": 1}),
        ]
    )


def random_two_buyer(rng: random.Random) -> MultiBuyerInstance:
    """Two buyers over items A, B, C, each with 2–4 random lists."""
    items = "ABC"
    buyers = []
    for _ in range(2):
        lists = sorted({tuple(rng.sample(items, rng.randint(1, 3)))
                        for _ in range(rng.randint(2, 4))})
        weights = [rng.randint(1, 4) for _ in lists]
        buyers.append(ListDistribution(
            [(lst, Fraction(w, sum(weights))) for lst, w in zip(lists, weights)]
        ))
    return MultiBuyerInstance(items, {j: rng.randint(1, 4) for j in items}, buyers)


def random_three_buyer(rng: random.Random) -> MultiBuyerInstance:
    """Three buyers over items A, B, C, each with 2–4 random lists: the two
    buyers of one ``random_two_buyer`` draw and the first of the next."""
    a, b = random_two_buyer(rng), random_two_buyer(rng)
    return MultiBuyerInstance(a.items, a.prices, a.buyers + b.buyers[:1])


def deep_ic_two_buyer() -> MultiBuyerInstance:
    """A two-buyer instance whose IC rows at positions k >= 2 bind: DSIC
    gives 187/35 and BIC 571/105, and with the k = 1 rows alone both modes
    give 28/5."""
    return MultiBuyerInstance("ABC", {"A": 1, "B": 4, "C": 3}, [
        {("B",): Fraction(2, 5), ("C", "A"): Fraction(2, 5),
         ("A", "B", "C"): Fraction(1, 5)},
        {("A",): Fraction(2, 7), ("B",): Fraction(3, 14), ("C",): Fraction(2, 7),
         ("B", "A", "C"): Fraction(3, 14)},
    ])


def two_buyer_two_item() -> MultiBuyerInstance:
    third = Fraction(1, 3)
    return MultiBuyerInstance(
        "AB",
        {"A": 1, "B": 1},
        [
            ListDistribution({("A",): third, ("B",): third, ("A", "B"): third}),
            ListDistribution({("A",): third, ("B",): third, ("B", "A"): third}),
        ],
    )


def singleton_mixture() -> Instance:
    """50-50 mix of a deterministic three-item list with one singleton."""
    return Instance(
        "ABC",
        {"A": 0, "B": 1, "C": 2},
        ListDistribution({("A", "B", "C"): Fraction(1, 2), ("B",): Fraction(1, 2)}),
    )


def equal_weight_chain_params(items=("A", "B", "C")) -> MarkovChainParams:
    """Uniform arrivals, uniform transitions among the others and to exit."""
    n = len(items)
    share = Fraction(1, n + 1)
    step = Fraction(1, n)
    return MarkovChainParams(
        {j: share for j in items},
        {j: {k: step for k in items if k != j} for j in items},
    )


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------


def random_instance(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 4,
    max_lists: int = 5,
    max_len: Optional[int] = None,
    max_price: int = 5,
    allow_empty: bool = True,
) -> Instance:
    """Arbitrary small instance with a common-denominator distribution."""
    n = rng.randint(n_min, n_max)
    items = ITEM_POOL[:n]
    cap_len = min(n, max_len if max_len is not None else n)
    lists = set()
    target = rng.randint(1, max_lists)
    guard = 0
    while len(lists) < target and guard < 100:
        guard += 1
        length = rng.randint(1, cap_len)
        lst = tuple(rng.sample(items, length))
        lists.add(lst)
    lists = sorted(lists)
    if allow_empty and rng.random() < 0.3:
        lists.append(())
    weights = [rng.randint(1, 6) for _ in lists]
    total = sum(weights)
    dist = ListDistribution(
        [(lst, Fraction(w, total)) for lst, w in zip(lists, weights)]
    )
    prices = {j: Fraction(rng.randint(0, max_price)) for j in items}
    if all(p == 0 for p in prices.values()):
        prices[items[0]] = Fraction(1)
    return Instance(items, prices, dist)


def random_bounded_length_instance(
    rng: random.Random, length: int, n_max: int = 6, max_lists: int = 6
) -> Instance:
    """Instance whose longest supported list has exactly the given length."""
    while True:
        inst = random_instance(
            rng, n_min=max(2, length), n_max=n_max, max_lists=max_lists,
            max_len=length, allow_empty=False,
        )
        if max(len(l) for l in inst.dist.support) == length:
            return inst


def random_sparse_chain(
    rng: random.Random, n: int, support_cap: int = 12
) -> Tuple[Instance, MarkovChainParams]:
    """Instance generated by a sparse (layered) absorbing chain.

    Transitions only run forward in a random item order, so the support
    stays small and absorption is automatic; resamples until the support
    fits under the cap.
    """
    items = ITEM_POOL[:n]
    while True:
        order = items[:]
        rng.shuffle(order)
        transitions: Dict[str, Dict[str, Fraction]] = {}
        for pos, j in enumerate(order):
            row: Dict[str, Fraction] = {}
            later = order[pos + 1:]
            rng.shuffle(later)
            for k in later[: rng.randint(0, 2)]:
                row[k] = Fraction(rng.randint(1, 3), 6)
            while sum(row.values()) > 1:
                row[rng.choice(list(row))] /= 2
            transitions[j] = row
        starters = rng.sample(items, rng.randint(1, 2))
        lam = Fraction(rng.randint(1, 3), 6)
        arrivals = {j: Fraction(0) for j in items}
        for j in starters:
            arrivals[j] = lam / len(starters)
        params = MarkovChainParams(arrivals, transitions)
        dist = gen_markov_chain(items, params)
        if len(dist.support) <= support_cap:
            prices = {j: Fraction(rng.randint(0, 5)) for j in items}
            if all(p == 0 for p in prices.values()):
                prices[items[0]] = Fraction(2)
            return Instance(items, prices, dist), params


def random_cyclic_chain(
    rng: random.Random, n: int
) -> Tuple[MarkovChainParams, Dict[str, Fraction]]:
    """A chain on ``n`` items with transitions in any direction, self-loops
    included, and prices in 0..5.  About a third of the rows sum to 1, so
    the chain may hold closed classes that it never leaves.
    """
    items = ITEM_POOL[:n]
    transitions: Dict[str, Dict[str, Fraction]] = {}
    for j in items:
        targets = rng.sample(items, rng.randint(0, n))
        weights = [rng.randint(1, 4) for _ in targets]
        total = sum(weights) + (0 if rng.random() < 0.35 else rng.randint(1, 4))
        if total:
            transitions[j] = {k: Fraction(w, total) for k, w in zip(targets, weights)}
    arrivals = {j: Fraction(rng.randint(0, 2), 2 * n) for j in items}
    prices = {j: Fraction(rng.randint(0, 5)) for j in items}
    return MarkovChainParams(arrivals, transitions), prices


def random_history_monotone_instance(rng: random.Random, n_max: int = 6) -> Instance:
    """Instance provably satisfying history-monotone futures.

    Draws from sparse chains, their singleton mixtures, small plain-urn
    models, and small nest-locked urns; all of these satisfy the condition.
    """
    kind = rng.random()
    if kind < 0.55:
        n = rng.randint(2, n_max)
        inst, _ = random_sparse_chain(rng, n)
        return inst
    if kind < 0.8:
        n = rng.randint(2, min(4, n_max))
        inst, _ = random_sparse_chain(rng, n)
        alpha = {}
        budget = Fraction(rng.randint(0, 3), 12)
        for j in rng.sample(list(inst.items), min(2, len(inst.items))):
            a = min(budget, Fraction(rng.randint(0, 2), 12))
            alpha[j] = a
            budget -= a
        dist = mix_with_singletons(inst.dist, alpha)
        return Instance(inst.items, inst.prices, dist)
    n = rng.randint(2, 3)
    items = ITEM_POOL[:n]
    weights = {j: Fraction(rng.randint(1, 4)) for j in items}
    params = MnlParams(weights, Fraction(rng.randint(1, 4)))
    if kind < 0.9 or n < 3:
        dist = gen_mnl(items, params)
    else:
        split = rng.randint(1, n - 1)
        nests = NestStructure([frozenset(items[:split]), frozenset(items[split:])])
        dist = gen_elimination_by_aspects(items, params, nests)
    prices = {j: Fraction(rng.randint(0, 5)) for j in items}
    if all(p == 0 for p in prices.values()):
        prices[items[0]] = Fraction(1)
    return Instance(items, prices, dist)


def random_search_instance(rng: random.Random) -> Instance:
    """A random instance for the exhaustive searches: 0–6 items of which
    some may appear on no list, sometimes an empty list, and prices that are
    all equal, zero or rational with denominators 1–6."""
    n = rng.randint(0, 6)
    items = [f"i{x}" for x in range(n)]
    listed = items[:rng.randint(0, n)]
    lists = {tuple(rng.sample(listed, rng.randint(0, len(listed))))
             for _ in range(rng.randint(1, 6))}
    if rng.random() < 0.3:
        lists.add(())
    lists = sorted(lists)
    weights = [rng.randint(1, 6) for _ in lists]
    dist = ListDistribution([(l, Fraction(w, sum(weights))) for l, w in zip(lists, weights)])
    kind = rng.choice(["equal", "zero", "rational"])
    prices = {j: (Fraction(3, 2) if kind == "equal" else Fraction(0) if kind == "zero"
                  else Fraction(rng.randint(0, 12), rng.randint(1, 6))) for j in items}
    return Instance(items, prices, dist)


def random_tied_instance(rng: random.Random) -> Instance:
    """A random 2- or 3-item instance built for ties among stop rules: up to
    four distinct lists, equally likely, and prices of 1 or 2."""
    items = ITEM_POOL[:rng.randint(2, 3)]
    lists = sorted({tuple(rng.sample(items, rng.randint(1, len(items))))
                    for _ in range(rng.randint(1, 4))})
    dist = ListDistribution([(l, Fraction(1, len(lists))) for l in lists])
    return Instance(items, {j: rng.choice([1, 1, 2]) for j in items}, dist)


def random_monotone_generators(
    rng: random.Random, items, always_stop=frozenset()
) -> Dict[str, List[frozenset]]:
    """Random per-item upward-closed stop rules (as generator antichains)."""
    gens: Dict[str, List[frozenset]] = {}
    for j in items:
        if j in always_stop:
            gens[j] = [frozenset()]
            continue
        others = [k for k in items if k != j]
        out = []
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(0, len(others))
            out.append(frozenset(rng.sample(others, size)))
        gens[j] = out
    return gens


def list_scan_choice_probability(dist: ListDistribution, S, j, given=()) -> Fraction:
    """Reference conditional choice probability by a scan of every list: the
    chance that ``j`` is the first member of ``S`` after ``given`` among the
    lists that begin with ``given``."""
    given, k = tuple(given), len(given)
    total = hit = Fraction(0)
    for lst, prob in dist.support.items():
        if lst.entries[:k] != given:
            continue
        total += prob
        if next((e for e in lst.entries[k:] if e in S), None) == j:
            hit += prob
    return hit / total


def prefix_graph_tiers(dist: ListDistribution, S, j) -> List[Tuple[Tuple[tuple, ...], str]]:
    """Reference tier grouping on single prefixes: connected components of
    the incomparability graph on the S-avoiding prefixes ending at ``j``,
    merged when their first bodies are equal, ordered by the size and
    ``str`` tuple of the first body.  Returns ``(prefixes, kind)`` pairs."""
    S = frozenset(S)
    prefixes = sorted(
        (p.entries for p in dist.realizable_prefixes()
         if p.endpoint == j and not (S & p.as_set())),
        key=lambda p: (len(p), tuple(map(str, p))),
    )
    sets = [frozenset(p[:-1]) for p in prefixes]
    n = len(prefixes)
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if not (sets[a] <= sets[b]) and not (sets[b] <= sets[a]):
                adj[a].append(b)
                adj[b].append(a)
    comp = [-1] * n
    n_comp = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = n_comp
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if comp[nxt] == -1:
                    comp[nxt] = n_comp
                    stack.append(nxt)
        n_comp += 1
    members: Dict[int, List[int]] = {c: [] for c in range(n_comp)}
    for i, c in enumerate(comp):
        members[c].append(i)
    reps = {c: sets[members[c][0]] for c in range(n_comp)}
    classes: List[List[int]] = []
    for c in range(n_comp):
        for cls in classes:
            if reps[cls[0]] == reps[c]:
                cls.append(c)
                break
        else:
            classes.append([c])
    classes.sort(key=lambda cls: (len(reps[cls[0]]), tuple(sorted(map(str, reps[cls[0]])))))
    out = []
    for cls in classes:
        idxs = sorted(i for c in cls for i in members[c])
        kind = "setwise-identical" if len({sets[i] for i in idxs}) == 1 else "incomparable-equal"
        out.append((tuple(prefixes[i] for i in idxs), kind))
    return out


def _choices(dist, cache, S: frozenset, entries: Tuple[Item, ...]) -> List[Fraction]:
    """Chance of selling each member of ``S``, in ``str`` order, after the
    prefix ``entries``: one trie walk per (prefix, S), kept in ``cache``."""
    key = (entries, S)
    if key not in cache:
        hits = _first_hits(dist.node(entries), S)
        cache[key] = [hits.get(j, Fraction(0)) for j in sorted(S, key=str)]
    return cache[key]


def _reversal(dist, cache, prefix: Prefix, other: Prefix, tol: Fraction):
    """The first ``(S, j)``, by the size and order of S and then by j, where
    selling j from S is less likely after ``prefix`` than after ``other`` by
    more than ``tol``; S ranges over the sets avoiding both prefixes.  None
    when there is no such pair."""
    banned = prefix.as_set() | other.as_set()
    pool = sorted((j for j in dist.items if j not in banned), key=str)
    for S in map(frozenset, _subsets(pool)):
        lhs = _choices(dist, cache, S, prefix.entries)
        rhs = _choices(dist, cache, S, other.entries)
        for j, a, b in zip(sorted(S, key=str), lhs, rhs):
            if a < b - tol:
                return S, j
    return None


def reference_history_monotone(dist: ListDistribution, tol=0) -> ConditionReport:
    """Reference condition check on prefix pairs: every ordered pair of
    same-endpoint prefixes whose bodies are not nested, in the sorted
    prefix order, until the first reversal."""
    prefixes = sorted(dist.realizable_prefixes(), key=lambda p: _list_key(p.entries))
    tol_f = coerce_rational(tol)
    cache: Dict = {}
    by_endpoint: Dict[str, List[Prefix]] = {}
    for prefix in prefixes:
        by_endpoint.setdefault(prefix.endpoint, []).append(prefix)
    for endpoint in sorted(by_endpoint, key=str):
        group = by_endpoint[endpoint]
        for rho in group:
            body_rho = frozenset(rho.entries[:-1])
            for rho_p in group:
                if rho == rho_p:
                    continue
                if body_rho <= frozenset(rho_p.entries[:-1]):
                    continue  # only non-contained bodies must dominate
                witness = _reversal(dist, cache, rho, rho_p, tol_f)
                if witness is not None:
                    return ConditionReport(
                        False, ConditionWitness(rho.entries, rho_p.entries, *witness)
                    )
    return ConditionReport(True)


def reference_best_subsets(
    inst: Instance, ks, cap: int, what: str, detail: str
) -> List[Tuple[Assortment, Fraction]]:
    """Reference subset search, one subset at a time, with the signature,
    errors, results and tie rule of ``core._best_subsets``.

    Each subset, in ``_subsets`` order, gets one pre-order walk that adds a
    hit's weight to the slot of the number of hits before it on its path
    and skips a subtree once its path holds as many hits as the largest k
    can use; prefix sums of the slots give the numerator of every k at once.
    """
    ordered = sorted(inst.items, key=str)
    n = len(ordered)
    if n > cap:
        raise CapExceededError(what, n, cap, detail)
    for k in ks:
        if k < 1:
            raise InvalidInstanceError(f"k must be at least 1, got {k}")
    depth_cap = min(max(ks), n)
    positions, weights, depths, ends, scale = _preorder(inst, ordered)
    bits = [1 << p for p in positions]

    names = [str(j) for j in ordered]
    best: List[Optional[Tuple[int, Tuple[int, ...]]]] = [None] * len(ks)
    hits_at = [0] * (n + 1)  # hits_at[d]: hits among the first d items of the path
    for combo in _subsets(range(n)):
        mask = sum(1 << i for i in combo)
        slots = [0] * depth_cap
        i = 0
        while i < len(bits):
            hits = hits_at[depths[i] - 1]
            if bits[i] & mask:
                slots[hits] += weights[i]
                hits += 1
                if hits == depth_cap:
                    i = ends[i]
                    continue
            hits_at[depths[i]] = hits
            i += 1
        totals = [0, *accumulate(slots)]
        for x, k in enumerate(ks):
            num = totals[min(k, depth_cap)]
            cur = best[x]
            if cur is None or num > cur[0] or (num == cur[0] and [names[i] for i in combo]
                                               < [names[i] for i in cur[1]]):
                best[x] = (num, combo)
    return [(frozenset(ordered[i] for i in combo), Fraction(num, scale * k))
            for k, (num, combo) in zip(ks, best)]


def monotone_masks(k: int) -> List[int]:
    """All monotone boolean functions on k ground elements, as bitmaps over
    the 2^k subsets (bit h = value on subset-with-bitmask h), ascending.  A
    mask is monotone iff adding any one element e to a 1-subset gives a
    1-subset: shifted by 2^e, its 1-bits on the subsets without e stay
    1-bits."""
    masks = range(1 << (1 << k))
    for e in range(k):
        without = sum(1 << h for h in range(1 << k) if not h >> e & 1)
        masks = [m for m in masks if not (m & without) << (1 << e) & ~m]
    return list(masks)


def _policy_of_masks(items, choice) -> MonotoneStoppingPolicy:
    """The policy in which ``items[i]`` stops on a history iff bit h of
    ``choice[i]`` is set, h being the history's bitmap over the item's other
    items in order."""
    n = len(items)
    table = {}
    for i, (j, mask) in enumerate(zip(items, choice)):
        others = items[:i] + items[i + 1:]
        table[j] = {frozenset(o for p, o in enumerate(others) if h >> p & 1): mask >> h & 1
                    for h in range(1 << max(n - 1, 0))}
    return MonotoneStoppingPolicy.from_table(items, table)


def reference_policy_bruteforce(inst: Instance) -> Tuple[MonotoneStoppingPolicy, Fraction]:
    """Reference monotone-policy search: every tuple of monotone masks, one
    per item in ``str`` order, valued by ``policy_revenue`` in Fractions.
    Bit h of an item's mask is its rule on the history whose bits are its
    other items in order.  The winner has the largest value, then the
    fewest stop entries, then the smallest masks in item order."""
    items = sorted(inst.items, key=str)
    best = None
    for choice in product(monotone_masks(max(len(items) - 1, 0)), repeat=len(items)):
        policy = _policy_of_masks(items, choice)
        value = policy_revenue(inst, policy)
        key = (-value, sum(bin(mask).count("1") for mask in choice), choice)
        if best is None or key < best[0]:
            best = (key, policy, value)
    return best[1], best[2]


def min_rule_policy_bruteforce(inst: Instance) -> Tuple[MonotoneStoppingPolicy, Fraction]:
    """The monotone-policy search with the tie rule applied by a Python
    ``min`` over every maximising tuple, as ``optimal_policy_bruteforce``
    once did.  Revenue tensors are summed list by list, entry by entry, in
    integers; fast enough for 4 items with prices that tie many tuples."""
    items = sorted(inst.items, key=str)
    n = len(items)
    masks = monotone_masks(n - 1)
    scale = (math.lcm(*(p.denominator for p in inst.dist.support.values()))
             * math.lcm(*(Fraction(p).denominator for p in inst.prices.values())))
    rev = np.zeros((len(masks),) * n, dtype=np.int64)
    for lst, prob in inst.dist.support.items():
        alive = 1
        for t, j in enumerate(lst):
            i = items.index(j)
            others = items[:i] + items[i + 1:]
            h = sum(1 << p for p, o in enumerate(others) if o in lst[:t])
            shape = [1] * n
            shape[i] = len(masks)
            b = np.array([mask >> h & 1 for mask in masks]).reshape(shape)
            rev = rev + alive * b * int(prob * inst.prices[j] * scale)
            alive = alive * (1 - b)
    best = rev.max()
    choice = min((tuple(masks[mi] for mi in row) for row in np.argwhere(rev == best)),
                 key=lambda ch: (sum(bin(mask).count("1") for mask in ch), ch))
    return _policy_of_masks(items, choice), Fraction(int(best), scale)


def tensor_policy_bruteforce(inst: Instance) -> Tuple[MonotoneStoppingPolicy, Fraction]:
    """The monotone-policy search as one numpy tensor with a cell per tuple
    of monotone masks (20^4 at 4 items), as ``optimal_policy_bruteforce``
    once did, with the same tie rule.

    The revenue of every tuple comes from one walk of the trie scaled to
    integers (``core._preorder``), in reverse pre-order.  A node's value is
    ``b·w + (1 − b)·(sum of its children's values)``: ``w`` is its weight and
    ``b`` the stop bits of its item's rules on its history, the entries
    above it, laid along that item's axis.  One running sum per depth holds
    the values of the nodes seen there whose parent is not yet reached.
    """
    items = tuple(sorted(inst.items, key=str))
    n = len(items)
    if not items:
        return MonotoneStoppingPolicy({}), Fraction(0)
    masks = monotone_masks(n - 1)
    n_masks = len(masks)
    positions, weights, depths, _, scale = _preorder(inst, items)
    # No revenue exceeds the scale times the largest price.  Below 2^60 it
    # fits machine integers; beyond, numpy works on Python integers, which
    # is exact but an order of magnitude slower.
    dtype = np.int64 if scale * max(inst.prices[j] for j in items) < 2**60 else object

    # stop_bits[m, h] = stop decision of mask m on history bitmap h, whose
    # bits are the item's n - 1 others in order.
    stop_bits = np.array([[mask >> h & 1 for h in range(1 << (n - 1))] for mask in masks],
                         dtype=dtype)
    above = [0] * (n + 1)  # above[d]: item bits of the first d entries of the path
    histories = []  # each node's history bitmap: above[d - 1] with bit p dropped
    for p, d in zip(positions, depths):
        histories.append(above[d - 1] & ((1 << p) - 1) | above[d - 1] >> (p + 1) << p)
        above[d] = above[d - 1] | 1 << p
    sums = [0] * (n + 2)  # sums[d]: values of depth-d nodes awaiting their parent
    for i in reversed(range(len(positions))):
        shape = [1] * n
        shape[positions[i]] = n_masks
        b = stop_bits[:, histories[i]].reshape(shape)
        d = depths[i]
        sums[d] = sums[d] + b * weights[i] + (1 - b) * sums[d + 1]
        sums[d + 1] = 0
    rev = np.broadcast_to(sums[1], (n_masks,) * n)
    best_flat = int(rev.max())
    winners = np.argwhere(rev == best_flat)
    best_value = Fraction(best_flat, scale)
    # The masks ascend and argwhere lists the winners in C order, so the
    # first winner with the fewest stop entries also has the smallest masks.
    ones = np.array([bin(mask).count("1") for mask in masks])
    tallies = ones[winners].sum(axis=1)
    best_choice = winners[int(np.argmin(tallies))]

    generators: Dict[str, List[frozenset]] = {}
    for i, j in enumerate(items):
        others = items[:i] + items[i + 1:]
        mask = masks[best_choice[i]]
        generators[j] = [frozenset(others[p] for p in range(n - 1) if h >> p & 1)
                         for h in range(1 << (n - 1)) if mask >> h & 1]
    return MonotoneStoppingPolicy(generators), best_value


def reference_markov_stopping(
    params: MarkovChainParams, prices
) -> Tuple[frozenset, Dict[str, Fraction]]:
    """Policy iteration over stop sets with exact linear solves, as
    ``markov_stopping_assortment`` once did: start by stopping everywhere,
    solve V on the continue set, and stop where the price meets the
    continuation value, until the stop set repeats.  Returns the stop set
    (zero prices dropped) and V = max(r, sigma V).
    """
    items = tuple(sorted(params.arrivals.keys(), key=str))
    prices = {j: parse_rational(prices[j]) for j in items}

    def continue_values(V: Dict[str, Fraction]) -> Dict[str, Fraction]:
        return {
            j: sum(
                (params.transitions.get(j, {}).get(k, Fraction(0)) * V[k]
                 for k in items),
                Fraction(0),
            )
            for j in items
        }

    def solve_for(stop: frozenset) -> Dict[str, Fraction]:
        go = [j for j in items if j not in stop]
        V = {j: prices[j] for j in stop}
        if go:
            rhs = [
                sum(
                    (params.transitions.get(g, {}).get(s, Fraction(0)) * prices[s]
                     for s in stop),
                    Fraction(0),
                )
                for g in go
            ]
            sol = _solve_transient(params, go, [rhs])[0]
            V.update(zip(go, sol))
        return V

    stop = frozenset(items)
    seen = set()
    while True:
        if stop in seen:
            raise MonotonicityViolationError(
                "policy iteration cycled; the chain is not absorbing (bug signal)"
            )
        seen.add(stop)
        V = solve_for(stop)
        cont = continue_values(V)
        new_stop = frozenset(j for j in items if prices[j] >= cont[j])
        if new_stop == stop:
            V = {j: max(prices[j], cont[j]) for j in items}
            # A zero-price stop earns nothing, so drop such ties from the set.
            return frozenset(j for j in stop if prices[j] > 0), V
        stop = new_stop


def reference_pivot(tab, r: int, c: int, hit=None) -> None:
    """The fraction-free pivot that rebuilds every row it touches as a new
    dict: each entry of a row hit by column ``c`` is multiplied by p and
    divided by d, and it scans column ``c`` itself instead of reading
    ``hit``.  ``_Tableau._pivot`` must take the same pivots to the same
    vertex."""
    rows, rhs = tab.rows, tab.rhs
    prow = rows[r]
    if prow.get(c, 0) < 0:
        prow = rows[r] = {j: -x for j, x in prow.items()}
        rhs[r] = -rhs[r]
    p = prow.get(c, 0)
    if p <= 0:
        raise AssertionError("pivot entry must be nonzero")
    pb = rhs[r]
    d = tab.denom
    hit = [i for i, row in enumerate(rows) if c in row]
    if p != d:
        hit_set = set(hit)
        for i, row in enumerate(rows):
            if i not in hit_set:
                rows[i] = {j: q for j, x in row.items() if (q := x * p // d)}
                rhs[i] = rhs[i] * p // d
    for i in hit:
        if i == r:
            continue
        row = rows[i]
        f = row[c]
        new = {j: x * p for j, x in row.items()}
        for j, y in prow.items():
            new[j] = new.get(j, 0) - f * y
        rows[i] = {j: q for j, v in new.items() if (q := v // d)}
        rhs[i] = (rhs[i] * p - f * pb) // d
    tab.basis[r] = c
    tab.denom = p


def reference_lexmin(lp: RationalLP) -> Dict[str, Fraction]:
    """The lexicographically smallest optimal point of ``lp`` in variable
    order, one value at a time: fix the objective at its optimum with an
    ``==`` row, then minimise each variable in turn and fix it with an
    ``==`` row.  It reads only optimal values, never a vertex, so it does
    not depend on the pivot path."""
    work = RationalLP()
    for var in lp.variables:
        work.add_variable(var.name, var.lo, var.hi)
    for row in lp.rows:
        work.add_row(dict(row.coefs), row.rel, row.rhs)
    work.set_objective(lp.objective)
    work.add_row(lp.objective, EQ, solve_lp(work).value)
    point = {}
    for var in lp.variables:
        work.set_objective({var.name: -1})
        point[var.name] = -solve_lp(work).value
        work.add_row({var.name: 1}, EQ, point[var.name])
    return point


def reference_mechanism_lp(inst: Instance) -> RationalLP:
    """The mechanism LP with a row for every (list l, position k, report l'),
    the self-report and the reports sharing no item with the top k included,
    where a row equal to an earlier one is dropped through a set of row keys.
    ``build_mechanism_lp`` must reach the same value and vertex."""
    lp = _revenue_lp(inst)
    support = list(inst.dist.support)
    seen = set()

    def add(coefs, rel, rhs, label=""):
        key = (frozenset((name, c) for name, c in coefs.items() if c != 0), rel, rhs)
        if key not in seen:
            seen.add(key)
            lp.add_row(coefs, rel, rhs, label=label)

    for lst in support:
        if len(lst) > 0:
            add({_var(lst, j): 1 for j in lst.entries}, "<=", 1,
                label=f"one[{','.join(map(str, lst.entries))}]")
        for k in range(1, len(lst) + 1):
            top = lst.entries[:k]
            for other in support:
                inside = [j for j in other.entries if j in top]
                add(_ic_coefs({}, (_var(lst, j) for j in top),
                              (_var(other, j) for j in inside)), ">=", 0)
    return lp


def reference_verify_ic(inst: Instance, mech: Mechanism) -> ICReport:
    """The exact IC check in Fraction arithmetic: each row's sides are sums
    of Fractions, and the rows are listed here, every position and report
    but the list itself and the reports holding none of its top k, rather
    than read from ``_ic_plan``.  ``verify_ic``, which compares integers,
    must return an equal report."""
    violations: List[ICViolation] = []
    support = list(inst.dist.support.keys())
    for lst in support:
        if lst not in mech.alloc:
            violations.append(
                ICViolation("missing", lst.entries, "no allocation for this list")
            )
            continue
        row = mech.alloc[lst]
        off_list = set(row) - lst.as_set()
        if off_list:
            violations.append(
                ICViolation(
                    "off-list", lst.entries, f"allocates off-list items {off_list}"
                )
            )
        for j, x in row.items():
            if x < 0:
                violations.append(
                    ICViolation("nonneg", lst.entries, f"x[{j!r}] = {x} < 0")
                )
        total = sum(row.values(), Fraction(0))
        if total > 1:
            violations.append(
                ICViolation(
                    "sum", lst.entries, f"allocations sum to {format_rational(total)}"
                )
            )
    reports = [lst for lst in support if lst in mech.alloc]
    for lst in reports:
        top_mass = [Fraction(0)]
        for j in lst.entries:
            top_mass.append(top_mass[-1] + mech.probability(lst, j))
        for k in range(1, len(lst) + 1):
            for other in reports:
                inside = [j for j in other.entries if j in lst.entries[:k]]
                if other == lst or not inside:
                    continue
                lhs = top_mass[k]
                rhs = sum((mech.probability(other, j) for j in inside), Fraction(0))
                if lhs < rhs:
                    violations.append(
                        ICViolation(
                            "ic",
                            lst.entries,
                            f"top-{k} probability {format_rational(lhs)} < "
                            f"{format_rational(rhs)} via report {other.entries}",
                            k=k,
                            other=other.entries,
                        )
                    )
    return ICReport(tuple(violations))
