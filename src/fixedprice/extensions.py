"""Multi-buyer allocation LPs and robust menus of randomized allocations.

Multi-buyer: each of m buyers draws an independent ranked list; one copy of
each item exists.  The LP allocates items per reported profile under either
dominant-strategy (per-profile) or Bayesian (in-expectation) truthfulness,
feasibility resting on the integrality of bipartite matching.
``solve_multibuyer_lp`` generates the IC rows on one tableau with the
single-buyer separation pass of ``mechanism_lp`` and returns the value and
vertex of the full LP that ``build_multibuyer_lp`` writes.

Robust menus: a menu is a set of randomized allocation vectors including the
zero entry; a buyer with some cardinal utility consistent with their ranked
list picks an expected-utility-maximizing entry, adversarially for the
seller.  Worst-case revenue sums, per list, the cheapest entry the buyer
could justify choosing ("exposable" entries, certified by a small exact LP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .core import (
    Instance,
    Item,
    ListDistribution,
    RankedList,
    _check_objects,
    _items_to_json,
    _lists_to_json,
    _market,
    _parse_items,
    _parse_lists,
    _parse_rationals,
)
from .errors import (
    CapExceededError,
    InvalidInstanceError,
    InvalidMechanismError,
    UnsupportedShapeError,
)
from .lp import GE, LE, LPSolution, RationalLP, _solve_by_rows, solve_lp
from .mechanism_lp import (Mechanism, _ic_all_rows, _ic_coefs, _ic_plan, _ic_violations,
                           verify_ic)
from .rational import format_rational, lcm_of_denominators, parse_rational

PROFILE_CAP = 10**5


@dataclass(frozen=True)
class MultiBuyerInstance:
    """Shared items and prices; one independent list distribution per buyer."""

    items: Tuple[Item, ...]
    prices: Mapping[Item, Fraction]
    buyers: Tuple[ListDistribution, ...]

    def __init__(self, items, prices, buyers):
        items, prices, buyers = _market(items, prices, buyers)
        if not buyers:
            raise InvalidInstanceError("need at least one buyer")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "buyers", buyers)

    @property
    def num_buyers(self) -> int:
        return len(self.buyers)

    def profiles(self):
        """All list profiles with their product probabilities."""
        return _joint(self.buyers)


def _support_by_entries(dist: ListDistribution):
    # The type flag makes mixed str/int ids comparable; one id type keeps the raw order.
    return sorted(dist.support.items(),
                  key=lambda kv: [(isinstance(j, str), j) for j in kv[0].entries])


def _joint(buyers: Iterable[ListDistribution]):
    """``(lists, product probability)`` for every choice of one supported
    list per buyer, in the order of ``itertools.product`` over the supports
    sorted by raw entries."""
    for combo in product(*map(_support_by_entries, buyers)):
        prob = Fraction(1)
        for _, p in combo:
            prob *= p
        yield tuple(lst for lst, _ in combo), prob


def _xvar(i: int, j: Item, profile_id: int) -> str:
    return f"X[{i}][{j}][{profile_id}]"


def _multibuyer_lp(inst: MultiBuyerInstance, mode: str, cap: int):
    """``(lp, profiles, buyers)``: the profile-indexed LP with its capacity
    rows and no IC row, and per buyer i ``(plan, groups)``, the
    ``_ic_plan`` of i's lists and the groups each of its rows sums over.  A
    group holds ``(weight, cols)`` pairs, ``cols`` mapping i's allocation
    vector to LP columns under one profile of the others: under DSIC one
    group per profile, weight 1; under BIC one group of all, each weighted
    by its probability."""
    mode = mode.lower()
    if mode not in ("dsic", "bic"):
        raise InvalidInstanceError(f"unknown mode {mode!r}")
    sizes = math.prod(len(b.support) for b in inst.buyers)
    if sizes > cap:
        raise CapExceededError("build_multibuyer_lp", sizes, cap, "profile space")

    profiles = list(inst.profiles())
    lp = RationalLP()
    objective: Dict[int, Fraction] = {}
    cols: Dict[Tuple, List[Dict[Item, int]]] = {}  # profile -> per buyer, item -> column
    for pid, (lsts, prob) in enumerate(profiles):
        cols[lsts] = at = [{j: lp.add_variable(_xvar(i, j, pid)) for j in lst.entries}
                           for i, lst in enumerate(lsts)]
        objective.update((c, prob * inst.prices[j]) for by_item in at
                         for j, c in by_item.items())
        for j in inst.items:
            row = {at[i][j]: 1 for i, lst in enumerate(lsts) if j in lst.as_set()}
            # An item only one buyer lists is capped by that buyer's list row.
            if len(row) > 1:
                lp.add_index_row(row, LE, 1)
        for i, lst in enumerate(lsts):
            # A one-item list that another buyer lists is capped by the
            # item's row.
            shared = sum(lst.as_set() <= other.as_set() for other in lsts) > 1
            if len(lst) > 1 or (len(lst) == 1 and not shared):
                lp.add_index_row(dict.fromkeys(at[i].values(), 1), LE, 1)
    lp.set_index_objective(objective)

    buyers = []
    for i in range(inst.num_buyers):
        lists_i = [lst for lst, _ in _support_by_entries(inst.buyers[i])]
        group = [(prob, [cols[rest[:i] + (lst,) + rest[i:]][i][j]
                         for lst in lists_i for j in lst.entries])
                 for rest, prob in _joint(inst.buyers[:i] + inst.buyers[i + 1:])]
        groups = [[(1, c)] for _, c in group] if mode == "dsic" else [group]
        buyers.append((_ic_plan(lists_i), groups))
    return lp, profiles, buyers


def _group_row(group, top: Sequence[int], inside: Sequence[int]) -> Dict[int, object]:
    """The IC row with ``top`` and ``inside`` (``_ic_plan`` positions)
    summed over ``group``, by LP column."""
    row: Dict[int, object] = {}
    for weight, at in group:
        _ic_coefs(row, (at[c] for c in top), (at[c] for c in inside), weight)
    return row


def build_multibuyer_lp(
    inst: MultiBuyerInstance, mode: str = "dsic", cap: int = PROFILE_CAP
) -> Tuple[RationalLP, Dict]:
    """Profile-indexed allocation LP under DSIC or BIC truthfulness.

    Buyer i's IC rows are the rows of ``mechanism_lp._ic_plan`` over buyer
    i's lists, in its order: under DSIC one per profile of the other
    buyers, under BIC their sum weighted by the profile's probability.
    Returns the LP plus the bookkeeping needed to read the solution back
    (profile list and variable namer).
    """
    lp, profiles, buyers = _multibuyer_lp(inst, mode, cap)
    for plan, groups in buyers:
        for l, k, _, inside in _ic_all_rows(plan):
            for group in groups:
                lp.add_index_row(_group_row(group, plan[l][0][:k], inside), GE, 0)
    return lp, {"profiles": profiles, "var": _xvar}


def solve_multibuyer_lp(
    inst: MultiBuyerInstance, mode: str = "dsic", cap: int = PROFILE_CAP
) -> Tuple[Fraction, LPSolution]:
    """The value and vertex ``solve_lp(build_multibuyer_lp(inst, mode)[0])``
    returns, by row generation (``lp._solve_by_rows``) from the capacity
    rows.  The separation is the single-buyer pass ``_ic_violations`` on
    each group's weighted sum of buyer i's allocation (under BIC the interim
    allocation), its weights scaled to integers, as in the rows it adds.
    """
    lp, _, buyers = _multibuyer_lp(inst, mode, cap)
    scaled = []
    for plan, groups in buyers:
        for group in groups:
            scale = lcm_of_denominators(w for w, _ in group)
            scaled.append((plan, [(int(w * scale), at) for w, at in group]))

    def separate(x: List[int]):
        cuts = []
        for plan, group in scaled:
            interim = [sum(w * x[at[c]] for w, at in group)
                       for c in range(len(group[0][1]))]
            for l, k, _, _, _, inside in _ic_violations(plan, interim):
                cuts.append((_group_row(group, plan[l][0][:k], inside), GE, 0))
        return cuts

    sol = _solve_by_rows(lp, separate)
    return sol.value, sol


# ---------------------------------------------------------------------------
# Fixed multi-buyer mechanisms evaluated under truthful play
# ---------------------------------------------------------------------------


def eval_serial_dictatorship(
    inst: MultiBuyerInstance, order: Sequence[int]
) -> Fraction:
    """Buyers pick, in the given order, their favorite remaining listed item."""
    order = list(order)
    if sorted(order) != list(range(inst.num_buyers)):
        raise InvalidInstanceError("order must be a permutation of the buyers")
    total = Fraction(0)
    for lsts, prob in inst.profiles():
        available = set(inst.items)
        for i in order:
            lst = lsts[i]
            pick = next((j for j in lst.entries if j in available), None)
            if pick is not None:
                available.discard(pick)
                total += prob * inst.prices[pick]
    return total


def eval_endowment_ttc(
    inst: MultiBuyerInstance, endowments: Mapping[int, Item]
) -> Fraction:
    """Two buyers start with one distinct item each and trade only if both
    strictly prefer the swap; each then purchases their held item iff it is
    on their list."""
    if inst.num_buyers != 2 or len(inst.items) != 2:
        raise UnsupportedShapeError(
            "endowment trading is implemented for 2 buyers and 2 items; "
            "use an explicit allocation table otherwise"
        )
    endow = dict(endowments)
    if set(endow.keys()) != {0, 1} or set(endow.values()) != set(inst.items):
        raise InvalidInstanceError("endowments must assign both items")

    def prefers_swap(lst: RankedList, own: Item, other: Item) -> bool:
        entries = lst.entries
        pos = {j: k for k, j in enumerate(entries)}
        if other not in pos:
            return False
        return own not in pos or pos[other] < pos[own]

    total = Fraction(0)
    for lsts, prob in inst.profiles():
        holding = {0: endow[0], 1: endow[1]}
        if prefers_swap(lsts[0], holding[0], holding[1]) and prefers_swap(
            lsts[1], holding[1], holding[0]
        ):
            holding = {0: endow[1], 1: endow[0]}
        for i in (0, 1):
            if holding[i] in lsts[i].as_set():
                total += prob * inst.prices[holding[i]]
    return total


def eval_allocation_table(
    inst: MultiBuyerInstance,
    table: Mapping[Tuple[Tuple[Item, ...], ...], Mapping[int, Mapping[Item, object]]],
) -> Fraction:
    """Expected revenue of an explicit profile-to-allocation map."""
    total = Fraction(0)
    for lsts, prob in inst.profiles():
        key = tuple(lst.entries for lst in lsts)
        alloc = table.get(key, {})
        for i, row in alloc.items():
            for j, x in row.items():
                if j not in lsts[i].as_set():
                    raise InvalidMechanismError(
                        f"profile {key}: buyer {i} allocated off-list item {j!r}"
                    )
                total += prob * inst.prices[j] * parse_rational(x)
    return total


def eval_fixed_multibuyer_mechanism(inst: MultiBuyerInstance, mechanism) -> Fraction:
    """Dispatch on a mechanism description.

    Accepts ``("serial-dictatorship", order)``, ``("endowment-ttc",
    {buyer: item})``, or ``("table", {profile: allocation})``.
    """
    kind, arg = mechanism
    if kind == "serial-dictatorship":
        return eval_serial_dictatorship(inst, arg)
    if kind == "endowment-ttc":
        return eval_endowment_ttc(inst, arg)
    if kind == "table":
        return eval_allocation_table(inst, arg)
    raise UnsupportedShapeError(f"unknown mechanism description {kind!r}")


# ---------------------------------------------------------------------------
# Menus, exposable entries, and worst-case revenue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MenuEntry:
    """An allocation vector over the no-purchase slot and the items.

    ``alloc`` maps item ids to probabilities; the leftover mass is the
    no-purchase component, and the whole vector sums to exactly 1.
    """

    alloc: Tuple[Tuple[Item, Fraction], ...]

    def __init__(self, alloc: Mapping[Item, object]):
        parsed = {j: parse_rational(p) for j, p in dict(alloc).items()}
        pairs = tuple(sorted(((j, p) for j, p in parsed.items() if p != 0),
                             key=lambda jp: str(jp[0])))
        total = sum((p for _, p in pairs), Fraction(0))
        if any(p < 0 for _, p in pairs) or total > 1:
            raise InvalidMechanismError("entry components must be a subprobability")
        object.__setattr__(self, "alloc", pairs)

    @property
    def no_purchase(self) -> Fraction:
        return 1 - sum((p for _, p in self.alloc), Fraction(0))

    def revenue(self, prices: Mapping[Item, Fraction]) -> Fraction:
        return sum((prices[j] * p for j, p in self.alloc), Fraction(0))

    def is_zero(self) -> bool:
        return not self.alloc


ZERO_ENTRY = MenuEntry({})


@dataclass(frozen=True)
class Menu:
    """A set of distinct entries, always containing the zero entry."""

    entries: Tuple[MenuEntry, ...]

    def __init__(self, entries: Iterable):
        clean = []
        seen = set()
        for e in entries:
            e = e if isinstance(e, MenuEntry) else MenuEntry(e)
            if e.alloc not in seen:
                seen.add(e.alloc)
                clean.append(e)
        if ZERO_ENTRY.alloc not in seen:
            clean.append(ZERO_ENTRY)
        # The type flag makes mixed str/int ids comparable; one id type keeps the raw order.
        clean.sort(key=lambda e: [(isinstance(j, str), j, p) for j, p in e.alloc])
        object.__setattr__(self, "entries", tuple(clean))

    def __len__(self):
        return len(self.entries)


def mechanism_to_menu(inst: Instance, mech: Mechanism) -> Menu:
    """The menu of the mechanism's per-list allocation vectors plus zero.

    Requires an IC mechanism; duplicates merge.  Offering this menu to
    utility-maximizing buyers recovers exactly the mechanism's revenue."""
    report = verify_ic(inst, mech)
    if not report.ok:
        raise InvalidMechanismError("mechanism is not IC; menu guarantee void")
    entries = [MenuEntry(mech.alloc.get(lst, {})) for lst in inst.dist.support]
    return Menu(entries)


def exposable_entries(inst: Instance, menu: Menu, lst) -> List[MenuEntry]:
    """Entries some strictly list-consistent utility would (weakly) choose.

    For each entry, maximize a common strictness slack over utilities that
    rank the list's items in order above no-purchase, everything else below,
    and weakly prefer the entry to every other.  The entry is exposable iff
    the optimal slack is positive.  Strictness in the preference-to-other-
    entries comparison is immaterial: ties can be perturbed away.
    """
    lst = lst if isinstance(lst, RankedList) else RankedList(tuple(lst))
    if inst.dist.probability(lst) == 0:
        raise InvalidInstanceError(f"list {lst.entries} is not in the support")
    if not {j for entry in menu.entries for j, _ in entry.alloc} <= set(inst.items):
        raise InvalidMechanismError("a menu entry allocates an item the instance lacks")
    bound = Fraction(len(inst.items) + 1)
    out = []
    for entry in menu.entries:
        lp = RationalLP()
        u = {j: lp.add_variable(f"u[{j}]", lo=-bound, hi=bound) for j in inst.items}
        u0 = lp.add_variable("u0", lo=-bound, hi=bound)
        eps = lp.add_variable("eps", lo=-1, hi=1)
        chain = [u[j] for j in lst.entries] + [u0]
        for hi_col, lo_col in zip(chain, chain[1:]):
            lp.add_index_row({hi_col: 1, lo_col: -1, eps: -1}, GE, 0)
        for j in inst.items:
            if j not in lst.as_set():
                lp.add_index_row({u0: 1, u[j]: -1, eps: -1}, GE, 0)
        for other in menu.entries:
            if other.alloc == entry.alloc:
                continue
            coefs: Dict[int, Fraction] = {u0: entry.no_purchase - other.no_purchase}
            for j, p in entry.alloc:
                coefs[u[j]] = coefs.get(u[j], 0) + p
            for j, p in other.alloc:
                coefs[u[j]] = coefs.get(u[j], 0) - p
            lp.add_index_row(coefs, GE, 0)
        lp.set_index_objective({eps: 1})
        sol = solve_lp(lp)
        if sol.value > 0:
            out.append(entry)
    return out


def _robust(inst: Instance, menu: Menu) -> Tuple[Fraction, Dict[RankedList, List[MenuEntry]]]:
    """The worst-case expected revenue and each list's exposable entries,
    with one exposability LP per (list, entry)."""
    exposable = {lst: exposable_entries(inst, menu, lst) for lst in inst.dist.support}
    value = sum(
        (prob * min(entry.revenue(inst.prices) for entry in exposable[lst])
         for lst, prob in inst.dist.support.items()),
        Fraction(0),
    )
    return value, exposable


def robust_revenue(inst: Instance, menu: Menu) -> Fraction:
    """Worst-case expected revenue: per list, the cheapest exposable entry."""
    return _robust(inst, menu)[0]


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def menu_to_json(menu: Menu) -> dict:
    """Each allocation keys the no-purchase component by ``"0"`` and each item
    by its ``str``; an item whose key is taken raises ``InvalidMechanismError``."""
    entries = []
    for e in menu.entries:
        alloc = {"0": format_rational(e.no_purchase)}
        for j, p in e.alloc:
            if str(j) in alloc:
                raise InvalidMechanismError(f"menu item {j!r}: its key {str(j)!r} is taken")
            alloc[str(j)] = format_rational(p)
        entries.append({"alloc": alloc})
    return {"entries": entries}


def menu_from_json(obj: dict, items: Optional[Iterable[Item]] = None) -> Menu:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise InvalidMechanismError('menu JSON needs an "entries" key')
    _check_objects(obj["entries"], "entries", ("alloc",), InvalidMechanismError)
    # "0" is the no-purchase component, never an item.
    ids = [j for j in items or () if str(j) != "0"]
    entries = []
    for k, raw in enumerate(obj["entries"]):
        alloc = _parse_rationals(raw["alloc"], f"entries[{k}].alloc",
                                 InvalidMechanismError, ids)
        if sum(alloc.values(), Fraction(0)) != 1:
            raise InvalidMechanismError("menu entry components must sum to 1")
        alloc.pop("0", None)
        entries.append(MenuEntry(alloc))
    return Menu(entries)


def multibuyer_from_json(obj: dict) -> MultiBuyerInstance:
    if not isinstance(obj, dict) or "items" not in obj or "buyers" not in obj:
        raise InvalidInstanceError('multi-buyer JSON needs "items" and "buyers"')
    items, prices = _parse_items(obj["items"], "items")
    if not isinstance(obj["buyers"], list):
        raise InvalidInstanceError("buyers: expected a list")
    buyers = [ListDistribution(_parse_lists(raw, f"buyers[{i}]"))
              for i, raw in enumerate(obj["buyers"])]
    return MultiBuyerInstance(items, prices, buyers)


def multibuyer_to_json(inst: MultiBuyerInstance) -> dict:
    return {"items": _items_to_json(inst.items, inst.prices),
            "buyers": [_lists_to_json(b) for b in inst.buyers]}
