"""Multi-buyer allocation LPs and robust menus of randomized allocations.

Multi-buyer: each of m buyers draws an independent ranked list; one copy of
each item exists.  The LP allocates items per reported profile under either
dominant-strategy (per-profile) or Bayesian (in-expectation) truthfulness,
feasibility resting on the integrality of bipartite matching.

Robust menus: a menu is a set of randomized allocation vectors including the
zero entry; a buyer with some cardinal utility consistent with their ranked
list picks an expected-utility-maximizing entry, adversarially for the
seller.  Worst-case revenue sums, per list, the cheapest entry the buyer
could justify choosing ("exposable" entries, certified by a small exact LP).
"""

from __future__ import annotations

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
from .lp import LPSolution, RationalLP, solve_lp
from .mechanism_lp import Mechanism, _ic_all_rows, _ic_coefs, _ic_plan, verify_ic
from .rational import format_rational, parse_rational

PROFILE_CAP = 10**5


@dataclass(frozen=True)
class MultiBuyerInstance:
    """Shared items and prices; one independent list distribution per buyer."""

    items: Tuple[Item, ...]
    prices: Mapping[Item, Fraction]
    buyers: Tuple[ListDistribution, ...]

    def __init__(self, items, prices, buyers):
        items = tuple(items)
        prices = {j: parse_rational(p) for j, p in dict(prices).items()}
        buyers = tuple(
            b if isinstance(b, ListDistribution) else ListDistribution(b)
            for b in buyers
        )
        if not buyers:
            raise InvalidInstanceError("need at least one buyer")
        for j in items:
            if j not in prices or prices[j] < 0:
                raise InvalidInstanceError(f"bad price for item {j!r}")
        for b in buyers:
            if set(b.items) - set(items):
                raise InvalidInstanceError("buyer lists mention unknown items")
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
    mode = mode.lower()
    if mode not in ("dsic", "bic"):
        raise InvalidInstanceError(f"unknown mode {mode!r}")
    sizes = 1
    for b in inst.buyers:
        sizes *= len(b.support)
    if sizes > cap:
        raise CapExceededError("build_multibuyer_lp", sizes, cap, "profile space")

    profiles = list(inst.profiles())
    profile_id = {tuple(lsts): k for k, (lsts, _) in enumerate(profiles)}
    lp = RationalLP()
    objective: Dict[str, Fraction] = {}
    for pid, (lsts, prob) in enumerate(profiles):
        for i, lst in enumerate(lsts):
            for j in lst.entries:
                objective[lp.add_variable(_xvar(i, j, pid), lo=0)] = prob * inst.prices[j]
    lp.set_objective(objective)

    for pid, (lsts, _) in enumerate(profiles):
        for j in inst.items:
            coefs = {
                _xvar(i, j, pid): 1
                for i, lst in enumerate(lsts)
                if j in lst.as_set()
            }
            # An item only one buyer lists is capped by that buyer's list row.
            if len(coefs) > 1:
                lp.add_row(coefs, "<=", 1)
        for i, lst in enumerate(lsts):
            # A one-item list that another buyer lists is capped by the
            # item's row.
            shared = sum(lst.as_set() <= other.as_set() for other in lsts) > 1
            if len(lst) > 1 or (len(lst) == 1 and not shared):
                lp.add_row({_xvar(i, j, pid): 1 for j in lst.entries}, "<=", 1)

    m = inst.num_buyers
    for i in range(m):
        lists_i = [lst for lst, _ in _support_by_entries(inst.buyers[i])]
        # The item at each position of _ic_plan's allocation vector.
        items_i = [j for lst in lists_i for j in lst.entries]
        # (lists of the other buyers, their joint probability) per profile
        other_profiles = list(_joint(inst.buyers[:i] + inst.buyers[i + 1:]))
        for l, k, o, inside in _ic_all_rows(_ic_plan(lists_i)):
            top = lists_i[l].entries[:k]
            lie = [items_i[c] for c in inside]
            # DSIC: one row per profile of the others; BIC: their
            # probability-weighted sum.
            merged: Dict[str, Fraction] = {}
            for rest, prob_others in other_profiles:
                pid_true = profile_id[rest[:i] + (lists_i[l],) + rest[i:]]
                pid_lie = profile_id[rest[:i] + (lists_i[o],) + rest[i:]]
                true_names = [_xvar(i, j, pid_true) for j in top]
                lie_names = [_xvar(i, j, pid_lie) for j in lie]
                if mode == "dsic":
                    lp.add_row(_ic_coefs({}, true_names, lie_names), ">=", 0)
                else:
                    _ic_coefs(merged, true_names, lie_names, weight=prob_others)
            if mode == "bic":
                lp.add_row(merged, ">=", 0)

    meta = {"profiles": profiles, "var": _xvar}
    return lp, meta


def solve_multibuyer_lp(
    inst: MultiBuyerInstance, mode: str = "dsic", cap: int = PROFILE_CAP
) -> Tuple[Fraction, LPSolution]:
    lp, _ = build_multibuyer_lp(inst, mode, cap)
    sol = solve_lp(lp)
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
        pairs = tuple(
            sorted(
                ((j, parse_rational(p)) for j, p in dict(alloc).items()
                 if parse_rational(p) != 0),
                key=lambda jp: str(jp[0]),
            )
        )
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
    bound = Fraction(len(inst.items) + 1)
    out = []
    for entry in menu.entries:
        lp = RationalLP()
        for j in inst.items:
            lp.add_variable(f"u[{j}]", lo=-bound, hi=bound)
        lp.add_variable("u0", lo=-bound, hi=bound)
        lp.add_variable("eps", lo=-1, hi=1)
        chain = [f"u[{j}]" for j in lst.entries] + ["u0"]
        for hi_var, lo_var in zip(chain, chain[1:]):
            lp.add_row({hi_var: 1, lo_var: -1, "eps": -1}, ">=", 0)
        for j in inst.items:
            if j not in lst.as_set():
                lp.add_row({"u0": 1, f"u[{j}]": -1, "eps": -1}, ">=", 0)
        for other in menu.entries:
            if other.alloc == entry.alloc:
                continue
            coefs: Dict[str, Fraction] = {}
            for j, p in entry.alloc:
                coefs[f"u[{j}]"] = coefs.get(f"u[{j}]", Fraction(0)) + p
            coefs["u0"] = coefs.get("u0", Fraction(0)) + entry.no_purchase
            for j, p in other.alloc:
                coefs[f"u[{j}]"] = coefs.get(f"u[{j}]", Fraction(0)) - p
            coefs["u0"] = coefs.get("u0", Fraction(0)) - other.no_purchase
            lp.add_row(coefs, ">=", 0)
        lp.set_objective({"eps": 1})
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
