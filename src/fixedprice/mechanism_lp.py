"""IC mechanisms over ranked lists: the allocation LP, conversions, and checks.

A mechanism assigns each supported list a sub-probability allocation over the
items on that list.  Incentive compatibility means here that a truthful
report maximizes the probability of receiving one of the buyer's k favorite
items simultaneously for every k, which linearizes into the row family

    sum_{j in first k of l} x_j(l)  >=  sum_{j in (first k of l) ∩ l'} x_j(l')

for all supported lists l, positions k, and reports l' != l that hold one
of the first k entries of l.  This module builds that LP, the
monotone-set-function relaxation of its optimum (solved by a minimum cut),
and the weaker assortment LP used for comparisons, plus the conversions
between assortments, mechanisms, and monotone set functions.

``_ic_plan`` alone decides which IC rows exist; the full LP, the DSIC and
BIC rows of ``extensions``, the separation in ``solve_mechanism_lp`` and
``verify_ic`` all read it.  Likewise ``_inclusion_rows`` feeds both
``build_bm_lp`` and ``containment_witness``, and ``_best_over_reports`` is
the one definition of the best probability any report gives of landing in
a set.

``solve_mechanism_lp`` does not build the full LP, whose IC rows grow with
the square of the support while an optimal vertex needs few of them.  It
starts from the sum-to-one rows and runs the row-generation loop of
``lp._solve_by_rows`` (Dantzig, Fulkerson and Johnson 1954), which the
DSIC and BIC solves of ``extensions`` share: each round the integer pass
``_ic_violations`` reads the vertex, the row of every IC violation is
appended to the tableau in its current basis, and the dual simplex (Lemke
1954) restores the lexicographically smallest optimum.  It stops when the
pass finds nothing, so its answer has passed the exact IC check of
``verify_ic``, whose other rows the LP itself enforces, and the value and
the vertex are those of ``solve_lp(build_mechanism_lp(inst))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .core import (
    Instance,
    Item,
    RankedList,
    _check_item_ids,
    _check_objects,
    _list_key,
    _parse_rationals,
    _subsets,
)
from .errors import (
    CapExceededError,
    ContainmentError,
    IdentityCheckError,
    InvalidMechanismError,
    SubmodularityError,
)
from .lp import GE, LE, LPSolution, RationalLP, _solve_by_rows, solve_lp
from .rational import format_rational, lcm_of_denominators, parse_rational


def _var(lst: RankedList, j: Item) -> str:
    inner = ",".join(str(e) for e in lst.entries)
    return f"x[{inner}][{j}]"


@dataclass(frozen=True)
class Mechanism:
    """Per-list allocation probabilities over the items on that list."""

    alloc: Mapping[RankedList, Mapping[Item, Fraction]]

    def __init__(self, alloc, validate: bool = True):
        clean: Dict[RankedList, Dict[Item, Fraction]] = {}
        for lst, probs in dict(alloc).items():
            lst = lst if isinstance(lst, RankedList) else RankedList(tuple(lst))
            row = {j: parse_rational(p) for j, p in dict(probs).items()}
            if validate:
                off_list = set(row) - lst.as_set()
                if off_list:
                    raise InvalidMechanismError(
                        f"allocation to items {off_list} not on list {lst.entries}"
                    )
                if any(p < 0 for p in row.values()):
                    raise InvalidMechanismError(
                        f"negative allocation on list {lst.entries}"
                    )
                if sum(row.values(), Fraction(0)) > 1:
                    raise InvalidMechanismError(
                        f"allocations on list {lst.entries} exceed 1"
                    )
            clean[lst] = row
        object.__setattr__(self, "alloc", clean)

    def probability(self, lst, j: Item) -> Fraction:
        lst = lst if isinstance(lst, RankedList) else RankedList(tuple(lst))
        return self.alloc.get(lst, {}).get(j, Fraction(0))


def mechanism_revenue(inst: Instance, mech: Mechanism) -> Fraction:
    total = Fraction(0)
    for lst, prob in inst.dist.support.items():
        row = mech.alloc.get(lst, {})
        for j, x in row.items():
            total += prob * inst.prices[j] * x
    return total


# ---------------------------------------------------------------------------
# The mechanism LP
# ---------------------------------------------------------------------------


_Walk = Tuple[int, int, List[Optional[int]]]
_Plan = List[Tuple[range, List[_Walk]]]


def _ic_plan(reports: Sequence[RankedList]) -> _Plan:
    """The IC rows of ``reports`` that can bind, laid out for one walk per
    (list, report) pair: the row of list l, position k and report o (the
    module docstring's family) exists when o != l holds one of l's first k
    entries.  The rows left out read 0 >= 0 or follow from x >= 0, so
    leaving them out keeps the feasible set, and with it the
    lexicographically smallest optimal vertex that ``solve_lp`` returns.

    Allocations sit in one vector that holds each list's entries in turn,
    the order of the allocation variables in ``_revenue_lp``.  Entry l of
    the plan is ``(own, walks)``: ``own`` is the range of list l's
    positions in the vector, and ``walks`` has one ``(o, first, cols)`` per
    other list o that holds one of l's entries, in ``reports`` order:
    ``cols[p]`` is where x(o) of l's entry p sits, or None when o does not
    hold it, and ``first`` is the first p where it does, so o's rows are
    those of the positions k > ``first``.  A list that shares no entry with
    l has no walk.
    """
    starts = [0, *accumulate(len(lst) for lst in reports)]
    holders: Dict[Item, List[Tuple[int, int]]] = {}
    for o, other in enumerate(reports):
        for p, j in enumerate(other.entries, starts[o]):
            holders.setdefault(j, []).append((o, p))
    plan = []
    for l, lst in enumerate(reports):
        walks: Dict[int, Tuple[int, List[Optional[int]]]] = {}  # o -> (first, cols)
        for p, j in enumerate(lst.entries):
            for o, col in holders[j]:
                if o != l:
                    if o not in walks:
                        walks[o] = (p, [None] * len(lst))
                    walks[o][1][p] = col
        plan.append((range(starts[l], starts[l + 1]),
                     [(o, first, cols) for o, (first, cols) in sorted(walks.items())]))
    return plan


def _ic_all_rows(plan: _Plan) -> Iterator[Tuple[int, int, int, List[int]]]:
    """Every row of ``plan`` (``_ic_plan``) as ``(l, k, o, inside)``, list
    by list, then k, then report; ``inside`` is where the entries of report
    o among list l's first k sit in the allocation vector."""
    for l, (own, walks) in enumerate(plan):
        for k in range(len(own)):
            for o, first, cols in walks:
                if first <= k:
                    yield l, k + 1, o, [c for c in cols[:k + 1] if c is not None]


def _ic_violations(
    plan: _Plan, x: Sequence[int]
) -> Iterator[Tuple[int, int, int, int, int, List[int]]]:
    """Every row of ``plan`` (``_ic_plan``) that the allocation vector ``x``
    violates, as ``(l, k, o, lhs, rhs, inside)``: list l's top-k mass
    ``lhs`` is below the mass ``rhs`` that report o puts on those k
    entries, and ``inside`` is where those entries of o sit in ``x``.

    One cumulative walk over k per (list, report) pair; the rows come in
    ``_ic_all_rows``' order.
    """
    for l, (own, walks) in enumerate(plan):
        top = list(accumulate(x[c] for c in own))
        found = []
        for o, first, cols in walks:
            rhs = 0
            for k in range(first, len(top)):
                c = cols[k]
                if c is not None:
                    rhs += x[c]
                if top[k] < rhs:
                    found.append((k + 1, o, top[k], rhs,
                                  [c for c in cols[:k + 1] if c is not None]))
        found.sort()
        for row in found:
            yield (l, *row)


def _ic_coefs(coefs: Dict, top: Iterable, inside: Iterable, weight=1) -> Dict:
    """Add ``weight`` times one IC row to ``coefs``: +weight on each key of
    ``top`` (columns or names), -weight on each key of ``inside``."""
    for key in top:
        coefs[key] = coefs.get(key, 0) + weight
    for key in inside:
        coefs[key] = coefs.get(key, 0) - weight
    return coefs


def _revenue_lp(inst: Instance) -> RationalLP:
    """An LP with one allocation variable per (supported list, listed item)
    and the expected-revenue objective over them."""
    lp = RationalLP()
    objective: Dict[int, Fraction] = {}
    for lst, prob in inst.dist.support.items():
        for j in lst.entries:
            objective[lp.add_variable(_var(lst, j), lo=0)] = prob * inst.prices[j]
    lp.set_index_objective(objective)
    return lp


def _sum_rows_lp(inst: Instance) -> RationalLP:
    """``_revenue_lp(inst)`` with the sum-to-one row of every nonempty list."""
    lp = _revenue_lp(inst)
    col = 0
    for lst in inst.dist.support:
        if len(lst) > 0:
            lp.add_index_row(dict.fromkeys(range(col, col + len(lst)), 1), LE, 1,
                             label=f"one[{','.join(map(str, lst.entries))}]")
        col += len(lst)
    return lp


def build_mechanism_lp(inst: Instance) -> RationalLP:
    """LP over allocation variables with IC, sum-to-one, and nonnegativity rows.

    The sum-to-one row of every nonempty list, then every IC row of
    ``_ic_plan`` in its order: one per (list l, position k, report l' != l)
    where l' holds one of the first k entries of l.  No two rows are equal.
    ``solve_mechanism_lp`` solves this LP with only the IC rows it needs.
    """
    lp = _sum_rows_lp(inst)
    plan = _ic_plan(list(inst.dist.support))
    for l, k, _, inside in _ic_all_rows(plan):
        lp.add_index_row(_ic_coefs({}, plan[l][0][:k], inside), GE, 0)
    return lp


def mechanism_from_solution(inst: Instance, sol: LPSolution) -> Mechanism:
    alloc = {
        lst: {j: sol.assignment[_var(lst, j)] for j in lst.entries}
        for lst in inst.dist.support
    }
    return Mechanism(alloc)


def solve_mechanism_lp(inst: Instance) -> Tuple[Fraction, Mechanism]:
    """Optimal IC mechanism value and the vertex mechanism ``solve_lp``
    returns for ``build_mechanism_lp(inst)``, by row generation
    (``lp._solve_by_rows``) from the sum-to-one rows, with the integer pass
    ``_ic_violations`` that ``verify_ic`` runs as the separation."""
    support = list(inst.dist.support)
    plan = _ic_plan(support)

    def separate(x: List[int]):
        return [(_ic_coefs({}, plan[l][0][:k], inside), GE, 0)
                for l, k, _, _, _, inside in _ic_violations(plan, x)]

    sol = _solve_by_rows(_sum_rows_lp(inst), separate)
    values = list(sol.assignment.values())
    alloc = {lst: {j: values[c] for j, c in zip(lst.entries, own)}
             for lst, (own, _) in zip(support, plan)}
    return sol.value, Mechanism(alloc)


@dataclass(frozen=True)
class ICViolation:
    kind: str  # "ic" | "sum" | "nonneg" | "missing" | "off-list"
    lst: Tuple[Item, ...]
    detail: str
    k: Optional[int] = None
    other: Optional[Tuple[Item, ...]] = None


@dataclass(frozen=True)
class ICReport:
    violations: Tuple[ICViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_ic(inst: Instance, mech: Mechanism) -> ICReport:
    """Exact check of every IC, sum-to-one, and nonnegativity constraint.

    The sums compare integers: the allocations scaled by the lcm of their
    denominators; a Fraction is built only to word a violation."""
    violations: List[ICViolation] = []
    support = list(inst.dist.support.keys())
    reports = [lst for lst in support if lst in mech.alloc]
    scale = lcm_of_denominators(x for lst in reports for x in mech.alloc[lst].values())
    alloc = {
        lst: {j: x.numerator * (scale // x.denominator)
              for j, x in mech.alloc[lst].items()}
        for lst in reports
    }
    for lst in support:
        if lst not in alloc:
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
        total = sum(alloc[lst].values())
        if total > scale:
            violations.append(
                ICViolation(
                    "sum", lst.entries,
                    f"allocations sum to {format_rational(Fraction(total, scale))}",
                )
            )
    x = [alloc[lst].get(j, 0) for lst in reports for j in lst.entries]
    for l, k, o, lhs, rhs, _ in _ic_violations(_ic_plan(reports), x):
        other = reports[o].entries
        violations.append(
            ICViolation(
                "ic",
                reports[l].entries,
                f"top-{k} probability {format_rational(Fraction(lhs, scale))} < "
                f"{format_rational(Fraction(rhs, scale))} via report {other}",
                k=k,
                other=other,
            )
        )
    return ICReport(tuple(violations))


def assortment_to_mechanism(inst: Instance, S: Iterable[Item]) -> Mechanism:
    """The deterministic mechanism that grants the first on-list member of S."""
    S = inst.assortment(S)
    alloc: Dict[RankedList, Dict[Item, Fraction]] = {}
    for lst in inst.dist.support:
        row: Dict[Item, Fraction] = {}
        for j in lst.entries:
            if j in S:
                row[j] = Fraction(1)
                break
        alloc[lst] = row
    return Mechanism(alloc)


# ---------------------------------------------------------------------------
# Set functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetFunction:
    """A [0,1]-valued set function with f(empty) = 0; checks are on demand."""

    values: Mapping[frozenset, Fraction]
    universe: Tuple[Item, ...]

    def __init__(self, values, universe):
        universe = tuple(universe)
        clean = {frozenset(S): parse_rational(v) for S, v in dict(values).items()}
        clean.setdefault(frozenset(), Fraction(0))
        if clean[frozenset()] != 0:
            raise InvalidMechanismError("set function must vanish on the empty set")
        for S, v in clean.items():
            if not S <= set(universe):
                raise InvalidMechanismError(f"value on unknown set {set(S)}")
            if not (0 <= v <= 1):
                raise InvalidMechanismError(f"value {v} outside [0, 1]")
        object.__setattr__(self, "values", clean)
        object.__setattr__(self, "universe", universe)

    def __call__(self, S: Iterable[Item]) -> Fraction:
        S = frozenset(S)
        if S not in self.values:
            raise KeyError(f"set function not defined on {set(S)}")
        return self.values[S]

    def monotone_witness(self) -> Optional[Tuple[frozenset, Item]]:
        """A pair (S, j) with f(S) > f(S + j), or None if monotone."""
        for S, v in self.values.items():
            for j in self.universe:
                if j in S:
                    continue
                bigger = S | {j}
                if bigger in self.values and self.values[bigger] < v:
                    return (S, j)
        return None

    def submodular_witness(self) -> Optional[Tuple[frozenset, Item, Item]]:
        """A triple (S, j, j') violating the diminishing-increment test."""
        for S in self.values:
            rest = [j for j in self.universe if j not in S]
            for j, jp in combinations(rest, 2):
                needed = [S | {j}, S | {jp}, S | {j, jp}]
                if any(T not in self.values for T in needed):
                    continue
                lhs = self.values[S | {j}] - self.values[S]
                rhs = self.values[S | {j, jp}] - self.values[S | {jp}]
                if lhs < rhs:
                    return (S, j, jp)
        return None


def _best_over_reports(inst: Instance, mech: Mechanism, S) -> Fraction:
    """The best probability any supported report gives of receiving an item
    of the set ``S`` (0 when no report does better)."""
    best = Fraction(0)
    for lst in inst.dist.support:
        got = sum(
            (mech.probability(lst, j) for j in lst.entries if j in S), Fraction(0)
        )
        if got > best:
            best = got
    return best


def _increments(f, lst: RankedList) -> Iterator[Tuple[Item, Fraction]]:
    """``(j, f(first k) - f(first k-1))`` for the k-th entry j of ``lst``,
    k = 1, 2, ...; ``f`` maps item tuples to values."""
    prev = f(())
    for k, j in enumerate(lst.entries, 1):
        cur = f(lst.entries[:k])
        yield j, cur - prev
        prev = cur


def mechanism_to_set_function(inst: Instance, mech: Mechanism) -> SetFunction:
    """For each set S, the best probability any report gives of landing in S.

    Also asserts the telescoping identity (the allocation to a list's k-th
    item equals the increment of f along that list) and revenue equality;
    both fail only on non-IC input.
    """
    values = {S: _best_over_reports(inst, mech, S)
              for S in map(frozenset, _subsets(inst.items))}
    f = SetFunction(values, inst.items)
    for lst in inst.dist.support:
        for k, (j, inc) in enumerate(_increments(f, lst), 1):
            if inc != mech.probability(lst, j):
                raise IdentityCheckError(
                    f"allocation increment mismatch on {lst.entries} at position {k};"
                    " the mechanism is not IC"
                )
    rev_f = set_function_revenue(inst, f)
    rev_x = mechanism_revenue(inst, mech)
    if rev_f != rev_x:
        raise IdentityCheckError("set-function revenue differs from mechanism revenue")
    return f


def set_function_revenue(inst: Instance, f: SetFunction) -> Fraction:
    total = Fraction(0)
    for lst, prob in inst.dist.support.items():
        for j, inc in _increments(f, lst):
            total += prob * inst.prices[j] * inc
    return total


def submodular_to_mechanism(inst: Instance, f: SetFunction) -> Mechanism:
    """Increments of a monotone submodular f along each list; always IC."""
    witness = f.monotone_witness()
    if witness is not None:
        raise SubmodularityError(witness + ("not monotone",))
    witness = f.submodular_witness()
    if witness is not None:
        raise SubmodularityError(witness)
    mech = Mechanism({
        lst: {j: inc for j, inc in _increments(f, lst) if inc != 0}
        for lst in inst.dist.support
    })
    report = verify_ic(inst, mech)
    if not report.ok:
        raise IdentityCheckError(
            "submodular increments produced a non-IC mechanism (bug signal)"
        )
    return mech


# ---------------------------------------------------------------------------
# The set-function relaxation
# ---------------------------------------------------------------------------


SET_FUNCTION_LP_CAP = 12


def _set_var(S: Iterable[Item]) -> str:
    return "f[" + ",".join(str(j) for j in sorted(S, key=str)) + "]"


def _check_set_function_cap(inst: Instance, cap: int) -> None:
    n = len(inst.items)
    if n > cap:
        raise CapExceededError("build_set_function_lp", n, cap, "2^n variables")


def _set_weights(inst: Instance) -> Dict[frozenset, Fraction]:
    """The coefficient w(T) of f(T) in the prefix revenue: price * Pr[prefix]
    summed over the prefixes whose set is T, minus the same sum over the
    prefixes whose body set is T (zeros kept, in first-seen order)."""
    weights: Dict[frozenset, Fraction] = {}
    for prefix, prob in inst.dist.realizable_prefixes().items():
        gain = inst.prices[prefix.endpoint] * prob
        big, small = prefix.as_set(), prefix.body.as_set()
        weights[big] = weights.get(big, Fraction(0)) + gain
        weights[small] = weights.get(small, Fraction(0)) - gain
    return weights


def build_set_function_lp(inst: Instance, cap: int = SET_FUNCTION_LP_CAP) -> RationalLP:
    """The relaxation over monotone [0,1] set functions as an explicit LP.

    One variable per subset, pairwise monotonicity rows, and the objective
    ``sum_T w(T) f(T)`` of ``_set_weights``.  The rows are differences of
    two variables, a network matrix, so every vertex is 0/1.
    ``solve_set_function_lp`` solves the same problem by a minimum cut; this
    LP serves external cross-checks and the tests.
    """
    _check_set_function_cap(inst, cap)
    lp = RationalLP()
    universe = tuple(sorted(inst.items, key=str))
    col = {frozenset(combo): lp.add_variable(_set_var(combo), lo=0, hi=1 if combo else 0)
           for combo in _subsets(universe)}
    for S, c in col.items():
        for j in universe:
            if j not in S:
                lp.add_index_row({c: 1, col[S | {j}]: -1}, LE, 0)
    lp.set_index_objective({col[T]: w for T, w in _set_weights(inst).items()})
    return lp


def _max_weight_closure(
    weights: Sequence[Tuple[frozenset, int]]
) -> Tuple[int, List[frozenset]]:
    """Maximum total weight of a family of the given sets that is closed
    under taking supersets among them, and the smallest such family.

    Picard's reduction to a minimum cut: source -> T with capacity w(T) > 0,
    T -> sink with capacity -w(T) > 0, and an uncapacitated edge A -> B for
    every A ⊊ B.  Edmonds-Karp finds a maximum flow; the optimum is the
    positive weight minus the flow, and the sets still reachable from the
    source in the residual graph form the smallest optimal family.
    """
    m = len(weights)
    source, sink = m, m + 1
    positive = sum(w for _, w in weights if w > 0)
    head: List[int] = []
    cap: List[int] = []
    adj: List[List[int]] = [[] for _ in range(m + 2)]

    def edge(u: int, v: int, c: int) -> None:
        adj[u].append(len(head))
        head.append(v)
        cap.append(c)
        adj[v].append(len(head))
        head.append(u)
        cap.append(0)

    for a, (A, w) in enumerate(weights):
        if w > 0:
            edge(source, a, w)
        else:
            edge(a, sink, -w)
        for b, (B, _) in enumerate(weights):
            if A < B:
                edge(a, b, positive + 1)
    flow = 0
    while True:
        via = {source: -1}
        queue = [source]
        for u in queue:
            for e in adj[u]:
                if cap[e] > 0 and head[e] not in via:
                    via[head[e]] = e
                    queue.append(head[e])
            if sink in via:
                break
        if sink not in via:
            break
        path = []
        v = sink
        while v != source:
            path.append(via[v])
            v = head[via[v] ^ 1]
        push = min(cap[e] for e in path)
        for e in path:
            cap[e] -= push
            cap[e ^ 1] += push
        flow += push
    return positive - flow, [weights[u][0] for u in via if u < m]


def solve_set_function_lp(inst: Instance, cap: int = SET_FUNCTION_LP_CAP):
    """Optimal relaxation value and the pointwise smallest optimal set function.

    The optimum over monotone [0,1] set functions is attained at a 0/1 one,
    the indicator of an up-closed family of sets, so OPT^f is a maximum-weight
    closure of the sets with nonzero weight in ``_set_weights`` and comes
    from one exact minimum cut (``_max_weight_closure``).  The returned f is 1
    exactly on the supersets of the smallest optimal closure: a 0/1 vertex of
    ``build_set_function_lp`` that lies below every optimal solution.  The
    cap bounds only the 2^n values f materialises.
    """
    _check_set_function_cap(inst, cap)
    weights = [(T, w) for T, w in _set_weights(inst).items() if T and w != 0]
    scale = lcm_of_denominators(w for _, w in weights)
    value, closure = _max_weight_closure([(T, int(w * scale)) for T, w in weights])
    closure = [A for A in closure if not any(B < A for B in closure)]
    universe = tuple(sorted(inst.items, key=str))
    values = {}
    for combo in _subsets(universe):
        S = frozenset(combo)
        values[S] = Fraction(int(any(A <= S for A in closure)))
    return Fraction(value, scale), SetFunction(values, universe)


# ---------------------------------------------------------------------------
# The assortment-relaxation LP with inclusion variables
# ---------------------------------------------------------------------------


def _z_var(j: Item) -> str:
    return f"z[{j}]"


def _inclusion_rows(lst: RankedList):
    """The rows of the inclusion LP on one list, each as ``(x_items, z_item,
    z_coef, rhs, failure)``: the row reads

        sum_{j in x_items} x_j(lst) + z_coef * z_{z_item}  <=  rhs,

    and ``failure`` says what a violation of it means.
    """
    if len(lst) == 0:
        return
    yield lst.entries, None, 0, 1, f"allocations on {lst.entries} exceed 1"
    for k, jk in enumerate(lst.entries, 1):
        yield (jk,), jk, -1, 0, f"x <= z fails for item {jk!r} on list {lst.entries}"
        yield (lst.entries[k:], jk, 1, 1,
               f"exclusion cap fails at position {k} of list {lst.entries}")


def build_bm_lp(inst: Instance) -> RationalLP:
    """Weaker relaxation with per-item inclusion variables.

    Selling an item never exceeds its inclusion probability, and anything
    sold below position k on a list is capped by that position's exclusion;
    integer solutions are exactly assortments.  The cap at a list's last
    position reads ``z <= 1``, z's own bound, and is left out.
    """
    lp = _revenue_lp(inst)
    z = {j: lp.add_variable(_z_var(j), lo=0, hi=1) for j in inst.items}
    col = 0
    for lst in inst.dist.support:
        x = {j: c for c, j in enumerate(lst.entries, col)}
        col += len(lst)
        for x_items, z_item, z_coef, rhs, _ in _inclusion_rows(lst):
            if x_items:
                coefs = dict.fromkeys((x[j] for j in x_items), 1)
                if z_item is not None:
                    coefs[z[z_item]] = z_coef
                lp.add_index_row(coefs, LE, rhs)
    return lp


def solve_bm_lp(inst: Instance) -> Tuple[Fraction, LPSolution]:
    lp = build_bm_lp(inst)
    sol = solve_lp(lp)
    return sol.value, sol


def containment_witness(inst: Instance, mech: Mechanism) -> Dict[Item, Fraction]:
    """Inclusion variables certifying an IC mechanism inside the weaker LP.

    Sets z_j to the mechanism's best allocation of j over reports and checks
    every row of the weaker LP exactly; a violation would contradict the LP
    containment and is raised as a bug signal.
    """
    z = {j: _best_over_reports(inst, mech, (j,)) for j in inst.items}
    for lst in inst.dist.support:
        if any(mech.probability(lst, j) < 0 for j in lst.entries):
            raise ContainmentError(f"negative allocation on list {lst.entries}")
        for x_items, z_item, z_coef, rhs, failure in _inclusion_rows(lst):
            lhs = sum((mech.probability(lst, j) for j in x_items), Fraction(0))
            if z_item is not None:
                lhs += z_coef * z[z_item]
            if lhs > rhs:
                raise ContainmentError(failure)
    return z


# ---------------------------------------------------------------------------
# Mechanism JSON interchange
# ---------------------------------------------------------------------------


def mechanism_to_json(mech: Mechanism) -> dict:
    entries = []
    for lst in sorted(mech.alloc, key=lambda l: _list_key(l.entries)):
        entries.append(
            {
                "list": list(lst.entries),
                "probs": {
                    str(j): format_rational(p) for j, p in sorted(
                        mech.alloc[lst].items(), key=lambda kv: str(kv[0])
                    )
                },
            }
        )
    return {"alloc": entries}


def mechanism_from_json(obj: dict, items: Optional[Iterable[Item]] = None,
                        validate: bool = True) -> Mechanism:
    if not isinstance(obj, dict) or "alloc" not in obj:
        raise InvalidMechanismError('mechanism JSON needs an "alloc" key')
    _check_objects(obj["alloc"], "alloc", ("list",), InvalidMechanismError)
    alloc = {}
    for k, entry in enumerate(obj["alloc"]):
        _check_item_ids(entry["list"], f"alloc[{k}].list", InvalidMechanismError)
        alloc[tuple(entry["list"])] = _parse_rationals(
            entry.get("probs", {}), f"alloc[{k}].probs", InvalidMechanismError, items)
    return Mechanism(alloc, validate=validate)
