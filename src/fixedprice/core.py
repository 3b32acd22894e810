"""Items, prices, ranked lists, distributions, prefix trees, and assortments.

The buyer's type is a strictly ordered list of the items they would purchase,
best first; everything below the no-purchase option is omitted.  A finite
distribution over such lists, together with fixed item prices, is the whole
input to every solver in this package.  All probabilities and prices are
exact rationals.

One pass, ``_read_support``, reads every distribution: each list and
probability once, the sum in integers over D, the lcm of the denominators.
``validate_distribution`` reports its issues; ``ListDistribution`` raises on
them, or else builds its trie from the pass's support and D.

A distribution's prefix trie (``PrefixNode``) is its one prefix
representation, its masses integers over one denominator summed once at
construction; its Fraction views divide only where they return.  The
first-hit walk ``_first_hits`` serves choice probabilities, assortment
revenue and the top-k lottery value.  ``_flatten`` is the one pre-order copy
of the trie: the condition checker in ``stopping`` reads its masses, and
``_price_weights`` weighs its nodes by endpoint price for the two exact
searches.  ``_best_subsets`` serves ``optimal_assortment`` and
``lotteries.best_topk_lottery``, every subset and every k from one
bit-parallel trie walk per block of 4096 subsets, and
``stopping.optimal_policy_bruteforce`` folds a revenue bound up the same
nodes at each step of its branch and bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    CapExceededError,
    InvalidDistributionError,
    InvalidInstanceError,
    PrefixOverlapError,
    UnrealizablePrefixError,
)
from .rational import format_rational, lcm_of_denominators, parse_rational

Item = Union[str, int]
Assortment = frozenset
SUBSET_SEARCH_CAP = 20  # items, for optimal_assortment and best_topk_lottery
_BLOCK_ITEMS = 12  # _best_subsets scores 2^12 subsets per block


@dataclass(frozen=True)
class RankedList:
    """A strictly ordered subset of items, most-preferred first.  May be empty."""

    entries: Tuple[Item, ...]

    def __init__(self, entries: Iterable[Item] = ()):
        entries = tuple(entries)
        if len(set(entries)) != len(entries):
            raise InvalidDistributionError(f"repeated item in list {entries}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def as_set(self) -> frozenset:
        return frozenset(self.entries)


@dataclass(frozen=True)
class Prefix:
    """An ordered initial segment of a list.

    ``endpoint`` is the last item; ``body`` is everything before it.
    """

    entries: Tuple[Item, ...]

    def __init__(self, entries: Iterable[Item] = ()):
        entries = tuple(
            entries.entries if isinstance(entries, (RankedList, Prefix)) else entries
        )
        if len(set(entries)) != len(entries):
            raise InvalidDistributionError(f"repeated item in prefix {entries}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def endpoint(self) -> Item:
        if not self.entries:
            raise ValueError("empty prefix has no endpoint")
        return self.entries[-1]

    @property
    def body(self) -> "Prefix":
        if not self.entries:
            raise ValueError("empty prefix has no body")
        return Prefix(self.entries[:-1])

    def as_set(self) -> frozenset:
        return frozenset(self.entries)


def _as_ranked_list(value) -> RankedList:
    if isinstance(value, RankedList):
        return value
    return RankedList(tuple(value))


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: Tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def messages(self) -> List[str]:
        return [issue.message for issue in self.issues]


def _as_pairs(pairs) -> list:
    """``(list, probability)`` pairs of a distribution, a mapping or an
    iterable of pairs."""
    if isinstance(pairs, ListDistribution):
        return list(pairs.support.items())
    return list(pairs.items() if isinstance(pairs, Mapping) else pairs)


def _read_support(pairs, items: Optional[Sequence[Item]] = None):
    """The one pass over ``(list, probability)`` pairs: it builds each
    ``RankedList`` and parses each probability once.  Returns the support in
    input order, D (the lcm of the denominators) and the ``ValidationIssue``s
    in input order, ``bad-sum`` last.  The sum is checked in integers, as
    Σ numerator·(D // denominator) == D."""
    issues: List[ValidationIssue] = []
    support: Dict[RankedList, Fraction] = {}
    D, total = 1, 0  # the probabilities so far sum to total / D
    universe = set(items) if items is not None else None
    for raw_list, raw_prob in _as_pairs(pairs):
        try:
            lst = _as_ranked_list(raw_list)
        except InvalidDistributionError as exc:
            issues.append(ValidationIssue("repeated-item", str(exc)))
            continue
        try:
            prob = parse_rational(raw_prob)
        except ValueError as exc:
            issues.append(ValidationIssue("bad-probability", str(exc)))
            continue
        if prob <= 0:
            issues.append(ValidationIssue(
                "nonpositive-probability", f"list {lst.entries} has probability {prob} <= 0"))
        if lst in support:
            issues.append(ValidationIssue("duplicate-list", f"duplicate list {lst.entries}"))
        support[lst] = prob
        d = prob.denominator
        if D % d:
            scale = d // math.gcd(D, d)
            D, total = D * scale, total * scale
        total += prob.numerator * (D // d)
        if universe is not None:
            issues.extend(ValidationIssue("unknown-item", f"item {j!r} not in the item universe")
                          for j in lst.entries if j not in universe)
    if total != D:
        issues.append(ValidationIssue(
            "bad-sum", f"probabilities sum to {format_rational(Fraction(total, D))}, not 1"))
    return support, D, issues


def validate_distribution(
    pairs, items: Optional[Sequence[Item]] = None
) -> ValidationReport:
    """Validate raw (list, probability) data without raising.

    Checks: probabilities positive and summing to exactly 1, no duplicate
    lists, no repeated item within a list, and (when ``items`` is given)
    membership of every listed item in the universe.  Returns every
    violation found by the pass ``ListDistribution`` is built from.
    """
    return ValidationReport(tuple(_read_support(pairs, items)[2]))


@dataclass(slots=True)
class PrefixNode:
    """A realizable prefix in integer weights: ``mass`` is D times the chance
    the list begins with it, ``stop`` D times the chance it ends there, with
    D the lcm of the list probabilities' denominators, the root's mass.
    ``children`` maps each next item to the node one item longer, in the
    order the lists first reach it."""

    mass: int
    stop: int = 0
    children: Dict[Item, "PrefixNode"] = field(default_factory=dict)


class ListDistribution:
    """A finite-support distribution over ranked lists with exact probabilities.

    Construction reads each pair once, in the pass that
    :func:`validate_distribution` reports from, and raises
    ``InvalidDistributionError`` on any violation.  Instances are immutable;
    treat ``support`` and the trie as read-only.
    """

    __slots__ = ("_support", "_root", "_items")

    def __init__(self, pairs):
        support, D, issues = _read_support(pairs)
        if issues:
            raise InvalidDistributionError("; ".join(issue.message for issue in issues))
        self._support = support
        items = sorted({j for lst in support for j in lst.entries}, key=str)
        self._items = tuple(items)
        root = self._root = PrefixNode(D)
        for lst, prob in support.items():
            weight = prob.numerator * (root.mass // prob.denominator)
            node = root
            for j in lst.entries:
                child = node.children.get(j)
                if child is None:
                    child = node.children[j] = PrefixNode(weight)
                else:
                    child.mass += weight
                node = child
            node.stop += weight

    @property
    def support(self) -> Dict[RankedList, Fraction]:
        return self._support

    @property
    def items(self) -> Tuple[Item, ...]:
        """Sorted universe of items appearing on some supported list."""
        return self._items

    def probability(self, lst) -> Fraction:
        return self._support.get(_as_ranked_list(lst), Fraction(0))

    def node(self, prefix) -> PrefixNode:
        """The trie node of ``prefix``, the root for the empty prefix; raises
        ``UnrealizablePrefixError`` when the prefix has probability 0."""
        prefix = Prefix(prefix)
        node = self._root
        for j in prefix.entries:
            node = node.children.get(j)
            if node is None:
                raise UnrealizablePrefixError(f"prefix {prefix.entries} has probability 0")
        return node

    def realizable_prefixes(self) -> Dict[Prefix, Fraction]:
        """All nonempty prefixes with positive probability."""
        out: Dict[Prefix, Fraction] = {}
        stack = [((), self._root)]
        while stack:
            entries, node = stack.pop()
            for j, child in node.children.items():
                out[Prefix(entries + (j,))] = Fraction(child.mass, self._root.mass)
                stack.append((entries + (j,), child))
        return out

    def __eq__(self, other):
        if not isinstance(other, ListDistribution):
            return NotImplemented
        return self._support == other._support

    def __hash__(self):
        return hash(frozenset(self._support.items()))

    def __repr__(self):
        inner = ", ".join(
            f"{lst.entries}: {format_rational(p)}" for lst, p in self._support.items()
        )
        return f"ListDistribution({{{inner}}})"


def _distinct_ids(items: Iterable[Item]) -> Tuple[Item, ...]:
    """``items`` as a tuple; raises unless no two ids have the same ``str``,
    which names an item in LP variables and JSON reports."""
    items = tuple(items)
    if len({str(j) for j in items}) != len(items):
        raise InvalidInstanceError("duplicate item ids (ids with the same text count as one)")
    return items


def _market(items, prices, dists):
    """``(items, prices, dists)`` checked for an instance with one
    distribution per buyer: the ids distinct (``_distinct_ids``), every item
    priced at least 0, the prices parsed, each distribution a
    ``ListDistribution``, and every listed item in the universe."""
    items = _distinct_ids(items)
    prices = {j: parse_rational(p) for j, p in dict(prices).items()}
    for j in items:
        if j not in prices:
            raise InvalidInstanceError(f"missing price for item {j!r}")
        if prices[j] < 0:
            raise InvalidInstanceError(f"negative price for item {j!r}")
    dists = tuple(d if isinstance(d, ListDistribution) else ListDistribution(d) for d in dists)
    unknown = set().union(*(d.items for d in dists)) - set(items)
    if unknown:
        raise InvalidInstanceError(
            f"listed items missing from universe: {sorted(unknown, key=str)}")
    return items, prices, dists


@dataclass(frozen=True)
class Instance:
    """An item universe with fixed prices plus a distribution over rankings."""

    items: Tuple[Item, ...]
    prices: Mapping[Item, Fraction]
    dist: ListDistribution

    def __init__(self, items, prices, dist):
        items, prices, (dist,) = _market(items, prices, (dist,))
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dist", dist)

    def assortment(self, items: Iterable[Item]) -> Assortment:
        S = frozenset(items)
        unknown = S - set(self.items)
        if unknown:
            raise InvalidInstanceError(f"assortment contains unknown items {unknown}")
        return S


def choice_probability(
    inst_or_dist,
    S: Iterable[Item],
    j: Item,
    given=None,
) -> Fraction:
    """Probability that ``j`` is the buyer's pick when assortment ``S`` is offered.

    This is the chance that ``j`` appears on the random list before any other
    member of ``S``.  With ``given`` set, the list is conditioned to start
    with that (realizable) prefix and the event is evaluated over the suffix
    only; ``S`` must then be disjoint from the prefix.
    """
    dist = inst_or_dist.dist if isinstance(inst_or_dist, Instance) else inst_or_dist
    S = frozenset(S)
    if j not in S:
        raise InvalidInstanceError(f"item {j!r} is not in the assortment")
    prefix = Prefix(() if given is None else given)
    overlap = S & prefix.as_set()
    if overlap:
        raise PrefixOverlapError(
            f"assortment intersects the conditioning prefix on {sorted(overlap, key=str)}"
        )
    return _first_hits(dist.node(prefix), S).get(j, Fraction(0))


def _first_hits(node: PrefixNode, S: frozenset, k: int = 1) -> Dict[Item, Fraction]:
    """For each member of ``S`` reached, the chance that it is among the
    first (up to) ``k`` members of ``S`` on a list that begins with ``node``'s
    prefix: one walk of the subtree, descending no further than the k-th."""
    mass: Dict[Item, Fraction] = {}
    stack = [(node, 0)]
    while stack:
        parent, hits = stack.pop()
        for item, child in parent.children.items():
            hit = item in S
            if hit:
                mass[item] = mass.get(item, 0) + child.mass
            if hits + hit < k:
                stack.append((child, hits + hit))
    return {item: Fraction(m, node.mass) for item, m in mass.items()}


def _first_hits_revenue(inst: Instance, S: Iterable[Item], k: int, prefix=()) -> Fraction:
    """Expected price of the first (up to) ``k`` members of ``S`` on the
    buyer's list, each counted with weight 1/k, given that the list begins
    with ``prefix``."""
    S = inst.assortment(S)
    hits = _first_hits(inst.dist.node(prefix), S, k)
    return sum((inst.prices[j] * p for j, p in hits.items()), Fraction(0)) / k


def assortment_revenue(inst: Instance, S: Iterable[Item]) -> Fraction:
    """Expected revenue of offering ``S``: each buyer purchases their
    most-preferred member of ``S`` on their list, if any."""
    return _first_hits_revenue(inst, S, 1)


def _subsets(items: Sequence[Item]) -> Iterable[Tuple[Item, ...]]:
    """Every subset of ``items`` as a tuple: by size, then in
    ``itertools.combinations`` order."""
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def _flatten(dist: ListDistribution, roots=((),)):
    """The subtrees of the prefixes ``roots`` (the whole trie by default) in
    pre-order, one after another, with children in ``str`` order.  Per node:
    its entries, their bits (bit i for ``dist.items[i]``), its integer mass,
    the index just past its subtree and its parent's index (-1 at a root)."""
    rank = {j: i for i, j in enumerate(dist.items)}
    entries, masks, masses, parents = [], [], [], []
    stack = [(dist.node(p), p, sum(1 << rank[j] for j in p), -1) for p in roots][::-1]
    while stack:
        node, prefix, mask, parent = stack.pop()
        k = len(entries)
        entries.append(prefix)
        masks.append(mask)
        masses.append(node.mass)
        parents.append(parent)
        for j in sorted(node.children, key=rank.__getitem__, reverse=True):
            stack.append((node.children[j], prefix + (j,), mask | 1 << rank[j], k))
    ends = list(range(1, len(entries) + 1))
    for k in reversed(range(len(entries))):
        if parents[k] >= 0:
            ends[parents[k]] = max(ends[parents[k]], ends[k])
    return entries, masks, masses, ends, parents


def _price_weights(inst: Instance, ordered: Sequence[Item]):
    """The nonempty nodes of the ``_flatten``ed trie: for each the position
    of its endpoint in ``ordered``, its weight, its depth and the index just
    past its subtree; then the scale D·P.

    With D the root's mass and P the lcm of the prices' denominators, a
    node's weight mass·price·P is an integer, and any revenue that adds node
    masses times endpoint prices is an integer over D·P.
    """
    entries, _, masses, ends, _ = _flatten(inst.dist)
    P = lcm_of_denominators(inst.prices[j] for j in ordered)
    position = {j: i for i, j in enumerate(ordered)}
    price = {j: inst.prices[j].numerator * (P // inst.prices[j].denominator) for j in ordered}
    endpoints = [prefix[-1] for prefix in entries[1:]]
    return ([position[j] for j in endpoints],
            [m * price[j] for j, m in zip(endpoints, masses[1:])],
            [len(prefix) for prefix in entries[1:]],
            [end - 1 for end in ends[1:]], masses[0] * P)


def _best_subsets(
    inst: Instance, ks: Sequence[int], cap: int, what: str, detail: str
) -> List[Tuple[Assortment, Fraction]]:
    """Exhaustive best subset of ``inst.items`` for each k in ``ks``, in
    ``ks`` order: the maximum of the top-k value (``_first_hits_revenue``
    with k hits), ties broken toward the lexicographically smallest sorted
    ``str`` tuple.

    Raises ``CapExceededError(what, n, cap, detail)`` beyond ``cap`` items,
    then ``InvalidInstanceError`` for a k below 1.

    A subset's value for k is the sum of the ``_price_weights`` of the
    first k hits on each path over the scale times k.  Subsets are scored
    bit-parallel: mask m (bit i for the i-th item in ``str`` order) is lane
    m of one int, B bits wide with the top bit spare above the weight total,
    and ``bit[i]`` has a 1 in each lane whose mask holds item i.  One
    pre-order walk carries per node, for each h below the largest k, the
    lanes ``A[h]`` that hit h of the node's ancestors: the node adds its
    weight to slot h of ``A[h] & bit[item]`` and passes the lanes, moved up
    by its hit, to its children.  Prefix sums of the slots score every k, a
    halving SWAR compare finds the top lane value, and the tied lanes are
    narrowed item by item to the smallest index tuple.  Lanes come in
    blocks of 2^_BLOCK_ITEMS masks that share the items above the block,
    whose ``bit`` is all lanes or none, so memory stays flat as n grows.
    """
    ordered = sorted(inst.items, key=str)
    n = len(ordered)
    if n > cap:
        raise CapExceededError(what, n, cap, detail)
    for k in ks:
        if k < 1:
            raise InvalidInstanceError(f"k must be at least 1, got {k}")
    positions, weights, depths, ends, scale = _price_weights(inst, ordered)
    depth_cap = min(max(ks), n, max(depths, default=0))
    low = min(n, _BLOCK_ITEMS)
    lanes = 1 << low
    size = (sum(weights).bit_length() + 8) // 8  # bytes per lane, top bit spare
    B = 8 * size
    one, zero = (1).to_bytes(size, "little"), bytes(size)
    ones = int.from_bytes(one * lanes, "little")
    tops = ones << B - 1
    low_bits = [int.from_bytes((zero * (1 << i) + one * (1 << i)) * (lanes >> i + 1), "little")
                for i in range(low)]
    best: Dict[int, Tuple[int, List[int]]] = {}  # hits -> (-top value, its item indices)
    for block in range(1 << n - low):
        bit = low_bits + [ones if block >> i & 1 else 0 for i in range(n - low)]
        slots = [0] * depth_cap
        states = {0: [ones] + [0] * (depth_cap - 1)}
        i = 0
        while i < len(positions):
            x, w, carry, passed = bit[positions[i]], weights[i], 0, []
            for h, a in enumerate(states[depths[i] - 1]):
                hit = a & x
                slots[h] += w * hit
                passed.append(a ^ hit | carry)
                carry = hit
            if any(passed):
                states[depths[i]] = passed
                i += 1
            else:
                i = ends[i]
        totals = [0, *accumulate(slots)]
        for j in {min(k, depth_cap) for k in ks}:
            top, width = totals[j], lanes * B
            while width > B:
                width >>= 1
                lo, hi = top & (1 << width) - 1, top >> width
                ge = (hi | tops & (1 << width) - 1) - lo & tops  # top bits: hi >= lo
                top = lo ^ (lo ^ hi) & (ge << 1) - (ge >> B - 1)
            if j in best and -top > best[j][0]:
                continue
            # 1 in each lane equal to top: only a lane that xors to 0 keeps its top
            # bit clear when tops - ones is added
            tied = (tops ^ (totals[j] ^ top * ones) + tops - ones & tops) >> B - 1
            mask, chosen = 0, []
            for p in range(n):
                if mask >> low == block and tied >> (mask % lanes) * B & 1:
                    break
                if tied & bit[p]:
                    tied &= bit[p]
                    mask |= 1 << p
                    chosen.append(p)
            best[j] = min(best.get(j, (-top, chosen)), (-top, chosen))
    return [(frozenset(ordered[i] for i in best[min(k, depth_cap)][1]),
             Fraction(-best[min(k, depth_cap)][0], scale * k)) for k in ks]


def optimal_assortment(
    inst: Instance, cap: int = SUBSET_SEARCH_CAP
) -> Tuple[Assortment, Fraction]:
    """Exhaustive maximum of assortment revenue over all subsets.

    Ties are broken toward the lexicographically smallest sorted item tuple.
    """
    (best,) = _best_subsets(inst, (1,), cap, "optimal_assortment", "2^n enumeration")
    return best


@dataclass(frozen=True)
class TreeDiagram:
    """The realizable-prefix tree of a distribution with transition
    probabilities: a view of the distribution's prefix trie.

    Each node is a realizable prefix; its transition probability is the
    conditional chance of its endpoint being the next item given its body.
    Outgoing transitions from a node sum to at most 1, with the slack being
    the chance the list stops there.  The empty prefix is the root; a prefix
    that is not a node raises ``UnrealizablePrefixError``.
    """

    dist: ListDistribution

    @property
    def nodes(self) -> Dict[Prefix, Fraction]:
        """Every nonempty node with its probability."""
        return self.dist.realizable_prefixes()

    def q(self, prefix) -> Fraction:
        prefix = Prefix(prefix)
        return Fraction(self.dist.node(prefix).mass, self.dist.node(prefix.body).mass)

    def probability(self, prefix) -> Fraction:
        return Fraction(self.dist.node(prefix).mass, self.dist.node(()).mass)

    def children(self, prefix) -> List[Prefix]:
        prefix = Prefix(prefix)
        return sorted(
            (Prefix(prefix.entries + (j,)) for j in self.dist.node(prefix).children),
            key=lambda node: tuple(map(str, node.entries)),
        )

    def stop_mass(self, prefix) -> Fraction:
        """Conditional probability that the list terminates at this node."""
        node = self.dist.node(prefix)
        return Fraction(node.stop, node.mass)


def build_tree_diagram(dist: ListDistribution) -> TreeDiagram:
    """The prefix tree of ``dist`` with exact node and transition probabilities."""
    return TreeDiagram(dist)


# ---------------------------------------------------------------------------
# Instance JSON interchange
# ---------------------------------------------------------------------------
#
# {"items": [{"id": "A", "price": "2"}, ...],
#  "lists": [{"items": ["B", "A"], "prob": "1/6"}, ...]}
#
# Rationals may be integers, decimal strings (parsed exactly), or "a/b".


def _list_key(entries: Sequence[Item]) -> Tuple[int, Tuple[str, ...]]:
    """The canonical order of ranked lists and prefixes: shorter first, then
    by the ``str`` tuple of their entries."""
    return (len(entries), tuple(map(str, entries)))


def _lists_to_json(dist: ListDistribution) -> List[dict]:
    return [
        {"items": list(lst.entries), "prob": format_rational(p)}
        for lst, p in sorted(dist.support.items(), key=lambda kv: _list_key(kv[0].entries))
    ]


def _items_to_json(items: Iterable[Item], prices: Mapping[Item, Fraction]) -> List[dict]:
    return [{"id": j, "price": format_rational(prices[j])} for j in sorted(items, key=str)]


def instance_to_json(inst: Instance) -> dict:
    """Canonical JSON object for an instance (sorted items and lists)."""
    return {"items": _items_to_json(inst.items, inst.prices),
            "lists": _lists_to_json(inst.dist)}


def _is_item_id(value) -> bool:
    return isinstance(value, (str, int)) and not isinstance(value, bool)


# The loaders of all four JSON formats and the CLI's model descriptors and
# arguments check their input with these helpers, so an error names the path
# of the first malformed part.  Every JSON text is read by ``_read_json``, and
# every object of rationals keyed by item ids is parsed by ``_parse_rationals``.
def _read_json(text: str, error=InvalidInstanceError, where: str = ""):
    """The JSON value of ``text``; a syntax error, an over-long integer or
    nesting past the recursion limit raises ``error`` prefixed by ``where``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}malformed JSON: {exc}") from exc


def _check_object(value, path: str, error=InvalidInstanceError) -> None:
    if not isinstance(value, dict):
        raise error(f"{path}: expected an object")


def _check_objects(value, path: str, fields: Sequence[str],
                   error=InvalidInstanceError) -> None:
    """Raise ``error`` naming ``path`` unless ``value`` is a list of objects
    that each have every key in ``fields``."""
    if not isinstance(value, list):
        raise error(f"{path}: expected a list")
    for k, entry in enumerate(value):
        _check_object(entry, f"{path}[{k}]", error)
        for field in fields:
            if field not in entry:
                raise error(f'{path}[{k}]: missing "{field}"')


def _check_item_ids(value, path: str, error=InvalidInstanceError) -> None:
    if not isinstance(value, list) or not all(_is_item_id(j) for j in value):
        raise error(f"{path}: expected a list of item ids")


def _parse_at(path: str, value, error=InvalidInstanceError) -> Fraction:
    """``parse_rational(value)``, failing with ``error`` naming ``path``."""
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc


def _parse_rationals(value, path: str, error=InvalidInstanceError,
                     items: Optional[Iterable[Item]] = None) -> Dict[Item, Fraction]:
    """An object of rationals, parsed; errors name ``path.key``.  A key that
    spells an id in ``items`` becomes that id; other keys stay strings."""
    _check_object(value, path, error)
    ids = {str(j): j for j in items or ()}
    return {ids.get(key, key): _parse_at(f"{path}.{key}", v, error)
            for key, v in value.items()}


def _parse_items(entries, path: str) -> Tuple[List[Item], Dict[Item, Fraction]]:
    """Ids and prices of an ``"items"`` array of ``{"id", "price"}`` objects."""
    _check_objects(entries, path, ("id", "price"))
    items: List[Item] = []
    prices: Dict[Item, Fraction] = {}
    for k, entry in enumerate(entries):
        if not _is_item_id(entry["id"]):
            raise InvalidInstanceError(
                f"{path}[{k}].id: {entry['id']!r} is not a string or an integer"
            )
        items.append(entry["id"])
        prices[entry["id"]] = _parse_at(f"{path}[{k}].price", entry["price"])
    return items, prices


def _parse_lists(entries, path: str) -> List[Tuple[Tuple[Item, ...], object]]:
    """``(list, probability)`` pairs of an array of ``{"items", "prob"}``
    objects; the probabilities are validated with the distribution."""
    _check_objects(entries, path, ("items", "prob"))
    for k, entry in enumerate(entries):
        _check_item_ids(entry["items"], f"{path}[{k}].items")
    return [(tuple(entry["items"]), entry["prob"]) for entry in entries]


def instance_from_json(obj: dict, where: str = "") -> Instance:
    """Parse the instance interchange format, validating as it goes; errors
    name their paths with the prefix ``where``."""
    if not isinstance(obj, dict) or "items" not in obj or "lists" not in obj:
        raise InvalidInstanceError(
            f'instance JSON needs "{where}items" and "{where}lists" keys'
        )
    items, prices = _parse_items(obj["items"], where + "items")
    pairs = _parse_lists(obj["lists"], where + "lists")
    try:
        dist = ListDistribution(pairs)
    except InvalidDistributionError as exc:
        raise InvalidInstanceError(str(exc)) from None
    return Instance(items, prices, dist)


def dump_instance(inst: Instance) -> str:
    return json.dumps(instance_to_json(inst), indent=2, sort_keys=False) + "\n"


def load_instance(text: str) -> Instance:
    return instance_from_json(_read_json(text))
