"""Generators that expand parametric choice models into explicit list distributions.

Covered models: multinomial logit (weighted urn without replacement), the
first-visit Markov chain model, the nest-locked elimination-by-aspects urn,
mixtures with singleton lists, and constructive nested-logit representations
for three items (general weights) and four items (equal weights).

Everything downstream works on exact rationals.  Nested-logit computations
involve irrational powers, so they run in extended-precision floating point
(mpmath) and are rounded to nearby rationals via continued fractions at
``RATIONALIZE_TOL`` before the distribution is assembled; the assembled
distribution then sums to exactly 1 by construction.  mpmath is imported
inside the functions that use it, so importing the package does not load it.

Each model is a tree of transition chances over prefixes.  ``_expand`` is the
one path that assembles such a tree into a distribution and checks its
chances; a generator supplies only the ``step`` that gives one node's stop
chance and moves.  ``mix_with_singletons`` merges distributions instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .core import Item, ListDistribution, _distinct_ids
from .errors import (
    CapExceededError,
    InfeasibleTreeError,
    InvalidInstanceError,
    MonotonicityViolationError,
    NonAbsorbingChainError,
)
from .rational import coerce_rational, round_to_rational

GENERATOR_ITEM_CAP = 8
RATIONALIZE_TOL = Fraction(1, 10**30)
_MP_DPS = 60


def _as_float(x) -> float:
    return float(coerce_rational(x)) if not isinstance(x, float) else x


def _to_mpf(x):
    import mpmath  # imported where used so that importing the package skips it

    if isinstance(x, float):
        return mpmath.mpf(x)
    f = coerce_rational(x)
    return mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)


@dataclass(frozen=True)
class MnlParams:
    """Positive item weights plus the no-purchase weight ``w0``."""

    weights: Mapping[Item, object]
    w0: object = 1

    def validate(self, items: Sequence[Item]) -> None:
        for j in items:
            if j not in self.weights:
                raise InvalidInstanceError(f"missing weight for item {j!r}")
            if coerce_rational(self.weights[j]) <= 0:
                raise InvalidInstanceError(f"weight of {j!r} must be positive")
        if coerce_rational(self.w0) <= 0:
            raise InvalidInstanceError("no-purchase weight must be positive")


@dataclass(frozen=True)
class MarkovChainParams:
    """First-visit chain: arrival probabilities and item-to-item transitions.

    ``arrivals`` maps each item to its start probability; the leftover mass
    is the chance of an empty list.  ``transitions[j][j']`` is the chance of
    moving from ``j`` to ``j'``; each row's leftover mass exits to the
    terminal state.
    """

    arrivals: Mapping[Item, Fraction]
    transitions: Mapping[Item, Mapping[Item, Fraction]]

    def __init__(self, arrivals, transitions):
        arrivals = {j: coerce_rational(p) for j, p in dict(arrivals).items()}
        transitions = {
            j: {k: coerce_rational(p) for k, p in dict(row).items()}
            for j, row in dict(transitions).items()
        }
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "transitions", transitions)
        items = set(arrivals)
        if any(p < 0 for p in arrivals.values()):
            raise InvalidInstanceError("arrival probabilities must be >= 0")
        if sum(arrivals.values()) > 1:
            raise InvalidInstanceError("arrival probabilities exceed 1")
        for j, row in transitions.items():
            if j not in items:
                raise InvalidInstanceError(f"transition row for unknown item {j!r}")
            if any(p < 0 for p in row.values()):
                raise InvalidInstanceError("transition probabilities must be >= 0")
            if any(k not in items for k in row):
                raise InvalidInstanceError(f"transition from {j!r} to unknown item")
            if sum(row.values()) > 1:
                raise InvalidInstanceError(f"transition row of {j!r} exceeds 1")

    @property
    def no_arrival(self) -> Fraction:
        return 1 - sum(self.arrivals.values())

    def exit_probability(self, j: Item) -> Fraction:
        return 1 - sum(self.transitions.get(j, {}).values())


def _solve_transient(
    params: MarkovChainParams, states: Sequence[Item], rhs_cols: List[List[Fraction]]
) -> List[List[Fraction]]:
    """Solve (I - Q) x = b exactly for each column b of ``rhs_cols``, where Q
    holds the chain's transitions among ``states`` (entries follow ``states``).

    Raises ``NonAbsorbingChainError`` when the system is singular, which
    means some state never leaves ``states``.
    """
    n = len(states)
    ncols = len(rhs_cols)
    aug = []
    for r, s in enumerate(states):
        row = params.transitions.get(s, {})
        aug.append([int(r == c) - row.get(t, Fraction(0)) for c, t in enumerate(states)]
                   + [col[r] for col in rhs_cols])
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise NonAbsorbingChainError(
                "transition system is singular; chain does not absorb"
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [[aug[i][n + c] for i in range(n)] for c in range(ncols)]


@dataclass(frozen=True)
class NestStructure:
    """A partition of the items into disjoint nests with dissimilarity weights.

    ``gammas`` may be omitted for models that only use the partition.
    """

    nests: Tuple[frozenset, ...]
    gammas: Optional[Tuple[float, ...]] = None

    def __init__(self, nests, gammas=None):
        nests = tuple(frozenset(nest) for nest in nests)
        seen = set()
        for nest in nests:
            if not nest:
                raise InvalidInstanceError("empty nest")
            if nest & seen:
                raise InvalidInstanceError("nests must be disjoint")
            seen |= nest
        if gammas is not None:
            gammas = tuple(float(g) for g in gammas)
            if len(gammas) != len(nests):
                raise InvalidInstanceError("one dissimilarity value per nest")
            if any(not (0 < g <= 1) for g in gammas):
                raise InvalidInstanceError("dissimilarity values must lie in (0, 1]")
        object.__setattr__(self, "nests", nests)
        object.__setattr__(self, "gammas", gammas)

    def nest_of(self, j: Item) -> int:
        for i, nest in enumerate(self.nests):
            if j in nest:
                return i
        raise InvalidInstanceError(f"item {j!r} is in no nest")

    def covers(self, items: Iterable[Item]) -> bool:
        return set().union(*self.nests) == set(items)


@dataclass(frozen=True)
class SymmetricNlParams:
    """Equal-weight single-nest nested logit for a small item count.

    ``per_size_choice_prob(k)`` is the chance any one item is chosen from an
    offered set of ``k`` items.
    """

    w: float
    gamma: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.w) and self.w > 0):
            raise InvalidInstanceError(f"weight must be positive and finite, not {self.w}")
        if not (0 < self.gamma <= 1):
            raise InvalidInstanceError("dissimilarity must lie in (0, 1]")

    def per_size_choice_prob(self, k: int) -> float:
        return 1.0 / (k * (1.0 + (k * self.w) ** (-self.gamma)))


def _check_cap(what: str, items: Sequence[Item]) -> Tuple[Item, ...]:
    items = tuple(items)
    if len(items) > GENERATOR_ITEM_CAP:
        raise CapExceededError(what, len(items), GENERATOR_ITEM_CAP,
                               "explicit support enumeration")
    return _distinct_ids(items)


def _expand(root, step) -> ListDistribution:
    """The list distribution of a tree of transition chances over prefixes.

    ``step(state)`` gives a node's stop chance and its moves ``(item, chance,
    next_state)``.  A list's probability is the product of the chances on its
    path times its stop chance.  Lists are recorded in pre-order; zero-mass
    lists are left out and zero-chance moves are not followed.  A negative
    stop or move chance at a visited node raises ``InfeasibleTreeError``.
    """
    pairs: Dict[Tuple[Item, ...], Fraction] = {}

    def visit(prefix: Tuple[Item, ...], state, prob: Fraction) -> None:
        stop, moves = step(state)
        if stop > 0:
            pairs[prefix] = prob * stop
        elif stop < 0:
            raise InfeasibleTreeError(f"stop chance {stop} < 0 at prefix {prefix}")
        for j, p, nxt in moves:
            if p > 0:
                visit(prefix + (j,), nxt, prob * p)
            elif p < 0:
                raise InfeasibleTreeError(f"chance {p} < 0 of {j!r} after prefix {prefix}")

    visit((), root, Fraction(1))
    return ListDistribution(pairs)


def _chance_step(items: Tuple[Item, ...], chance):
    """The ``step`` of the tree of prefixes of ``items`` in which a node is
    entered with ``chance(node)``; the rest of a node's mass stops there."""

    def step(prefix: Tuple[Item, ...]):
        moves = [(j, chance(prefix + (j,)), prefix + (j,)) for j in items if j not in prefix]
        return 1 - sum(p for _, p, _ in moves), moves

    return step


# ---------------------------------------------------------------------------
# Multinomial logit
# ---------------------------------------------------------------------------


def gen_mnl(items: Sequence[Item], params: MnlParams) -> ListDistribution:
    """Weighted urn without replacement; the list ends when the 0-ball is drawn.

    Exact for rational weights.  Float weights are converted exactly (every
    float is a dyadic rational), so the output distribution is always exact.
    """
    items = _check_cap("gen_mnl", items)
    params.validate(items)
    return _urn(items, params, {j: frozenset((j,)) for j in items})


# ---------------------------------------------------------------------------
# Markov chain (first visits build the list)
# ---------------------------------------------------------------------------


def _first_passage_table(
    params: MarkovChainParams, items: Tuple[Item, ...], visited: frozenset
) -> Dict[Item, Dict[object, Fraction]]:
    """From each visited state: probability that the first state outside
    ``visited`` to be reached is a given target (items outside, or ``None``
    for the terminal state).  Transit through visited states is free."""
    vs = sorted(visited, key=str)
    index = {v: i for i, v in enumerate(vs)}
    targets: List[object] = [j for j in items if j not in visited] + [None]
    rhs_cols = []
    for t in targets:
        if t is None:
            col = [params.exit_probability(v) for v in vs]
        else:
            col = [params.transitions.get(v, {}).get(t, Fraction(0)) for v in vs]
        rhs_cols.append(col)
    sols = _solve_transient(params, vs, rhs_cols)
    return {
        v: {targets[c]: sols[c][index[v]] for c in range(len(targets))} for v in vs
    }


def verify_absorbing(params: MarkovChainParams, items: Sequence[Item]) -> None:
    """Exact check that the chain reaches the terminal state almost surely."""
    items = tuple(items)
    exits = [[params.exit_probability(j) for j in items]]
    sols = _solve_transient(params, items, exits)
    if any(v != 1 for v in sols[0]):
        raise NonAbsorbingChainError("some state reaches the terminal state w.p. < 1")


def gen_markov_chain(
    items: Sequence[Item], params: MarkovChainParams
) -> ListDistribution:
    """Exact distribution of the first-visit order of an absorbing chain.

    Each list's probability is a product of first-passage probabilities of
    the chain restricted to the already-visited states, solved exactly per
    visited set (and cached within this invocation).
    """
    items = _check_cap("gen_markov_chain", items)
    for j in params.arrivals:
        if j not in set(items):
            raise InvalidInstanceError(f"arrival for unknown item {j!r}")
    verify_absorbing(params, items)

    cache: Dict[frozenset, Dict[Item, Dict[object, Fraction]]] = {}

    def step(prefix: Tuple[Item, ...]):
        if not prefix:
            return params.no_arrival, [(j, lam, (j,)) for j, lam in params.arrivals.items()]
        visited = frozenset(prefix)
        if visited not in cache:
            cache[visited] = _first_passage_table(params, items, visited)
        table = cache[visited][prefix[-1]]
        return table[None], [(j, table[j], prefix + (j,)) for j in items if j not in visited]

    return _expand((), step)


# ---------------------------------------------------------------------------
# Elimination by aspects (nest-locked urn)
# ---------------------------------------------------------------------------


def gen_elimination_by_aspects(
    items: Sequence[Item], params: MnlParams, nests: NestStructure
) -> ListDistribution:
    """Nest-locked urn: once a nest is entered, draws stay inside it (other
    balls, including the terminating one, are redrawn) until the nest is
    exhausted.  Between nests the terminating ball competes with all
    remaining items and ends the list when drawn.

    Supported lists are therefore concatenations of complete nests; with
    all-singleton nests the lock is vacuous and the model is the plain
    weighted urn.  The between-nest termination is what gives same-endpoint
    histories identical escape chances, which the condition checker relies
    on; letting the terminating ball compete mid-nest breaks that (e.g.
    nests {A,B},{C},{D} with unit weights already fail on the histories
    (B,A) vs (C,A))."""
    items = _check_cap("gen_elimination_by_aspects", items)
    params.validate(items)
    if not nests.covers(items):
        raise InvalidInstanceError("nests must cover exactly the item universe")
    return _urn(items, params, {j: nests.nests[nests.nest_of(j)] for j in items})


def _urn(
    items: Tuple[Item, ...], params: MnlParams, nest: Mapping[Item, frozenset]
) -> ListDistribution:
    """The nest-locked weighted urn of ``gen_elimination_by_aspects``;
    ``nest[j]`` is the nest of item j.  With every nest a singleton the lock
    is vacuous and this is the plain urn of ``gen_mnl``."""
    w = {j: coerce_rational(params.weights[j]) for j in items}
    w0 = coerce_rational(params.w0)

    def step(state: Tuple[frozenset, frozenset]):
        remaining, lock = state
        # Inside an unfinished nest only its items compete; between nests the
        # terminating ball competes with every remaining item.
        locked = lock & remaining
        stop = Fraction(0) if locked else w0
        pool = locked or remaining
        total = sum((w[j] for j in pool), stop)
        # Moves follow ``items``, not set order, so the support order does
        # not depend on the hash seed.
        return stop / total, [(j, w[j] / total, (remaining - {j}, nest[j]))
                              for j in items if j in pool]

    return _expand((frozenset(items), frozenset()), step)


# ---------------------------------------------------------------------------
# Mixture with singletons
# ---------------------------------------------------------------------------


def mix_with_singletons(
    dist: ListDistribution, alpha: Mapping[Item, object]
) -> ListDistribution:
    """Replace the list by the singleton ``(j)`` with probability ``alpha[j]``."""
    alpha = {j: coerce_rational(a) for j, a in dict(alpha).items()}
    if any(a < 0 for a in alpha.values()):
        raise InvalidInstanceError("singleton probabilities must be >= 0")
    total = sum(alpha.values(), Fraction(0))
    if total > 1:
        raise InvalidInstanceError(f"singleton probabilities sum to {total} > 1")
    pairs: Dict[Tuple[Item, ...], Fraction] = {}
    rest = 1 - total
    if rest > 0:
        for lst, p in dist.support.items():
            pairs[lst.entries] = p * rest
    for j, a in alpha.items():
        if a > 0:
            key = (j,)
            pairs[key] = pairs.get(key, Fraction(0)) + a
    return ListDistribution(pairs)


# ---------------------------------------------------------------------------
# Nested logit
# ---------------------------------------------------------------------------


def nested_logit_choice_prob(
    params: MnlParams, nests: NestStructure, S: Iterable[Item], j: Item
) -> float:
    """Floating-point nested-logit probability of picking ``j`` from ``S``."""
    S = frozenset(S)
    if j not in S:
        raise InvalidInstanceError(f"item {j!r} is not in the assortment")
    if nests.gammas is None:
        raise InvalidInstanceError("nest structure carries no dissimilarity values")
    w0 = _as_float(params.w0)
    nest_sums = []
    for i, nest in enumerate(nests.nests):
        total = sum(_as_float(params.weights[k]) for k in nest & S)
        nest_sums.append(total)
    denom = w0 + sum(
        total ** nests.gammas[i] for i, total in enumerate(nest_sums) if total > 0
    )
    i = nests.nest_of(j)
    total = nest_sums[i]
    return (total ** nests.gammas[i] / denom) * (_as_float(params.weights[j]) / total)


def _mp_nl_choice_prob(weights, w0, gamma, S, j):
    """Single-nest nested-logit choice probability in mpmath arithmetic."""
    import mpmath

    total = mpmath.fsum([weights[k] for k in S])
    share = (total ** gamma) / (w0 + total ** gamma)
    return share * weights[j] / total


def _rationalize(x) -> Fraction:
    """Exact binary value of an mpf, rounded to a nearby small rational."""
    import mpmath

    p, q = mpmath.libmp.to_rational(mpmath.mpf(x)._mpf_)
    out = round_to_rational(Fraction(int(p), int(q)), RATIONALIZE_TOL)
    # Snap boundary noise from the extended-precision computation.
    if Fraction(-1, 10**25) < out < 0:
        out = Fraction(0)
    if 1 < out < 1 + Fraction(1, 10**25):
        out = Fraction(1)
    return out


def gen_nested_logit_3item(
    items: Sequence[Item], params: MnlParams, gamma: float
) -> ListDistribution:
    """Constructive list distribution consistent with single-nest nested logit
    on exactly three items.

    Transition probabilities are pinned in order: first-position transitions
    from the full offer set, second-position transitions from two-item offer
    sets, then the depth-three transitions under the symmetry tie that both
    orders of the first two items share one value.
    """
    items = tuple(items)
    if len(items) != 3:
        raise InvalidInstanceError("this construction needs exactly 3 items")
    params.validate(items)
    if not (0 < float(gamma) <= 1):
        raise InvalidInstanceError("dissimilarity must lie in (0, 1]")

    import mpmath

    with mpmath.workdps(_MP_DPS):
        w = {j: _to_mpf(params.weights[j]) for j in items}
        w0 = _to_mpf(params.w0)
        g = _to_mpf(gamma)

        def prob(j, S):
            return _mp_nl_choice_prob(w, w0, g, S, j)

        q1 = {j: prob(j, items) for j in items}
        q2 = {(jp, j): (prob(j, tuple(k for k in items if k != jp)) - q1[j]) / q1[jp]
              for j in items for jp in items if jp != j}
        q3 = {}
        for j in items:
            jp, jpp = [k for k in items if k != j]
            partial = q1[j] + q1[jp] * q2[(jp, j)] + q1[jpp] * q2[(jpp, j)]
            weight = q1[jp] * q2[(jp, jpp)] + q1[jpp] * q2[(jpp, jp)]
            q3[j] = (prob(j, (j,)) - partial) / weight if weight else mpmath.mpf(0)

        q1r = {j: _rationalize(v) for j, v in q1.items()}
        q2r = {k: _rationalize(v) for k, v in q2.items()}
        q3r = {j: _rationalize(v) for j, v in q3.items()}

    # _expand checks only the nodes it reaches, so the values and the nodes
    # below a zero first-position chance are checked here.
    for label, q in (("first", q1r), ("second", q2r), ("third", q3r)):
        for value in q.values():
            if not (0 <= value <= 1):
                raise InfeasibleTreeError(f"{label}-position transition {value} "
                                          "is outside [0, 1]")

    def chance(node: Tuple[Item, ...]) -> Fraction:
        if len(node) == 2:
            return q2r[node]
        return (q1r if len(node) == 1 else q3r)[node[-1]]

    step = _chance_step(items, chance)
    for j in items:
        if q1r[j] == 0 and step((j,))[0] < 0:
            raise InfeasibleTreeError(f"transitions out of ({j!r}) exceed 1")
    return _expand((), step)


def gen_nested_logit_4item_symmetric(
    items: Sequence[Item], params: SymmetricNlParams
) -> ListDistribution:
    """Symmetric-tree list distribution for four equal-weight items in one nest.

    The per-depth transition probabilities ``q_k`` come from telescoping the
    per-size choice probabilities; the construction then checks the proven
    reciprocal-gap property 1/q_k >= 1/q_{k+1} + 1.
    """
    items = tuple(items)
    if len(items) != 4 or params.n != 4:
        raise InvalidInstanceError("this construction needs exactly 4 items")

    import mpmath

    with mpmath.workdps(_MP_DPS):
        w = _to_mpf(params.w)
        g = _to_mpf(params.gamma)
        P = {k: 1 / (k * (1 + (k * w) ** (-g))) for k in range(1, 5)}
        # Alternating-sum telescopes: products q_1 .. q_{m+1}.
        prod = [
            P[4],
            P[3] - P[4],
            (P[2] - 2 * P[3] + P[4]) / 2,
            (P[1] - 3 * P[2] + 3 * P[3] - P[4]) / 6,
        ]
        q = [prod[0]] + [prod[k] / prod[k - 1] for k in range(1, 4)]
        qr = [_rationalize(v) for v in q]

    for k, value in enumerate(qr, start=1):
        if not (0 < value <= 1):
            raise InfeasibleTreeError(f"depth-{k} transition {value} outside (0, 1]")
    slack = Fraction(1, 10**20)  # rounding headroom; the true gap is >= 0
    for k in range(3):
        if 1 / qr[k] + slack < 1 / qr[k + 1] + 1:
            raise MonotonicityViolationError(
                f"reciprocal gap fails between depths {k + 1} and {k + 2}")

    return _expand((), _chance_step(items, lambda node: qr[len(node) - 1]))


def nl_markov_fit_gap(w: float, gamma: float) -> float:
    """Mismatch of the best Markov-chain fit to three-equal-item nested logit.

    Fits arrivals to full-offer choice probabilities and transitions to
    two-item offer sets, then returns the implied singleton-offer purchase
    probability minus the nested-logit one.  Zero iff the fit is consistent
    (which holds exactly in the plain-MNL case gamma = 1).
    """
    if w <= 0 or not (0 < gamma <= 1):
        raise InvalidInstanceError("need w > 0 and dissimilarity in (0, 1]")
    lam = ((3 * w) ** gamma / (1 + (3 * w) ** gamma)) / 3
    sigma = ((3 * w) ** (-gamma) + 1) / ((2 * w) ** (-gamma) + 1) * 1.5 - 1
    if sigma >= 1:
        raise InvalidInstanceError("fitted transition probability >= 1")
    if sigma <= 0:
        implied = lam
    else:
        implied = lam * (1 + 2 * sigma / (1 - sigma))
    actual = w**gamma / (1 + w**gamma)
    return implied - actual
