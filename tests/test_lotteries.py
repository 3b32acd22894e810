import itertools
import math
import random
from fractions import Fraction

import pytest

from fixedprice import (
    BudgetAdditiveParams,
    InclusionProbabilities,
    Instance,
    ListDistribution,
    assortment_revenue,
    assortment_to_mechanism,
    best_topk_lottery,
    budget_additive_mechanism,
    gen_topk_gap_instance,
    independent_assortment_revenue,
    mechanism_revenue,
    optimal_assortment,
    round_bounded_length,
    round_budget_additive,
    solve_mechanism_lp,
    topk_lottery_value,
    verify_ic,
)
from fixedprice.core import _BLOCK_ITEMS, SUBSET_SEARCH_CAP, _best_subsets, _preorder
from fixedprice.errors import CapExceededError, InvalidInstanceError

from .helpers import (
    four_item_clash,
    random_bounded_length_instance,
    random_instance,
    random_search_instance,
    reference_best_subsets,
    robust_menu_instance,
)


class TestBudgetAdditive:
    def test_uniform_half_weights_match_top2(self):
        inst = four_item_clash()
        mech = budget_additive_mechanism(
            inst, BudgetAdditiveParams({j: Fraction(1, 2) for j in "ABCD"}, 1)
        )
        assert mechanism_revenue(inst, mech) == Fraction(5, 4)

    def test_indicator_weights_reduce_to_assortment(self):
        rng = random.Random(12)
        for _ in range(10):
            inst = random_instance(rng)
            S = set(rng.sample(list(inst.items), rng.randint(0, len(inst.items))))
            params = BudgetAdditiveParams(
                {j: (1 if j in S else 0) for j in inst.items}, 1
            )
            mech = budget_additive_mechanism(inst, params)
            expected = assortment_to_mechanism(inst, S)
            for lst in inst.dist.support:
                for j in lst.entries:
                    assert mech.probability(lst, j) == expected.probability(lst, j)

    def test_specialty_item_weights_on_robust_instance(self):
        inst = robust_menu_instance()
        params = BudgetAdditiveParams(
            {"1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1, 2),
             "4": Fraction(1, 2), "5": 1},
            1,
        )
        mech = budget_additive_mechanism(inst, params)
        assert mechanism_revenue(inst, mech) == Fraction(21, 16)

    def test_always_ic(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_instance(rng)
            weights = {j: Fraction(rng.randint(0, 4), 4) for j in inst.items}
            params = BudgetAdditiveParams(weights, Fraction(rng.randint(0, 4), 4))
            mech = budget_additive_mechanism(inst, params)
            assert verify_ic(inst, mech).ok


class TestTopK:
    def test_best_on_clash_instance(self):
        k, S, value = best_topk_lottery(four_item_clash())
        assert (k, value) == (2, Fraction(5, 4))
        assert S >= {"A", "B"}

    def test_k1_is_assortment_optimization(self):
        rng = random.Random(9)
        for _ in range(10):
            inst = random_instance(rng)
            _, S, value = best_topk_lottery(inst, k=1)
            _, best = optimal_assortment(inst)
            assert value == best

    def test_short_report_leaves_residual_unsold(self):
        inst = Instance(
            "AB", {"A": 3, "B": 1}, ListDistribution({("A",): Fraction(1)})
        )
        assert topk_lottery_value(inst, 2, {"A", "B"}) == Fraction(3, 2)

    def test_beats_assortments_everywhere(self):
        rng = random.Random(14)
        for _ in range(10):
            inst = random_instance(rng)
            _, _, value = best_topk_lottery(inst)
            _, best = optimal_assortment(inst)
            assert value >= best

    def test_no_items_gives_the_empty_top_1_lottery(self):
        inst = Instance([], {}, ListDistribution({(): Fraction(1)}))
        assert best_topk_lottery(inst) == (1, frozenset(), Fraction(0))

    def test_k_below_one_rejected(self):
        with pytest.raises(InvalidInstanceError, match="k must be at least 1"):
            best_topk_lottery(four_item_clash(), k=0)


def _brute_force_best(inst, value):
    """Best (value, key) over every subset by inclusion bits, independent of
    the library's enumeration; the key is the sorted ``str`` tuple, and the
    smallest key wins among equal values."""
    items = list(inst.items)
    best = None
    for bits in itertools.product((False, True), repeat=len(items)):
        S = [j for j, b in zip(items, bits) if b]
        cand = (value(S), tuple(sorted(map(str, S))))
        if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
    return best


class TestSubsetSearchTies:
    """The subset searches against a brute force with the documented
    tie-breaks, on small integer prices where ties are common."""

    INSTANCES = [random_instance(random.Random(seed), n_min=2, n_max=5, max_lists=6,
                                 max_price=2) for seed in range(40)]

    def test_optimal_assortment_breaks_ties_to_the_smallest_set(self):
        tied = 0
        for inst in self.INSTANCES:
            S, value = optimal_assortment(inst)
            ref_value, ref_key = _brute_force_best(inst, lambda S: assortment_revenue(inst, S))
            assert (value, tuple(sorted(map(str, S)))) == (ref_value, ref_key)
            tied += sum(
                assortment_revenue(inst, T) == value
                for n in range(len(inst.items) + 1)
                for T in itertools.combinations(inst.items, n)
            ) > 1
        assert tied >= 10  # the instances do exercise the tie-break

    def test_best_topk_lottery_prefers_small_k_then_the_smallest_set(self):
        for inst in self.INSTANCES:
            per_k = {}
            for k in range(1, len(inst.items) + 1):
                per_k[k] = _brute_force_best(inst, lambda S: topk_lottery_value(inst, k, S))
                kk, S, value = best_topk_lottery(inst, k=k)
                assert (kk, value, tuple(sorted(map(str, S)))) == (k,) + per_k[k]
            top = max(v for v, _ in per_k.values())
            k_ref = min(k for k, (v, _) in per_k.items() if v == top)
            kk, S, value = best_topk_lottery(inst)
            assert (kk, value, tuple(sorted(map(str, S)))) == (k_ref,) + per_k[k_ref]


class TestSubsetSearchBruteForce:
    """Both subset searches against the brute force, on instances built to
    hit the integer scaling's corner cases."""

    INSTANCES = [random_search_instance(random.Random(seed)) for seed in range(80)]

    def test_kinds_are_covered(self):
        assert any(not inst.items for inst in self.INSTANCES)
        assert any(set(inst.items) - set(inst.dist.items) for inst in self.INSTANCES)
        assert any(() in {l.entries for l in inst.dist.support} for inst in self.INSTANCES)
        assert {p.denominator for inst in self.INSTANCES for p in inst.prices.values()} \
            == set(range(1, 7))

    def test_optimal_assortment(self):
        for inst in self.INSTANCES:
            S, value = optimal_assortment(inst)
            assert type(S) is frozenset and type(value) is Fraction
            ref = _brute_force_best(inst, lambda S: assortment_revenue(inst, S))
            assert (value, tuple(sorted(map(str, S)))) == ref

    def test_best_topk_lottery(self):
        for inst in self.INSTANCES:
            n = len(inst.items)
            per_k = {k: _brute_force_best(inst, lambda S: topk_lottery_value(inst, k, S))
                     for k in range(1, n + 3)}
            # The all-k search runs k = 1..max(n, 1); a larger k must be
            # strictly better to win.
            all_k = range(1, max(n, 1) + 1)
            top = max(per_k[k][0] for k in all_k)
            k_ref = min(k for k in all_k if per_k[k][0] == top)
            for k, expect in ((None, k_ref), (1, 1), (2, 2), (n, n), (n + 2, n + 2)):
                if k is not None and k < 1:
                    with pytest.raises(InvalidInstanceError, match="k must be at least 1"):
                        best_topk_lottery(inst, k=k)
                    continue
                kk, S, value = best_topk_lottery(inst, k=k)
                assert type(S) is frozenset and type(value) is Fraction
                assert (kk, value, tuple(sorted(map(str, S)))) == (expect,) + per_k[expect]

    def test_cap_is_checked_before_k(self):
        for inst in self.INSTANCES[:10]:
            n = len(inst.items)
            with pytest.raises(CapExceededError, match=f"exceeds cap {n - 1}"):
                best_topk_lottery(inst, k=0, cap=n - 1)
            with pytest.raises(InvalidInstanceError, match="k must be at least 1, got 0"):
                best_topk_lottery(inst, k=0, cap=n)


LANE_KINDS = ("small", "ties", "wide")


def _lane_instance(rng: random.Random, n: int, kind: str) -> Instance:
    """A random instance on the int ids 0..n-1 (so ``str`` order is not
    numeric order) for the bit-parallel search: some items on no list, up
    to 12 lists of length 0–4, sometimes the empty list.  ``kind`` sets the
    numbers: "small" has prices 1–9 and weights 1–6, "ties" has prices 0 or
    1 and equal chances, and "wide" has prices and chances over large
    coprime denominators, so that each lane is wider than 64 bits."""
    items = list(range(n))
    listed = rng.sample(items, rng.randint(0, n))
    lists = {tuple(rng.sample(listed, rng.randint(0, min(4, len(listed)))))
             for _ in range(rng.randint(1, 12))}
    if rng.random() < 0.3:
        lists.add(())
    lists = sorted(lists)
    if kind == "ties":
        weights = [1] * len(lists)
        prices = {j: rng.randint(0, 1) for j in items}
    elif kind == "wide":
        weights = [rng.randint(1, 10**9) for _ in lists]
        primes = (999983, 1000003, 1000033, 1000037)
        prices = {j: Fraction(rng.randint(1, 10**7), rng.choice(primes)) for j in items}
    else:
        weights = [rng.randint(1, 6) for _ in lists]
        prices = {j: rng.randint(1, 9) for j in items}
    dist = ListDistribution([(l, Fraction(w, sum(weights))) for l, w in zip(lists, weights)])
    return Instance(items, prices, dist)


class TestBitParallelSearch:
    """``_best_subsets`` against the one-subset-at-a-time reference: the
    same set and value for every k, and the same k chosen by the lottery."""

    # Four of each kind at 14 items (four blocks): a tie between blocks, won
    # by the later block's smaller tuple, needs a few instances to show up.
    INSTANCES = {n: [_lane_instance(random.Random(100 * n + i), n, kind)
                     for i, kind in enumerate(LANE_KINDS * (4 if n == 14 else 1))]
                 for n in range(15)}

    def test_instances_cover_the_corners(self):
        insts = [inst for group in self.INSTANCES.values() for inst in group]
        assert max(self.INSTANCES) > _BLOCK_ITEMS  # some searches take several blocks
        assert sum(bool(set(inst.items) - set(inst.dist.items)) for inst in insts) >= 10
        assert sum(() in {l.entries for l in inst.dist.support} for inst in insts) >= 5
        for n, group in self.INSTANCES.items():
            for kind, inst in zip(LANE_KINDS * 4, group):
                total = sum(_preorder(inst, sorted(inst.items, key=str))[1])
                assert (total.bit_length() >= 64) == (kind == "wide" and bool(inst.dist.items))

    @pytest.mark.parametrize("n", range(15))
    def test_equals_the_reference(self, n):
        for inst in self.INSTANCES[n]:
            ks = range(1, n + 3)
            ref = reference_best_subsets(inst, ks, SUBSET_SEARCH_CAP, "what", "detail")
            assert _best_subsets(inst, ks, SUBSET_SEARCH_CAP, "what", "detail") == ref
            assert optimal_assortment(inst) == ref[0]
            for k in (1, 2, n, n + 2):
                if k >= 1:
                    assert best_topk_lottery(inst, k=k) == (k, *ref[k - 1])
            all_k = range(1, max(n, 1) + 1)
            top = max(ref[k - 1][1] for k in all_k)
            k_ref = min(k for k in all_k if ref[k - 1][1] == top)
            assert best_topk_lottery(inst) == (k_ref, *ref[k_ref - 1])


class TestGapFamily:
    def test_two_item_instance_layout(self):
        inst = gen_topk_gap_instance(2, 10)
        assert inst.prices == {1: 10, 2: 100}
        assert inst.dist.probability((1,)) == Fraction(1, 10)
        assert inst.dist.probability((1, 2)) == Fraction(1, 100)
        assert inst.dist.probability(()) == Fraction(89, 100)

    def test_single_item_family(self):
        inst = gen_topk_gap_instance(1, 10)
        assert inst.dist.probability((1,)) == Fraction(1, 10)

    def test_top2_value_small_case(self):
        inst = gen_topk_gap_instance(2, 10)
        _, _, value = best_topk_lottery(inst, k=2)
        assert value == Fraction(21, 20)

    def test_small_case_assortment_optimum(self):
        inst = gen_topk_gap_instance(2, 10)
        S, value = optimal_assortment(inst)
        assert (S, value) == (frozenset({1}), Fraction(11, 10))

    def test_top2_reaches_half_the_item_count(self):
        inst = gen_topk_gap_instance(4, 100)
        _, _, value = best_topk_lottery(inst, k=2)
        assert value >= 2

    def test_strict_separation_at_desk_scale(self):
        inst = gen_topk_gap_instance(4, 100)
        _, _, top2 = best_topk_lottery(inst, k=2)
        _, best = optimal_assortment(inst)
        assert best < top2

    def test_caps_and_validation(self):
        with pytest.raises(CapExceededError):
            gen_topk_gap_instance(9, 10)
        with pytest.raises(InvalidInstanceError):
            gen_topk_gap_instance(2, 1)


class TestIndependentRounding:
    def test_full_inclusion_matches_universe_revenue(self):
        inst = four_item_clash()
        incl = InclusionProbabilities({j: 1.0 for j in inst.items})
        got = independent_assortment_revenue(inst, incl)
        assert got == pytest.approx(float(assortment_revenue(inst, set(inst.items))))

    def test_zero_inclusion(self):
        inst = four_item_clash()
        assert independent_assortment_revenue(inst, InclusionProbabilities({})) == 0

    def test_exponential_curve_values(self):
        inst = four_item_clash()
        incl, _ = round_budget_additive(
            inst, BudgetAdditiveParams({j: Fraction(1, 2) for j in "ABCD"}, 1)
        )
        for j in "ABCD":
            assert incl.get(j) == pytest.approx(1 - math.exp(-0.5))

    def test_zero_weight_gives_zero_inclusion(self):
        inst = four_item_clash()
        incl, _ = round_budget_additive(
            inst, BudgetAdditiveParams({j: 0 for j in "ABCD"}, 1)
        )
        assert all(incl.get(j) == 0 for j in "ABCD")

    def test_e_fraction_guarantee_on_random_instances(self):
        rng = random.Random(77)
        for _ in range(60):
            inst = random_instance(rng, n_max=6, max_lists=6)
            weights = {j: Fraction(rng.randint(0, 4), 4) for j in inst.items}
            params = BudgetAdditiveParams(weights, Fraction(rng.randint(1, 4), 4))
            _, report = round_budget_additive(inst, params)
            assert report.ok

    def test_length_one_rounding(self):
        inst = Instance(
            "AB",
            {"A": 2, "B": 1},
            ListDistribution({("A",): Fraction(1, 2), ("B",): Fraction(1, 2)}),
        )
        _, mech = solve_mechanism_lp(inst)
        incl, report = round_bounded_length(inst, mech)
        # length-1 lists: the optimum allocates 1, and phi(1) = 1/L = 1
        assert all(p in (0.0, 1.0) for p in incl.probs.values())
        assert report.ok

    def test_bounded_length_guarantee_on_lottery(self):
        inst = four_item_clash()
        mech = budget_additive_mechanism(
            inst, BudgetAdditiveParams({j: Fraction(1, 2) for j in "ABCD"}, 1)
        )
        _, report = round_bounded_length(inst, mech)
        assert report.ok
        assert report.factor == pytest.approx(2 / (math.e * 2))

    def test_zero_mechanism_rounds_to_nothing(self):
        inst = four_item_clash()
        from fixedprice import Mechanism

        mech = Mechanism({lst: {} for lst in inst.dist.support})
        incl, report = round_bounded_length(inst, mech)
        assert all(p == 0 for p in incl.probs.values())
        assert report.achieved == 0 and report.ok

    def test_bounded_length_guarantee_on_random_optima(self):
        rng = random.Random(88)
        for _ in range(20):
            L = rng.choice([1, 2, 3])
            inst = random_bounded_length_instance(rng, L)
            _, mech = solve_mechanism_lp(inst)
            _, report = round_bounded_length(inst, mech)
            assert report.ok


class TestLotteryJson:
    def test_budget_additive_round_trip(self):
        from fixedprice.lotteries import (
            budget_additive_from_json,
            budget_additive_to_json,
        )

        params = BudgetAdditiveParams(
            {"A": Fraction(1, 2), "B": Fraction(1, 4)}, Fraction(3, 4)
        )
        obj = budget_additive_to_json(params)
        assert obj == {"weights": {"A": "1/2", "B": "1/4"}, "budget": "3/4"}
        again = budget_additive_from_json(obj, items="AB")
        assert again.weights == params.weights and again.budget == params.budget

    def test_rounding_report_carries_both_sides(self):
        inst = four_item_clash()
        _, report = round_budget_additive(
            inst, BudgetAdditiveParams({j: Fraction(1, 2) for j in "ABCD"}, 1)
        )
        obj = report.to_json()
        assert obj["ok"] and obj["achieved"] >= obj["required"]
        assert set(obj) == {"achieved", "required", "factor", "source_revenue", "ok"}
