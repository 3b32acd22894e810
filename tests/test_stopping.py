import itertools
import random
import re
from fractions import Fraction

import pytest

from fixedprice import (
    Instance,
    ListDistribution,
    MarkovChainParams,
    MnlParams,
    MonotoneStoppingPolicy,
    adjusted_revenue_identity,
    assortment_revenue,
    check_domination,
    check_history_monotone,
    gen_markov_chain,
    gen_mnl,
    gen_topk_gap_instance,
    markov_stopping_assortment,
    optimal_assortment,
    optimal_policy_bruteforce,
    policy_revenue,
    s_adjusted_price,
    solve_mechanism_lp,
    solve_set_function_lp,
    stopping_rule_revenue,
    tier_adjusted_prices,
    tier_decomposition,
)
from fixedprice import choice_models, stopping
from fixedprice.choice_models import verify_absorbing
from fixedprice.errors import (
    CapExceededError,
    InvalidInstanceError,
    MonotonicityViolationError,
    NonAbsorbingChainError,
    PrefixOverlapError,
    UnrealizablePrefixError,
)
from fixedprice.core import Prefix
from fixedprice.rational import coerce_rational
from fixedprice.stopping import _future_classes

from .helpers import (
    FAMILIES,
    _family_instance,
    _reversal,
    condition_violation_minimal,
    equal_weight_chain_params,
    four_item_clash,
    history_monotone_tree,
    min_rule_policy_bruteforce,
    monotone_masks,
    prefix_graph_tiers,
    random_history_monotone_instance,
    random_instance,
    random_cyclic_chain,
    random_monotone_generators,
    random_search_instance,
    random_sparse_chain,
    random_tied_instance,
    reference_history_monotone,
    reference_markov_stopping,
    reference_policy_bruteforce,
    singleton_mixture,
    tensor_policy_bruteforce,
)


class TestPolicies:
    def test_constant_policy_is_assortment(self):
        rng = random.Random(4)
        for _ in range(10):
            inst = random_instance(rng)
            S = set(rng.sample(list(inst.items), rng.randint(0, len(inst.items))))
            policy = MonotoneStoppingPolicy.from_assortment(inst.items, S)
            assert policy_revenue(inst, policy) == assortment_revenue(inst, S)

    def test_zero_policy(self):
        inst = four_item_clash()
        policy = MonotoneStoppingPolicy.from_assortment(inst.items, set())
        assert policy_revenue(inst, policy) == 0

    def test_non_monotone_table_rejected(self):
        with pytest.raises(MonotonicityViolationError):
            MonotoneStoppingPolicy.from_table(
                "AB",
                {"A": {frozenset(): True, frozenset("B"): False}},
            )

    def test_minimal_generators_deduplicate(self):
        policy = MonotoneStoppingPolicy(
            {"A": [frozenset("B"), frozenset("BC")], "B": [], "C": []}
        )
        assert policy.generators["A"] == (frozenset("B"),)

    def test_hand_rule_on_mixture_instance(self):
        inst = singleton_mixture()
        rule = lambda j, H: (j == "B" and not H) or j == "C"
        assert stopping_rule_revenue(inst, rule) == Fraction(3, 2)

    def test_random_rules_match_per_list_evaluation(self):
        # Rules drawn at random per (item, history) are mostly not monotone.
        rng = random.Random(41)
        non_monotone = 0
        for trial in range(40):
            inst = random_instance(rng, n_max=5, max_lists=8)

            def rule(j, H, trial=trial):
                return random.Random(f"{trial}/{j}/{sorted(H)}").random() < 0.5

            want = Fraction(0)
            for lst, prob in inst.dist.support.items():
                for k, j in enumerate(lst.entries):
                    if rule(j, frozenset(lst.entries[:k])):
                        want += prob * inst.prices[j]
                        break
            assert stopping_rule_revenue(inst, rule) == want
            non_monotone += any(
                rule(j, frozenset()) and not rule(j, frozenset([h]))
                for j in inst.items for h in inst.items if h != j
            )
        assert non_monotone >= 20


class TestBruteForce:
    @pytest.mark.parametrize("k, count", [(0, 2), (1, 3), (2, 6), (3, 20), (4, 168)])
    def test_monotone_masks_match_superset_definition(self, k, count):
        subsets = range(1 << k)

        def monotone(mask):
            return all(mask >> sup & 1 for h in subsets if mask >> h & 1
                       for sup in subsets if sup & h == h)

        expected = [mask for mask in range(1 << (1 << k)) if monotone(mask)]
        assert monotone_masks(k) == expected
        assert len(expected) == count  # Dedekind numbers

    def test_mixture_instance_monotone_optimum_is_one(self):
        policy, value = optimal_policy_bruteforce(singleton_mixture())
        assert value == 1

    def test_single_item(self):
        inst = Instance(
            ["1"],
            {"1": Fraction(2)},
            ListDistribution({("1",): Fraction(1, 3), (): Fraction(2, 3)}),
        )
        _, value = optimal_policy_bruteforce(inst)
        assert value == Fraction(2, 3)

    def test_no_items_gives_the_empty_policy(self):
        inst = Instance([], {}, ListDistribution({(): Fraction(1)}))
        policy, value = optimal_policy_bruteforce(inst)
        assert value == 0 and policy.generators == {}

    def test_huge_prices_give_the_same_policy(self):
        # Prices past 2^60: the search must still be exact and break ties
        # the same way.
        inst = four_item_clash()
        policy, value = optimal_policy_bruteforce(inst)
        big = Instance(inst.items, {j: p * 2**62 for j, p in inst.prices.items()},
                       inst.dist)
        big_policy, big_value = optimal_policy_bruteforce(big)
        assert big_policy == policy
        assert big_value == value * 2**62

    def test_cap_mentions_growth(self):
        rng = random.Random(6)
        inst = random_instance(rng, n_min=5, n_max=5, max_lists=4)
        with pytest.raises(CapExceededError, match="Dedekind"):
            optimal_policy_bruteforce(inst)
        # A larger cap never lifts the item cap.
        with pytest.raises(CapExceededError, match="size 5 exceeds cap 4"):
            optimal_policy_bruteforce(inst, cap=5)

    def test_matches_the_fraction_reference_with_its_tie_rule(self):
        # The search instances cover no items, unlisted items, empty lists
        # and zero prices; the tied ones have non-constant optima and ties
        # that only the stop-entry count or the masks break.
        instances = [inst for inst in (random_search_instance(random.Random(seed))
                                       for seed in range(130)) if len(inst.items) <= 3]
        assert len(instances) >= 75
        instances += [random_tied_instance(random.Random(seed)) for seed in range(60)]
        for inst in instances:
            assert optimal_policy_bruteforce(inst) == reference_policy_bruteforce(inst)

    def test_all_zero_prices_give_the_empty_policy(self):
        # Every one of the 20^4 tuples ties; the fewest stop entries is none.
        items = "ABCD"
        dist = gen_mnl(items, MnlParams({"A": 1, "B": 2, "C": 3, "D": 4}, Fraction(1)))
        policy, value = optimal_policy_bruteforce(Instance(items, {j: 0 for j in items}, dist))
        assert value == 0
        assert policy == MonotoneStoppingPolicy({j: [] for j in items})

    def test_tie_rule_matches_a_min_over_all_winners(self):
        # Prices of 0 and 1 on 4 items leave many tuples tied at the optimum.
        rng = random.Random(33)
        for _ in range(4):
            inst = random_instance(rng, n_min=4, n_max=4, max_lists=6)
            inst = Instance(inst.items, {j: rng.choice([0, 1]) for j in inst.items}, inst.dist)
            assert optimal_policy_bruteforce(inst) == min_rule_policy_bruteforce(inst)

    def test_matches_the_tensor_search_on_mnl_urns(self):
        # The 4-item urns of the benchmark: weights 1-5, w0 1-4, prices in halves.
        items = "ABCD"
        for seed in range(20):
            rng = random.Random(seed)
            params = MnlParams({j: rng.randint(1, 5) for j in items}, rng.randint(1, 4))
            prices = {j: Fraction(rng.randint(2, 10), 2) for j in items}
            inst = Instance(items, prices, gen_mnl(items, params))
            assert optimal_policy_bruteforce(inst) == tensor_policy_bruteforce(inst)

    @pytest.mark.parametrize("top", [1, 2, 5])
    def test_matches_the_tensor_search_on_random_supports(self, top):
        # Prices in 0..top; with few price levels many tuples tie.
        rng = random.Random(top)
        for _ in range(12):
            inst = random_instance(rng, n_min=4, n_max=4, max_lists=24)
            inst = Instance(inst.items, {j: rng.randint(0, top) for j in inst.items}, inst.dist)
            assert optimal_policy_bruteforce(inst) == tensor_policy_bruteforce(inst)

    def test_chain_instances_have_assortment_optima(self):
        rng = random.Random(10)
        for _ in range(8):
            inst, _ = random_sparse_chain(rng, rng.randint(2, 4))
            _, value = optimal_policy_bruteforce(inst)
            _, best = optimal_assortment(inst)
            assert value == best

    def test_chain_dominates_relaxations(self):
        inst = four_item_clash()
        _, value = optimal_policy_bruteforce(inst)
        opt_f, _ = solve_set_function_lp(inst)
        opt_x, _ = solve_mechanism_lp(inst)
        assert value >= opt_f >= opt_x >= Fraction(5, 4)

    def test_reported_value_matches_exact_reevaluation(self):
        rng = random.Random(15)
        for _ in range(10):
            inst = random_instance(rng, n_max=4)
            policy, value = optimal_policy_bruteforce(inst)
            assert policy_revenue(inst, policy) == value

    def test_huge_denominators_use_exact_fallback(self):
        # revenue numerators past 2^60 must agree with evaluating every
        # policy directly
        eps = Fraction(1, 10**40)
        inst = Instance(
            "AB",
            {"A": 2 + eps, "B": 1 + eps},
            ListDistribution({("B", "A"): Fraction(1, 2), ("A",): Fraction(1, 2)}),
        )
        policy, value = optimal_policy_bruteforce(inst)
        assert policy_revenue(inst, policy) == value
        best = max(
            policy_revenue(inst, MonotoneStoppingPolicy({"A": ga, "B": gb}))
            for ga in ([], [frozenset()], [frozenset("B")])
            for gb in ([], [frozenset()], [frozenset("A")])
        )
        assert value == best == 2 + eps


class TestMarkovStopping:
    def test_no_transitions_keeps_priced_items(self):
        params = MarkovChainParams(
            {"1": Fraction(1, 2), "2": Fraction(1, 2)}, {"1": {}, "2": {}}
        )
        S, V = markov_stopping_assortment(params, {"1": 1, "2": 0})
        assert S == {"1"}
        assert V == {"1": 1, "2": 0}
        assert (S, V) == reference_markov_stopping(params, {"1": 1, "2": 0})

    def test_single_state(self):
        params = MarkovChainParams({"1": Fraction(1)}, {"1": {}})
        S, V = markov_stopping_assortment(params, {"1": 1})
        assert S == {"1"} and V["1"] == 1
        assert (S, V) == reference_markov_stopping(params, {"1": 1})

    def test_uniform_chain_stop_set_matches_enumeration(self):
        params = equal_weight_chain_params()
        prices = {"A": 2, "B": 1, "C": 1}
        S, V = markov_stopping_assortment(params, prices)
        assert (S, V) == reference_markov_stopping(params, prices)
        inst = Instance("ABC", prices, gen_markov_chain("ABC", params))
        _, best = optimal_assortment(inst)
        assert assortment_revenue(inst, S) == best

    def test_stop_set_revenue_is_optimal_on_random_chains(self):
        rng = random.Random(44)
        for _ in range(15):
            inst, params = random_sparse_chain(rng, rng.randint(2, 5))
            S, V = markov_stopping_assortment(params, inst.prices)
            assert (S, V) == reference_markov_stopping(params, inst.prices)
            _, best = optimal_assortment(inst)
            assert assortment_revenue(inst, S) == best

    def test_two_state_closed_class(self):
        # Each state moves to the other with chance 1: the chain never ends,
        # and both values are the best price on the cycle.
        params = MarkovChainParams({"A": Fraction(1, 2), "B": Fraction(1, 2)},
                                   {"A": {"B": 1}, "B": {"A": 1}})
        result = markov_stopping_assortment(params, {"A": 1, "B": 0})
        assert result == ({"A"}, {"A": 1, "B": 1})
        assert result == reference_markov_stopping(params, {"A": 1, "B": 0})

    def test_equals_policy_iteration_on_cyclic_chains(self):
        rng = random.Random(23)
        closed = 0
        for _ in range(600):
            params, prices = random_cyclic_chain(rng, rng.randint(1, 6))
            try:
                verify_absorbing(params, tuple(params.arrivals))
            except NonAbsorbingChainError:
                closed += 1
            assert (markov_stopping_assortment(params, prices)
                    == reference_markov_stopping(params, prices))
        assert closed >= 30

    def test_one_lp_solve_and_no_linear_solve(self, monkeypatch):
        calls = []
        solve_lp = stopping.solve_lp

        def counting_solve_lp(lp):
            calls.append(lp)
            return solve_lp(lp)

        def no_solve(*args):
            raise AssertionError("_solve_transient called")

        monkeypatch.setattr(stopping, "solve_lp", counting_solve_lp)
        monkeypatch.setattr(choice_models, "_solve_transient", no_solve)
        markov_stopping_assortment(equal_weight_chain_params(), {"A": 2, "B": 1, "C": 1})
        assert len(calls) == 1


class TestAdjustedPrices:
    def test_empty_assortment_returns_endpoint_price(self):
        inst = four_item_clash()
        assert s_adjusted_price(inst, set(), ("B",)) == 1
        assert s_adjusted_price(inst, set(), ("C", "A")) == 2

    def test_tree_instance_values(self):
        inst = history_monotone_tree()
        assert s_adjusted_price(inst, {"A"}, ("C", "D", "B")) == Fraction(-1, 2)
        assert s_adjusted_price(inst, {"A"}, ("D", "C", "B")) == -1

    def test_prefix_checks(self):
        inst = four_item_clash()
        with pytest.raises(UnrealizablePrefixError):
            s_adjusted_price(inst, set(), ("A", "B"))
        with pytest.raises(PrefixOverlapError):
            s_adjusted_price(inst, {"B"}, ("B",))


class TestRevenueIdentity:
    def test_assortment_policy_gives_zero_difference(self):
        inst = four_item_clash()
        policy = MonotoneStoppingPolicy.from_assortment(inst.items, {"A", "B"})
        assert adjusted_revenue_identity(inst, {"A", "B"}, policy) == (0, 0)

    def test_extra_stop_rule_example(self):
        inst = four_item_clash()
        policy = MonotoneStoppingPolicy(
            {"A": [frozenset()], "B": [frozenset()], "C": [frozenset("D")], "D": []}
        )
        lhs, rhs = adjusted_revenue_identity(inst, {"A", "B"}, policy)
        assert lhs == rhs == Fraction(1, 6)

    def test_fuzz_exact_equality(self):
        rng = random.Random(50)
        for _ in range(50):
            inst = random_instance(rng, n_max=4)
            items = list(inst.items)
            S = frozenset(rng.sample(items, rng.randint(0, len(items))))
            gens = random_monotone_generators(rng, items, always_stop=S)
            policy = MonotoneStoppingPolicy(gens)
            lhs, rhs = adjusted_revenue_identity(inst, S, policy)
            assert lhs == rhs

    def test_policy_must_cover_assortment(self):
        inst = four_item_clash()
        policy = MonotoneStoppingPolicy.from_assortment(inst.items, set())
        with pytest.raises(InvalidInstanceError):
            adjusted_revenue_identity(inst, {"A"}, policy)


class TestDomination:
    def _futures_pair(self):
        return ListDistribution(
            {
                ("X1", "A"): Fraction(1, 4), ("X1",): Fraction(1, 4),
                ("X2", "A"): Fraction(1, 4), ("X2", "B"): Fraction(1, 4),
            }
        )

    def test_branching_future_dominates_thin_one(self):
        assert check_domination(self._futures_pair(), ("X2",), ("X1",)).holds

    def test_serial_future_fails_against_thin_one(self):
        dist = ListDistribution(
            {
                ("X1", "A"): Fraction(1, 4), ("X1",): Fraction(1, 4),
                ("X3", "B", "A"): Fraction(1, 4), ("X3",): Fraction(1, 4),
            }
        )
        result = check_domination(dist, ("X3",), ("X1",))
        assert not result.holds
        assert result.witness == (frozenset({"A", "B"}), "A")

    def test_reflexive(self):
        dist = self._futures_pair()
        assert check_domination(dist, ("X1",), ("X1",)).holds

    def test_unrealizable_prefix_rejected(self):
        with pytest.raises(UnrealizablePrefixError):
            check_domination(self._futures_pair(), ("A",), ("X1",))


class TestConditionChecker:
    def test_minimal_violation_witness(self):
        report = check_history_monotone(condition_violation_minimal().dist)
        assert not report.holds
        w = report.witness
        assert (w.prefix, w.other, w.assortment, w.item) == (
            ("C", "B"), ("B",), frozenset({"A"}), "A"
        )

    def test_clash_instance_fails(self):
        assert not check_history_monotone(four_item_clash().dist).holds

    def test_tree_instance_passes(self):
        assert check_history_monotone(history_monotone_tree().dist).holds

    def test_chain_and_mixture_families_pass(self):
        rng = random.Random(60)
        for _ in range(25):
            from .helpers import random_history_monotone_instance

            inst = random_history_monotone_instance(rng, n_max=5)
            assert check_history_monotone(inst.dist).holds

    @staticmethod
    def _report_tuple(report):
        w = report.witness
        if w is None:
            return report.holds, None
        return report.holds, (w.prefix, w.other, w.assortment, w.item)

    def test_matches_prefix_pair_reference_on_random_supports(self):
        rng = random.Random(111)
        violations = 0
        for _ in range(1500):
            items = "ABCDE"[:rng.randint(2, 5)]
            pool = [lst for k in range(len(items) + 1)
                    for lst in itertools.permutations(items, k)]
            lists = rng.sample(pool, rng.randint(1, min(10, len(pool))))
            weights = [rng.randint(1, 6) for _ in lists]
            dist = ListDistribution(
                [(lst, Fraction(w, sum(weights))) for lst, w in zip(lists, weights)]
            )
            for tol in (0, Fraction(1, 10)):
                got = self._report_tuple(check_history_monotone(dist, tol))
                assert got == self._report_tuple(reference_history_monotone(dist, tol))
                violations += not got[0]
        assert 0 < violations < 3000

    def test_matches_prefix_pair_reference_on_mnl_urns(self):
        rng = random.Random(112)
        for n in (2, 3, 4, 5):
            for _ in range(3):
                items = "ABCDE"[:n]
                weights = {j: Fraction(rng.randint(1, 4)) for j in items}
                dist = gen_mnl(items, MnlParams(weights, Fraction(rng.randint(1, 3))))
                got = self._report_tuple(check_history_monotone(dist))
                assert got == self._report_tuple(reference_history_monotone(dist)) == (True, None)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mnl_urn_has_one_future_class_per_seen_set(self, n):
        items = "ABCDE"[:n]
        weights = {j: Fraction(i + 1) for i, j in enumerate(items)}
        dist = gen_mnl(items, MnlParams(weights, Fraction(1)))
        assert len(set(_future_classes(dist).values())) == 2 ** n

    # ("B","C","A") and ("C","B","A") share an entry set and a tree shape;
    # only the second fails against ("B","A"), so their futures must fall
    # in different classes.  They differ in their child chances in the
    # first case and only below their children in the second.
    @pytest.mark.parametrize("weights", [
        {("B", "A", "E"): 1, ("B", "A"): 2,
         ("B", "C", "A", "E"): 2, ("B", "C", "A", "D"): 1, ("B", "C", "A"): 1,
         ("C", "B", "A", "D"): 2, ("C", "B", "A", "E"): 1, ("C", "B", "A"): 1},
        {("B", "A", "D", "E"): 1, ("B", "A"): 2,
         ("B", "C", "A", "D", "E"): 1, ("B", "C", "A"): 1,
         ("C", "B", "A", "D"): 1, ("C", "B", "A"): 1},
    ])
    def test_same_set_prefixes_with_different_futures_are_both_compared(self, weights):
        total = sum(weights.values())
        dist = ListDistribution({lst: Fraction(w, total) for lst, w in weights.items()})
        classes = _future_classes(dist)
        assert classes[("B", "C", "A")] != classes[("C", "B", "A")]
        expected = (False, (("C", "B", "A"), ("B", "A"), frozenset({"E"}), "E"))
        assert self._report_tuple(check_history_monotone(dist)) == expected
        assert self._report_tuple(reference_history_monotone(dist)) == expected

    def test_minimal_violation_witness_pair_has_different_classes(self):
        classes = _future_classes(condition_violation_minimal().dist)
        assert classes[("C", "B")] != classes[("B",)]


    @pytest.mark.parametrize("tol", [0, Fraction(1, 100), Fraction(1, 7), 1e-9])
    def test_matches_reference_on_wide_numbers(self, tol):
        rng = random.Random(26)
        for n in (3, 4, 5):
            items = "ABCDE"[:n]
            weights = {j: Fraction(rng.randint(1, 10**6)) for j in items}
            dist = gen_mnl(items, MnlParams(weights, Fraction(rng.randint(1, 10**6))))
            got = self._report_tuple(check_history_monotone(dist, tol))
            assert got == self._report_tuple(reference_history_monotone(dist, tol))
        holds = 0
        for _ in range(30):
            n = rng.randint(6, 8)
            items = "ABCDEFGH"[:n]
            lists = sorted({tuple(rng.sample(items, rng.randint(1, n)))
                            for _ in range(rng.choice([1, 2, 3, 6, 12, 40]))})
            weights = [rng.randint(1, 10**9) for _ in lists]
            dist = ListDistribution(
                [(lst, Fraction(w, sum(weights))) for lst, w in zip(lists, weights)]
            )
            got = self._report_tuple(check_history_monotone(dist, tol))
            assert got == self._report_tuple(reference_history_monotone(dist, tol))
            holds += got[0]
        assert 0 < holds < 30

    # (X, E) and (Y, E) have one future, A half the time, but masses 2/3 and
    # 1/3.  First-hit rows hold integer masses, so a row table keyed by class
    # would give (Y, E) the hit mass of (X, E) and report a false reversal.
    def test_one_class_with_two_masses(self):
        dist = ListDistribution({("X", "E", "A"): Fraction(1, 3), ("X", "E"): Fraction(1, 3),
                                 ("Y", "E", "A"): Fraction(1, 6), ("Y", "E"): Fraction(1, 6)})
        classes = _future_classes(dist)
        assert classes[("X", "E")] == classes[("Y", "E")]
        assert dist.node(("X", "E")).mass != dist.node(("Y", "E")).mass
        assert self._report_tuple(check_history_monotone(dist)) == (True, None)
        assert self._report_tuple(reference_history_monotone(dist)) == (True, None)

    def test_six_item_urn_holds(self):
        items = "ABCDEF"
        weights = {j: Fraction(i + 1) for i, j in enumerate(items)}
        dist = gen_mnl(items, MnlParams(weights, Fraction(1)))
        assert self._report_tuple(check_history_monotone(dist)) == (True, None)


class TestDominationScan:
    """``check_domination`` runs the integer scan of the condition checker;
    ``tests/helpers._reversal`` is the Fraction loop it replaced."""

    def test_matches_fraction_scan_on_random_pairs(self):
        rng = random.Random(27)
        unrealizable = reversals = 0
        for _ in range(200):
            dist = random_instance(rng, n_max=5, max_lists=8).dist
            prefixes = [()] + sorted({lst.entries[:k] for lst in dist.support
                                      for k in range(1, len(lst) + 1)})
            for _ in range(5):
                a = rng.choice(prefixes)
                if rng.random() < 0.15:
                    a = tuple(rng.sample(dist.items, min(2, len(dist.items))))
                b = rng.choice(prefixes)
                tol = rng.choice([0, Fraction(1, 100), Fraction(1, 7), 1e-9])
                try:
                    expected = _reversal(dist, {}, Prefix(a), Prefix(b), coerce_rational(tol))
                except UnrealizablePrefixError as exc:
                    with pytest.raises(UnrealizablePrefixError, match=re.escape(str(exc))):
                        check_domination(dist, a, b, tol)
                    unrealizable += 1
                    continue
                result = check_domination(dist, a, b, tol)
                assert (result.holds, result.witness) == (expected is None, expected)
                reversals += expected is not None
        assert unrealizable > 0 and reversals > 0


class TestNamedFamilies:
    """The paper's families have history-monotone futures, so an assortment
    is optimal among all IC mechanisms; on its counterexamples a lottery
    wins.  The nested-logit supports are rationalised floats and hold at
    tolerance 0."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_condition_holds_and_an_assortment_is_optimal(self, family):
        rng = random.Random(f"family-{family}")
        for _ in range(4):
            inst = _family_instance(family, rng)
            assert check_history_monotone(inst.dist, tol=0).holds
            _, opt_s = optimal_assortment(inst)
            opt_x, _ = solve_mechanism_lp(inst)
            opt_f, _ = solve_set_function_lp(inst)
            assert opt_s == opt_x <= opt_f

    @pytest.mark.parametrize("build", [
        four_item_clash, lambda: gen_topk_gap_instance(4, 4), lambda: gen_topk_gap_instance(5, 10),
    ])
    def test_a_lottery_wins_on_the_counterexamples(self, build):
        inst = build()
        assert not check_history_monotone(inst.dist).holds
        _, opt_s = optimal_assortment(inst)
        opt_x, _ = solve_mechanism_lp(inst)
        opt_f, _ = solve_set_function_lp(inst)
        assert opt_s < opt_x <= opt_f


class TestTiers:
    def test_tree_instance_decomposition(self):
        td = tier_decomposition(history_monotone_tree().dist, {"A"}, "B")
        assert td.to_json() == [
            [["B"]],
            [["C", "B"], ["D", "B"]],
            [["C", "D", "B"], ["D", "C", "B"]],
        ]
        assert [t.kind for t in td.tiers] == [
            "setwise-identical", "incomparable-equal", "setwise-identical"
        ]

    def test_single_prefix_single_tier(self):
        dist = ListDistribution({("C", "B"): Fraction(1, 2), ("A",): Fraction(1, 2)})
        td = tier_decomposition(dist, set(), "B")
        assert td.to_json() == [[["C", "B"]]]

    @pytest.mark.parametrize("tol", [float("inf"), float("-inf"), float("nan"), -1,
                                     Fraction(-1, 10**9), "x", None])
    def test_bad_tolerance_rejected(self, tol):
        checks = [
            lambda: check_history_monotone(four_item_clash().dist, tol=tol),
            lambda: check_domination(four_item_clash().dist, ("B",), ("C",), tol=tol),
            lambda: tier_decomposition(history_monotone_tree().dist, set(), "A", tol=tol),
            lambda: tier_adjusted_prices(history_monotone_tree(), set(), "A", tol=tol),
        ]
        for check in checks:
            with pytest.raises(InvalidInstanceError, match="tolerance"):
                check()

    def test_requires_condition(self):
        with pytest.raises(InvalidInstanceError):
            tier_decomposition(condition_violation_minimal().dist, {"A"}, "B")

    def test_adjusted_prices_monotone_along_tiers(self):
        inst = history_monotone_tree()
        rows = tier_adjusted_prices(inst, {"A"}, "B")
        assert rows == [[1], [0, 0], [Fraction(-1, 2), -1]]

    def test_body_set_grouping_matches_prefix_graph(self):
        rng = random.Random(2)
        multi = 0
        for _ in range(100):
            inst = random_history_monotone_instance(rng)
            items = sorted(inst.items, key=str)
            for size in range(3):
                for S in itertools.combinations(items, size):
                    for j in items:
                        if j in S:
                            continue
                        expected = prefix_graph_tiers(inst.dist, S, j)
                        td = tier_decomposition(inst.dist, S, j)
                        assert [(t.prefixes, t.kind) for t in td.tiers] == expected
                        multi += len(expected) >= 2
        assert multi >= 200

    def test_chain_instances_have_equal_probabilities_within_tiers(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(10):
            inst, _ = random_sparse_chain(rng, rng.randint(3, 5))
            items = list(inst.items)
            j = rng.choice(items)
            S = frozenset(rng.sample([k for k in items if k != j], 1))
            try:
                td = tier_decomposition(inst.dist, S, j)
            except InvalidInstanceError:
                continue  # no realizable prefixes for this (S, j)
            checked += 1
        assert checked >= 5
