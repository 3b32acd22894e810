"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned in the assertions: exact
rational equality wherever the quantities are rational, 1e-9 for the
float-born nested-logit checks and rounding guarantees, 1e-12 / 1e-6 for
the chain-fit gap.
"""

import random
from fractions import Fraction

from fixedprice import (
    BudgetAdditiveParams,
    MnlParams,
    MonotoneStoppingPolicy,
    NestStructure,
    SymmetricNlParams,
    adjusted_revenue_identity,
    best_topk_lottery,
    budget_additive_mechanism,
    build_mechanism_lp,
    build_set_function_lp,
    build_tree_diagram,
    check_history_monotone,
    choice_probability,
    containment_witness,
    gen_markov_chain,
    gen_mnl,
    gen_nested_logit_3item,
    gen_nested_logit_4item_symmetric,
    gen_topk_gap_instance,
    mechanism_revenue,
    mechanism_to_menu,
    nested_logit_choice_prob,
    nl_markov_fit_gap,
    optimal_assortment,
    optimal_policy_bruteforce,
    robust_revenue,
    round_bounded_length,
    round_budget_additive,
    solve_bm_lp,
    solve_lp,
    solve_mechanism_lp,
    solve_multibuyer_lp,
    solve_set_function_lp,
    stopping_rule_revenue,
    tier_decomposition,
    eval_endowment_ttc,
    eval_serial_dictatorship,
    exposable_entries,
)
from fixedprice.mechanism_lp import mechanism_from_solution

from .helpers import (
    condition_violation_minimal,
    equal_weight_chain_params,
    four_item_clash,
    history_monotone_tree,
    random_bounded_length_instance,
    random_history_monotone_instance,
    random_instance,
    random_monotone_generators,
    random_sparse_chain,
    robust_menu_instance,
    seven_entry_menu,
    singleton_mixture,
    two_buyer_two_item,
)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS — {text}")


def test_criterion_01_clash_instance_values():
    inst = four_item_clash()
    S, value = optimal_assortment(inst)
    assert value == Fraction(7, 6)
    lottery = budget_additive_mechanism(
        inst, BudgetAdditiveParams({j: Fraction(1, 2) for j in inst.items}, 1)
    )
    assert mechanism_revenue(inst, lottery) == Fraction(5, 4)
    opt_x, _ = solve_mechanism_lp(inst)
    assert opt_x >= Fraction(5, 4)
    _report(1, f"clash instance: OPT^S=7/6, top-2 lottery=5/4, OPT^x={opt_x}")


def test_criterion_02_urn_equals_chain_and_tree_labels():
    mnl = gen_mnl("ABC", MnlParams({j: 1 for j in "ABC"}, 1))
    chain = gen_markov_chain("ABC", equal_weight_chain_params())
    assert mnl == chain
    tree = build_tree_diagram(mnl)
    assert tree.q(("A",)) == Fraction(1, 4)
    assert tree.q(("A", "B")) == Fraction(1, 3)
    assert tree.q(("A", "B", "C")) == Fraction(1, 2)
    _report(2, "equal-weight urn equals the uniform chain; q = 1/4, 1/3, 1/2")


def test_criterion_03_chain_instances_have_assortment_optima():
    rng = random.Random(2024_03)
    for trial in range(100):
        n = rng.randint(2, 5)
        inst, _ = random_sparse_chain(rng, n)
        _, opt_s = optimal_assortment(inst)
        opt_x, _ = solve_mechanism_lp(inst)
        assert opt_s == opt_x, f"trial {trial}: {opt_s} != {opt_x}"
    _report(3, "OPT^S = OPT^x exactly on 100 random chain instances (n <= 5)")


def test_criterion_04_condition_implies_assortment_optimal():
    rng = random.Random(2024_04)
    for trial in range(100):
        inst = random_history_monotone_instance(rng, n_max=6)
        assert check_history_monotone(inst.dist).holds
        _, opt_s = optimal_assortment(inst)
        opt_x, _ = solve_mechanism_lp(inst)
        assert opt_s == opt_x, f"trial {trial}: {opt_s} != {opt_x}"
    for trial in range(20):
        inst = random_instance(rng, n_max=4, max_lists=5)
        opt_x, _ = solve_mechanism_lp(inst)
        opt_f, _ = solve_set_function_lp(inst)
        _, opt_phi = optimal_policy_bruteforce(inst)
        assert opt_x <= opt_f <= opt_phi, f"trial {trial}"
    _report(4, "condition => OPT^S = OPT^x on 100 instances (n <= 6); "
               "OPT^x <= OPT^f <= OPT^phi on 20 instances (n <= 4)")


def test_criterion_05_condition_checker_and_tiers():
    bad = condition_violation_minimal()
    report = check_history_monotone(bad.dist)
    assert not report.holds
    w = report.witness
    assert (w.prefix, w.other, w.assortment, w.item) == (
        ("C", "B"), ("B",), frozenset({"A"}), "A"
    )
    assert not check_history_monotone(four_item_clash().dist).holds
    tree = history_monotone_tree()
    assert check_history_monotone(tree.dist).holds
    td = tier_decomposition(tree.dist, {"A"}, "B")
    assert td.to_json() == [
        [["B"]],
        [["C", "B"], ["D", "B"]],
        [["C", "D", "B"], ["D", "C", "B"]],
    ]
    _report(5, "checker: minimal violation witnessed, clash fails, tree passes "
               "with tiers {(B)} < {(CB),(DB)} < {(CDB),(DCB)}")


def test_criterion_06_adjusted_revenue_identity():
    rng = random.Random(2024_06)
    for trial in range(50):
        inst = random_instance(rng, n_max=4)
        items = list(inst.items)
        S = frozenset(rng.sample(items, rng.randint(0, len(items))))
        policy = MonotoneStoppingPolicy(
            random_monotone_generators(rng, items, always_stop=S)
        )
        lhs, rhs = adjusted_revenue_identity(inst, S, policy)
        assert lhs == rhs, f"trial {trial}"
    _report(6, "adjusted-revenue identity exact on 50 random triples (n <= 4)")


def test_criterion_07_rounding_guarantees():
    rng = random.Random(2024_07)
    for trial in range(100):
        inst = random_instance(rng, n_max=6, max_lists=6)
        weights = {j: Fraction(rng.randint(0, 4), 4) for j in inst.items}
        params = BudgetAdditiveParams(weights, Fraction(rng.randint(1, 4), 4))
        _, report = round_budget_additive(inst, params)
        assert report.ok, f"1/e rounding failed on trial {trial}"
    for trial in range(100):
        length = [1, 2, 3][trial % 3]
        inst = random_bounded_length_instance(rng, length)
        _, mech = solve_mechanism_lp(inst)
        _, report = round_bounded_length(inst, mech)
        assert report.ok, f"2/(eL) rounding failed on trial {trial}"
    _report(7, "1/e guarantee on 100 instances (n <= 6); 2/(eL) guarantee on "
               "100 instances with L in {1,2,3}")


def test_criterion_08_containment_in_the_inclusion_lp():
    rng = random.Random(2024_08)
    vertices = 0
    for trial in range(25):
        inst = random_instance(rng, n_max=5, max_lists=5)
        opt_x, _ = solve_mechanism_lp(inst)
        opt_bm, _ = solve_bm_lp(inst)
        assert opt_x <= opt_bm, f"trial {trial}"
        lp = build_mechanism_lp(inst)
        for _ in range(4):
            coefs = {v.name: Fraction(rng.randint(0, 5)) for v in lp.variables}
            lp.set_objective(coefs)
            sol = solve_lp(lp)
            mech = mechanism_from_solution(inst, sol)
            containment_witness(inst, mech)  # raises on failure
            vertices += 1
    assert vertices == 100
    _report(8, "100 random mechanism-LP vertices certified inside the "
               "inclusion LP; OPT^x <= OPT^BM on all 25 instances")


def test_criterion_09_price_ladder_separation():
    inst = gen_topk_gap_instance(4, 100)
    _, _, top2 = best_topk_lottery(inst, k=2)
    assert top2 >= 2
    _, opt_s = optimal_assortment(inst)
    assert opt_s < top2
    _report(9, f"price ladder n=4: top-2 value {float(top2):.4f} >= 2 > "
               f"best assortment {float(opt_s):.4f}")


def test_criterion_10_robust_menu_values():
    inst = robust_menu_instance()
    opt_x, mech = solve_mechanism_lp(inst)
    assert opt_x == Fraction(21, 16)
    menu = seven_entry_menu()
    assert robust_revenue(inst, menu) == Fraction(11, 8)
    for lst in [("2", "5", "1"), ("3", "5", "1"), ("4", "5", "1")]:
        assert len(exposable_entries(inst, menu, lst)) == 2
    assert robust_revenue(inst, mechanism_to_menu(inst, mech)) == Fraction(21, 16)
    _report(10, "robust instance: OPT^x = 21/16; seven-entry menu = 11/8 with "
                "the three double-option lists; menu(opt) = 21/16")


def test_criterion_11_two_buyer_values():
    inst = two_buyer_two_item()
    v_dsic, _ = solve_multibuyer_lp(inst, "dsic")
    v_bic, _ = solve_multibuyer_lp(inst, "bic")
    assert v_dsic == Fraction(16, 9)
    assert v_bic == Fraction(16, 9)
    assert eval_endowment_ttc(inst, {0: "B", 1: "A"}) == Fraction(16, 9)
    assert eval_endowment_ttc(inst, {0: "A", 1: "B"}) == Fraction(14, 9)
    assert eval_serial_dictatorship(inst, [0, 1]) == Fraction(15, 9)
    _report(11, "two-buyer LPs both 16/9; trading 16/9 vs 14/9; "
                "dictatorship 15/9")


def test_criterion_12_nested_logit_constructions():
    from itertools import combinations

    # three items, general weights
    cases = [({"A": 1, "B": 1, "C": 1}, 0.5), ({"A": 2, "B": 1, "C": 3}, 0.7)]
    for weights, gamma in cases:
        params = MnlParams(weights, 1)
        nests = NestStructure([frozenset("ABC")], [gamma])
        dist = gen_nested_logit_3item("ABC", params, gamma)
        for size in range(1, 4):
            for S in combinations("ABC", size):
                for j in S:
                    got = float(choice_probability(dist, S, j))
                    want = nested_logit_choice_prob(params, nests, S, j)
                    assert abs(got - want) < 1e-9
        assert check_history_monotone(dist, tol=1e-9).holds
    # four items, equal weights
    params4 = SymmetricNlParams(1.0, 0.5, 4)
    dist4 = gen_nested_logit_4item_symmetric("ABCD", params4)
    for size in range(1, 5):
        for S in combinations("ABCD", size):
            for j in S:
                got = float(choice_probability(dist4, S, j))
                assert abs(got - params4.per_size_choice_prob(size)) < 1e-9
    assert check_history_monotone(dist4, tol=1e-9).holds
    # chain-fit gap
    assert abs(nl_markov_fit_gap(1.0, 1.0)) < 1e-12
    assert abs(nl_markov_fit_gap(1.0, 0.5)) > 1e-6
    _report(12, "nested-logit constructions match the closed form within 1e-9 "
                "and satisfy the condition; chain-fit gap 0 at gamma=1, "
                "nonzero at gamma=1/2")


def test_criterion_13_integral_vertices():
    rng = random.Random(2024_13)
    for trial in range(50):
        n = rng.choice([3, 3, 4, 4, 5])
        inst = random_instance(rng, n_min=n, n_max=n, max_lists=6)
        vertex = solve_lp(build_set_function_lp(inst)).assignment
        assert all(v in (Fraction(0), Fraction(1)) for v in vertex.values()), f"trial {trial}"
    _report(13, "set-function LP vertex optima are 0/1 on 50 random "
                "instances (n <= 5)")


def test_criterion_14_monotonicity_binds_on_mixture():
    inst = singleton_mixture()
    _, value = optimal_policy_bruteforce(inst)
    assert value == 1
    non_monotone = lambda j, H: (j == "B" and not H) or j == "C"
    assert stopping_rule_revenue(inst, non_monotone) == Fraction(3, 2)
    _report(14, "mixture instance: best monotone policy 1 vs non-monotone "
                "stop rule 3/2")
