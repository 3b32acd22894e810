import hashlib
import random
from fractions import Fraction

import pytest

from fixedprice import (
    Instance,
    ListDistribution,
    MarkovChainParams,
    MnlParams,
    NestStructure,
    SymmetricNlParams,
    build_tree_diagram,
    choice_probability,
    check_history_monotone,
    gen_elimination_by_aspects,
    gen_markov_chain,
    gen_mnl,
    gen_nested_logit_3item,
    gen_nested_logit_4item_symmetric,
    mix_with_singletons,
    nested_logit_choice_prob,
    nl_markov_fit_gap,
    validate_distribution,
)
from fixedprice import choice_models
from fixedprice.choice_models import _expand
from fixedprice.core import _list_key
from fixedprice.errors import (
    CapExceededError,
    InfeasibleTreeError,
    InvalidInstanceError,
    NonAbsorbingChainError,
)

from .helpers import equal_weight_chain_params, random_instance, random_sparse_chain


def subsets(items):
    from itertools import combinations

    for size in range(1, len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, size))


class TestMnl:
    def test_equal_weights_reproduce_uniform_tree(self):
        dist = gen_mnl("ABC", MnlParams({"A": 1, "B": 1, "C": 1}, 1))
        tree = build_tree_diagram(dist)
        assert tree.q(("B",)) == Fraction(1, 4)
        assert tree.q(("B", "C")) == Fraction(1, 3)
        assert tree.q(("B", "C", "A")) == Fraction(1, 2)

    def test_single_item_even_odds(self):
        dist = gen_mnl(["1"], MnlParams({"1": 1}, 1))
        assert dist.probability(("1",)) == Fraction(1, 2)
        assert dist.probability(()) == Fraction(1, 2)

    def test_two_item_product_formula(self):
        dist = gen_mnl(["1", "2"], MnlParams({"1": 2, "2": 1}, 1))
        assert dist.probability(("1", "2")) == Fraction(2, 4) * Fraction(1, 2)

    def test_support_in_preorder_of_items(self):
        # The order follows the items, not set iteration, so it is the same
        # under every hash seed.
        dist = gen_mnl("ABC", MnlParams({"A": 1, "B": 2, "C": 3}, 1))
        assert [lst.entries for lst in dist.support] == [
            (), ("A",), ("A", "B"), ("A", "B", "C"), ("A", "C"), ("A", "C", "B"),
            ("B",), ("B", "A"), ("B", "A", "C"), ("B", "C"), ("B", "C", "A"),
            ("C",), ("C", "A"), ("C", "A", "B"), ("C", "B"), ("C", "B", "A"),
        ]

    def test_cap(self):
        items = [f"i{k}" for k in range(9)]
        with pytest.raises(CapExceededError):
            gen_mnl(items, MnlParams({j: 1 for j in items}, 1))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            gen_mnl("AB", MnlParams({"A": 0, "B": 1}, 1))

    def test_ids_with_the_same_text_rejected_before_expansion(self, monkeypatch):
        def expand(*args):
            raise AssertionError("the support was expanded")

        monkeypatch.setattr(choice_models, "_expand", expand)
        with pytest.raises(InvalidInstanceError, match="same text"):
            gen_mnl([1, "1"], MnlParams({1: 1, "1": 2}, 1))

    def test_closed_form_choice_probabilities(self):
        rng = random.Random(5)
        for _ in range(10):
            items = ["A", "B", "C"]
            w = {j: Fraction(rng.randint(1, 5)) for j in items}
            w0 = Fraction(rng.randint(1, 5))
            dist = gen_mnl(items, MnlParams(w, w0))
            for S in subsets(items):
                for j in S:
                    expect = w[j] / (w0 + sum(w[k] for k in S))
                    assert choice_probability(dist, S, j) == expect


class TestMarkovChain:
    def test_matches_equal_weight_urn(self):
        mnl = gen_mnl("ABC", MnlParams({j: 1 for j in "ABC"}, 1))
        chain = gen_markov_chain("ABC", equal_weight_chain_params())
        assert mnl == chain

    def test_all_mass_on_empty_list(self):
        params = MarkovChainParams({"1": Fraction(0)}, {"1": {}})
        dist = gen_markov_chain(["1"], params)
        assert dist.probability(()) == 1

    def test_direct_absorption(self):
        params = MarkovChainParams(
            {"1": Fraction(1, 2), "2": Fraction(1, 2)}, {"1": {}, "2": {}}
        )
        dist = gen_markov_chain(["1", "2"], params)
        assert dist.probability(("1",)) == Fraction(1, 2)
        assert dist.probability(("2",)) == Fraction(1, 2)

    def test_non_absorbing_rejected(self):
        params = MarkovChainParams(
            {"1": Fraction(1, 2), "2": Fraction(1, 2)},
            {"1": {"2": Fraction(1)}, "2": {"1": Fraction(1)}},
        )
        with pytest.raises(NonAbsorbingChainError):
            gen_markov_chain(["1", "2"], params)

    def test_outputs_satisfy_condition(self):
        rng = random.Random(31)
        for _ in range(50):
            inst, _ = random_sparse_chain(rng, rng.randint(2, 5))
            assert check_history_monotone(inst.dist).holds


class TestEliminationByAspects:
    def test_singleton_nests_reduce_to_plain_urn(self):
        # with every nest a singleton the lock is vacuous
        params = MnlParams({j: Fraction(k + 1) for k, j in enumerate("ABC")}, 2)
        nests = NestStructure([frozenset(j) for j in "ABC"])
        eba = gen_elimination_by_aspects("ABC", params, nests)
        mnl = gen_mnl("ABC", params)
        assert eba == mnl
        assert list(eba.support) == list(mnl.support)

    def test_support_in_preorder_of_items(self):
        params = MnlParams({"1": 1, "2": 2, "3": 1}, 1)
        nests = NestStructure([frozenset(["2", "3"]), frozenset(["1"])])
        dist = gen_elimination_by_aspects(["1", "2", "3"], params, nests)
        assert [lst.entries for lst in dist.support] == [
            (), ("1",), ("1", "2", "3"), ("1", "3", "2"), ("2", "3"), ("2", "3", "1"),
            ("3", "2"), ("3", "2", "1"),
        ]

    def test_two_singleton_nests_unit_weights(self):
        params = MnlParams({"1": 1, "2": 1}, 1)
        nests = NestStructure([frozenset(["1"]), frozenset(["2"])])
        dist = gen_elimination_by_aspects(["1", "2"], params, nests)
        assert dist.probability(("1", "2")) == Fraction(1, 3) * Fraction(1, 2)

    def test_nests_never_interleave(self):
        params = MnlParams({"1": 1, "2": 2, "3": 1}, 1)
        nests = NestStructure([frozenset(["1", "2"]), frozenset(["3"])])
        dist = gen_elimination_by_aspects(["1", "2", "3"], params, nests)
        for lst in dist.support:
            entries = lst.entries
            if "1" in entries and "2" in entries:
                a, b = entries.index("1"), entries.index("2")
                assert abs(a - b) == 1

    def test_entered_nests_complete(self):
        params = MnlParams({"1": 1, "2": 2, "3": 1}, 1)
        nests = NestStructure([frozenset(["1", "2"]), frozenset(["3"])])
        dist = gen_elimination_by_aspects(["1", "2", "3"], params, nests)
        for lst in dist.support:
            assert ("1" in lst.entries) == ("2" in lst.entries)

    def test_outputs_satisfy_condition(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 5)
            items = [chr(65 + k) for k in range(n)]
            params = MnlParams({j: Fraction(rng.randint(1, 4)) for j in items},
                               Fraction(rng.randint(1, 3)))
            nests = []
            pool = items[:]
            rng.shuffle(pool)
            while pool:
                size = rng.randint(1, min(3, len(pool)))
                nests.append(frozenset(pool[:size]))
                pool = pool[size:]
            dist = gen_elimination_by_aspects(items, params, NestStructure(nests))
            assert check_history_monotone(dist).holds


class TestMixture:
    def test_zero_alpha_is_identity(self):
        dist = ListDistribution({("A", "B"): Fraction(1)})
        assert mix_with_singletons(dist, {"A": 0}) == dist

    def test_half_singleton(self):
        dist = ListDistribution({("A", "B", "C"): Fraction(1)})
        mixed = mix_with_singletons(dist, {"B": Fraction(1, 2)})
        assert mixed == ListDistribution(
            {("A", "B", "C"): Fraction(1, 2), ("B",): Fraction(1, 2)}
        )

    def test_total_alpha_one_replaces_distribution(self):
        dist = ListDistribution({("A", "B"): Fraction(1)})
        mixed = mix_with_singletons(dist, {"A": 1})
        assert mixed == ListDistribution({("A",): Fraction(1)})

    def test_excess_alpha_rejected(self):
        dist = ListDistribution({("A",): Fraction(1)})
        with pytest.raises(InvalidInstanceError):
            mix_with_singletons(dist, {"A": Fraction(2, 3), "B": Fraction(1, 2)})

    def test_preserves_condition(self):
        rng = random.Random(17)
        for _ in range(20):
            inst, _ = random_sparse_chain(rng, rng.randint(2, 4))
            assert check_history_monotone(inst.dist).holds
            alpha = {}
            budget = Fraction(1, 4)
            for j in inst.items[:2]:
                a = Fraction(rng.randint(0, 2), 8)
                a = min(a, budget)
                alpha[j] = a
                budget -= a
            mixed = mix_with_singletons(inst.dist, alpha)
            assert check_history_monotone(mixed).holds


class TestNestedLogit:
    def test_unit_dissimilarity_is_plain_logit(self):
        params = MnlParams({"A": 2, "B": 1, "C": 3}, 2)
        nests = NestStructure([frozenset("ABC")], [1.0])
        for S in subsets("ABC"):
            for j in S:
                got = nested_logit_choice_prob(params, nests, S, j)
                want = 2.0 if j == "A" else (1.0 if j == "B" else 3.0)
                total = 2 + sum({"A": 2, "B": 1, "C": 3}[k] for k in S)
                assert got == pytest.approx(want / total, abs=1e-12)

    def test_singleton_half(self):
        params = MnlParams({"A": 1}, 1)
        for gamma in (0.25, 0.5, 1.0):
            nests = NestStructure([frozenset("A")], [gamma])
            assert nested_logit_choice_prob(params, nests, {"A"}, "A") == pytest.approx(0.5)

    def test_full_nest_of_three(self):
        params = MnlParams({"A": 1, "B": 1, "C": 1}, 1)
        gamma = 0.6
        nests = NestStructure([frozenset("ABC")], [gamma])
        got = nested_logit_choice_prob(params, nests, set("ABC"), "A")
        assert got == pytest.approx(1.0 / (3 * (1 + 3 ** (-gamma))), abs=1e-12)

    def test_three_item_construction_matches_plain_logit_at_gamma_one(self):
        params = MnlParams({"A": 1, "B": 1, "C": 1}, 1)
        dist = gen_nested_logit_3item("ABC", params, 1.0)
        mnl = gen_mnl("ABC", params)
        for lst, p in mnl.support.items():
            assert abs(float(dist.probability(lst.entries) - p)) < 1e-12

    def test_three_item_construction_matches_choice_probs(self):
        for weights, gamma in [
            ({"A": 1, "B": 1, "C": 1}, 0.5),
            ({"A": 2, "B": 1, "C": Fraction(1, 2)}, 0.7),
            ({"A": 3, "B": 1, "C": 2}, 0.3),
        ]:
            params = MnlParams(weights, 1)
            nests = NestStructure([frozenset("ABC")], [gamma])
            dist = gen_nested_logit_3item("ABC", params, gamma)
            assert validate_distribution(dist).ok
            for S in subsets("ABC"):
                for j in S:
                    got = float(choice_probability(dist, S, j))
                    want = nested_logit_choice_prob(params, nests, S, j)
                    assert abs(got - want) < 1e-9

    def test_three_item_construction_satisfies_condition(self):
        params = MnlParams({"A": 1, "B": 2, "C": 1}, 1)
        dist = gen_nested_logit_3item("ABC", params, 0.5)
        assert check_history_monotone(dist, tol=1e-9).holds

    def test_four_item_base_depth_equals_full_offer_probability(self):
        params = SymmetricNlParams(1.5, 0.45, 4)
        dist = gen_nested_logit_4item_symmetric("ABCD", params)
        tree = build_tree_diagram(dist)
        assert abs(float(tree.q(("A",))) - params.per_size_choice_prob(4)) < 1e-12

    def test_four_item_matches_plain_logit_at_gamma_one(self):
        dist = gen_nested_logit_4item_symmetric("ABCD", SymmetricNlParams(1.0, 1.0, 4))
        mnl = gen_mnl("ABCD", MnlParams({j: 1 for j in "ABCD"}, 1))
        for lst, p in mnl.support.items():
            assert abs(float(dist.probability(lst.entries) - p)) < 1e-12

    def test_four_item_matches_choice_probs_all_assortments(self):
        params = SymmetricNlParams(1.0, 0.5, 4)
        dist = gen_nested_logit_4item_symmetric("ABCD", params)
        for S in subsets("ABCD"):
            for j in S:
                got = float(choice_probability(dist, S, j))
                want = params.per_size_choice_prob(len(S))
                assert abs(got - want) < 1e-9

    def test_four_item_satisfies_condition(self):
        dist = gen_nested_logit_4item_symmetric("ABCD", SymmetricNlParams(1.0, 0.5, 4))
        assert check_history_monotone(dist, tol=1e-9).holds


class TestMarkovFitGap:
    def test_zero_at_unit_dissimilarity(self):
        assert abs(nl_markov_fit_gap(1.0, 1.0)) < 1e-12

    def test_nonzero_at_half(self):
        assert abs(nl_markov_fit_gap(1.0, 0.5)) > 1e-6

    def test_gap_closes_toward_unit_dissimilarity(self):
        g_half = abs(nl_markov_fit_gap(1.0, 0.5))
        g_09 = abs(nl_markov_fit_gap(1.0, 0.9))
        g_099 = abs(nl_markov_fit_gap(1.0, 0.99))
        assert g_half > g_09 > g_099


class TestGeneratorsValidate:
    def test_all_generators_emit_valid_distributions(self):
        rng = random.Random(41)
        outputs = [
            gen_mnl("ABC", MnlParams({"A": 2, "B": 1, "C": 1}, 1)),
            gen_markov_chain("ABC", equal_weight_chain_params()),
            gen_elimination_by_aspects(
                "ABC",
                MnlParams({"A": 1, "B": 1, "C": 1}, 1),
                NestStructure([frozenset("AB"), frozenset("C")]),
            ),
            gen_nested_logit_3item("ABC", MnlParams({"A": 1, "B": 1, "C": 1}, 1), 0.5),
            gen_nested_logit_4item_symmetric("ABCD", SymmetricNlParams(2.0, 0.8, 4)),
        ]
        for _ in range(5):
            inst, _ = random_sparse_chain(rng, rng.randint(2, 5))
            outputs.append(inst.dist)
        for dist in outputs:
            assert validate_distribution(dist).ok


def support_digest(dist) -> str:
    """sha256 of the support sorted by ``_list_key``, with exact values; it
    does not depend on the support's order."""
    rows = sorted(dist.support.items(), key=lambda kv: _list_key(kv[0].entries))
    text = "\n".join(f"{lst.entries!r} {p}" for lst, p in rows)
    return hashlib.sha256(text.encode()).hexdigest()


EBA_PARAMS = MnlParams({"A": 1, "B": 2, "C": 3, "D": 1}, 1)
NL3_PARAMS = MnlParams({"A": 2, "B": 1, "C": Fraction(1, 2)}, 1)
PINNED_GENERATORS = {
    **{f"mnl-{n}": (lambda n=n: gen_mnl("ABCDE"[:n], MnlParams(
        {j: k + 1 for k, j in enumerate("ABCDE"[:n])}, Fraction(3, 2)))) for n in range(1, 6)},
    "eba-pairs": lambda: gen_elimination_by_aspects(
        "ABCD", EBA_PARAMS, NestStructure(["AB", "CD"])),
    "eba-one-three": lambda: gen_elimination_by_aspects(
        "ABCD", EBA_PARAMS, NestStructure(["A", "BCD"])),
    "markov-zero-arrivals": lambda: gen_markov_chain("ABC", MarkovChainParams(
        {"A": Fraction(1, 3), "B": 0, "C": Fraction(1, 2)},
        {"A": {"B": Fraction(1, 4), "C": 0}, "B": {"A": Fraction(1, 3), "C": Fraction(1, 3)},
         "C": {"B": Fraction(1, 2)}})),
    "markov-zero-transitions": lambda: gen_markov_chain("ABC", MarkovChainParams(
        {"A": Fraction(1, 4), "B": Fraction(1, 4), "C": Fraction(1, 4)}, {})),
    **{f"nl3-{g}": (lambda g=g: gen_nested_logit_3item("ABC", NL3_PARAMS, g))
       for g in (0.5, 0.75, 1.0)},
    **{f"nl4-{w}": (lambda w=w: gen_nested_logit_4item_symmetric(
        "ABCD", SymmetricNlParams(w, 0.5, 4))) for w in (0.5, 1.0, 2.0)},
}
# Recorded before the generators shared one tree expander.
PINNED_DIGESTS = {
    "mnl-1": "727733be497deafd0f67b7b1e6570cc8d47089008f21aec403c87d61c5f8ceaa",
    "mnl-2": "83ce39e6a4f4c1e3be2599e45a5a60f83eb7a641fb50e5661a234f3e3645f0a8",
    "mnl-3": "80ba61447c100289fd0d48d0c3fcd1c753d74505218f0aa2f399db58c075b98e",
    "mnl-4": "53906e96804f7479c6ddc9a0969e7264ca63e87387c481b686c31388094a1ed1",
    "mnl-5": "d4098921c197dc6d3738c714b97482dd372f15b82dd95f5d914afb0b23a16ca3",
    "eba-pairs": "bd51423a3e73eeabc0cc121e0a46f94fcd38451c1bbd437a00e86e6256d1abdc",
    "eba-one-three": "f71783e1a8be5db9a5a5ed1946d375908c01be46e9498909a91e365d88668d9b",
    "markov-zero-arrivals": "cda53844fbbcdc42bc86680bed5aeaed14e758c13f71ec205ddc9d90fba6c85c",
    "markov-zero-transitions": "c966e9e8c2c4e9299459c8a443a6c5c43f3338375accfb3f99c6e19a15bfa3a2",
    "nl3-0.5": "49886e4744c1ae75f489c191b7544abed7d485917315acb3e66691859088a7ca",
    "nl3-0.75": "8126a5ba0d35a77647b69aeea28fe061bfbce7a23ab68d86a747906e9479625f",
    "nl3-1.0": "64da4de4070c0efbfc7a1ea3e581da8ba93aba21e468e7981cb8dc75bed44ee1",
    "nl4-0.5": "1bbae3cf97b6e73ede93206c16b7522703eda717c327d68b7af6933ecd78db2d",
    "nl4-1.0": "a6b3670cc7f512dc7d80857b36f5cb1aeac599ae5721b8bae99139b4b57c3680",
    "nl4-2.0": "e1abe680aee2685ebef739a9894deea18ffd42894e1b2d6ff536644605a01308",
}


@pytest.mark.parametrize("name", sorted(PINNED_GENERATORS))
def test_generator_output_pinned(name):
    assert support_digest(PINNED_GENERATORS[name]()) == PINNED_DIGESTS[name]


def tree_step(dist):
    """An ``_expand`` step that walks ``dist``'s tree diagram by prefix."""
    tree = build_tree_diagram(dist)

    def step(prefix):
        children = tree.children(prefix)
        return tree.stop_mass(prefix), [(c.entries[-1], tree.q(c), c.entries) for c in children]

    return step


class TestExpand:
    def test_tree_diagram_round_trip(self):
        rng = random.Random(53)
        dists = [random_instance(rng).dist for _ in range(30)]
        dists += [make() for make in PINNED_GENERATORS.values()]
        for dist in dists:
            assert _expand((), tree_step(dist)) == dist

    def test_negative_chance_raises(self):
        def step(prefix):
            if prefix:
                return Fraction(1), []
            moves = [("A", Fraction(3, 4), ("A",)), ("B", Fraction(-1, 4), ("B",))]
            return Fraction(1, 2), moves

        with pytest.raises(InfeasibleTreeError, match="-1/4"):
            _expand((), step)

    def test_moves_past_one_raise(self):
        def step(prefix):
            moves = [] if prefix else [(j, Fraction(2, 3), (j,)) for j in "AB"]
            return 1 - sum(p for _, p, _ in moves), moves

        with pytest.raises(InfeasibleTreeError, match="stop chance -1/3"):
            _expand((), step)

    def test_zero_chance_moves_are_not_followed(self):
        def step(prefix):
            if prefix:
                raise AssertionError(f"visited {prefix}")
            return Fraction(1), [("A", Fraction(0), ("A",))]

        assert _expand((), step) == ListDistribution({(): Fraction(1)})


@pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
def test_symmetric_nl_rejects_non_finite_weight(w):
    with pytest.raises(InvalidInstanceError, match="finite"):
        SymmetricNlParams(w, 0.5, 4)
