"""Stopping policies on the prefix tree, and why monotonicity matters.

Walking the buyer's list top-down and deciding per item whether to sell is
an optimal-stopping problem.  Policies that may see only the unordered
history, and whose stop sets are upward closed in it, bound IC-mechanism
revenue from above; the constant policies are exactly assortments.

The 50-50 mixture of (A,B,C) with the singleton (B) (prices 0, 1, 2) shows
the monotonicity constraint binding: stopping on B with an empty history
but not after seeing A would earn 3/2, but it is not monotone, and the best
monotone policy earns only 1 -- the best assortment value.
"""

from fractions import Fraction

from fixedprice import (
    Instance,
    ListDistribution,
    MarkovChainParams,
    MonotoneStoppingPolicy,
    assortment_revenue,
    gen_markov_chain,
    markov_stopping_assortment,
    optimal_assortment,
    optimal_policy_bruteforce,
    policy_revenue,
    stopping_rule_revenue,
)

mix = Instance(
    "ABC", {"A": 0, "B": 1, "C": 2},
    ListDistribution({("A", "B", "C"): Fraction(1, 2), ("B",): Fraction(1, 2)}),
)

non_monotone = lambda j, seen: (j == "B" and not seen) or j == "C"
print("non-monotone stop-on-(B)-only rule earns:",
      stopping_rule_revenue(mix, non_monotone))

policy, value = optimal_policy_bruteforce(mix)
print("best monotone policy earns:", value)
print("its stop generators:", {j: [sorted(g) for g in gens]
                               for j, gens in policy.generators.items()})

const = MonotoneStoppingPolicy.from_assortment(mix.items, {"C"})
print("constant policy for {C} earns:", policy_revenue(mix, const),
      "= assortment revenue:", assortment_revenue(mix, {"C"}))

# On chain-generated lists the stop set can be found on the chain itself, by
# one exact LP for the least value function above the prices, and it
# recovers the enumerated assortment optimum.
third = Fraction(1, 3)
params = MarkovChainParams(
    {j: Fraction(1, 4) for j in "ABC"},
    {j: {k: third for k in "ABC" if k != j} for j in "ABC"},
)
prices = {"A": 2, "B": 1, "C": 1}
stop_set, values = markov_stopping_assortment(params, prices)
inst = Instance("ABC", prices, gen_markov_chain("ABC", params))
print("\nchain stop set:", sorted(stop_set), "values:",
      {j: str(v) for j, v in sorted(values.items())})
print("same revenue as enumeration:",
      assortment_revenue(inst, stop_set) == optimal_assortment(inst)[1])
