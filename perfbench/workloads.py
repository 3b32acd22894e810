"""The three workloads: seeded inputs, the operations run on them, and checks.

A workload is a list of rounds; a round is a list of operations.  Every
operation calls one public entry point of fixedprice through its module
attribute (so the tracer's wrappers are used when tracing is on) and comes
with a check that runs outside the timed span.  Rounds are generated up
front from ``--seed``; the runner cycles through them, whole rounds at a
time, until the time is up.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from fixedprice import choice_models, cli, core, extensions, lotteries, mechanism_lp, stopping

from oracle import Oracle, WrongResult, fmt, names

ITEMS = "ABCDEFGHIJKL"


@dataclass
class Op:
    key: str  # names the input; equal keys must give equal results
    kind: str  # operation type, e.g. "solve_mechanism_lp"
    call: Callable[[], object]  # the timed call
    check: Callable[[object, Oracle], dict]  # untimed; returns an exact summary
    expect_error: bool = False  # malformed input: the only right answer is an error


@dataclass
class Workload:
    name: str
    rounds: List[List[Op]]
    tail_percentile: float
    # (group, labels): values recorded under these labels must not decrease
    orders: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)


def _rng(workload: str, seed: int, part) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _distribution(rng: random.Random, lists) -> core.ListDistribution:
    weights = [rng.randint(1, 6) for _ in lists]
    total = sum(weights)
    return core.ListDistribution([(l, Fraction(w, total)) for l, w in zip(lists, weights)])


def _support(rng: random.Random, items, m: int, max_len: int) -> list:
    """``m`` distinct lists whose lengths cycle 1, 2, ..., max_len."""
    lists, seen = [], set()
    for i in range(m):
        length = min(len(items), 1 + i % max_len)
        while True:
            lst = tuple(rng.sample(items, length))
            if lst not in seen:
                break
        seen.add(lst)
        lists.append(lst)
    return lists


def _prices(rng: random.Random, items) -> dict:
    return {j: Fraction(rng.randint(2, 10), 2) for j in items}


# ---------------------------------------------------------------------------
# mech_lp: exact LP solves
# ---------------------------------------------------------------------------

# (items, lists) per instance of a round.  The three 6-item set-function LPs
# and the (5, 12) mechanism LP are the slowest operations of a round; the p90
# tail falls among them.
MECH_SHAPES = ((5, 6), (6, 8), (5, 10), (6, 10), (5, 12), (6, 12))
MECH_ROUNDS = 16


def _mech_checks(inst, group: str):
    def check_mech(result, oracle: Oracle) -> dict:
        value, mech = result
        report = mechanism_lp.verify_ic(inst, mech)
        oracle.expect(report.ok, f"{group}: mechanism fails verify_ic")
        revenue = mechanism_lp.mechanism_revenue(inst, mech)
        oracle.expect(revenue == value, f"{group}: revenue {fmt(revenue)} != value {fmt(value)}")
        oracle.highs(f"{group}/x", mechanism_lp.build_mechanism_lp(inst), value)
        opt_s = oracle.once((group, "S"), lambda: core.optimal_assortment(inst)[1])
        oracle.value(group, "S", opt_s)
        oracle.value(group, "x", value)
        return {"value": fmt(value), "vertex": _digest(mechanism_lp.mechanism_to_json(mech))}

    def check_bm(result, oracle: Oracle) -> dict:
        value, sol = result
        oracle.highs(f"{group}/bm", mechanism_lp.build_bm_lp(inst), value)
        oracle.value(group, "bm", value)
        return {"value": fmt(value),
                "vertex": _digest(sorted((k, fmt(v)) for k, v in sol.assignment.items()))}

    def check_f(result, oracle: Oracle) -> dict:
        value, f = result
        oracle.expect(f.monotone_witness() is None, f"{group}: set function not monotone")
        revenue = mechanism_lp.set_function_revenue(inst, f)
        oracle.expect(revenue == value, f"{group}: f revenue {fmt(revenue)} != {fmt(value)}")
        oracle.highs(f"{group}/f", mechanism_lp.build_set_function_lp(inst), value)
        oracle.value(group, "f", value)
        return {"value": fmt(value),
                "vertex": _digest(sorted((names(S), fmt(v)) for S, v in f.values.items()))}

    return check_mech, check_bm, check_f


def _multibuyer_instance(rng: random.Random, n: int, sizes) -> extensions.MultiBuyerInstance:
    items = ITEMS[:n]
    buyers = []
    for m in sizes:
        lists = set()
        while len(lists) < m:
            lists.add(tuple(rng.sample(items, rng.randint(1, n))))
        buyers.append(_distribution(rng, sorted(lists)))
    return extensions.MultiBuyerInstance(items, _prices(rng, items), buyers)


def _mb_check(inst, group: str, mode: str):
    def check(result, oracle: Oracle) -> dict:
        value, sol = result
        lp, _ = extensions.build_multibuyer_lp(inst, mode)
        oracle.highs(f"{group}/{mode}", lp, value)
        oracle.value(group, mode, value)
        return {"value": fmt(value),
                "vertex": _digest(sorted((k, fmt(v)) for k, v in sol.assignment.items()))}
    return check


def build_mech_lp(seed: int, workdir: str, root: str) -> Workload:
    wl = Workload("mech_lp", [], tail_percentile=90.0)
    for r in range(MECH_ROUNDS):
        rng = _rng("mech_lp", seed, r)
        ops = []
        for i, (n, m) in enumerate(MECH_SHAPES):
            items = ITEMS[:n]
            inst = core.Instance(items, _prices(rng, items),
                                 _distribution(rng, _support(rng, items, m, 4)))
            group = f"r{r}/i{i}"
            wl.orders += [(group, ("S", "x", "bm")), (group, ("x", "f"))]
            check_mech, check_bm, check_f = _mech_checks(inst, group)
            ops.append(Op(f"{group}/x", "solve_mechanism_lp",
                             lambda inst=inst: mechanism_lp.solve_mechanism_lp(inst), check_mech))
            ops.append(Op(f"{group}/bm", "solve_bm_lp",
                            lambda inst=inst: mechanism_lp.solve_bm_lp(inst), check_bm))
            ops.append(Op(f"{group}/f", "solve_set_function_lp",
                             lambda inst=inst: mechanism_lp.solve_set_function_lp(inst), check_f))
        mb = _multibuyer_instance(rng, 3, (3, 3))
        group = f"r{r}/mb"
        wl.orders.append((group, ("dsic", "bic")))
        for mode in ("dsic", "bic"):
            ops.append(Op(f"{group}/{mode}", f"solve_multibuyer_lp.{mode}",
                            lambda mb=mb, mode=mode: extensions.solve_multibuyer_lp(mb, mode),
                            _mb_check(mb, group, mode)))
        wl.rounds.append(ops)
    return wl


# ---------------------------------------------------------------------------
# enum_mnl: enumeration, no LP
# ---------------------------------------------------------------------------

ENUM_ROUNDS = 3
BIG_SUPPORT_LISTS = 40
BIG_TOPK_K = 2  # the all-k search at n = 12 takes about 17 s per call


def _mnl(rng: random.Random, n: int):
    items = ITEMS[:n]
    params = choice_models.MnlParams(
        {j: Fraction(rng.randint(1, 5)) for j in items}, Fraction(rng.randint(1, 4))
    )
    return items, params, _prices(rng, items)


def _non_monotone(rng: random.Random, m: int) -> core.ListDistribution:
    """Random five-item support that violates the condition (checked here)."""
    items = ITEMS[:5]
    while True:
        lists = set()
        while len(lists) < m:
            lists.add(tuple(rng.sample(items, rng.randint(1, 5))))
        dist = _distribution(rng, sorted(lists))
        if not stopping.check_history_monotone(dist).holds:
            return dist


def _witness_is_violation(dist, report) -> bool:
    w = report.witness
    lhs = core.choice_probability(dist, w.assortment, w.item, given=w.prefix)
    rhs = core.choice_probability(dist, w.assortment, w.item, given=w.other)
    return lhs < rhs


def _assortment_check(inst, group: str):
    def check(result, oracle: Oracle) -> dict:
        S, value = result
        again = core.assortment_revenue(inst, S)
        oracle.expect(again == value, f"{group}: assortment revenue {fmt(again)} != {fmt(value)}")
        k1 = oracle.once((group, "k1"), lambda: lotteries.best_topk_lottery(inst, k=1)[2])
        oracle.expect(k1 == value, f"{group}: top-1 value {fmt(k1)} != OPT^S {fmt(value)}")
        oracle.value(group, "S", value)
        return {"value": fmt(value), "set": names(S)}
    return check


def _topk_check(inst, group: str, k: Optional[int]):
    def check(result, oracle: Oracle) -> dict:
        kk, S, value = result
        oracle.expect(k is None or kk == k, f"{group}: asked k={k}, got {kk}")
        again = lotteries.topk_lottery_value(inst, kk, S)
        oracle.expect(again == value, f"{group}: top-k value {fmt(again)} != {fmt(value)}")
        if k is None:
            oracle.value(group, "S", oracle.once((group, "S"),
                                                  lambda: core.optimal_assortment(inst)[1]))
            oracle.value(group, "topk", value)
        return {"value": fmt(value), "k": kk, "set": names(S)}
    return check


def _policy_check(inst, group: str):
    def check(result, oracle: Oracle) -> dict:
        policy, value = result
        again = stopping.policy_revenue(inst, policy)
        oracle.expect(again == value, f"{group}: policy revenue {fmt(again)} != {fmt(value)}")
        oracle.value(group, "policy", value)
        gens = {str(j): sorted(names(g) for g in gs) for j, gs in policy.generators.items()}
        return {"value": fmt(value), "policy": gens}
    return check


def _gen_check(expected, group: str):
    def check(result, oracle: Oracle) -> dict:
        oracle.expect(result == expected, f"{group}: gen_mnl output changed")
        return {"lists": len(result.support),
                "digest": _digest(sorted([list(map(str, l.entries)), fmt(p)]
                                         for l, p in result.support.items()))}
    return check


def _hm_check(dist, group: str, holds: bool):
    def check(report, oracle: Oracle) -> dict:
        oracle.expect(report.holds == holds, f"{group}: condition holds={report.holds}")
        if not holds:
            oracle.expect(_witness_is_violation(dist, report),
                          f"{group}: witness is not a violation")
        return report.to_json()
    return check


def build_enum_mnl(seed: int, workdir: str, root: str) -> Workload:
    wl = Workload("enum_mnl", [], tail_percentile=90.0)
    for r in range(ENUM_ROUNDS):
        rng = _rng("enum_mnl", seed, r)
        ops = []
        for u, n in enumerate((4, 4, 5, 5)):
            items, params, prices = _mnl(rng, n)
            dist = choice_models.gen_mnl(items, params)
            inst = core.Instance(items, prices, dist)
            group = f"r{r}/urn{u}"
            wl.orders += [(group, ("S", "topk")), (group, ("S", "policy"))]
            ops.append(Op(f"{group}/gen", "gen_mnl",
                            lambda items=items, params=params: choice_models.gen_mnl(items, params),
                            _gen_check(dist, group)))
            ops.append(
                Op(f"{group}/hm", "check_history_monotone",
                   lambda d=dist: stopping.check_history_monotone(d), _hm_check(dist, group, True)))
            ops.append(
                Op(f"{group}/S", "optimal_assortment",
                   lambda inst=inst: core.optimal_assortment(inst), _assortment_check(inst, group)))
            ops.append(Op(f"{group}/topk", "best_topk_lottery",
                          lambda inst=inst: lotteries.best_topk_lottery(inst),
                          _topk_check(inst, group, None)))
            if n == 4:
                ops.append(Op(f"{group}/policy", "optimal_policy_bruteforce",
                              lambda inst=inst: stopping.optimal_policy_bruteforce(inst),
                              _policy_check(inst, group)))
        for v, m in enumerate((8, 12, 20)):
            dist = _non_monotone(rng, m)
            group = f"r{r}/nm{v}"
            ops.append(Op(f"{group}/hm", "check_history_monotone",
                          lambda d=dist: stopping.check_history_monotone(d),
                          _hm_check(dist, group, False)))
        for b, n in enumerate((10, 11, 12)):
            items = [f"I{i:02d}" for i in range(n)]
            inst = core.Instance(items, {j: Fraction(rng.randint(1, 9)) for j in items},
                                 _distribution(rng, _support(rng, items, BIG_SUPPORT_LISTS, 4)))
            group = f"r{r}/big{b}"
            ops.append(Op(f"{group}/S", "optimal_assortment",
                          lambda inst=inst: core.optimal_assortment(inst),
                          _assortment_check(inst, group)))
            ops.append(Op(f"{group}/topk", "best_topk_lottery",
                          lambda inst=inst: lotteries.best_topk_lottery(inst, k=BIG_TOPK_K),
                          _topk_check(inst, group, BIG_TOPK_K)))
        wl.rounds.append(ops)
    return wl


# ---------------------------------------------------------------------------
# cli_json: the JSON command line, in-process
# ---------------------------------------------------------------------------

CLI_ROUNDS = 3
FIXTURE_INSTANCES = (
    "condition_violation_minimal",
    "equal_weight_mnl3",
    "four_item_clash",
    "history_monotone_tree",
    "price_ladder_n4",
    "robust_menu_instance",
    "singleton_mixture",
)
# Values the paper's worked instances must show in the JSON reports.
PINNED = {
    ("four_item_clash", "solve-assortment"): "7/6",
    ("four_item_clash", "solve-mech"): "5/4",
    ("four_item_clash", "solve-topk"): "5/4",
    ("robust_menu_instance", "solve-mech"): "21/16",
    ("robust_menu_instance", "robust-menu"): "11/8",
    ("two_buyer_two_item", "multibuyer-dsic"): "16/9",
    ("two_buyer_two_item", "multibuyer-bic"): "16/9",
    ("two_buyer_two_item", "multibuyer-ttc"): "16/9",
}
# The mechanism LP of this fixture takes about a second.  Its mechanism verbs
# (solve --what mech, compare, check ic/containment/submodular, robust) would
# take most of a round's time and tie ops_per_s and op_tail_ms to three
# operations, so they run on the other fixtures only; its remaining verbs run.
SLOW_LP_FIXTURES = {"equal_weight_mnl3"}
# `robust` without --menu solves the mechanism LP and evaluates the menu it
# gives; on these fixtures that takes a few ms (0.2-1.4 s on the others).
ROBUST_FIXTURES = ("condition_violation_minimal", "singleton_mixture")
# Verbs whose report shows the LP vertex, not only the optimal value.
VERTEX_VERBS = {"solve-mech", "solve-f", "check-ic", "check-containment",
                "check-submodular", "robust"}
MALFORMED = {
    "unhashable_id": {"items": [{"id": ["A"], "price": "1"}],
                      "lists": [{"items": [], "prob": "1"}]},
    "zero_denominator_price": {"items": [{"id": "A", "price": "1/0"}],
                               "lists": [{"items": ["A"], "prob": "1"}]},
    "overflowing_price": {"items": [{"id": "A", "price": "1e400"}],
                          "lists": [{"items": ["A"], "prob": "1"}]},
    "missing_price": {"items": [{"id": "A"}],
                      "lists": [{"items": ["A"], "prob": "1"}]},
}


def call_cli(argv: List[str]):
    """Run ``fixedprice.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _one_json(text: str, what: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 1:
        raise WrongResult(f"expected one JSON line on {what}, got {len(lines)}")
    try:
        obj = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise WrongResult(f"{what} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise WrongResult(f"{what} is not a JSON object")
    return obj


def _cli_check(name: str, verb: str, codes=(0,), then=None):
    """Check exit code, one JSON report, pinned values, then ``then(report)``."""
    def check(result, oracle: Oracle) -> dict:
        code, out, err = result
        oracle.expect(code in codes, f"{name} {verb}: exit {code}, stderr {err.strip()[:200]}")
        if code == 1:
            report = _one_json(err, "stderr")
            oracle.expect(set(report) == {"error"}, f"{name} {verb}: bad error object")
            oracle.expect(out == "", f"{name} {verb}: output beside an error")
            return {"exit": code, "error": True}
        report = _one_json(out, "stdout")
        pinned = PINNED.get((name, verb))
        if pinned is not None:
            oracle.expect(report.get("value") == pinned,
                          f"{name} {verb}: value {report.get('value')} != {pinned}")
        if "holds" in report:
            oracle.expect((code == 0) == bool(report["holds"]), f"{name} {verb}: exit/holds disagree")
        if then is not None:
            then(report, oracle)
        if verb in VERTEX_VERBS:
            # These reports depend on which optimal vertex the simplex returns.
            return {"exit": code, "value": report.get("value"), "vertex": _digest(report)}
        return {"exit": code, "report": report}
    return check


def _record(group: str, label: str):
    def then(report, oracle: Oracle):
        oracle.value(group, label, Fraction(report["value"]))
    return then


def _fixture_path(root: str, name: str) -> str:
    return os.path.join(root, "fixtures", name + ".json")


def _mech_file_writer(inst, group: str, path: str):
    """Check a ``solve --what mech`` report and write its mechanism for later verbs."""
    def then(report, oracle: Oracle):
        mech = mechanism_lp.mechanism_from_json(report["mechanism"], items=inst.items)
        oracle.expect(mechanism_lp.verify_ic(inst, mech).ok, f"{group}: mechanism fails verify_ic")
        value = Fraction(report["value"])
        oracle.expect(mechanism_lp.mechanism_revenue(inst, mech) == value,
                      f"{group}: mechanism revenue differs from the reported value")
        oracle.value(group, "x", value)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report["mechanism"], fh)
    return then


def _assortment_then(inst, group: str):
    def then(report, oracle: Oracle):
        S, value = oracle.once((group, "S"), lambda: core.optimal_assortment(inst))
        oracle.expect(report["value"] == fmt(value), f"{group}: CLI {report['value']} != {fmt(value)}")
        oracle.expect(report["assortment"] == names(S), f"{group}: CLI assortment differs")
        oracle.value(group, "S", value)
    return then


def _gen_assortment_then(path: str, group: str):
    def then(report, oracle: Oracle):
        with open(path, encoding="utf-8") as fh:
            inst = core.load_instance(fh.read())
        S, value = core.optimal_assortment(inst)
        oracle.expect(report["value"] == fmt(value), f"{group}: CLI {report['value']} != {fmt(value)}")
        oracle.expect(report["assortment"] == names(S), f"{group}: CLI assortment differs")
    return then


def _compare_then(group: str):
    def then(report, oracle: Oracle):
        oracle.value(group, "cmp_S", Fraction(report["opt_assortment"]))
        oracle.value(group, "cmp_x", Fraction(report["opt_mechanism"]))
        oracle.value(group, "bm", Fraction(report["opt_bm"]))
    return then


def _gen_descriptors(rng: random.Random) -> dict:
    def weights(items):
        return {j: rng.randint(1, 5) for j in items}

    def prices(items):
        return {j: str(Fraction(rng.randint(2, 10), 2)) for j in items}

    def explicit(n):
        items = list(ITEMS[:n])
        lists = sorted({tuple(rng.sample(items, rng.randint(1, n))) for _ in range(2 * n)})
        w = [rng.randint(1, 6) for _ in lists]
        return {"items": [{"id": j, "price": p} for j, p in prices(items).items()],
                "lists": [{"items": list(l), "prob": fmt(Fraction(x, sum(w)))}
                          for l, x in zip(lists, w)]}

    four = list(ITEMS[:4])
    three = list(ITEMS[:3])
    return {
        "mnl": {"model": "mnl", "items": four, "weights": weights(four),
                "w0": rng.randint(1, 3), "prices": prices(four)},
        "markov": {"model": "markov", "items": three, "prices": prices(three),
                   "arrivals": {j: fmt(Fraction(rng.randint(1, 3), 12)) for j in three},
                   "transitions": {j: {k: fmt(Fraction(rng.randint(1, 3), 12))
                                       for k in three if k != j} for j in three}},
        "eba": {"model": "eba", "items": four, "weights": weights(four),
                "w0": rng.randint(1, 3), "prices": prices(four),
                "nests": [four[:2], four[2:]]},
        "nl3": {"model": "nl3", "items": three, "weights": weights(three),
                "w0": rng.randint(1, 3), "prices": prices(three),
                "gamma": rng.choice([0.5, 0.6, 0.75])},
        "nl4sym": {"model": "nl4sym", "items": four, "prices": prices(four),
                   "w": rng.choice([0.5, 1.0, 2.0]), "gamma": rng.choice([0.5, 0.6, 0.75])},
        "mixture": {"model": "mixture", "base": {"model": "explicit", "instance": explicit(3)},
                    "alpha": {"A": fmt(Fraction(rng.randint(1, 3), 8))}},
        "topk-gap": {"model": "topk-gap", "n": rng.randint(3, 4), "M": str(rng.randint(10, 100))},
        "explicit": {"model": "explicit", "instance": explicit(4)},
    }


# Chain, urn and nest-locked urn models satisfy the condition by construction.
HOLDS_BY_MODEL = {"mnl": True, "markov": True, "eba": True}


def build_cli_json(seed: int, workdir: str, root: str) -> Workload:
    wl = Workload("cli_json", [], tail_percentile=97.0)
    bad_paths = {}
    for label, obj in MALFORMED.items():
        bad_paths[label] = os.path.join(workdir, f"malformed_{label}.json")
        with open(bad_paths[label], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    fixtures = {}
    for name in FIXTURE_INSTANCES:
        path = _fixture_path(root, name)
        with open(path, encoding="utf-8") as fh:
            fixtures[name] = (path, core.load_instance(fh.read()))
        group = f"fix/{name}"
        wl.orders += [(group, chain) for chain in (
            ("S", "x", "bm"), ("cmp_S", "S", "cmp_S"), ("cmp_x", "x", "cmp_x"),
            ("x", "f"), ("S", "topk"), ("S", "policy"))]
    wl.orders.append(("fix/two_buyer", ("dsic", "bic")))

    for r in range(CLI_ROUNDS):
        rng = _rng("cli_json", seed, r)
        ops = []

        def op(name, verb, argv, check, expect_error=False):
            ops.append(Op(f"{name}/{verb}", verb, lambda argv=argv: call_cli(argv), check,
                          expect_error))

        for name, (path, inst) in fixtures.items():
            group = f"fix/{name}"
            mech_path = os.path.join(workdir, f"mech_{name}.json")
            inst_args = ["--instance", path]
            op(name, "solve-assortment", ["solve", "--what", "assortment", *inst_args],
               _cli_check(name, "solve-assortment", then=_assortment_then(inst, group)))
            slow = name in SLOW_LP_FIXTURES
            if not slow:
                op(name, "solve-mech", ["solve", "--what", "mech", *inst_args],
                   _cli_check(name, "solve-mech", then=_mech_file_writer(inst, group, mech_path)))
            op(name, "solve-f", ["solve", "--what", "f", *inst_args],
               _cli_check(name, "solve-f", then=_record(group, "f")))
            op(name, "solve-topk", ["solve", "--what", "topk", *inst_args],
               _cli_check(name, "solve-topk", then=_record(group, "topk")))
            if len(inst.items) <= stopping.POLICY_ITEM_CAP:
                op(name, "solve-policy", ["solve", "--what", "policy", *inst_args],
                   _cli_check(name, "solve-policy", then=_record(group, "policy")))
            op(name, "check-history-monotone",
               ["check", "--what", "history-monotone", *inst_args],
               _cli_check(name, "check-history-monotone", codes=(0, 2)))
            if slow:
                continue
            op(name, "compare", ["compare", "--lps", *inst_args],
               _cli_check(name, "compare", then=_compare_then(group)))
            for what in ("ic", "containment", "submodular"):
                codes = (0, 2) if what == "submodular" else (0,)
                op(name, f"check-{what}",
                   ["check", "--what", what, *inst_args, "--mechanism", mech_path],
                   _cli_check(name, f"check-{what}", codes=codes))
        rmi_path = fixtures["robust_menu_instance"][0]
        op("robust_menu_instance", "robust-menu",
           ["robust", "--instance", rmi_path, "--menu", _fixture_path(root, "robust_menu")],
           _cli_check("robust_menu_instance", "robust-menu"))
        for name in ROBUST_FIXTURES:
            op(name, "robust", ["robust", "--instance", fixtures[name][0]],
               _cli_check(name, "robust"))
        mb_path = _fixture_path(root, "two_buyer_two_item")
        for what, extra in (("dsic", []), ("bic", []),
                            ("ttc", ["--endowments", '{"0": "B", "1": "A"}']),
                            ("sd", ["--order", "[0, 1]"])):
            verb = f"multibuyer-{what}"
            then = _record("fix/two_buyer", what) if what in ("dsic", "bic") else None
            op("two_buyer_two_item", verb,
               ["multibuyer", "--what", what, "--instance", mb_path, *extra],
               _cli_check("two_buyer_two_item", verb, then=then))

        for model, desc in _gen_descriptors(rng).items():
            name = f"r{r}/gen-{model}"
            out_path = os.path.join(workdir, f"gen_r{r}_{model}.json")
            op(name, "gen", ["gen", "--params", json.dumps(desc), "-o", out_path],
               _cli_check(name, "gen"))
            op(name, "solve-assortment", ["solve", "--what", "assortment",
                                          "--instance", out_path],
               _cli_check(name, "solve-assortment", then=_gen_assortment_then(out_path, name)))
            holds = HOLDS_BY_MODEL.get(model)
            tol = ["--tolerance", "1e-9"] if model.startswith("nl") else []
            op(name, "check-history-monotone",
               ["check", "--what", "history-monotone", "--instance", out_path, *tol],
               _cli_check(name, "check-history-monotone",
                          codes=(0, 2) if holds is None else (0,)))
        for label, path in bad_paths.items():
            op(f"malformed/{label}", "solve-assortment",
               ["solve", "--what", "assortment", "--instance", path],
               _cli_check(f"malformed/{label}", "solve-assortment", codes=(1,)),
               expect_error=True)
        wl.rounds.append(ops)
    return wl


BUILDERS = {"mech_lp": build_mech_lp, "enum_mnl": build_enum_mnl, "cli_json": build_cli_json}


def build(name: str, seed: int, workdir: str, root: str) -> Workload:
    """Generate the rounds of workload ``name`` from ``seed``."""
    return BUILDERS[name](seed, workdir, root)
