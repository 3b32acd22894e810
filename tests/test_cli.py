import argparse
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import fixedprice
from fixedprice import choice_models as cm
from fixedprice import core, extensions, load_instance, lotteries, mechanism_lp
from fixedprice.cli import main
from fixedprice.core import Instance, dump_instance
from fixedprice.rational import format_rational

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out.startswith("{") else out)


class TestSolve:
    def test_assortment_on_clash_fixture(self, capsys):
        code, out = run(
            capsys, "solve", "--what", "assortment",
            "--instance", fixture("four_item_clash.json"),
        )
        assert code == 0
        assert out["value"] == "7/6"
        assert out["assortment"] == ["A", "B"]

    def test_mechanism_value(self, capsys):
        code, out = run(
            capsys, "solve", "--what", "mech",
            "--instance", fixture("four_item_clash.json"),
        )
        assert code == 0 and out["value"] == "5/4"

    def test_topk(self, capsys):
        code, out = run(
            capsys, "solve", "--what", "topk",
            "--instance", fixture("four_item_clash.json"),
        )
        assert code == 0 and out["value"] == "5/4" and out["k"] == 2

    def test_policy(self, capsys):
        code, out = run(
            capsys, "solve", "--what", "policy",
            "--instance", fixture("singleton_mixture.json"),
        )
        assert code == 0 and out["value"] == "1"

    def test_policy_with_no_items(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"items": [], "lists": [{"items": [], "prob": "1"}]}))
        code, out = run(capsys, "solve", "--what", "policy", "--instance", str(path))
        assert code == 0 and out["value"] == "0" and out["policy"] == {}

    def test_set_function_relaxation(self, capsys):
        code, out = run(
            capsys, "solve", "--what", "f",
            "--instance", fixture("four_item_clash.json"),
        )
        assert code == 0 and out["value"] == "3/2"


class TestCheck:
    def test_condition_failure_exits_two(self, capsys):
        code, out = run(
            capsys, "check", "--what", "history-monotone",
            "--instance", fixture("condition_violation_minimal.json"),
        )
        assert code == 2
        assert out["witness"] == {
            "rho": ["C", "B"], "rho_prime": ["B"], "S": ["A"], "j": "A"
        }

    def test_condition_pass_exits_zero(self, capsys):
        code, out = run(
            capsys, "check", "--what", "history-monotone",
            "--instance", fixture("history_monotone_tree.json"),
        )
        assert code == 0 and out["holds"]

    def test_ic_check_with_mechanism_file(self, capsys, tmp_path):
        mech = {"alloc": [
            {"list": ["B", "A"], "probs": {"B": "1/2", "A": "1/2"}},
            {"list": ["C", "A"], "probs": {"C": "1/2", "A": "1/2"}},
            {"list": ["D", "A"], "probs": {"D": "1/2", "A": "1/2"}},
            {"list": ["C", "B"], "probs": {"C": "1/2", "B": "1/2"}},
            {"list": ["D", "B"], "probs": {"D": "1/2", "B": "1/2"}},
            {"list": ["D", "C"], "probs": {"D": "1/2", "C": "1/2"}},
        ]}
        path = tmp_path / "mech.json"
        path.write_text(json.dumps(mech))
        code, out = run(
            capsys, "check", "--what", "ic",
            "--instance", fixture("four_item_clash.json"),
            "--mechanism", str(path),
        )
        assert code == 0 and out["holds"]

    def test_ic_violation_exits_two(self, capsys, tmp_path):
        mech = {"alloc": [
            {"list": ["B", "A"], "probs": {"A": "1"}},
            {"list": ["C", "A"], "probs": {}},
            {"list": ["D", "A"], "probs": {}},
            {"list": ["C", "B"], "probs": {}},
            {"list": ["D", "B"], "probs": {}},
            {"list": ["D", "C"], "probs": {}},
        ]}
        path = tmp_path / "mech.json"
        path.write_text(json.dumps(mech))
        code, out = run(
            capsys, "check", "--what", "ic",
            "--instance", fixture("four_item_clash.json"),
            "--mechanism", str(path),
        )
        assert code == 2 and not out["holds"]

    def test_containment_check(self, capsys, tmp_path):
        mech = {"alloc": [
            {"list": ["B", "A"], "probs": {"B": "1/2", "A": "1/2"}},
            {"list": ["C", "A"], "probs": {"C": "1/2", "A": "1/2"}},
            {"list": ["D", "A"], "probs": {"D": "1/2", "A": "1/2"}},
            {"list": ["C", "B"], "probs": {"C": "1/2", "B": "1/2"}},
            {"list": ["D", "B"], "probs": {"D": "1/2", "B": "1/2"}},
            {"list": ["D", "C"], "probs": {"D": "1/2", "C": "1/2"}},
        ]}
        path = tmp_path / "mech.json"
        path.write_text(json.dumps(mech))
        code, out = run(
            capsys, "check", "--what", "containment",
            "--instance", fixture("four_item_clash.json"),
            "--mechanism", str(path),
        )
        assert code == 0 and out["holds"]
        assert out["z"] == {j: "1/2" for j in "ABCD"}

    def test_failing_containment_exits_two(self, capsys, tmp_path):
        inst = {
            "items": [{"id": "A", "price": "1"}, {"id": "B", "price": "1"}],
            "lists": [{"items": ["A", "B"], "prob": "1/2"},
                      {"items": ["A"], "prob": "1/2"}],
        }
        mech = {"alloc": [
            {"list": ["A", "B"], "probs": {"B": "1"}},
            {"list": ["A"], "probs": {"A": "1"}},
        ]}
        inst_path, mech_path = tmp_path / "inst.json", tmp_path / "mech.json"
        inst_path.write_text(json.dumps(inst))
        mech_path.write_text(json.dumps(mech))
        code, out = run(
            capsys, "check", "--what", "containment",
            "--instance", str(inst_path), "--mechanism", str(mech_path),
        )
        assert code == 2 and out["holds"] is False
        assert "exclusion cap" in out["detail"]

    def test_negative_allocation_fails_containment(self, capsys, tmp_path):
        # x = -1/2 meets every inclusion row; the bound x >= 0 does not hold.
        mech = {"alloc": [{"list": ["B", "A"], "probs": {"A": "-1/2"}}]
                + [{"list": list(lst), "probs": {}} for lst in ("CA", "CB", "DA", "DB", "DC")]}
        path = tmp_path / "mech.json"
        path.write_text(json.dumps(mech))
        code, out = run(
            capsys, "check", "--what", "containment",
            "--instance", fixture("four_item_clash.json"), "--mechanism", str(path),
        )
        assert code == 2 and out["holds"] is False
        assert out["detail"] == "negative allocation on list ('B', 'A')"


# An IC mechanism on a three-list instance whose induced set function is not
# submodular.
SUPERMODULAR_INSTANCE = {
    "items": [{"id": j, "price": "1"} for j in "ABC"],
    "lists": [{"items": ["A", "B"], "prob": "1/3"},
              {"items": ["B", "C", "A"], "prob": "1/3"},
              {"items": ["A"], "prob": "1/3"}],
}
SUPERMODULAR_MECH = {"alloc": [
    {"list": ["A", "B"], "probs": {"A": "1/2", "B": "1/4"}},
    {"list": ["B", "C", "A"], "probs": {"B": "1/2", "C": "1/2"}},
    {"list": ["A"], "probs": {"A": "1/2"}},
]}
HALF_MECH = {"alloc": [
    {"list": lst, "probs": {lst[0]: "1/2", lst[1]: "1/2"}}
    for lst in (["B", "A"], ["C", "A"], ["D", "A"], ["C", "B"], ["D", "B"], ["D", "C"])
]}


class TestSubmodularCheck:
    @pytest.mark.parametrize("inst_doc, mech_doc, holds", [
        (SUPERMODULAR_INSTANCE, SUPERMODULAR_MECH, False),
        (None, HALF_MECH, True),
    ])
    def test_report_matches_the_set_function_witness(self, capsys, tmp_path,
                                                     inst_doc, mech_doc, holds):
        inst_path = fixture("four_item_clash.json")
        if inst_doc is not None:
            inst_path = tmp_path / "inst.json"
            inst_path.write_text(json.dumps(inst_doc))
        mech_path = tmp_path / "mech.json"
        mech_path.write_text(json.dumps(mech_doc))
        code, out = run(capsys, "check", "--what", "submodular",
                        "--instance", str(inst_path), "--mechanism", str(mech_path))
        with open(inst_path) as fh:
            inst = load_instance(fh.read())
        mech = mechanism_lp.mechanism_from_json(mech_doc, items=inst.items)
        witness = mechanism_lp.mechanism_to_set_function(inst, mech).submodular_witness()
        assert (witness is None) == holds
        if holds:
            assert (code, out) == (0, {"holds": True})
        else:
            S, j, jp = witness
            assert code == 2 and out == {
                "holds": False, "witness": {"S": sorted(S), "j": j, "jp": jp}}


class TestCompare:
    def test_chain_order(self, capsys):
        code, out = run(
            capsys, "compare", "--lps",
            "--instance", fixture("four_item_clash.json"),
        )
        assert code == 0
        s = Fraction(out["opt_assortment"])
        x = Fraction(out["opt_mechanism"])
        bm = Fraction(out["opt_bm"])
        assert s <= x <= bm


class TestGen:
    def test_gen_parse_round_trip_is_byte_stable(self, capsys, tmp_path):
        desc = {
            "model": "mnl",
            "items": ["A", "B", "C"],
            "weights": {"A": 1, "B": 1, "C": 1},
            "w0": 1,
            "prices": {"A": "2", "B": "1", "C": "1"},
        }
        out_path = tmp_path / "inst.json"
        code, _ = run(
            capsys, "gen", "--params", json.dumps(desc), "-o", str(out_path)
        )
        assert code == 0
        text = out_path.read_text()
        from fixedprice import dump_instance

        assert dump_instance(load_instance(text)) == text

    def test_gen_matches_fixture(self, capsys, tmp_path):
        desc = {
            "model": "mnl",
            "items": ["A", "B", "C"],
            "weights": {"A": 1, "B": 1, "C": 1},
            "w0": 1,
            "prices": {"A": "2", "B": "1", "C": "1"},
        }
        out_path = tmp_path / "inst.json"
        run(capsys, "gen", "--params", json.dumps(desc), "-o", str(out_path))
        with open(fixture("equal_weight_mnl3.json")) as fh:
            assert out_path.read_text() == fh.read()

    def test_gen_topk_gap(self, capsys, tmp_path):
        desc = {"model": "topk-gap", "n": 4, "M": "100"}
        out_path = tmp_path / "gap.json"
        code, _ = run(capsys, "gen", "--params", json.dumps(desc), "-o", str(out_path))
        assert code == 0
        with open(fixture("price_ladder_n4.json")) as fh:
            assert out_path.read_text() == fh.read()

    def test_gen_model_option_overrides_the_descriptor(self, capsys, tmp_path):
        out_path = tmp_path / "gap.json"
        code, _ = run(capsys, "gen", "--model", "topk-gap", "--params",
                      json.dumps({"model": "mnl", "n": 3, "M": "10"}), "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == dump_instance(lotteries.gen_topk_gap_instance(3, 10))

    def test_gen_mixture(self, capsys, tmp_path):
        desc = {
            "model": "mixture",
            "alpha": {"B": "1/2"},
            "base": {
                "model": "explicit",
                "instance": {
                    "items": [
                        {"id": "A", "price": "0"},
                        {"id": "B", "price": "1"},
                        {"id": "C", "price": "2"},
                    ],
                    "lists": [{"items": ["A", "B", "C"], "prob": 1}],
                },
            },
        }
        out_path = tmp_path / "mix.json"
        code, _ = run(capsys, "gen", "--params", json.dumps(desc), "-o", str(out_path))
        assert code == 0
        with open(fixture("singleton_mixture.json")) as fh:
            assert out_path.read_text() == fh.read()


MNL_FIELDS = {"weights": {"A": 1, "B": 2, "C": 3, "D": 1}, "w0": 2}
MNL_PARAMS = cm.MnlParams({"A": Fraction(1), "B": Fraction(2), "C": Fraction(3),
                           "D": Fraction(1)}, Fraction(2))
PRICES = {"A": "2", "B": "1", "C": "3/2", "D": "1"}
INT_PRICES_JSON = {"1": "2", "2": "1", "3": "3/2"}
INT_PRICES = {1: Fraction(2), 2: Fraction(1), 3: Fraction(3, 2)}


def extreme_weight_mnl(weight: str):
    """A two-item MNL descriptor whose weight of A is exact but far outside
    the float range, and the instance it must give."""
    desc = {"model": "mnl", "items": ["A", "B"], "weights": {"A": weight, "B": 1},
            "prices": {"A": "1", "B": "1"}}
    params = cm.MnlParams({"A": Fraction(weight), "B": Fraction(1)}, Fraction(1))
    return desc, lambda: Instance(["A", "B"], {"A": 1, "B": 1}, cm.gen_mnl(["A", "B"], params))


# A descriptor of each generated model, and the instance it must give.
GEN_MODELS = {
    "mnl-huge-weight": extreme_weight_mnl("1e400"),
    "mnl-tiny-weight": extreme_weight_mnl("1e-400"),
    "markov": (
        {"model": "markov", "items": ["A", "B"], "prices": {"A": "2", "B": "1"},
         "arrivals": {"A": "1/2", "B": "1/4"},
         "transitions": {"A": {"B": "1/3"}, "B": {"A": "1/2"}}},
        lambda: Instance(["A", "B"], {"A": 2, "B": 1}, cm.gen_markov_chain(
            ["A", "B"], cm.MarkovChainParams(
                {"A": Fraction(1, 2), "B": Fraction(1, 4)},
                {"A": {"B": Fraction(1, 3)}, "B": {"A": Fraction(1, 2)}})))),
    "eba": (
        {"model": "eba", "items": list("ABCD"), "prices": PRICES, **MNL_FIELDS,
         "nests": [["A", "B"], ["C", "D"]]},
        lambda: Instance(list("ABCD"), PRICES, cm.gen_elimination_by_aspects(
            list("ABCD"), MNL_PARAMS,
            cm.NestStructure([frozenset("AB"), frozenset("CD")])))),
    "nl3": (
        {"model": "nl3", "items": list("ABC"), "prices": PRICES, **MNL_FIELDS,
         "gamma": 0.5},
        lambda: Instance(list("ABC"), PRICES, cm.gen_nested_logit_3item(
            list("ABC"), MNL_PARAMS, 0.5))),
    "nl4sym": (
        {"model": "nl4sym", "items": list("ABCD"), "prices": PRICES, "w": 1.0,
         "gamma": 0.6},
        lambda: Instance(list("ABCD"), PRICES, cm.gen_nested_logit_4item_symmetric(
            list("ABCD"), cm.SymmetricNlParams(1.0, 0.6, 4)))),
    # A JSON float base is taken exactly.
    "topk-gap": ({"model": "topk-gap", "n": 3, "M": 10.5},
                 lambda: lotteries.gen_topk_gap_instance(3, 10.5)),
    # Integer item ids: the descriptor's objects spell them as string keys,
    # and "0" stays the outside option.
    "mnl-int": (
        {"model": "mnl", "items": [1, 2, 3], "weights": {"1": 1, "2": 2, "3": 3},
         "w0": 2, "prices": {"1": "2", "2": "1", "3": "3/2"}},
        lambda: Instance([1, 2, 3], INT_PRICES, cm.gen_mnl([1, 2, 3], cm.MnlParams(
            {1: Fraction(1), 2: Fraction(2), 3: Fraction(3)}, Fraction(2))))),
    "markov-int": (
        {"model": "markov", "items": [1, 2], "prices": {"1": "2", "2": "1"},
         "arrivals": {"0": "1/4", "1": "1/2", "2": "1/4"},
         "transitions": {"1": {"0": "1/2", "2": "1/3"}, "2": {"1": "1/2"}}},
        lambda: Instance([1, 2], INT_PRICES, cm.gen_markov_chain(
            [1, 2], cm.MarkovChainParams(
                {1: Fraction(1, 2), 2: Fraction(1, 4)},
                {1: {2: Fraction(1, 3)}, 2: {1: Fraction(1, 2)}})))),
    "eba-int": (
        {"model": "eba", "items": [1, 2, 3, 4], "prices": {**INT_PRICES_JSON, "4": "1"},
         "weights": {"1": 1, "2": 2, "3": 3, "4": 1}, "w0": 2, "nests": [[1, 2], [3, 4]]},
        lambda: Instance([1, 2, 3, 4], {**INT_PRICES, 4: 1}, cm.gen_elimination_by_aspects(
            [1, 2, 3, 4], cm.MnlParams({1: 1, 2: 2, 3: 3, 4: 1}, 2),
            cm.NestStructure([frozenset({1, 2}), frozenset({3, 4})])))),
    "mixture-int": (
        {"model": "mixture", "alpha": {"2": "1/2"}, "prices": INT_PRICES_JSON,
         "base": {"model": "explicit", "instance": {
             "items": [{"id": j, "price": "1"} for j in (1, 2, 3)],
             "lists": [{"items": [1, 2, 3], "prob": 1}]}}},
        lambda: Instance([1, 2, 3], INT_PRICES, cm.mix_with_singletons(
            core.ListDistribution({(1, 2, 3): 1}), {2: Fraction(1, 2)}))),
}


@pytest.mark.parametrize("model", sorted(GEN_MODELS))
def test_gen_without_output_writes_the_instance(capsys, model):
    desc, expected = GEN_MODELS[model]
    assert main(["gen", "--params", json.dumps(desc)]) == 0
    captured = capsys.readouterr()
    assert captured.out == dump_instance(expected()) and captured.err == ""


@pytest.mark.parametrize("model", sorted(m for m in GEN_MODELS if m.endswith("-int")))
def test_gen_integer_ids_round_trip_through_solve(capsys, tmp_path, model):
    desc, expected = GEN_MODELS[model]
    path = tmp_path / "inst.json"
    code, _ = run(capsys, "gen", "--params", json.dumps(desc), "-o", str(path))
    assert code == 0
    ids = [entry["id"] for entry in json.loads(path.read_text())["items"]]
    assert ids and all(type(j) is int for j in ids)
    S, value = core.optimal_assortment(expected())
    code, out = run(capsys, "solve", "--what", "assortment", "--instance", str(path))
    assert code == 0 and out["value"] == format_rational(value)
    assert out["assortment"] == sorted(map(str, S))


MIXED_ID_MULTIBUYER = {
    "items": [{"id": "A", "price": "2"}, {"id": 1, "price": "1"}],
    "buyers": [[{"items": ["A", 1], "prob": "1/2"}, {"items": [1], "prob": "1/2"}],
               [{"items": [1, "A"], "prob": "1/3"}, {"items": ["A"], "prob": "2/3"}]],
}


class TestRobustAndMultibuyer:
    def test_robust_menu_values(self, capsys):
        code, out = run(
            capsys, "robust",
            "--instance", fixture("robust_menu_instance.json"),
            "--menu", fixture("robust_menu.json"),
        )
        assert code == 0
        assert out["value"] == "11/8"
        assert out["exposable_counts"]["2,5,1"] == 2

    def test_robust_menu_with_mixed_item_ids(self, capsys, tmp_path):
        inst = {"items": [{"id": "A", "price": "1"}, {"id": 1, "price": "2"}],
                "lists": [{"items": ["A", 1], "prob": "1/2"},
                          {"items": [1], "prob": "1/2"}]}
        menu = {"entries": [{"alloc": {"A": "1"}}, {"alloc": {"1": "1"}}]}
        (tmp_path / "inst.json").write_text(json.dumps(inst))
        (tmp_path / "menu.json").write_text(json.dumps(menu))
        code, out = run(
            capsys, "robust", "--instance", str(tmp_path / "inst.json"),
            "--menu", str(tmp_path / "menu.json"),
        )
        assert code == 0 and out["value"] == "3/2" and out["menu_size"] == 3

    def test_robust_from_optimal_mechanism(self, capsys):
        code, out = run(
            capsys, "robust", "--instance", fixture("robust_menu_instance.json"),
        )
        assert code == 0 and out["value"] == "21/16"

    def test_robust_from_mechanism_file(self, capsys, tmp_path):
        path = tmp_path / "mech.json"
        path.write_text(json.dumps(HALF_MECH))
        code, out = run(capsys, "robust", "--instance", fixture("four_item_clash.json"),
                        "--mechanism", str(path))
        with open(fixture("four_item_clash.json")) as fh:
            inst = load_instance(fh.read())
        menu = extensions.mechanism_to_menu(
            inst, mechanism_lp.mechanism_from_json(HALF_MECH, items=inst.items))
        assert code == 0 and out["menu_size"] == len(menu)
        assert Fraction(out["value"]) == extensions.robust_revenue(inst, menu)

    @pytest.mark.parametrize("argv", [
        ["--instance", fixture("robust_menu_instance.json"), "--menu", fixture("robust_menu.json")],
        ["--instance", fixture("singleton_mixture.json")],
        ["--instance", fixture("condition_violation_minimal.json")],
    ])
    def test_robust_solves_each_exposability_lp_once(self, capsys, monkeypatch, argv):
        calls = []
        solve_lp = extensions.solve_lp

        def counting_solve_lp(lp):
            calls.append(lp)
            return solve_lp(lp)

        monkeypatch.setattr(extensions, "solve_lp", counting_solve_lp)
        code, out = run(capsys, "robust", *argv)
        assert code == 0
        assert len(calls) == len(out["exposable_counts"]) * out["menu_size"]

    def test_multibuyer_lp_and_fixed_mechanisms(self, capsys, tmp_path):
        mixed_path = tmp_path / "mixed.json"
        mixed_path.write_text(json.dumps(MIXED_ID_MULTIBUYER))
        cases = [
            # (instance, endowments, dsic, bic, ttc, sd)
            (fixture("two_buyer_two_item.json"), '{"0": "B", "1": "A"}',
             "16/9", "16/9", "16/9", "5/3"),
            # Item ids "A" and 1 in one instance.
            (str(mixed_path), '{"0": "A", "1": 1}', "3", "3", "7/3", "8/3"),
        ]
        for path, endowments, dsic, bic, ttc, sd in cases:
            code, out = run(capsys, "multibuyer", "--what", "dsic", "--instance", path)
            assert code == 0 and out["value"] == dsic
            code, out = run(capsys, "multibuyer", "--what", "bic", "--instance", path)
            assert code == 0 and out["value"] == bic
            code, out = run(
                capsys, "multibuyer", "--what", "ttc", "--instance", path,
                "--endowments", endowments,
            )
            assert code == 0 and out["value"] == ttc
            code, out = run(
                capsys, "multibuyer", "--what", "sd", "--instance", path,
                "--order", "[0, 1]",
            )
            assert code == 0 and out["value"] == sd


def assert_error_report(capsys, tmp_path, doc) -> str:
    """Solving ``doc`` exits 1 with only a JSON error object on stderr."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--what", "assortment", "--instance", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    report = json.loads(captured.err)
    assert list(report) == ["error"]
    return report["error"]


MALFORMED = {
    "unhashable_id": {"items": [{"id": ["A"], "price": "1"}],
                      "lists": [{"items": [], "prob": "1"}]},
    "zero_denominator_price": {"items": [{"id": "A", "price": "1/0"}],
                               "lists": [{"items": ["A"], "prob": "1"}]},
    "overflowing_price": {"items": [{"id": "A", "price": "1e400"}],
                          "lists": [{"items": ["A"], "prob": "1"}]},
    "missing_price": {"items": [{"id": "A"}],
                      "lists": [{"items": ["A"], "prob": "1"}]},
    "item_not_an_object": {"items": [1], "lists": [{"items": [], "prob": "1"}]},
    "items_not_a_list": {"items": {"A": 1}, "lists": [{"items": [], "prob": "1"}]},
    "lists_not_a_list": {"items": [{"id": "A", "price": "1"}], "lists": 5},
    "nested_list_entry": {"items": [{"id": "A", "price": "1"}],
                          "lists": [{"items": [["A"]], "prob": "1"}]},
    "string_as_list": {"items": [{"id": "A", "price": "1"}, {"id": "B", "price": "2"}],
                       "lists": [{"items": "BA", "prob": "1"}]},
    "duplicate_id": {"items": [{"id": "A", "price": "1"}, {"id": "A", "price": "3"}],
                     "lists": [{"items": ["A"], "prob": "1"}]},
    "ids_with_the_same_text": {"items": [{"id": 1, "price": "1"}, {"id": "1", "price": "3"}],
                               "lists": [{"items": [1], "prob": "1/2"},
                                         {"items": ["1"], "prob": "1/2"}]},
}

# The path each shape error must name.
MALFORMED_PATH = {
    "unhashable_id": "items[0].id",
    "zero_denominator_price": "items[0].price",
    "missing_price": 'items[0]: missing "price"',
    "item_not_an_object": "items[0]: expected an object",
    "items_not_a_list": "items: expected a list",
    "lists_not_a_list": "lists: expected a list",
    "nested_list_entry": "lists[0].items",
    "string_as_list": "lists[0].items",
    "duplicate_id": "duplicate item ids",
    "ids_with_the_same_text": "duplicate item ids",
}


# JSON nested past the interpreter's recursion limit.
DEEP = "[" * 100_000

# Malformed mechanism, menu and multi-buyer documents: (verb arguments before
# the file, option naming the file, document or raw JSON text, path the error
# must name).
MALFORMED_OTHER = {
    "multibuyer_duplicate_id": (["multibuyer", "--what", "dsic"], "--instance",
                                {"items": [{"id": "A", "price": "1"}, {"id": "A", "price": "3"}],
                                 "buyers": [[{"items": ["A"], "prob": "1"}]]},
                                "duplicate item ids"),
    "mechanism_nested_too_deep": (["check", "--what", "ic", "--instance",
                                   fixture("four_item_clash.json")], "--mechanism",
                                  DEEP, "--mechanism: malformed JSON"),
    "menu_nested_too_deep": (["robust", "--instance",
                              fixture("robust_menu_instance.json")], "--menu",
                             DEEP, "--menu: malformed JSON"),
    "multibuyer_nested_too_deep": (["multibuyer", "--what", "dsic"], "--instance",
                                   DEEP, "--instance: malformed JSON"),
    "alloc_not_a_list": (["check", "--what", "ic", "--instance",
                          fixture("four_item_clash.json")], "--mechanism",
                         {"alloc": 5}, "alloc: expected a list"),
    "alloc_entry_not_an_object": (["check", "--what", "ic", "--instance",
                                   fixture("four_item_clash.json")], "--mechanism",
                                  {"alloc": [1]}, "alloc[0]: expected an object"),
    "menu_entries_not_a_list": (["robust", "--instance",
                                 fixture("robust_menu_instance.json")], "--menu",
                                {"entries": 5}, "entries: expected a list"),
    "buyers_not_a_list": (["multibuyer", "--what", "dsic"], "--instance",
                          {"items": [{"id": "A", "price": "1"}], "buyers": 5},
                          "buyers: expected a list"),
    "buyer_list_not_an_object": (["multibuyer", "--what", "dsic"], "--instance",
                                 {"items": [{"id": "A", "price": "1"}], "buyers": [[1]]},
                                 "buyers[0][0]: expected an object"),
}


def gen_argv(desc) -> list:
    return ["gen", "--params", json.dumps(desc)]


MNL_DESC = {"model": "mnl", "items": ["A"], "weights": {"A": 1}, "prices": {"A": "1"}}
MB_FIXTURE = fixture("two_buyer_two_item.json")
NL4_DESC = {"model": "nl4sym", "items": list("ABCD"), "prices": PRICES, "w": 1.0,
            "gamma": 0.5}

# Malformed gen descriptors and multibuyer arguments: (argv, path the error
# must name).
MALFORMED_ARGS = {
    "descriptor_not_an_object": (gen_argv(5), "descriptor: expected an object"),
    "descriptor_list_with_model": (["gen", "--model", "mnl", "--params", "[1]"],
                                   "descriptor: expected an object"),
    "weights_not_an_object": (gen_argv({**MNL_DESC, "weights": 5}),
                              "weights: expected an object"),
    "items_not_a_list": (gen_argv({**MNL_DESC, "items": 5}), "items"),
    "nests_not_a_list": (gen_argv({**MNL_DESC, "model": "eba", "nests": 5}),
                         "nests: expected a list"),
    "n_not_a_number": (gen_argv({"model": "topk-gap", "n": [1], "M": "100"}),
                       "n: expected a number"),
    "n_not_an_integer": (gen_argv({"model": "topk-gap", "n": 3.7, "M": "100"}),
                         "n: expected an integer"),
    "n_a_boolean": (gen_argv({"model": "topk-gap", "n": True, "M": "100"}),
                    "n: expected a number"),
    "gamma_a_boolean": (gen_argv({"model": "nl4sym", "items": list("ABCD"),
                                  "prices": PRICES, "w": 1.0, "gamma": True}),
                        "gamma: expected a number"),
    "w_nan": (gen_argv({**NL4_DESC, "w": "nan"}), "w: expected a finite number"),
    "w_inf": (gen_argv({**NL4_DESC, "w": "inf"}), "w: expected a finite number"),
    "w_overflows_to_inf": (["gen", "--params", json.dumps(NL4_DESC)[:-1] + ', "w": 1e400}'],
                           "w: expected a finite number"),
    "params_nested_too_deep": (["gen", "--params", DEEP], "descriptor: malformed JSON"),
    "endowments_nested_too_deep": (["multibuyer", "--what", "ttc", "--instance", MB_FIXTURE,
                                    "--endowments", DEEP],
                                   "--endowments: malformed JSON"),
    "order_nested_too_deep": (["multibuyer", "--what", "sd", "--instance", MB_FIXTURE,
                               "--order", DEEP], "--order: malformed JSON"),
    "endowments_not_an_object": (["multibuyer", "--what", "ttc", "--instance", MB_FIXTURE,
                                  "--endowments", "[1]"],
                                 "--endowments: expected an object"),
    "endowments_missing": (["multibuyer", "--what", "ttc", "--instance", MB_FIXTURE],
                           "--endowments"),
    "order_not_a_list": (["multibuyer", "--what", "sd", "--instance", MB_FIXTURE,
                          "--order", "5"], "--order"),
    "nested_explicit_items_not_a_list": (
        gen_argv({"model": "mixture", "alpha": {},
                  "base": {"model": "explicit", "instance": {"items": 5, "lists": []}}}),
        "base.instance.items: expected a list"),
    "nested_explicit_price_malformed": (
        gen_argv({"model": "mixture", "alpha": {},
                  "base": {"model": "explicit",
                           "instance": {"items": [{"id": "A", "price": "x"}], "lists": []}}}),
        "base.instance.items[0].price"),
    "prices_missing": (gen_argv({k: v for k, v in MNL_DESC.items() if k != "prices"}),
                       'missing "prices"'),
    "instance_missing": (gen_argv({"model": "explicit"}), 'missing "instance"'),
    "nested_weights_missing": (
        gen_argv({"model": "mixture", "alpha": {},
                  "base": {k: v for k, v in MNL_DESC.items() if k != "weights"}}),
        'missing "base.weights"'),
    "unknown_model": (gen_argv({"model": "foo"}), "unknown model 'foo'"),
    "unknown_nested_model": (gen_argv({"model": "mixture", "alpha": {},
                                       "base": {"model": "bar"}}),
                             "unknown model 'bar'"),
    "M_not_a_rational": (gen_argv({"model": "topk-gap", "n": 4, "M": [1]}),
                         "M: expected a number"),
    # Usage errors.
    "what_misspelled": (["check", "--what", "histroy-monotone", "--instance",
                         fixture("condition_violation_minimal.json")],
                        "argument --what: invalid choice: 'histroy-monotone'"),
    "k_not_an_integer": (["solve", "--what", "topk", "--k", "two", "--instance",
                          fixture("four_item_clash.json")],
                         "argument --k: invalid int value: 'two'"),
    "what_missing": (["solve", "--instance", fixture("four_item_clash.json")],
                     "required: --what"),
    "unknown_flag": (["solve", "--what", "assortment", "--bogus", "--instance",
                      fixture("four_item_clash.json")],
                     "unrecognized arguments: --bogus"),
    "cap_not_read_by_gen": (gen_argv(MNL_DESC) + ["--cap", "3"],
                            "unrecognized arguments: --cap 3"),
    "tolerance_not_read_by_robust": (["robust", "--instance", fixture("four_item_clash.json"),
                                      "--tolerance", "1e-9"],
                                     "unrecognized arguments: --tolerance 1e-9"),
    **{f"tolerance_{name}": (["check", "--what", "history-monotone", "--instance",
                              fixture("four_item_clash.json"), "--tolerance", value], message)
       for name, value, message in [("inf", "inf", "not a finite number: inf"),
                                    ("nan", "nan", "not a finite number: nan"),
                                    ("negative", "-1", "tolerance -1.0 is negative")]},
    # Only history-monotone compares with a tolerance; the other checks are
    # exact and refuse one rather than ignore it.
    **{f"tolerance_not_read_by_{what}": (
        ["check", "--what", what, "--instance", fixture("four_item_clash.json"),
         "--mechanism", "-", "--tolerance", "0.1"],
        f"check --what {what} does not take --tolerance")
       for what in ("ic", "submodular", "containment")},
    "unknown_verb": (["frob"], "argument verb: invalid choice: 'frob'"),
    "no_verb": ([], "required: verb"),
    # --cap 0 is a cap of 0, not the default cap.
    **{f"cap_zero_solve_{what}": (["solve", "--what", what, "--cap", "0", "--instance",
                                   fixture("four_item_clash.json")], "exceeds cap 0")
       for what in ("assortment", "f", "topk", "policy")},
    "cap_zero_compare": (["compare", "--cap", "0", "--instance",
                          fixture("four_item_clash.json")], "exceeds cap 0"),
    # The policy search never runs past its item cap, whatever --cap asks.
    "cap_above_policy_limit": (["solve", "--what", "policy", "--cap", "5", "--instance",
                                fixture("robust_menu_instance.json")], "size 5 exceeds cap 4"),
}


class TestErrors:
    def test_bad_probability_sum_reported(self, capsys, tmp_path):
        bad = {
            "items": [{"id": "A", "price": 1}],
            "lists": [{"items": ["A"], "prob": "5/6"}],
        }
        assert "5/6" in assert_error_report(capsys, tmp_path, bad)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_instance_reported(self, capsys, tmp_path, name):
        message = assert_error_report(capsys, tmp_path, MALFORMED[name])
        assert MALFORMED_PATH.get(name, "") in message

    @pytest.mark.parametrize("name", sorted(MALFORMED_OTHER))
    def test_malformed_other_formats_reported(self, capsys, tmp_path, name):
        argv, option, doc, where = MALFORMED_OTHER[name]
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main(argv + [option, str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        report = json.loads(captured.err)
        assert list(report) == ["error"] and where in report["error"]

    @pytest.mark.parametrize("name", sorted(MALFORMED_ARGS))
    def test_malformed_arguments_reported(self, capsys, name):
        argv, where = MALFORMED_ARGS[name]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        report = json.loads(captured.err)
        assert list(report) == ["error"] and where in report["error"]

    def test_descriptor_on_stdin_nested_too_deep(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(DEEP))
        code = main(["gen"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        report = json.loads(captured.err)
        assert list(report) == ["error"]
        assert report["error"].startswith("descriptor: malformed JSON: maximum recursion")

    def test_huge_decimal_exponent_rejected_quickly(self, capsys, tmp_path):
        doc = {"items": [{"id": "A", "price": "1e16000000"}],
               "lists": [{"items": ["A"], "prob": "1"}]}
        start = time.perf_counter()
        message = assert_error_report(capsys, tmp_path, doc)
        assert time.perf_counter() - start < 1.0
        assert "items[0].price" in message and "exponent" in message

    def test_unknown_verb_usage(self, capsys):
        assert main([]) == 1

    def test_decimal_prices_parse_exactly(self, capsys, tmp_path):
        obj = {
            "items": [{"id": "A", "price": "0.25"}],
            "lists": [{"items": ["A"], "prob": 1}],
        }
        path = tmp_path / "quarter.json"
        path.write_text(json.dumps(obj))
        code, out = run(
            capsys, "solve", "--what", "assortment", "--instance", str(path)
        )
        assert code == 0 and out["value"] == "1/4"


class TestMain:
    def test_pretty_indents_the_same_report(self, capsys):
        argv = ["solve", "--what", "assortment",
                "--instance", fixture("four_item_clash.json")]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--pretty"]) == 0
        assert capsys.readouterr().out == json.dumps(json.loads(plain), indent=2) + "\n"

    def test_parser_is_built_once(self, capsys, monkeypatch):
        argv = ["check", "--what", "history-monotone",
                "--instance", fixture("condition_violation_minimal.json")]
        main(argv)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(argv) == 2 and main(argv) == 2
        assert built == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0 and "--what" in capsys.readouterr().out

    @staticmethod
    def _python(code: str) -> subprocess.CompletedProcess:
        """Run ``code`` in a fresh interpreter that imports this package."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(fixedprice.__file__)))
        return subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )

    def _cli_import_loads(self, module: str) -> bool:
        done = self._python(f"import sys, fixedprice.cli; print({module!r} in sys.modules)")
        done.check_returncode()
        return done.stdout.strip() == "True"

    def test_policy_search_runs_without_numpy(self):
        # No code path needs numpy: with its import blocked, the policy
        # search still solves the clash fixture.
        argv = ["solve", "--what", "policy", "--instance", fixture("four_item_clash.json")]
        done = self._python("import sys; sys.modules['numpy'] = None; import fixedprice.cli; "
                            f"sys.exit(fixedprice.cli.main({argv!r}))")
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["value"] == "3/2"
        assert report["policy"]["A"] == [["B"], ["C"], ["D"]]

    def test_import_leaves_mpmath_unloaded(self):
        # mpmath serves only the nested-logit generators.
        assert not self._cli_import_loads("mpmath")
