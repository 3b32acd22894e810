"""Command-line front end: parse instances and models, run solvers and
checks, and emit JSON reports.

Verbs: ``gen`` (expand a model descriptor into an instance file), ``solve``
(assortment / mechanism / set-function relaxation / top-k / stopping
policy), ``check`` (ic, history-monotone, submodular, containment),
``compare`` (the three LP values), ``robust`` (menu worst-case revenue), and
``multibuyer`` (profile LPs and fixed mechanisms).

Every report is a single JSON object on stdout.  Exit codes: 0 on success,
2 when a check fails, 1 on usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, Optional

from . import choice_models as cm
from . import core, extensions, lotteries, mechanism_lp, stopping
from .errors import ContainmentError, FixedPriceError
from .rational import format_rational

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=False))
    else:
        print(json.dumps(obj, sort_keys=False))


def _decimal(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise FixedPriceError("value is too large for a decimal report") from exc


def _value_fields(value: Fraction) -> Dict[str, object]:
    return {"value": format_rational(value), "value_decimal": _decimal(value)}


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def parse_instance(path: Optional[str]) -> core.Instance:
    """Load and validate an instance from a file path or stdin."""
    return core.load_instance(_read_text(path))


def _load_mechanism(path: str, inst: core.Instance) -> mechanism_lp.Mechanism:
    obj = json.loads(_read_text(path))
    return mechanism_lp.mechanism_from_json(obj, items=inst.items, validate=False)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _rationals(value, path: str) -> Dict[str, Fraction]:
    """An object of rationals, parsed; errors name ``path``."""
    core._check_object(value, path)
    return {key: core._parse_at(f"{path}.{key}", v) for key, v in value.items()}


def _field(desc: dict, key: str, where: str):
    """``desc[key]``; a missing field is an error naming its path."""
    if key not in desc:
        raise FixedPriceError(f'descriptor: missing "{where}{key}"')
    return desc[key]


def _number(desc: dict, key: str, where: str, kind=float):
    value = _field(desc, key, where)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FixedPriceError(f"{where}{key}: expected a number") from exc


def _mnl_params(desc: dict, where: str) -> cm.MnlParams:
    return cm.MnlParams(_rationals(_field(desc, "weights", where), where + "weights"),
                        core._parse_at(where + "w0", desc.get("w0", 1)))


def _instance_from_descriptor(desc: dict, where: str = "") -> core.Instance:
    """The instance a model descriptor (a JSON object) describes; ``where``
    prefixes the paths that errors name."""
    model = desc.get("model")
    if model == "explicit":
        return core.instance_from_json(_field(desc, "instance", where), where + "instance.")
    if model == "topk-gap":
        return lotteries.gen_topk_gap_instance(_number(desc, "n", where, int),
                                               _field(desc, "M", where))
    if "items" in desc:
        core._check_item_ids(desc["items"], where + "items")
    if model == "mixture":
        core._check_object(_field(desc, "base", where), where + "base")
        base = _instance_from_descriptor(desc["base"], where + "base.")
        alpha = _rationals(_field(desc, "alpha", where), where + "alpha")
        dist = cm.mix_with_singletons(base.dist, alpha)
        items = list(desc.get("items", base.items))
        if "prices" in desc:
            prices = _rationals(desc["prices"], where + "prices")
        else:
            prices = base.prices
        return core.Instance(items, prices, dist)

    items = list(_field(desc, "items", where))
    prices = _rationals(_field(desc, "prices", where), where + "prices")
    if model == "mnl":
        dist = cm.gen_mnl(items, _mnl_params(desc, where))
    elif model == "markov":
        arrivals = _rationals(_field(desc, "arrivals", where), where + "arrivals")
        arrivals = {j: p for j, p in arrivals.items() if j != "0"}
        rows = _field(desc, "transitions", where)
        core._check_object(rows, where + "transitions")
        transitions = {
            j: {k: p for k, p in _rationals(row, f"{where}transitions.{j}").items()
                if k != "0"}
            for j, row in rows.items()
        }
        dist = cm.gen_markov_chain(items, cm.MarkovChainParams(arrivals, transitions))
    elif model == "eba":
        nests = _field(desc, "nests", where)
        if not isinstance(nests, list):
            raise FixedPriceError(f"{where}nests: expected a list")
        for k, nest in enumerate(nests):
            core._check_item_ids(nest, f"{where}nests[{k}]")
        nests = cm.NestStructure([frozenset(nest) for nest in nests])
        dist = cm.gen_elimination_by_aspects(items, _mnl_params(desc, where), nests)
    elif model == "nl3":
        dist = cm.gen_nested_logit_3item(items, _mnl_params(desc, where),
                                         _number(desc, "gamma", where))
    elif model == "nl4sym":
        params = cm.SymmetricNlParams(_number(desc, "w", where),
                                      _number(desc, "gamma", where), 4)
        dist = cm.gen_nested_logit_4item_symmetric(items, params)
    else:
        raise FixedPriceError(f"unknown model {model!r}")
    return core.Instance(items, prices, dist)


def _cmd_gen(args) -> int:
    desc = json.loads(args.params) if args.params else json.loads(_read_text(None))
    core._check_object(desc, "descriptor")
    if args.model:
        desc.setdefault("model", args.model)
    inst = _instance_from_descriptor(desc)
    text = core.dump_instance(inst)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"written": args.output, "items": len(inst.items),
               "lists": len(inst.dist.support)}, args.pretty)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    inst = parse_instance(args.instance)
    what = args.what
    if what == "assortment":
        S, value = core.optimal_assortment(inst, cap=args.cap or 20)
        out = _value_fields(value)
        out["assortment"] = sorted(map(str, S))
    elif what == "mech":
        value, mech = mechanism_lp.solve_mechanism_lp(inst)
        out = _value_fields(value)
        out["mechanism"] = mechanism_lp.mechanism_to_json(mech)
    elif what == "f":
        value, f = mechanism_lp.solve_set_function_lp(
            inst, cap=args.cap or mechanism_lp.SET_FUNCTION_LP_CAP
        )
        ones = [S for S, v in f.values.items() if v == 1]
        minimal = [S for S in ones if not any(T < S for T in ones)]
        out = _value_fields(value)
        out["one_sets_minimal"] = sorted(
            [sorted(map(str, S)) for S in minimal], key=lambda s: (len(s), s)
        )
    elif what == "topk":
        k, S, value = lotteries.best_topk_lottery(
            inst, k=args.k, cap=args.cap or 20
        )
        out = _value_fields(value)
        out["k"] = k
        out["assortment"] = sorted(map(str, S))
    elif what == "policy":
        policy, value = stopping.optimal_policy_bruteforce(
            inst, cap=args.cap or stopping.POLICY_ITEM_CAP
        )
        out = _value_fields(value)
        out["policy"] = {
            str(j): [sorted(map(str, g)) for g in gens]
            for j, gens in sorted(policy.generators.items(), key=lambda kv: str(kv[0]))
        }
    else:
        raise FixedPriceError(f"unknown solve target {what!r}")
    _emit(out, args.pretty)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    inst = parse_instance(args.instance)
    what = args.what
    if what == "history-monotone":
        report = stopping.check_history_monotone(inst.dist, tol=args.tolerance or 0)
        _emit(report.to_json(), args.pretty)
        return EXIT_OK if report.holds else EXIT_CHECK_FAILED
    if args.mechanism is None:
        raise FixedPriceError(f"check --what {what} needs --mechanism PATH")
    mech = _load_mechanism(args.mechanism, inst)
    if what == "ic":
        report = mechanism_lp.verify_ic(inst, mech)
        out = {
            "holds": report.ok,
            "violations": [
                {"kind": v.kind, "list": list(v.lst), "k": v.k,
                 "other": list(v.other) if v.other else None, "detail": v.detail}
                for v in report.violations
            ],
        }
        _emit(out, args.pretty)
        return EXIT_OK if report.ok else EXIT_CHECK_FAILED
    if what == "submodular":
        f = mechanism_lp.mechanism_to_set_function(inst, mech)
        witness = f.submodular_witness()
        out = {"holds": witness is None}
        if witness is not None:
            S, j, jp = witness
            out["witness"] = {"S": sorted(map(str, S)), "j": str(j), "jp": str(jp)}
        _emit(out, args.pretty)
        return EXIT_OK if witness is None else EXIT_CHECK_FAILED
    if what == "containment":
        try:
            z = mechanism_lp.containment_witness(inst, mech)
        except ContainmentError as exc:
            _emit({"holds": False, "detail": str(exc)}, args.pretty)
            return EXIT_CHECK_FAILED
        _emit(
            {"holds": True,
             "z": {str(j): format_rational(v) for j, v in sorted(
                 z.items(), key=lambda kv: str(kv[0]))}},
            args.pretty,
        )
        return EXIT_OK
    raise FixedPriceError(f"unknown check {what!r}")


# ---------------------------------------------------------------------------
# compare / robust / multibuyer
# ---------------------------------------------------------------------------


def _cmd_compare(args) -> int:
    inst = parse_instance(args.instance)
    S, opt_s = core.optimal_assortment(inst, cap=args.cap or 20)
    opt_x, _ = mechanism_lp.solve_mechanism_lp(inst)
    opt_bm, _ = mechanism_lp.solve_bm_lp(inst)
    out = {
        "opt_assortment": format_rational(opt_s),
        "opt_mechanism": format_rational(opt_x),
        "opt_bm": format_rational(opt_bm),
        "opt_assortment_decimal": _decimal(opt_s),
        "opt_mechanism_decimal": _decimal(opt_x),
        "opt_bm_decimal": _decimal(opt_bm),
        "assortment": sorted(map(str, S)),
    }
    _emit(out, args.pretty)
    return EXIT_OK


def _cmd_robust(args) -> int:
    inst = parse_instance(args.instance)
    if args.menu:
        menu = extensions.menu_from_json(
            json.loads(_read_text(args.menu)), items=inst.items
        )
    elif args.mechanism:
        mech = _load_mechanism(args.mechanism, inst)
        menu = extensions.mechanism_to_menu(inst, mech)
    else:
        _, mech = mechanism_lp.solve_mechanism_lp(inst)
        menu = extensions.mechanism_to_menu(inst, mech)
    value, exposable = extensions._robust(inst, menu)
    out = _value_fields(value)
    out["menu_size"] = len(menu)
    out["exposable_counts"] = {
        ",".join(map(str, lst.entries)): len(entries) for lst, entries in exposable.items()
    }
    _emit(out, args.pretty)
    return EXIT_OK


def _cmd_multibuyer(args) -> int:
    inst = extensions.multibuyer_from_json(json.loads(_read_text(args.instance)))
    what = args.what
    if what in ("dsic", "bic"):
        value, _ = extensions.solve_multibuyer_lp(inst, what)
        out = _value_fields(value)
        out["mode"] = what
    elif what == "ttc":
        if args.endowments is None:
            raise FixedPriceError("--endowments: required for --what ttc")
        endow = json.loads(args.endowments)
        core._check_object(endow, "--endowments")
        if not all(key.isdecimal() and core._is_item_id(j) for key, j in endow.items()):
            raise FixedPriceError("--endowments: expected buyer indices mapped to item ids")
        value = extensions.eval_endowment_ttc(inst, {int(k): j for k, j in endow.items()})
        out = _value_fields(value)
    elif what == "sd":
        order = json.loads(args.order) if args.order else list(range(inst.num_buyers))
        if not isinstance(order, list) or not all(type(i) is int for i in order):
            raise FixedPriceError("--order: expected a list of buyer indices")
        value = extensions.eval_serial_dictatorship(inst, order)
        out = _value_fields(value)
    else:
        raise FixedPriceError(f"unknown multibuyer target {what!r}")
    _emit(out, args.pretty)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixedprice",
        description="Revenue maximization over fixed-price selling mechanisms.",
    )
    sub = parser.add_subparsers(dest="verb")

    def common(p):
        p.add_argument("--instance", help="instance JSON path ('-' for stdin)")
        p.add_argument("--pretty", action="store_true", help="indent the JSON report")
        p.add_argument("--cap", type=int, help="override enumeration caps")
        p.add_argument("--tolerance", type=float,
                       help="comparison tolerance for float-born data (default exact)")

    p = sub.add_parser("gen", help="expand a model descriptor into an instance")
    common(p)
    p.add_argument("--model", help="model name (overrides the descriptor)")
    p.add_argument("--params", help="model descriptor JSON (else read stdin)")
    p.add_argument("-o", "--output", help="write the instance here (else stdout)")

    p = sub.add_parser("solve", help="optimize over a mechanism class")
    common(p)
    p.add_argument("--what", required=True,
                   choices=["assortment", "mech", "f", "topk", "policy"])
    p.add_argument("--k", type=int, help="fix k for --what topk")

    p = sub.add_parser("check", help="verify a property; exit 2 on failure")
    common(p)
    p.add_argument("--what", required=True,
                   choices=["ic", "history-monotone", "submodular", "containment"])
    p.add_argument("--mechanism", help="mechanism JSON path")

    p = sub.add_parser("compare", help="assortment vs mechanism vs inclusion LPs")
    common(p)
    p.add_argument("--lps", action="store_true", help="compare all three values")

    p = sub.add_parser("robust", help="worst-case revenue of a menu")
    common(p)
    p.add_argument("--menu", help="menu JSON path")
    p.add_argument("--mechanism", help="mechanism JSON path (menu built from it)")

    p = sub.add_parser("multibuyer", help="multi-buyer LPs and fixed mechanisms")
    common(p)
    p.add_argument("--what", required=True, choices=["dsic", "bic", "ttc", "sd"])
    p.add_argument("--endowments", help='JSON like {"0": "B", "1": "A"}')
    p.add_argument("--order", help="JSON list of buyer indices")

    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "check": _cmd_check,
    "compare": _cmd_compare,
    "robust": _cmd_robust,
    "multibuyer": _cmd_multibuyer,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.verb:
        parser.print_usage(sys.stderr)
        return EXIT_ERROR
    try:
        return _DISPATCH[args.verb](args)
    except FixedPriceError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
