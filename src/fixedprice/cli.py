"""Command-line front end: parse instances and models, run solvers and
checks, and emit JSON reports.

Verbs: ``gen`` (expand a model descriptor into an instance file), ``solve``
(assortment / mechanism / set-function relaxation / top-k / stopping
policy), ``check`` (ic, history-monotone, submodular, containment),
``compare`` (the three LP values), ``robust`` (menu worst-case revenue), and
``multibuyer`` (profile LPs and fixed mechanisms).

Each verb returns its report, and ``main`` prints it on stdout as a single
JSON object (``gen`` without ``-o`` writes the instance there instead).
Exit codes: 2 when the report's ``"holds"`` is false (every ``check`` report
carries it, no other report does), 1 on usage or data errors, 0 otherwise.
An error, usage errors included, prints ``{"error": ...}`` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Dict, Optional

from . import choice_models as cm
from . import core, extensions, lotteries, mechanism_lp, stopping
from .errors import ContainmentError, FixedPriceError, InvalidMechanismError
from .rational import coerce_rational, format_rational

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


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
    obj = core._read_json(_read_text(path), InvalidMechanismError, "--mechanism: ")
    return mechanism_lp.mechanism_from_json(obj, items=inst.items, validate=False)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _field(desc: dict, key: str, where: str):
    """``desc[key]``; a missing field is an error naming its path."""
    if key not in desc:
        raise FixedPriceError(f'descriptor: missing "{where}{key}"')
    return desc[key]


def _number(desc: dict, key: str, where: str, kind=float):
    """``kind(desc[key])``; rejects booleans, non-finite floats, and floats
    that ``int`` would truncate."""
    value = _field(desc, key, where)
    try:
        if isinstance(value, bool):
            raise TypeError(f"{value!r} is not a number")
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FixedPriceError(f"{where}{key}: expected a number") from exc
    if isinstance(number, float) and not math.isfinite(number):
        raise FixedPriceError(f"{where}{key}: expected a finite number")
    if kind is int and isinstance(value, float) and number != value:
        raise FixedPriceError(f"{where}{key}: expected an integer")
    return number


def _item_rationals(desc: dict, key: str, where: str, items: list) -> dict:
    """``desc[key]``, an object of rationals keyed by ids in ``items``."""
    return core._parse_rationals(_field(desc, key, where), where + key, items=items)


def _mnl_params(desc: dict, where: str, items: list) -> cm.MnlParams:
    return cm.MnlParams(_item_rationals(desc, "weights", where, items),
                        core._parse_at(where + "w0", desc.get("w0", 1)))


def _markov(desc: dict, where: str, items: list):
    # "0" is the outside option, never an item: its key stays "0" and is dropped.
    ids = [j for j in items if str(j) != "0"]
    arrivals = _item_rationals(desc, "arrivals", where, ids)
    arrivals.pop("0", None)
    rows = _field(desc, "transitions", where)
    core._check_object(rows, where + "transitions")
    ids_of = {str(j): j for j in ids}
    transitions = {}
    for key, row in rows.items():
        row = core._parse_rationals(row, f"{where}transitions.{key}", items=ids)
        row.pop("0", None)
        transitions[ids_of.get(key, key)] = row
    return cm.gen_markov_chain(items, cm.MarkovChainParams(arrivals, transitions))


def _eba(desc: dict, where: str, items: list):
    nests = _field(desc, "nests", where)
    if not isinstance(nests, list):
        raise FixedPriceError(f"{where}nests: expected a list")
    for k, nest in enumerate(nests):
        core._check_item_ids(nest, f"{where}nests[{k}]")
    nests = cm.NestStructure([frozenset(nest) for nest in nests])
    return cm.gen_elimination_by_aspects(items, _mnl_params(desc, where, items), nests)


# The models that generate a distribution over the descriptor's "items":
# each maps (descriptor, path prefix, items) to the distribution.
_GENERATED_MODELS = {
    "mnl": lambda desc, where, items: cm.gen_mnl(items, _mnl_params(desc, where, items)),
    "markov": _markov,
    "eba": _eba,
    "nl3": lambda desc, where, items: cm.gen_nested_logit_3item(
        items, _mnl_params(desc, where, items), _number(desc, "gamma", where)),
    "nl4sym": lambda desc, where, items: cm.gen_nested_logit_4item_symmetric(
        items, cm.SymmetricNlParams(_number(desc, "w", where),
                                    _number(desc, "gamma", where), 4)),
}


def _instance_from_descriptor(desc: dict, where: str = "") -> core.Instance:
    """The instance a model descriptor (a JSON object) describes; ``where``
    prefixes the paths that errors name."""
    model = desc.get("model")
    if model == "explicit":
        return core.instance_from_json(_field(desc, "instance", where), where + "instance.")
    if model == "topk-gap":
        return lotteries.gen_topk_gap_instance(_number(desc, "n", where, int),
                                               _number(desc, "M", where, coerce_rational))
    if model == "mixture":
        if "items" in desc:
            core._check_item_ids(desc["items"], where + "items")
        core._check_object(_field(desc, "base", where), where + "base")
        base = _instance_from_descriptor(desc["base"], where + "base.")
        items = list(desc.get("items", base.items))
        dist = cm.mix_with_singletons(base.dist, _item_rationals(desc, "alpha", where, items))
        prices = (_item_rationals(desc, "prices", where, items) if "prices" in desc
                  else base.prices)
        return core.Instance(items, prices, dist)
    generate = _GENERATED_MODELS.get(model) if isinstance(model, str) else None
    if generate is None:
        raise FixedPriceError(f"unknown model {model!r}")
    core._check_item_ids(_field(desc, "items", where), where + "items")
    items = list(desc["items"])
    prices = _item_rationals(desc, "prices", where, items)
    return core.Instance(items, prices, generate(desc, where, items))


def _cmd_gen(args) -> Optional[dict]:
    desc = core._read_json(args.params or _read_text(None), where="descriptor: ")
    core._check_object(desc, "descriptor")
    if args.model:
        desc["model"] = args.model
    inst = _instance_from_descriptor(desc)
    text = core.dump_instance(inst)
    if not args.output or args.output == "-":
        sys.stdout.write(text)
        return None
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {"written": args.output, "items": len(inst.items),
            "lists": len(inst.dist.support)}


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cap(args, default: int) -> int:
    """``--cap`` when given, 0 and negative values included; else ``default``."""
    return default if args.cap is None else args.cap


def _cmd_solve(args) -> dict:
    inst = parse_instance(args.instance)
    what = args.what
    if what == "assortment":
        S, value = core.optimal_assortment(inst, cap=_cap(args, core.SUBSET_SEARCH_CAP))
        fields = {"assortment": sorted(map(str, S))}
    elif what == "mech":
        value, mech = mechanism_lp.solve_mechanism_lp(inst)
        fields = {"mechanism": mechanism_lp.mechanism_to_json(mech)}
    elif what == "f":
        value, f = mechanism_lp.solve_set_function_lp(
            inst, cap=_cap(args, mechanism_lp.SET_FUNCTION_LP_CAP)
        )
        ones = [S for S, v in f.values.items() if v == 1]
        minimal = [sorted(map(str, S)) for S in ones if not any(T < S for T in ones)]
        fields = {"one_sets_minimal": sorted(minimal, key=lambda s: (len(s), s))}
    elif what == "topk":
        k, S, value = lotteries.best_topk_lottery(
            inst, k=args.k, cap=_cap(args, core.SUBSET_SEARCH_CAP))
        fields = {"k": k, "assortment": sorted(map(str, S))}
    else:  # policy
        policy, value = stopping.optimal_policy_bruteforce(
            inst, cap=_cap(args, stopping.POLICY_ITEM_CAP)
        )
        fields = {"policy": {
            str(j): [sorted(map(str, g)) for g in gens]
            for j, gens in sorted(policy.generators.items(), key=lambda kv: str(kv[0]))
        }}
    return {**_value_fields(value), **fields}


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> dict:
    what = args.what
    if what != "history-monotone" and args.tolerance is not None:
        raise FixedPriceError(f"check --what {what} does not take --tolerance")
    inst = parse_instance(args.instance)
    if what == "history-monotone":
        report = stopping.check_history_monotone(inst.dist, tol=args.tolerance or 0)
        return report.to_json()
    if args.mechanism is None:
        raise FixedPriceError(f"check --what {what} needs --mechanism PATH")
    mech = _load_mechanism(args.mechanism, inst)
    if what == "ic":
        report = mechanism_lp.verify_ic(inst, mech)
        return {
            "holds": report.ok,
            "violations": [
                {"kind": v.kind, "list": list(v.lst), "k": v.k,
                 "other": list(v.other) if v.other else None, "detail": v.detail}
                for v in report.violations
            ],
        }
    if what == "submodular":
        witness = mechanism_lp.mechanism_to_set_function(inst, mech).submodular_witness()
        if witness is None:
            return {"holds": True}
        S, j, jp = witness
        return {"holds": False,
                "witness": {"S": sorted(map(str, S)), "j": str(j), "jp": str(jp)}}
    try:  # containment
        z = mechanism_lp.containment_witness(inst, mech)
    except ContainmentError as exc:
        return {"holds": False, "detail": str(exc)}
    return {"holds": True,
            "z": {str(j): format_rational(v)
                  for j, v in sorted(z.items(), key=lambda kv: str(kv[0]))}}


# ---------------------------------------------------------------------------
# compare / robust / multibuyer
# ---------------------------------------------------------------------------


def _cmd_compare(args) -> dict:
    inst = parse_instance(args.instance)
    S, opt_s = core.optimal_assortment(inst, cap=_cap(args, core.SUBSET_SEARCH_CAP))
    opt_x, _ = mechanism_lp.solve_mechanism_lp(inst)
    opt_bm, _ = mechanism_lp.solve_bm_lp(inst)
    values = {"opt_assortment": opt_s, "opt_mechanism": opt_x, "opt_bm": opt_bm}
    return {**{key: format_rational(v) for key, v in values.items()},
            **{f"{key}_decimal": _decimal(v) for key, v in values.items()},
            "assortment": sorted(map(str, S))}


def _cmd_robust(args) -> dict:
    inst = parse_instance(args.instance)
    if args.menu:
        obj = core._read_json(_read_text(args.menu), InvalidMechanismError, "--menu: ")
        menu = extensions.menu_from_json(obj, inst.items)
    else:
        mech = (_load_mechanism(args.mechanism, inst) if args.mechanism
                else mechanism_lp.solve_mechanism_lp(inst)[1])
        menu = extensions.mechanism_to_menu(inst, mech)
    value, exposable = extensions._robust(inst, menu)
    return {
        **_value_fields(value),
        "menu_size": len(menu),
        "exposable_counts": {
            ",".join(map(str, lst.entries)): len(entries)
            for lst, entries in exposable.items()
        },
    }


def _cmd_multibuyer(args) -> dict:
    inst = extensions.multibuyer_from_json(
        core._read_json(_read_text(args.instance), where="--instance: "))
    what = args.what
    if what in ("dsic", "bic"):
        value, _ = extensions.solve_multibuyer_lp(inst, what)
        return {**_value_fields(value), "mode": what}
    if what == "ttc":
        if args.endowments is None:
            raise FixedPriceError("--endowments: required for --what ttc")
        endow = core._read_json(args.endowments, where="--endowments: ")
        core._check_object(endow, "--endowments")
        if not all(key.isdecimal() and core._is_item_id(j) for key, j in endow.items()):
            raise FixedPriceError("--endowments: expected buyer indices mapped to item ids")
        return _value_fields(
            extensions.eval_endowment_ttc(inst, {int(k): j for k, j in endow.items()}))
    order = (core._read_json(args.order, where="--order: ") if args.order
             else list(range(inst.num_buyers)))
    if not isinstance(order, list) or not all(type(i) is int for i in order):
        raise FixedPriceError("--order: expected a list of buyer indices")
    return _value_fields(extensions.eval_serial_dictatorship(inst, order))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that ``main`` reports them as JSON; its
    subparsers are of the same class."""

    def error(self, message):
        raise FixedPriceError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="fixedprice",
        description="Revenue maximization over fixed-price selling mechanisms.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, run, summary, instance=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--pretty", action="store_true", help="indent the JSON report")
        if instance:
            p.add_argument("--instance", help="instance JSON path ('-' for stdin)")
        return p

    p = verb("gen", _cmd_gen, "expand a model descriptor into an instance", instance=False)
    p.add_argument("--model", help="model name (overrides the descriptor)")
    p.add_argument("--params", help="model descriptor JSON (else read stdin)")
    p.add_argument("-o", "--output", help="write the instance here (else stdout)")

    p = verb("solve", _cmd_solve, "optimize over a mechanism class")
    p.add_argument("--what", required=True,
                   choices=["assortment", "mech", "f", "topk", "policy"])
    p.add_argument("--k", type=int, help="fix k for --what topk")
    p.add_argument("--cap", type=int, help="override the enumeration cap")

    p = verb("check", _cmd_check, "verify a property; exit 2 on failure")
    p.add_argument("--what", required=True,
                   choices=["ic", "history-monotone", "submodular", "containment"])
    p.add_argument("--mechanism", help="mechanism JSON path")
    p.add_argument("--tolerance", type=float,
                   help="comparison tolerance for float-born data (default exact)")

    p = verb("compare", _cmd_compare, "assortment vs mechanism vs inclusion LPs")
    p.add_argument("--lps", action="store_true",
                   help="no effect: all three values are always reported")
    p.add_argument("--cap", type=int, help="override the assortment search cap")

    p = verb("robust", _cmd_robust, "worst-case revenue of a menu")
    p.add_argument("--menu", help="menu JSON path")
    p.add_argument("--mechanism", help="mechanism JSON path (menu built from it)")

    p = verb("multibuyer", _cmd_multibuyer, "multi-buyer LPs and fixed mechanisms")
    p.add_argument("--what", required=True, choices=["dsic", "bic", "ttc", "sd"])
    p.add_argument("--endowments", help='JSON like {"0": "B", "1": "A"}')
    p.add_argument("--order", help="JSON list of buyer indices")

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        report = args.run(args)
        if report is None:
            return EXIT_OK
        print(json.dumps(report, indent=2 if args.pretty else None))
    except FixedPriceError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_ERROR
    except (OSError, KeyError, ValueError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if report.get("holds", True) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
