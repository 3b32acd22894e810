"""Per-layer metrics of the traced run: count hooks and the metric table.

Times are milliseconds per traced operation, averaged over the whole timed
phase.  Counts are exact totals over the first round of the workload (each
of its operations once), so they repeat exactly across runs of the same
code and seed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from tracer import LAYERS, Tracer

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "lp.solve_lp.calls": ("count", "lower"),
    "lp.solve_lp.ms": ("ms/op", "lower"),
    "lp.rows": ("count", "lower"),
    "lp.cols": ("count", "lower"),
    "lp.nonzeros": ("count", "lower"),
    "mechanism_lp.build.ms": ("ms/op", "lower"),
    "mechanism_lp.solve.self_ms": ("ms/op", "lower"),
    "mechanism_lp.ic_rows": ("count", "lower"),
    "mechanism_lp.ic_rows_binding_ratio": ("ratio", "higher"),
    "mechanism_lp.verify_ic.calls": ("count", "lower"),
    "mechanism_lp.verify_ic.ms": ("ms/op", "lower"),
    "extensions.solve_multibuyer_lp.ms": ("ms/op", "lower"),
    "extensions.robust_revenue.ms": ("ms/op", "lower"),
    "stopping.check_history_monotone.ms": ("ms/op", "lower"),
    "stopping.check_history_monotone.prefix_pairs": ("count", "lower"),
    "stopping.optimal_policy_bruteforce.ms": ("ms/op", "lower"),
    "lotteries.best_topk_lottery.ms": ("ms/op", "lower"),
    "lotteries.best_topk_lottery.candidates": ("count", "lower"),
    "core.optimal_assortment.ms": ("ms/op", "lower"),
    "core.optimal_assortment.subsets": ("count", "lower"),
    "choice_models.gen.ms": ("ms/op", "lower"),
    "choice_models.gen.lists": ("count", "lower"),
    "core.load_instance.ms": ("ms/op", "lower"),
    "core.load_instance.bytes": ("bytes", "lower"),
    "core.dump_instance.ms": ("ms/op", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_ms": ("ms/op", "lower"),
    "cli.main.escaped": ("count", "lower"),
    **{f"{layer}.self_ms": ("ms/op", "lower") for layer in LAYERS},
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans_per_op": ("count/op", "lower"),
}

# Counts (and the ratio of two counts) that must repeat exactly across runs
# of the same code and seed.
EXACT_COUNTS = [name for name, (unit, _) in PER_LAYER.items()
                if unit in ("count", "bytes", "ratio")]


def _solve_lp_pre(tracer: Tracer, args, kwargs):
    lp = args[0] if args else kwargs["lp"]
    tracer.counts["lp.rows"] += lp.num_rows
    tracer.counts["lp.cols"] += lp.num_variables
    tracer.counts["lp.nonzeros"] += sum(len(row.coefs) for row in lp.rows)
    if tracer.parent_name() == "mechanism_lp.solve_mechanism_lp":
        ic = [row for row in lp.rows if row.rel == ">="]
        tracer.counts["mechanism_lp.ic_rows"] += len(ic)
        return ic
    return None


def _solve_lp_post(tracer: Tracer, args, kwargs, solution, ic_rows):
    if ic_rows is None:
        return
    x = solution.assignment
    tight = sum(1 for row in ic_rows if sum(c * x[name] for name, c in row.coefs) == row.rhs)
    tracer.counts["mechanism_lp.ic_rows_tight"] += tight


def _prefix_pairs_pre(tracer: Tracer, args, kwargs):
    """Ordered same-endpoint prefix pairs whose bodies are not nested."""
    dist = args[0] if args else kwargs["dist"]
    by_end = defaultdict(list)
    for prefix in dist.realizable_prefixes():
        entries = prefix.entries
        by_end[entries[-1]].append(frozenset(entries[:-1]))
    pairs = 0
    for bodies in by_end.values():
        for a in bodies:
            pairs += sum(1 for b in bodies if not a <= b)
    tracer.counts["stopping.check_history_monotone.prefix_pairs"] += pairs


def _gen_post(tracer: Tracer, args, kwargs, dist, state):
    tracer.counts["choice_models.gen.lists"] += len(dist.support)


def _load_pre(tracer: Tracer, args, kwargs):
    text = args[0] if args else kwargs["text"]
    tracer.counts["core.load_instance.bytes"] += len(text.encode("utf-8"))


def install_hooks(tracer: Tracer) -> None:
    tracer.hook("lp.solve_lp", _solve_lp_pre, _solve_lp_post)
    tracer.hook("stopping.check_history_monotone", _prefix_pairs_pre)
    tracer.hook("core.load_instance", _load_pre)
    for name in tracer.names:
        if name.startswith("choice_models.gen_"):
            tracer.hook(name, None, _gen_post)


def metrics(tracer: Tracer, ops: int, overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric of PER_LAYER from a finished traced run."""
    def ms(seconds):
        return 1000.0 * seconds / ops

    total, self_time, counts = tracer.total, tracer.self_time, tracer.counts

    def calls(name, parent=None):
        return sum(v for key, v in counts.items()
                   if key[0] == "calls" and key[1] == name
                   and (parent is None or key[2] == parent))

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    ic_rows = counts["mechanism_lp.ic_rows"]
    out = {
        "lp.solve_lp.calls": calls("lp.solve_lp"),
        "lp.solve_lp.ms": ms(total["lp.solve_lp"]),
        "lp.rows": counts["lp.rows"],
        "lp.cols": counts["lp.cols"],
        "lp.nonzeros": counts["lp.nonzeros"],
        "mechanism_lp.build.ms": ms(prefixed(total, "mechanism_lp.build_")),
        "mechanism_lp.solve.self_ms": ms(prefixed(self_time, "mechanism_lp.solve_")),
        "mechanism_lp.ic_rows": ic_rows,
        "mechanism_lp.ic_rows_binding_ratio":
            counts["mechanism_lp.ic_rows_tight"] / ic_rows if ic_rows else 0.0,
        "mechanism_lp.verify_ic.calls": calls("mechanism_lp.verify_ic"),
        "mechanism_lp.verify_ic.ms": ms(total["mechanism_lp.verify_ic"]),
        "extensions.solve_multibuyer_lp.ms": ms(total["extensions.solve_multibuyer_lp"]),
        "extensions.robust_revenue.ms": ms(total["extensions.robust_revenue"]),
        "stopping.check_history_monotone.ms": ms(total["stopping.check_history_monotone"]),
        "stopping.check_history_monotone.prefix_pairs":
            counts["stopping.check_history_monotone.prefix_pairs"],
        "stopping.optimal_policy_bruteforce.ms": ms(total["stopping.optimal_policy_bruteforce"]),
        "lotteries.best_topk_lottery.ms": ms(total["lotteries.best_topk_lottery"]),
        "lotteries.best_topk_lottery.candidates":
            calls("lotteries.topk_lottery_value", "lotteries.best_topk_lottery"),
        "core.optimal_assortment.ms": ms(total["core.optimal_assortment"]),
        "core.optimal_assortment.subsets":
            calls("core.assortment_revenue", "core.optimal_assortment"),
        "choice_models.gen.ms": ms(prefixed(total, "choice_models.gen_")),
        "choice_models.gen.lists": counts["choice_models.gen.lists"],
        "core.load_instance.ms": ms(total["core.load_instance"]),
        "core.load_instance.bytes": counts["core.load_instance.bytes"],
        "core.dump_instance.ms": ms(total["core.dump_instance"]),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_ms": ms(self_time["cli.main"]),
        "cli.main.escaped": counts[("escaped", "cli.main")],
        "trace.overhead_pct": overhead_pct,
        "trace.spans_per_op": len(tracer.spans) / ops,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ms(prefixed(self_time, layer + "."))
    return {name: out[name] for name in PER_LAYER}
