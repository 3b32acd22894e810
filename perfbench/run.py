"""fixedprice benchmark: exact-solve throughput with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mech_lp|enum_mnl|cli_json \
        --seed N --seconds S --trace 0|1

One process and one thread drive the library as a closed loop with one
caller: each operation starts when the previous one returns.  Inputs come
from ``--seed``.  Every result is checked outside the timed span (see
``oracle.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds diagnostics (tail percentile and sample count, error
rate, machine-speed probe, ...).  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import layers
from oracle import Oracle, WrongResult, run_highs
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_SEED = "0"
SETUP_SAMPLES = 7  # taken at evenly spaced points of the run, not back to back
WALL_CAP_S = 120.0  # start no new round after this long, whatever --seconds says
WORKLOADS = ("mech_lp", "enum_mnl", "cli_json")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate the inputs, then exit (times set-up)")
    return p.parse_args(argv)


def find_root() -> str:
    """The checkout root (the working directory); it must hold the sources."""
    root = os.getcwd()
    for need in ("src/fixedprice/__init__.py", "fixtures/four_item_clash.json"):
        if not os.path.isfile(os.path.join(root, need)):
            sys.exit(f"perfbench: {need} not found under {root}; run from a checkout root")
    return root


def workdir_for(root: str, workload: str, seed: int) -> str:
    # Relative, so that paths inside CLI reports do not depend on the checkout.
    path = os.path.relpath(os.path.join(HERE, "_work", f"{workload}-s{seed}"), root)
    os.makedirs(path, exist_ok=True)
    return path


def code_hash(root: str) -> str:
    """Hash of the library, the benchmark and the fixtures the results depend on."""
    h = hashlib.sha256()
    for pattern in ("src/fixedprice/*.py", "fixtures/*.json"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, root).encode() + b"\0" + fh.read())
    for path in sorted(glob.glob(os.path.join(HERE, "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def speed_probe() -> float:
    """Median milliseconds of a fixed plain-Python loop (machine-speed diagnostic)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(1000.0 * (time.perf_counter() - t0))
    return statistics.median(times)


def percentile(sorted_values, p: float) -> float:
    """Linear-interpolated percentile of sorted values (inclusive method)."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure_setup(args, root: str) -> float:
    """Seconds for a fresh interpreter to import fixedprice and build the inputs."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def load_reference(workload: str, seed: int) -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        data = json.load(fh).get(workload, {})
    ref = dict(data.get("*", {}))
    ref.update(data.get(str(seed), {}))
    return ref


def run_op(op, clock):
    """Time one operation; returns (seconds, result, exception)."""
    t0 = clock()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an escaping exception is a failed operation
        result, error = None, exc
    return clock() - t0, result, error


def judge(op, result, error, oracle, tally) -> bool:
    """Check one outcome outside the timed span; True if it is right."""
    if error is not None:
        tally["escaped"][type(error).__name__] += 1
        if not op.expect_error:
            tally["wrong"].append(f"{op.key}: {type(error).__name__}: {error}")
        return False
    try:
        oracle.accept(op.key, op.check(result, oracle))
    except WrongResult as exc:
        tally["wrong"].append(str(exc))
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    root = find_root()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set order must not change the instances or the pivot path.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path.insert(0, os.path.join(root, "src"))
    work = workdir_for(root, args.workload, args.seed)

    if args.setup_only:
        import workloads

        workloads.build(args.workload, args.seed, work, root)
        return 0

    started = time.perf_counter()
    probe_before = speed_probe()
    setup_samples = [measure_setup(args, root)]

    import fixedprice
    import workloads

    if not os.path.abspath(fixedprice.__file__).startswith(os.path.join(root, "src")):
        sys.exit(f"perfbench: imported fixedprice from {fixedprice.__file__}, not {root}/src")
    wl = workloads.build(args.workload, args.seed, work, root)
    oracle = Oracle(load_reference(args.workload, args.seed),
                    os.path.join(work, f"highs-t{args.trace}.jsonl"), wl.orders)
    ops = [op for rnd in wl.rounds for op in rnd]
    first_round = len(wl.rounds[0])
    # Indexes into ops at which a round starts.  The loop stops only there, so
    # every run holds whole rounds and the same mix of operations.
    round_starts = {0, *itertools.accumulate(len(rnd) for rnd in wl.rounds)}

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install_hooks(tracer)

    tally = {"escaped": Counter(), "wrong": []}
    latencies, plain_s, traced_s = [], 0.0, 0.0
    attempted = failed = 0
    timed = 0.0
    i = 0
    loop_start = time.perf_counter()
    while i < first_round or i % len(ops) not in round_starts or (
            timed < args.seconds and time.perf_counter() - started < WALL_CAP_S):
        # Spread the set-up samples over the run, so that one slow or fast
        # moment of the machine does not decide their median.
        if timed >= len(setup_samples) * args.seconds / (SETUP_SAMPLES - 1) \
                and len(setup_samples) < SETUP_SAMPLES - 1:
            setup_samples.append(measure_setup(args, root))
        op = ops[i % len(ops)]
        if tracer is None:
            seconds, result, error = run_op(op, time.perf_counter)
        else:
            # Run the operation untraced and traced, alternating which goes
            # first; the pair gives the tracing overhead on equal work.
            outcome = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.op_id = i
                    tracer.counting = i < first_round
                    tracer.install()
                    try:
                        outcome[traced] = run_op(op, tracer.clock)
                    finally:
                        tracer.uninstall()
                        tracer.counting = False
                else:
                    outcome[traced] = run_op(op, time.perf_counter)
            plain_s += outcome[False][0]
            traced_s += outcome[True][0]
            seconds, result, error = outcome[True]
            _, plain_result, plain_error = outcome[False]
            if (type(plain_error), plain_result) != (type(error), result):
                tally["wrong"].append(f"{op.key}: traced and untraced results differ")
        timed += seconds if tracer is None else outcome[False][0] + seconds
        latencies.append(seconds)
        attempted += 1
        if not judge(op, result, error, oracle, tally):
            failed += 1
        i += 1
    loop_wall = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(measure_setup(args, root))
    oracle.close()

    highs_checked, mismatches = run_highs(oracle.highs_path)
    tally["wrong"].extend(mismatches)

    # Determinism guard: the first round's exact results (and, traced, its
    # exact counts) must equal those of any earlier run of this code and seed.
    first_keys = {op.key for op in wl.rounds[0]}
    exact = {"results": {k: v for k, v in oracle.summaries.items() if k in first_keys}}
    layer_values = None
    if tracer is not None:
        overhead = 100.0 * (traced_s / plain_s - 1.0)
        layer_values = layers.metrics(tracer, attempted, overhead)
        exact["counts"] = {k: layer_values[k] for k in layers.EXACT_COUNTS}
        spans = tracer.write(os.path.join(work, "spans.tsv"))
    digest_dir = os.path.join(HERE, "_work", "digests")
    os.makedirs(digest_dir, exist_ok=True)
    digest_path = os.path.join(
        digest_dir, f"{args.workload}-s{args.seed}-t{args.trace}-{code_hash(root)}.json")
    if os.path.exists(digest_path):
        with open(digest_path, encoding="utf-8") as fh:
            if json.load(fh) != json.loads(json.dumps(exact)):
                tally["wrong"].append("exact results or counts differ from an earlier "
                                      "run of the same code and seed")
    else:
        with open(digest_path, "w", encoding="utf-8") as fh:
            json.dump(exact, fh, sort_keys=True)

    probe_after = speed_probe()
    correct = not tally["wrong"]
    lat_ms = sorted(1000.0 * s for s in latencies)
    tail_p = wl.tail_percentile
    tail_beyond = sum(1 for v in lat_ms if v > percentile(lat_ms, tail_p))
    if tail_beyond < 10 and tracer is None:  # the traced run reports no op_tail_ms
        print(f"perfbench: only {tail_beyond} operations lie beyond p{tail_p:g}; "
              "op_tail_ms rests on fewer than 10", file=sys.stderr)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": attempted,
        "rounds": round(attempted / len(wl.rounds[0]), 2),
        "timed_s": round(timed, 3),
        "loop_wall_s": round(loop_wall, 3),
        "op_tail_percentile": tail_p,
        "op_tail_beyond": tail_beyond,
        "error_rate": failed / attempted,
        "escaped": dict(tally["escaped"]),
        "wrong": tally["wrong"][:10],
        "highs_checked": highs_checked,
        "reference_checked": oracle.reference_hits,
        "setup_samples_s": [round(s, 4) for s in setup_samples],
        "probe_ms_before": round(probe_before, 3),
        "probe_ms_after": round(probe_after, 3),
    }
    if tracer is not None:
        diagnostics["spans_written"] = spans
    print(json.dumps(diagnostics))

    if tracer is None:
        metrics = {
            "ops_per_s": ((attempted - failed) / timed, "1/s"),
            "op_p50_ms": (percentile(lat_ms, 50.0), "ms"),
            "op_tail_ms": (percentile(lat_ms, tail_p), "ms"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_samples), "s"),
        }
    else:
        metrics = {name: (layer_values[name], unit)
                   for name, (unit, _) in layers.PER_LAYER.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
