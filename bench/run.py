"""Run one benchmark workload of gaugeinv and print its metrics.

    python3 bench/run.py --workload construct|verify|cli_sweep \\
        --seed N --seconds S --trace 0|1

Run from the repository root; gaugeinv is imported from ./src, nothing is
installed.  The workload's operations run in whole rounds, in this single
thread, until S seconds have passed (at least one round).  After the timed
part every round's output is fingerprinted and one round is checked
against the benchmark's own oracle.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds reference figures that are not metrics (records,
terms, the sha256 fingerprint of the canonical output).

--trace 0 reports the end-to-end metrics: setup_s (median of one set-up in
this process and SETUP_PROBES set-ups in fresh child processes, run
between the rounds), wall_s
(the time of every operation once, each operation taken at its fastest
round), op_p50_s (the median of those operation times) and peak_rss_mb.
--trace 1 reports the per-layer metrics: half of the time runs untraced,
half traced (see tracing.py), and the traced output must keep the same
fingerprint.  Spans go to .bench_out/trace-<workload>-seed<N>.tsv.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 6

PER_LAYER = [
    "jetalg.normalize.calls", "jetalg.normalize.self_s", "jetalg.normalize.den_calls",
    "jetalg.poly_mul.calls", "jetalg.poly_mul.self_s", "jetalg.poly_mul.terms_out",
    "jetalg.poly_add.calls", "jetalg.poly_add.self_s",
    "jetalg.poly_derive.calls", "jetalg.poly_derive.self_s",
    "jetalg.substitute.calls", "jetalg.substitute.self_s", "jetalg.substitute.total_s",
    "opalg.op_mul.calls", "opalg.op_mul.self_s", "opalg.op_mul.total_s",
    "opalg.expand_template.calls", "opalg.expand_template.total_s",
    "opalg.gauge.calls", "opalg.gauge.total_s",
    "classify.analyze.calls", "classify.analyze.total_s",
    "invariants.complete_set.calls", "invariants.complete_set.total_s",
    "invariants.build_Cm.calls", "invariants.build_Cm.self_s", "invariants.build_Cm.total_s",
    "invariants.upward_invariant_generic.calls", "invariants.upward_invariant_generic.total_s",
    "invariants.upward_invariants_from_template.calls",
    "invariants.upward_invariants_from_template.total_s",
    "invariants.solve_gradient.calls", "invariants.solve_gradient.total_s",
    "verify.for_class.calls", "verify.for_class.total_s",
    "verify.is_invariant.calls", "verify.is_invariant.total_s",
    "verify.numeric_spot_check.calls", "verify.numeric_spot_check.self_s",
    "verify.numeric_spot_check.total_s",
    "verify.spot_value.total_s",
    "grammar.parse_expr.calls", "grammar.parse_expr.total_s",
    "grammar.print_expr.calls", "grammar.print_expr.total_s",
    "cli.main.calls", "cli.main.self_s", "cli.main.total_s",
    "out.records", "out.terms", "trace.overhead_s",
]


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def set_up(workload: str, seed: int, workdir: str, tracer=None):
    """Import gaugeinv, make and hand over the inputs; returns (seconds, ...)."""
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import gaugeinv  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS
    generate, prepare, canon, check = WORKLOADS[workload]
    if tracer is not None:
        tracer.install()
    inputs = generate(seed)
    ops = prepare(inputs, workdir)
    if tracer is not None:
        tracer.uninstall()
    return perf_counter() - t0, inputs, ops, canon, check


def run_round(ops, canon, tracer=None) -> dict:
    """Every operation once, each timed alone; output canonicalised after."""
    outputs, times = {}, []
    if tracer is not None:
        tracer.install()
        before = tracer.snapshot()
    for op in ops:
        t = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # judged as a failed operation by the check
            out = exc
            print(f"{op.name}: {traceback.format_exc()}", file=sys.stderr)
        times.append(perf_counter() - t)
        outputs[op.name] = out
    stats = None
    if tracer is not None:
        from tracing import difference
        stats = difference(tracer.snapshot(), before)
        tracer.uninstall()
    data, records, terms = {}, 0, 0
    for name, out in outputs.items():
        if isinstance(out, Exception):
            data[name] = {"error": type(out).__name__}
        else:
            data[name], r, t = canon(name, out)
            records, terms = records + r, terms + t
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return {"times": times, "data": data, "records": records, "terms": terms,
            "sha256": hashlib.sha256(blob).hexdigest(), "stats": stats}


def run_for(seconds: float, ops, canon, tracer=None, between=None) -> list[dict]:
    """Whole rounds, as many as fit in the given seconds (at least one);
    between() runs after each round, untimed."""
    rounds = []
    start = perf_counter()
    while not rounds or (perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(run_round(ops, canon, tracer))
        if len(rounds) > 1:
            rounds[-1]["data"] = None  # only the fingerprint is compared; keep memory flat
        if between is not None:
            between()
    return rounds


def fastest(rounds) -> list[float]:
    """Each operation's fastest time over the rounds.

    On a shared host the speed of this thread changes in phases of seconds
    to tens of seconds, which hit some rounds of an operation and not
    others; the fastest of its rounds is the time of the operation itself."""
    return [min(r["times"][k] for r in rounds) for k in range(len(rounds[0]["times"]))]


def judge(rounds, inputs, check, problems) -> int:
    """Failed operations per round; appends to problems."""
    if len({r["sha256"] for r in rounds}) != 1:
        problems.append("rounds of the same inputs gave different outputs")
    try:
        failed = check(inputs, rounds[0]["data"], problems)
    except Exception:  # malformed program output: every operation counts as failed
        problems.append(f"the check raised {traceback.format_exc()}")
        failed = rounds[0]["data"]
    return len(failed)


def setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["construct", "verify", "cli_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gaugeinv", "__init__.py")):
        print(f"gaugeinv sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(args.workload, args.seed, workdir)[0]}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    problems: list[str] = []
    if args.trace:
        from tracing import Tracer, metrics as layer_metrics
        tracer = Tracer()
        _, inputs, ops, canon, check = set_up(args.workload, args.seed, workdir, tracer)
        setup_stats = tracer.snapshot()
        plain = run_for(args.seconds / 2, ops, canon)
        traced = run_for(args.seconds / 2, ops, canon, tracer)
        rounds = plain + traced
        if plain[0]["sha256"] != traced[0]["sha256"]:
            problems.append("the traced run's output differs from the untraced run's")
        tracer.write_spans(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.tsv"))
        per_round = [layer_metrics(r["stats"]) for r in traced]
        at_setup = layer_metrics(setup_stats)
        values = {name: at_setup[name] + statistics.median_low(m[name] for m in per_round)
                  for name in at_setup}
        values["out.records"] = traced[0]["records"]
        values["out.terms"] = traced[0]["terms"]
        values["trace.overhead_s"] = sum(fastest(traced)) - sum(fastest(plain))
        metrics = {name: {"value": values[name], "unit": _unit(name)} for name in PER_LAYER}
    else:
        # The set-up probes run between rounds, so that they sample the
        # host's speed across the whole run as the rounds do.
        setup_s, inputs, ops, canon, check = set_up(args.workload, args.seed, workdir)
        setups = [setup_s]

        def probe():
            if len(setups) <= SETUP_PROBES:
                setups.append(setup_probe(args.workload, args.seed))
        rounds = run_for(args.seconds, ops, canon, between=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) <= SETUP_PROBES:
            probe()
        best = fastest(rounds)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(best), "unit": "s"},
            "op_p50_s": {"value": statistics.median(best), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    failed_per_round = judge(rounds, inputs, check, problems)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"reference": {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "operations_per_round": len(ops), "records": rounds[0]["records"],
        "terms": rounds[0]["terms"], "sha256": rounds[0]["sha256"]}}))
    print(json.dumps({"correct": not problems, "attempted": len(ops) * len(rounds),
                      "failed": failed_per_round * len(rounds), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
