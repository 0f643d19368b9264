#!/usr/bin/env python3
"""Scenario throughput: events/sec per bundled scenario on every execution
engine, with machine-readable output so the performance trajectory is
recorded.

Run standalone::

    python benchmarks/bench_scenarios.py                     # full sweep
    python benchmarks/bench_scenarios.py --smoke             # CI smoke
    python benchmarks/bench_scenarios.py --scenarios nat-churn,dns-reflection
    python benchmarks/bench_scenarios.py --engines codegen,pisa
    python benchmarks/bench_scenarios.py --events 50000 --engines-out BENCH_engines.json

Each scenario is run under every selected engine (default: every registered
engine — the tree-walking reference interpreter, the PISA pipeline
executor, and the source-codegen engine) with identical traffic (same
seed).  The JSON report ``BENCH_engines.json`` records events/sec per
engine per scenario plus the PISA pipeline totals (stages occupied,
recirculation passes, queue depths).  Events/sec is end to end: handled
events over traffic generation + drain + settle, since the runner streams
the traffic through the drain.  Any invariant violation or
cross-engine verdict/digest mismatch
fails the run.  ``--smoke`` runs two scenarios with small counts — cheap
enough for CI.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from bench_common import BENCH_SCHEMA_VERSION, write_report
from repro.interp.engine import ENGINE_NAMES
from repro.scenarios import SCENARIOS, run_scenario

#: the report envelope lives in bench_common; kept as an alias for callers
#: that import it from here
SCHEMA_VERSION = BENCH_SCHEMA_VERSION

DEFAULT_EVENTS = 20_000
SMOKE_SCENARIOS = ("heavy-hitter-single", "heavy-hitter-fattree")
SMOKE_EVENTS = 3_000


def bench_one(name: str, events: int, seed: int, engines, repeat: int = 1) -> dict:
    scenario = SCENARIOS[name]
    results = {eng: run_scenario(scenario, events, seed, engine=eng) for eng in engines}
    # verdict/digest parity always comes from the first run; extra repeats
    # only tighten the timing (best-of — scenario runs are single samples
    # otherwise, and scheduler jitter is visible at 3k events)
    best_eps = {eng: r.events_per_sec for eng, r in results.items()}
    best_setup = {eng: r.setup_s for eng, r in results.items()}
    for _ in range(repeat - 1):
        for eng in engines:
            again = run_scenario(scenario, events, seed, engine=eng)
            best_eps[eng] = max(best_eps[eng], again.events_per_sec)
            best_setup[eng] = min(best_setup[eng], again.setup_s)
    signatures = {eng: r.verdict_signature() for eng, r in results.items()}
    agree = len(set(signatures.values())) == 1
    baseline = results[engines[0]]
    row = {
        "scenario": name,
        "app": scenario.app_key,
        "topology": scenario.topology,
        "events": baseline.events_injected,
        "events_handled": baseline.events_handled,
        "eps": {eng: round(best_eps[eng]) for eng in engines},
        # per-engine one-time cost: network build + handler compilation +
        # preload.  Engines with digest-keyed module caches (codegen)
        # amortise this across switches — compare single vs fat-tree rows.
        "setup_s": {eng: round(best_setup[eng], 4) for eng in engines},
        "ok": all(r.ok for r in results.values()),
        "engines_agree": agree,
        "array_digest": baseline.array_digest,
    }
    pisa = results.get("pisa")
    if pisa is not None and pisa.pipeline_totals:
        totals = pisa.pipeline_totals
        row["pipeline"] = {
            key: totals[key]
            for key in (
                "stages",
                "recirculated_events",
                "peak_queue_depth",
                "recirc_passes",
                "recirc_bytes",
                "recirc_drops",
            )
            if key in totals
        }
    return row


def print_rows(rows, engines):
    headers = ["scenario", "app", "topology", "events"] + [
        f"{eng}_eps" for eng in engines
    ] + ["ok", "engines_agree"]

    def cell(row, header):
        for eng in engines:
            if header == f"{eng}_eps":
                return str(row["eps"][eng])
        return str(row[header])

    widths = {h: max(len(h), max(len(cell(r, h)) for r in rows)) for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers))
    for row in rows:
        print("  ".join(cell(row, h).ljust(widths[h]) for h in headers))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS,
                        help=f"traffic events per scenario (default {DEFAULT_EVENTS})")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions per engine, best-of "
                        "(default 3; parity is checked on the first run; "
                        "--smoke forces 1)")
    parser.add_argument("--scenarios", type=str, default="",
                        help="comma-separated scenario names (default: all)")
    parser.add_argument("--engines", type=str, default=",".join(ENGINE_NAMES),
                        help="comma-separated engine names "
                        f"(default: {','.join(ENGINE_NAMES)})")
    parser.add_argument("--engines-out", type=str, default="BENCH_engines.json",
                        help="per-engine JSON report path (default BENCH_engines.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick CI mode: two scenarios, small event counts, "
                        "fails on any invariant violation or engine mismatch")
    args = parser.parse_args(argv)

    if args.smoke:
        names = list(SMOKE_SCENARIOS)
        events = min(args.events, SMOKE_EVENTS)
    else:
        names = [n for n in args.scenarios.split(",") if n] or sorted(SCENARIOS)
        events = args.events
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenarios: {unknown}; known: {sorted(SCENARIOS)}")
        return 2
    engines = [e for e in args.engines.split(",") if e]
    bad_engines = [e for e in engines if e not in ENGINE_NAMES]
    if bad_engines:
        print(f"unknown engines: {bad_engines}; known: {list(ENGINE_NAMES)}")
        return 2

    repeat = 1 if args.smoke else args.repeat
    start = time.perf_counter()
    rows = [bench_one(name, events, args.seed, engines, repeat) for name in names]
    wall_s = time.perf_counter() - start
    print(f"=== scenario throughput across engines: {', '.join(engines)} ===")
    print_rows(rows, engines)

    if args.engines_out:
        write_report(
            args.engines_out, "scenario-engines", ",".join(engines), wall_s, rows,
            events_per_scenario=events, seed=args.seed, engines=engines,
            eps_measures="traffic generation + drain + settle",
            host_cpus=os.cpu_count(),
        )

    bad = [r["scenario"] for r in rows if not (r["ok"] and r["engines_agree"])]
    if bad:
        print(f"FAILED scenarios (invariant violation or engine mismatch): {bad}")
        return 1
    if args.smoke:
        print(
            f"smoke ok: {len(rows)} scenarios, all invariants hold and "
            f"all {len(engines)} engines agree"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
