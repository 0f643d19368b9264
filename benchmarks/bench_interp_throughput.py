#!/usr/bin/env python3
"""Interpreter throughput: events/sec for the tree-walking reference engine
and the source-codegen engine, across the bundled Figure 9 applications.

Each application is driven with a deterministic synthetic traffic workload
(``pkt_*`` events where the program declares them, otherwise every handled
event round-robin), with tracing disabled so the drain calls the engine's
obs-free dispatch.  The same event sequence is replayed through both
engines.

Run standalone::

    python benchmarks/bench_interp_throughput.py                 # full sweep
    python benchmarks/bench_interp_throughput.py --smoke         # CI smoke
    python benchmarks/bench_interp_throughput.py --apps SFW,RR --events 8000

The smoke mode asserts the codegen engine stays at least
``MIN_CODEGEN_SPEEDUP`` times faster than the tree walker on the
stateful-firewall workload, so perf regressions surface in CI.
"""

from __future__ import annotations

import argparse
import sys
import time

from bench_common import write_report
from repro.apps import ALL_APPLICATIONS
from repro.frontend import check_program
from repro.interp import EventInstance, Network

#: smoke gate: codegen events/sec over reference events/sec on SFW
MIN_CODEGEN_SPEEDUP = 8.0


def _lcg(seed: int):
    state = (seed & 0x7FFFFFFF) or 1
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


def build_workload(checked, count: int, seed: int = 0xC0FFEE):
    """Deterministic traffic for one program: prefer packet-arrival events
    (``pkt_*``), fall back to every handled event, round-robin with mixed
    small/full-range arguments."""
    names = sorted(n for n in checked.info.handlers if n.startswith("pkt"))
    if not names:
        names = sorted(checked.info.handlers)
    rng = _lcg(seed)
    events = []
    for i in range(count):
        name = names[i % len(names)]
        params = checked.info.events[name].params
        args = tuple(
            next(rng) % 256 if (i + j) % 2 == 0 else next(rng)
            for j in range(len(params))
        )
        events.append((EventInstance(name, args), i * 100))
    return events


def measure(checked, engine: str, events, repeat: int = 3):
    """Best-of-``repeat`` events/sec for one engine over one workload."""
    best = 0.0
    handled = 0
    for _ in range(repeat):
        network = Network(engine=engine)
        network.trace_enabled = False
        network.add_switch(0, checked)
        for event, at_ns in events:
            network.inject(0, event, at_ns=at_ns)
        start = time.perf_counter()
        handled = network.run(max_events=2 * len(events))
        elapsed = time.perf_counter() - start
        best = max(best, handled / elapsed if elapsed > 0 else 0.0)
    return best, handled


def run_sweep(app_keys, n_events: int, repeat: int = 3):
    rows = []
    for key in app_keys:
        app = ALL_APPLICATIONS[key]
        checked = check_program(app.source, name=key)
        events = build_workload(checked, n_events)
        slow_eps, handled = measure(checked, "reference", events, repeat)
        gen_eps, _ = measure(checked, "codegen", events, repeat)
        rows.append(
            {
                "app": key,
                "events": handled,
                "tree_walk_eps": round(slow_eps),
                "codegen_eps": round(gen_eps),
                "codegen_speedup": round(gen_eps / slow_eps, 2) if slow_eps else 0.0,
            }
        )
    return rows


def print_rows(rows):
    headers = list(rows[0].keys())
    widths = {h: max(len(h), max(len(str(r[h])) for r in rows)) for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers))
    for row in rows:
        print("  ".join(str(row[h]).ljust(widths[h]) for h in headers))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=4000, help="traffic events per app")
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions (best-of)")
    parser.add_argument(
        "--apps", type=str, default="", help="comma-separated app keys (default: all)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: SFW only, fewer events, asserts codegen stays at "
        f"least {MIN_CODEGEN_SPEEDUP:g}x ahead of the tree walker",
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_interp_throughput.json",
        help="JSON report path (empty string disables; default "
        "BENCH_interp_throughput.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        keys = ["SFW"]
        n_events = min(args.events, 1500)
        repeat = 2
    else:
        keys = [k for k in args.apps.split(",") if k] or sorted(ALL_APPLICATIONS)
        n_events = args.events
        repeat = args.repeat
    unknown = [k for k in keys if k not in ALL_APPLICATIONS]
    if unknown:
        print(f"unknown app keys: {unknown}; known: {sorted(ALL_APPLICATIONS)}")
        return 2

    start = time.perf_counter()
    rows = run_sweep(keys, n_events, repeat)
    wall_s = time.perf_counter() - start
    print("=== interpreter throughput: tree-walking vs codegen ===")
    print_rows(rows)
    if args.out:
        write_report(
            args.out, "interp-throughput", "reference,codegen", wall_s,
            rows, events_per_app=n_events, repeat=repeat,
        )

    if args.smoke:
        sfw = next(r for r in rows if r["app"] == "SFW")
        if sfw["codegen_speedup"] < MIN_CODEGEN_SPEEDUP:
            print(
                "PERF REGRESSION: the codegen engine is only "
                f"{sfw['codegen_speedup']}x the tree walker on SFW "
                f"(expected >= {MIN_CODEGEN_SPEEDUP:g}x)"
            )
            return 1
        print(f"smoke ok: SFW codegen {sfw['codegen_speedup']}x over reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
