#!/usr/bin/env python3
"""Overhead of the observability layer on the scheduler hot path.

The metrics/tracing/profiling instrumentation in :mod:`repro.interp.network`
is designed to cost one predicted-false branch per site when disabled (the
``if OBS.enabled:`` fast path — see :mod:`repro.obs.metrics`).  This harness
measures that claim:

* **baseline** — the scheduler with the instrumentation *removed*:
  ``Network._switch_entry`` (which chooses the observed or obs-free
  dispatch callable) and ``Network._schedule_generated`` are monkeypatched
  with copies that carry no ``OBS.enabled`` check at all;
* **disabled** — the shipped code with observability off (the default);
* **enabled** — the shipped code with the metrics registry enabled.

Run standalone::

    python benchmarks/bench_obs_overhead.py            # full measurement
    python benchmarks/bench_obs_overhead.py --smoke    # CI mode

``--smoke`` asserts the disabled-mode overhead stays at or below 5%
(best-of-N interleaved rounds, so scheduler noise mostly cancels).
"""

from __future__ import annotations

import argparse
import heapq
import sys
import time

from bench_common import write_report
from repro.interp.events import LOCAL, EventInstance
from repro.interp.network import Network
from repro.obs import disable, enable
from repro.scenarios import SCENARIOS
from repro.scenarios.runner import build_result, prepare_run, settle_horizon

DEFAULT_SCENARIO = "heavy-hitter-single"
DEFAULT_EVENTS = 8_000
SMOKE_EVENTS = 4_000
MAX_DISABLED_OVERHEAD = 0.05


# ---------------------------------------------------------------------------
# uninstrumented copies of the two hot-path methods of
# src/repro/interp/network.py: every OBS.enabled check (and the observer
# choice it feeds) stripped
# ---------------------------------------------------------------------------
def _baseline_schedule_generated(self, source, event, trace_parent=None):
    stats = source.stats
    stats.events_generated += 1
    origin = source.id
    group = event.group
    if group is None:
        location = event.location
        group = (origin if location == LOCAL else location,)
    config = self.config
    delay_ns = event.delay_ns
    use_queue = config.use_delay_queue
    if delay_ns > 0 and use_queue:
        interval = config.delay_release_interval_ns
        delay = -(-delay_ns // interval) * interval
    else:
        delay = max(0, delay_ns)
    now = self.now_ns
    remote_ns = now + config.pipeline_latency_ns + delay
    seq = source.origin_seq
    owned = self._shard_owned
    queue = self._queue
    for target in group:
        if target == origin:
            admit = source._admit
            if admit is not None and not admit(event):
                stats.recirc_drops += 1
                continue
            recirc_ns = config.recirculation_latency_ns
            arrival = now + recirc_ns + delay
            passes = 1
            if delay_ns > 0 and not use_queue:
                passes += delay_ns // max(1, recirc_ns)
            nbytes = passes * event.payload_bytes()
            stats.recirculations += passes
            stats.recirculated_bytes += nbytes
            if source._on_recirculate is not None:
                source._on_recirculate(event)
        else:
            pair = (origin, target)
            if pair in self._down_links:
                stats.link_drops += 1
                continue
            stats.remote_sends += 1
            arrival = remote_ns + self.links.get(pair, config.link_latency_ns)
        seq += 1
        key = source._key_base | seq
        delivered = EventInstance(event.name, event.args, 0, LOCAL, None, origin, trace_parent)
        if owned is not None and target not in owned:
            self._shard_export(arrival, key, target, delivered)
        else:
            heapq.heappush(queue, (arrival, key, target, delivered))
    source.origin_seq = seq


def _baseline_switch_entry(self, switch):
    engine = switch.engine
    return (
        switch,
        switch.runtime,
        getattr(engine, "run_fast", engine.run),
        switch.stats,
        switch.stats.handled_by_event,
        switch.log,
        switch._on_recirc_arrival,
    )


class _BaselinePatch:
    """Swap the uninstrumented scheduler methods in for the duration."""

    def __enter__(self):
        self._entry = Network._switch_entry
        self._schedule = Network._schedule_generated
        Network._switch_entry = _baseline_switch_entry
        Network._schedule_generated = _baseline_schedule_generated
        return self

    def __exit__(self, *exc):
        Network._switch_entry = self._entry
        Network._schedule_generated = self._schedule
        return False


def _eps(scenario, events: int, seed: int, engine: str) -> float:
    """Events/sec of the drain + settle alone: the traffic stream is
    materialised before the clock starts, so generation cost (which the
    scenario runner's end-to-end rate includes) cannot dilute the
    scheduler-overhead comparison."""
    setup = scenario.build(events, seed)
    network, source = prepare_run(setup, engine)
    items = list(source)
    start = time.perf_counter()
    handled = network.run(source=items)
    handled += network.run(until_ns=settle_horizon(setup, network, source))
    wall = time.perf_counter() - start
    result = build_result(
        setup, scenario.name, seed, engine, network,
        events_injected=source.injected, events_handled=handled, wall_s=wall,
    )
    if not result.ok:
        raise AssertionError(f"scenario failed under {engine}: {result.invariants}")
    return result.events_per_sec


def measure(scenario_name: str, events: int, seed: int, engine: str, rounds: int):
    """Best-of-``rounds`` events/sec for baseline / disabled / enabled,
    interleaved so machine noise hits all three modes alike."""
    scenario = SCENARIOS[scenario_name]
    best = {"baseline": 0.0, "disabled": 0.0, "enabled": 0.0}
    for _ in range(rounds):
        with _BaselinePatch():
            best["baseline"] = max(best["baseline"], _eps(scenario, events, seed, engine))
        disable()
        best["disabled"] = max(best["disabled"], _eps(scenario, events, seed, engine))
        enable()
        try:
            best["enabled"] = max(best["enabled"], _eps(scenario, events, seed, engine))
        finally:
            disable()
    overhead = 1.0 - best["disabled"] / best["baseline"] if best["baseline"] else 0.0
    return {
        "engine": engine,
        "events": events,
        "baseline_eps": round(best["baseline"]),
        "disabled_eps": round(best["disabled"]),
        "enabled_eps": round(best["enabled"]),
        "disabled_overhead": round(overhead, 4),
        "enabled_overhead": round(
            1.0 - best["enabled"] / best["baseline"] if best["baseline"] else 0.0, 4
        ),
    }


def print_rows(rows):
    headers = list(rows[0].keys())
    widths = {h: max(len(h), max(len(str(r[h])) for r in rows)) for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers))
    for row in rows:
        print("  ".join(str(row[h]).ljust(widths[h]) for h in headers))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", type=str, default=DEFAULT_SCENARIO)
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--engines", type=str, default="codegen,reference,pisa",
                        help="comma-separated engine names")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved measurement rounds (best-of)")
    parser.add_argument("--out", type=str, default="BENCH_obs_overhead.json",
                        help="JSON report path (empty string disables)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: codegen engine only, fewer events, "
                        f"asserts disabled-mode overhead <= {MAX_DISABLED_OVERHEAD:.0%}")
    args = parser.parse_args(argv)

    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; known: {sorted(SCENARIOS)}")
        return 2
    if args.smoke:
        engines = ["codegen"]
        events = min(args.events, SMOKE_EVENTS)
        rounds = max(3, args.rounds)
    else:
        engines = [e for e in args.engines.split(",") if e]
        events = args.events
        rounds = args.rounds

    start = time.perf_counter()
    rows = [measure(args.scenario, events, args.seed, eng, rounds) for eng in engines]
    wall_s = time.perf_counter() - start
    print(f"=== observability overhead on {args.scenario} "
          f"(best of {rounds} interleaved rounds) ===")
    print_rows(rows)

    if args.out:
        write_report(
            args.out, "obs-overhead", ",".join(engines), wall_s, rows,
            scenario=args.scenario, seed=args.seed, rounds=rounds,
        )

    if args.smoke:
        worst = max(rows, key=lambda r: r["disabled_overhead"])
        if worst["disabled_overhead"] > MAX_DISABLED_OVERHEAD:
            print(
                f"OBS OVERHEAD REGRESSION: disabled-mode overhead "
                f"{worst['disabled_overhead']:.1%} on {worst['engine']} "
                f"(budget {MAX_DISABLED_OVERHEAD:.0%}) — a metric site is "
                f"missing its OBS.enabled guard"
            )
            return 1
        print(f"smoke ok: disabled-mode overhead {worst['disabled_overhead']:.1%} "
              f"<= {MAX_DISABLED_OVERHEAD:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
