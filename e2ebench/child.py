"""One benchmark run in a fresh process.

    python3 e2ebench/child.py MODE WORKLOAD SEED EVENTS OUTDIR

``MODE`` is ``timed`` (no probes: the end-to-end metrics), ``oracle``
(untimed run on the workload's oracle engine) or ``traced`` (every layer
probe installed, Chrome trace written to ``OUTDIR``).  Prints one JSON row.
A fresh process per run makes ``ru_maxrss`` a per-run high-water mark.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Every module a run touches is imported before the clock starts (the codegen
# engine is otherwise imported lazily by its first switch), so set-up time
# measures building the scenario, not loading the package.
import repro.interp.codegen  # noqa: E402,F401
from repro.scenarios import SCENARIOS, run_scenario  # noqa: E402
from repro.shard.coordinator import run_sharded  # noqa: E402

from probe import Probe, chrome_trace, mark_first_pull  # noqa: E402
from workloads import ENGINE, WORKLOADS  # noqa: E402


def cpu_seconds() -> tuple:
    """User+sys CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """High-water RSS over this process and its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def execute(scenario, seed: int, events: int, engine: str, shards: int):
    if shards > 1:
        return run_sharded(scenario, events, seed, shards, engine=engine)
    return run_scenario(scenario, events, seed, engine=engine)


def outcome(row: dict, result) -> dict:
    """Add what the output check reads to ``row``."""
    row.update(
        ok=result.ok,
        invariants={r.name: r.ok for r in result.invariants},
        injected=result.events_injected,
        handled=result.events_handled,
        digest=result.array_digest,
    )
    return row


def main(argv) -> dict:
    mode, name, seed, events, outdir = argv
    seed, events = int(seed), int(events)
    workload = WORKLOADS[name]
    scenario = SCENARIOS[workload.scenario]
    row = {
        "mode": mode,
        "workload": name,
        "scenario": workload.scenario,
        "seed": seed,
        "events": events,
        "shards": workload.shards,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    if mode == "oracle":
        row["engine"] = workload.oracle_engine
        return outcome(row, execute(scenario, seed, events, row["engine"], 1))

    row["engine"] = ENGINE
    probe = None
    marks: dict = {}
    if mode == "traced":
        probe = Probe(worker_dir=outdir)
        probe.install()
        scenario = probe.instrument(scenario)
        marks = probe.marks
    else:
        scenario = mark_first_pull(scenario, marks)

    cpu0, kids0 = cpu_seconds()
    t0 = perf_counter()
    result = execute(scenario, seed, events, ENGINE, workload.shards)
    t1 = perf_counter()
    cpu1, kids1 = cpu_seconds()
    cpu_s = (cpu1 - cpu0) + (kids1 - kids0)
    first = marks["first_pull"]
    outcome(row, result)
    row.update(
        setup_s=first - t0,
        run_s=t1 - first,
        wall_s=t1 - t0,
        events_per_s=result.events_handled / (t1 - first),
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb(),
    )
    if probe is not None:
        row["trace_path"] = os.path.join(outdir, f"trace-{name}-seed{seed}.json")
        row["layers"] = layers(probe, result, workload, seed, row["trace_path"],
                               t0, t1, cpu_s, kids1 - kids0)
    return row


def layers(probe: Probe, result, workload, seed: int, trace_path: str,
           t0: float, t1: float, cpu_s: float, worker_cpu_s: float) -> dict:
    """The per-layer split of one traced run, merged over the coordinator
    and (for sharded runs) every worker; also writes the Chrome trace to
    ``trace_path`` (workers leave their probe state next to it)."""
    outdir = os.path.dirname(trace_path)
    sharded = workload.shards > 1
    probe.spans.append(("setup", t0, probe.marks["first_pull"]))
    processes = [(0, "benchmark", probe.state(), ("run", t0, t1))]
    states = [probe.state()]
    for shard in range(workload.shards) if sharded else ():
        with open(os.path.join(outdir, f"worker{shard}.json")) as fh:
            state = json.load(fh)
        states.append(state)
        root = next(s for s in state["spans"] if s[0] == "shard.worker")
        state["spans"] = [s for s in state["spans"] if s is not root]
        processes.append((shard + 1, f"shard worker {shard}", state, tuple(root)))

    def total(name: str, index: int = 1) -> float:
        return sum(s["totals"].get(name, [0, 0.0])[index] for s in states)

    def mark(state: dict, name: str, default: float = 0.0) -> float:
        return state["marks"].get(name, default)

    gen_s = total("traffic.gen")
    drain_s = total("network.run")
    handler_s = total("codegen.run_fast")
    handler_calls = total("codegen.run_fast", 0)
    observe_s = total("invariants.observe")
    cursor_s = probe.seconds("source.next")
    if cursor_s:
        # every raw pull of the in-process runner happens inside the cursor
        cursor_s -= probe.seconds("traffic.gen")
    shard_info = result.details.get("shards", {}) if sharded else {}
    wall = t1 - t0

    with open(trace_path, "w") as fh:
        json.dump(chrome_trace(processes, t0, seed), fh)

    return {
        "traffic.gen_s": gen_s,
        "traffic.items": total("traffic.gen", 0),
        "traffic.share": gen_s / cpu_s,
        "source.cursor_s": cursor_s,
        "runner.materialised_mb": max(
            mark(s, "rss_after_mb") - mark(s, "rss_before_mb") for s in states
        ),
        "network.drain_s": drain_s,
        "network.self_s": drain_s - handler_s - observe_s - total("source.pull_in_drain"),
        "network.generated": sum(
            stats["events_generated"] for stats in result.switch_stats.values()
        ),
        "network.amplification": result.events_handled / result.events_injected,
        "codegen.handler_s": handler_s,
        "codegen.ns_per_event": handler_s / handler_calls * 1e9 if handler_calls else 0.0,
        "codegen.compile_s": total("codegen.compile_program"),
        "frontend.check_s": total("frontend.check_program"),
        "invariants.observe_s": observe_s,
        "invariants.observe_calls": total("invariants.observe", 0),
        "invariants.evaluate_s": total("invariants.evaluate"),
        "shard.setup_s": result.setup_s if sharded else 0.0,
        "shard.scan_s": (
            probe.marks["stream_end"] - probe.marks["first_pull"] if sharded else 0.0
        ),
        "shard.barrier_rounds": shard_info.get("barrier_rounds", 0),
        "shard.worker_cpu_s": worker_cpu_s,
        "shard.worker_util": worker_cpu_s / (wall * workload.shards) if sharded else 0.0,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
