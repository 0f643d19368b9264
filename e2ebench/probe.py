"""Layer probes for the traced run.

The probes wrap the public functions each layer is entered through — the
frontend's ``check_program``, the codegen module compiler, the engine's
``run_fast``, ``Network.run``, the scenario's traffic factory, the
replayable cursor, the invariant observer and ``evaluate``, and the shard
worker entry point — from outside the package.  Nothing here attaches the
program's own ``Tracer``, ``HandlerProfiler`` or ``OBS`` metrics: each of
those takes the network's drain off its fast branch, so the traced run
would measure a different code path.

Per-event boundaries (handler call, observe call, traffic pull) are
aggregated into a call count and a total instead of one span each; coarse
boundaries (setup, the traffic stream, ``check_program``, ``evaluate``, a
shard worker's life) are recorded as spans.  :func:`chrome_trace` turns
both into Chrome trace-event JSON accepted by
``python -m repro.obs validate-trace --schema tests/schemas/chrome_trace.schema.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
from dataclasses import replace
from time import perf_counter
from typing import Dict, List, Optional

#: boundaries recorded as one span per call (all others are aggregated)
SPAN_BOUNDARIES = ("frontend.check_program", "invariants.evaluate")


def rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError):
        # no procfs: the high-water mark is the best available proxy
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def mark_first_pull(scenario, marks: Dict[str, float]):
    """A copy of ``scenario`` whose traffic stream records the wall time of
    its first pull in ``marks["first_pull"]`` — the end of set-up.  Adds no
    per-item cost: the marker is a one-shot generator chained in front of
    the raw stream."""

    def build(events: int, seed: int):
        setup = scenario.build(events, seed)
        factory = setup.traffic

        def first():
            marks.setdefault("first_pull", perf_counter())
            return
            yield

        return replace(setup, traffic=lambda: itertools.chain(first(), factory()))

    return replace(scenario, build=build)


class Probe:
    """Aggregated boundary timings and spans of one process's traced run.

    ``totals[name]`` is ``[calls, seconds, first_start]``; ``spans`` holds
    ``(name, start, end)`` for the coarse boundaries; ``marks`` holds single
    timestamps and values (first traffic pull, RSS around materialisation)."""

    def __init__(self, worker_dir: str = ""):
        self.totals: Dict[str, list] = {}
        self.spans: List[tuple] = []
        self.marks: Dict[str, float] = {}
        #: where shard workers write their probe state (see traced_worker_main)
        self.worker_dir = worker_dir

    def reset(self) -> None:
        """Zero every counter in place (wrappers hold references to them);
        a forked shard worker starts from a copy of the coordinator's."""
        for acc in self.totals.values():
            acc[:] = [0, 0.0, None]
        self.spans.clear()
        self.marks.clear()

    def acc(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, None])

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    # -- wrappers --------------------------------------------------------------
    def timed(self, name: str, fn):
        """Wrap ``fn`` so each call adds to ``totals[name]`` (and records a
        span when ``name`` is in :data:`SPAN_BOUNDARIES`)."""
        acc = self.acc(name)
        spans = self.spans if name in SPAN_BOUNDARIES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if acc[2] is None:
                    acc[2] = t0
                acc[0] += 1
                acc[1] += t1 - t0
                if spans is not None:
                    spans.append((name, t0, t1))

        return wrapper

    def timed_hot(self, name: str, fn):
        """One-argument variant of :meth:`timed` for per-event boundaries."""
        acc = self.acc(name)

        def wrapper(arg, _fn=fn, _clock=perf_counter):
            t0 = _clock()
            result = _fn(arg)
            acc[1] += _clock() - t0
            if acc[2] is None:
                acc[2] = t0
            acc[0] += 1
            return result

        return wrapper

    def timed_drain(self, run):
        """Wrap ``Network.run``; also books the cursor time spent inside the
        drain (``source.pull_in_drain``) so the scheduler's self time can
        exclude it."""
        timed = self.timed("network.run", run)
        pulls = self.acc("source.next")
        in_drain = self.acc("source.pull_in_drain")

        def drain(*args, **kwargs):
            before = pulls[1]
            try:
                return timed(*args, **kwargs)
            finally:
                in_drain[1] += pulls[1] - before

        return drain

    def traffic(self, factory):
        """A traffic factory timing every pull of the raw stream
        (``traffic.gen``) and recording the stream's extent and the RSS
        growth across it."""
        acc = self.acc("traffic.gen")
        marks = self.marks

        def generate():
            items = iter(factory())
            clock = perf_counter
            t0 = clock()
            marks.setdefault("first_pull", t0)
            marks["rss_before_mb"] = rss_mb()
            if acc[2] is None:
                acc[2] = t0
            while True:
                t0 = clock()
                try:
                    item = next(items)
                except StopIteration:
                    t1 = clock()
                    acc[1] += t1 - t0
                    marks["stream_end"] = t1
                    marks["rss_after_mb"] = rss_mb()
                    self.spans.append(("traffic.stream", marks["first_pull"], t1))
                    return
                acc[1] += clock() - t0
                acc[0] += 1
                yield item

        return generate

    def instrument(self, scenario):
        """A copy of ``scenario`` whose setups time the traffic stream, every
        engine's ``run_fast`` and the network's ``run``."""

        def build(events: int, seed: int):
            setup = scenario.build(events, seed)
            make_network = setup.make_network

            def timed_network(engine: str):
                network = make_network(engine)
                for switch in network.switches.values():
                    run_fast = getattr(switch.engine, "run_fast", None)
                    if run_fast is not None:
                        switch.engine.run_fast = self.timed_hot("codegen.run_fast", run_fast)
                network.run = self.timed_drain(network.run)
                return network

            return replace(
                setup, make_network=timed_network, traffic=self.traffic(setup.traffic)
            )

        return replace(scenario, build=build)

    def install(self) -> None:
        """Wrap the module-level entry points of every layer (call once, in
        the process that runs the traced workload)."""
        import repro.interp.codegen as codegen
        import repro.scenarios.runner as runner
        import repro.scenarios.topology as topology
        import repro.shard.coordinator as coordinator
        from repro.service.source import ReplayableSource

        topology.check_program = self.timed("frontend.check_program", topology.check_program)
        codegen.compile_program = self.timed("codegen.compile_program", codegen.compile_program)
        runner.evaluate = self.timed("invariants.evaluate", runner.evaluate)
        for module in (runner, coordinator):
            module.observer_callback = self._timed_observer(module.observer_callback)
        ReplayableSource.__next__ = self.timed_hot("source.next", ReplayableSource.__next__)
        coordinator.worker_main = functools.partial(
            traced_worker_main, self, coordinator.worker_main
        )

    def _timed_observer(self, observer_callback):
        def build(invariants):
            callback = observer_callback(invariants)
            if callback is None:
                return None
            return self.timed_hot("invariants.observe", callback)

        return build

    # -- transport -------------------------------------------------------------
    def state(self) -> dict:
        return {"totals": self.totals, "spans": self.spans, "marks": self.marks}


def traced_worker_main(probe: Probe, worker_main, conn, spec) -> None:
    """Shard worker entry point for the traced run: instrument the worker's
    own scenario build, run the real worker, then leave the worker's probe
    state in ``probe.worker_dir`` for the coordinator side to merge."""
    from repro.scenarios import registry

    probe.reset()
    registry.SCENARIOS[spec.scenario] = probe.instrument(registry.SCENARIOS[spec.scenario])
    t0 = perf_counter()
    try:
        worker_main(conn, spec)
    finally:
        t1 = perf_counter()
        probe.spans.append(("shard.worker", t0, t1))
        path = os.path.join(probe.worker_dir, f"worker{spec.shard_index}.json")
        with open(path, "w") as fh:
            json.dump(probe.state(), fh)


def chrome_trace(processes: List[tuple], origin: float, seed: int) -> dict:
    """Chrome trace-event JSON for the traced run.

    ``processes`` lists ``(pid, label, state, root)`` — a probe state per
    process and that process's root span ``(name, start, end)``.  Spans nest
    under their process root; each aggregated boundary becomes one span
    starting at its first call and lasting its total busy time, with
    ``event_args = [calls, total_ns]``.  The schema admits only the
    simulator's span categories, so every span uses ``inject``."""
    events: List[dict] = []
    ids = itertools.count(1)

    def us(t: float) -> float:
        return max(0.0, (t - origin) * 1e6)

    def span(pid: int, name: str, start: float, dur_s: float, parent: str,
             args: Optional[List[int]] = None) -> str:
        span_id = f"0x{next(ids):x}"
        events.append({
            "ph": "X", "name": name, "cat": "inject", "pid": pid, "tid": 0,
            "ts": us(start), "dur": max(0.0, dur_s * 1e6),
            "args": {"span": span_id, "parent": parent,
                     "event_args": args or [], "delay_ns": 0},
        })
        return span_id

    top = ""
    for pid, label, state, root in processes:
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        name, start, end = root
        root_id = span(pid, name, start, end - start, top)
        if pid == 0:
            top = root_id
        for name, t0, t1 in state["spans"]:
            span(pid, name, t0, t1 - t0, root_id)
        for name, (calls, seconds, first) in sorted(state["totals"].items()):
            if calls and name not in SPAN_BOUNDARIES:
                span(pid, name, first, seconds, root_id,
                     [calls, int(seconds * 1e9)])
    spans = sum(1 for ev in events if ev["ph"] == "X")
    return {
        "displayTimeUnit": "ns",
        "otherData": {"format_version": 1, "seed": seed, "spans": spans},
        "traceEvents": events,
    }
