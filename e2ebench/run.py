"""End-to-end scenario benchmark.

    python3 e2ebench/run.py --workload hh-fattree8 --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) repeatedly for ``--seconds``, each
timed run in a fresh process, then checks every run against an untimed
oracle: all invariant verdicts ok, ``events_injected`` equal to the
requested length, and one array digest across repeats equal to the
oracle's.  With ``--trace 1`` it also makes one traced run with the layer
probes of ``probe.py`` (plus one of the workload's shard companion, which
supplies the ``shard.*`` metrics) and validates the Chrome traces written.

Prints one row per run, every metric by name and unit, and as the last
line a JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics (medians over the timed runs) with ``--trace 0``,
the per-layer metrics of the traced run with ``--trace 1``.  Exits 1 when
a check fails, 2 when the package source is missing.  Rows and traces are
written under ``.e2ebench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".e2ebench"
BENCHMARK = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

#: fewest timed runs per invocation (medians need a few)
MIN_RUNS = 3
#: stop starting timed runs after this many seconds, whatever --seconds says
MAX_TIMED_S = 100
#: a single child run that takes longer than this has hung
CHILD_TIMEOUT_S = 60


def child(mode: str, workload: str, seed: int, events: int) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON row.

    The child gets its own process group, so a run that hangs is killed
    together with any shard workers it started."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
         str(events), str(OUT)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run failed:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def check(row: dict, events: int, digest: str) -> list:
    """The output check of one run: the reasons it fails (empty when ok)."""
    problems = []
    if not row["ok"]:
        failing = sorted(name for name, ok in row["invariants"].items() if not ok)
        problems.append(f"invariants failed: {failing}")
    if row["injected"] != events:
        problems.append(f"injected {row['injected']} events, requested {events}")
    if row["digest"] != digest:
        problems.append(f"array digest {row['digest']} != oracle {digest}")
    return problems


def validate_trace(path: str) -> str:
    """Problems reported by the package's trace validator ('' when valid)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "validate-trace", path,
         "--schema", str(ROOT / "tests" / "schemas" / "chrome_trace.schema.json")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    return "" if proc.returncode == 0 else (proc.stderr or proc.stdout).strip()


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", type=int, default=0,
                        help="override the workload's length (smoke runs)")
    parser.add_argument("--oracle-digest", default="",
                        help="check against this digest instead of running the "
                             "oracle (the benchmark's negative test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not BENCHMARK.is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    events = args.events or workload.events

    rows, problems = [], []
    start = perf_counter()
    while len(rows) + len(problems) < MIN_RUNS or (
        perf_counter() - start < min(args.seconds, MAX_TIMED_S)
    ):
        try:
            rows.append(child("timed", args.workload, args.seed, events))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(f"timed run: {exc}")
    attempted = len(rows) + len(problems)

    digest = args.oracle_digest
    if not digest:
        try:
            oracle = child("oracle", args.workload, args.seed, events)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(f"oracle: {exc}")
        else:
            digest = oracle["digest"]
            problems += [f"oracle: {p}" for p in check(oracle, events, digest)]
    failed = attempted - len(rows)
    for i, row in enumerate(rows):
        row_problems = check(row, events, digest)
        failed += bool(row_problems)
        problems += [f"run {i}: {p}" for p in row_problems]

    if not rows:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        return 1

    def median(key: str) -> float:
        return statistics.median(row[key] for row in rows)

    if args.trace:
        names = [args.workload] + [n for n in [workload.shard_companion] if n]
        traced = []
        for name in names:
            try:
                traced.append(child("traced", name, args.seed, events))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"FAIL traced run of {name}: {exc}", file=sys.stderr)
                return 1
        for row in traced:
            problems += [f"traced run of {row['workload']}: {p}"
                         for p in check(row, events, digest)]
            invalid = validate_trace(row["trace_path"])
            if invalid:
                problems.append(f"trace {row['trace_path']}: {invalid}")
        values = dict(traced[0]["layers"])
        values["bench.trace_overhead"] = traced[0]["wall_s"] / median("wall_s") - 1
        for row in traced[1:]:
            values.update((k, v) for k, v in row["layers"].items()
                          if k.startswith("shard."))
    else:
        traced = []
        values = {
            "events_per_s": median("events_per_s"),
            "setup_s": median("setup_s"),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "ok_frac": (attempted - failed) / attempted,
        }

    with open(OUT / f"rows-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for row in rows + traced:
            fh.write(json.dumps(row) + "\n")
    for row in rows + traced:
        print("row", json.dumps({k: v for k, v in row.items() if k != "layers"}))
    metrics = {}
    for name, unit in declared_metrics(bool(args.trace)).items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    for problem in problems:
        print(f"FAIL {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
