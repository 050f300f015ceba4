"""Benchmark for platform-eq: seeded CLI workloads, end-to-end metrics, layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N [--seconds S]    # all workloads, trace off

One client issues the workload's commands one after another (a closed loop,
``--jobs 1``), each through ``platform_eq.cli.main`` in a fresh interpreter
that imports the package from ``src/``; nothing is built or installed.  The
last line of stdout is one JSON object; the lines before it name each metric
with its unit, the input properties, the provenance and every failed unit.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json:
``setup_s`` (median of five fresh interpreters importing ``platform_eq.cli``
and parsing one config: two before the workload, the workload's own, two
after; at the reference host speed, see child.wall), ``wall_s`` (time to finish the whole input, the sum over items of
each item's median time, at the reference host speed: see child.wall) and
``peak_rss_mb`` (peak RSS of the process that ran the workload).  The fail
ratio is ``failed / attempted``.  With ``--trace 1`` they are the per-layer ones: whole passes alternate between
untraced and traced by perfbench/tracing.py, which wraps the package's public
functions; counts are those of one traced pass, times are medians over the
traced passes, ``trace.overhead_ratio`` compares the two kinds of pass, and
``import.*_s`` come from ``python -X importtime``.
Spans of the first traced pass are written to .perfbench-work/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES_EACH_SIDE = 2   # fresh interpreters timed before and after the workload
IMPORT_PROBES = 3
RUN_BUDGET_S = 170.0   # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("PLATFORM_EQ_JOBS", None)  # it would silently override --jobs 1
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list, root: str, deadline: float, python_flags=()) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the next measurement")
    try:
        proc = subprocess.run([sys.executable, *python_flags, CHILD, *args], cwd=root,
                              env=child_env(root), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"child {args[0]} exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(stderr: str) -> dict:
    """Cumulative import time of the outermost numpy, scipy and platform_eq modules."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _self_us, cumulative, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        rows.append(((len(raw) - len(raw.lstrip()) - 1) // 2, name, int(cumulative)))
    totals = {"numpy": 0, "scipy": 0, "platform_eq": 0}
    chain: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(rows):  # a parent precedes its children here
        while chain and chain[-1][0] >= level:
            chain.pop()
        root = name.split(".")[0]
        if root in totals and all(a.split(".")[0] != root for _, a in chain):
            totals[root] += cumulative
        chain.append((level, name))
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str,
            spec: dict) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + RUN_BUDGET_S
    work_root = os.path.join(root, ".perfbench-work")
    run_dir = os.path.join(work_root, f"run-{os.getpid()}-{workload}")
    os.makedirs(os.path.join(work_root, "trace"), exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        items, props = workloads.build(workload, seed, run_dir)
        config = items[0]["argv"][2]
        lines = [f"perfbench workload={workload} seed={seed} seconds={seconds:g} "
                 f"trace={int(trace)}",
                 "inputs " + json.dumps(props)]
        metrics: dict[str, float | None] = {}
        notes: dict[str, str] = {}

        def setup_probes(count):
            return [last_json(spawn(["setup", config], root, deadline)) for _ in range(count)]

        if trace:
            probes = [import_times(spawn(["setup", config], root, deadline,
                                         python_flags=("-X", "importtime")).stderr)
                      for _ in range(IMPORT_PROBES)]
            for key in probes[0]:
                metrics[key] = statistics.median(p[key] for p in probes)
        else:
            # probes before, in and after the workload, so that one slow spell
            # of the host does not decide the median
            setups = setup_probes(SETUP_PROBES_EACH_SIDE)
        job = {"items": items, "seconds": seconds, "trace": trace,
               "spans_path": os.path.join(work_root, "trace", f"{workload}.spans.jsonl")}
        job_path = os.path.join(run_dir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        res = last_json(spawn(["run", job_path], root, deadline))
        if not trace:
            setups += [res] + setup_probes(SETUP_PROBES_EACH_SIDE)
            metrics["setup_s"] = statistics.median(p["setup_s"] for p in setups)
            notes["setup_s"] = (f"median of {len(setups)} fresh interpreters at reference "
                                f"host speed; as measured "
                                f"{statistics.median(p['setup_measured_s'] for p in setups):.6g} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines.append("provenance " + json.dumps({
        "seed": seed, "nproc": os.cpu_count(), **res["versions"], "jobs": 1,
        "thread_env": {var: "1" for var in THREAD_VARS}}))
    if trace:
        metrics.update(res["layers"])
        lines += [f"warning: {w}" for w in res["warnings"]]
        lines.append(f"traced passes {res['traced_passes']}, {res['spans']} spans written "
                     f"to {os.path.relpath(job['spans_path'], root)}")
        declared = spec["per_layer"]
    else:
        metrics["wall_s"] = res["wall_s"]
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        notes["wall_s"] = (f"at reference host speed, {res['samples']} timed commands; "
                           f"as measured {res['wall_measured_s']:.6g} s")
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise BenchError(f"measured {sorted(set(metrics) ^ set(units))} "
                         f"do not match BENCHMARK.json")
    for name in units:
        value = metrics[name]
        shown = "null" if value is None else f"{value:.6g}"
        note = f" ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {shown} {units[name]}{note}")
    lines.append(f"fail_ratio = {res['failed'] / max(res['attempted'], 1):.6g} 1 "
                 f"({res['failed']} of {res['attempted']} units failed)")
    lines += [f"FAILED {f['unit']}: {f['reason']} (x{f['times']})" for f in res["failures"]]
    if res["broken"]:
        lines.append(f"{res['broken']} commands did not run as specified")
    result = {"correct": res["broken"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "platform_eq", "cli.py")):
            raise BenchError("run from the repository root: src/platform_eq/cli.py not found")
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload != "all":
            result, lines = measure(args.workload, args.seed, seconds, bool(args.trace),
                                    root, spec)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            return 0
        summary = {}
        for name in workloads.WORKLOADS:
            result, lines = measure(name, args.seed, seconds, bool(args.trace), root, spec)
            print("\n".join(lines) + "\n", flush=True)
            summary[name] = result
        print(json.dumps(summary), flush=True)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
