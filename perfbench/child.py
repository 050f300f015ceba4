"""Fresh-interpreter side of the benchmark; run.py starts one per measurement.

    child.py setup CONFIG   time ``import platform_eq.cli`` plus one config parse
    child.py run JOB.json   the same set-up, then a workload's items in a closed
                            loop with one client

``run`` calls ``platform_eq.cli.main`` on each item in turn, with its output
captured and checked, until the job's seconds are spent (at least one full
pass).  Each item's time is the ``cli.main`` call alone.  With ``trace`` set,
whole untraced and traced passes alternate.  The result is one JSON line on
stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

from workloads import check

# calibrate()'s time on this benchmark's reference host (2 vCPU, CPython 3.11,
# numpy 2.4) when no other tenant slows it; it sets the scale of the
# calibrated times, setup_s and wall_s (see wall)
CALIBRATION_S = 0.0035


def _require_checkout_package() -> None:
    import platform_eq
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(platform_eq.__file__).startswith(src + os.sep):
        sys.exit(f"platform_eq was imported from {platform_eq.__file__}, not from {src}")


def _setup(config_path: str) -> dict:
    t0 = perf_counter()
    import platform_eq.cli  # noqa: F401
    from platform_eq.config import load_config
    load_config(config_path)
    measured = perf_counter() - t0
    _require_checkout_package()
    # calibrate() after the timed import, as it needs numpy; its first call
    # in a process pays one-off costs, so it is left out
    calibrate()
    reference = statistics.median(calibrate() for _ in range(3))
    return {"setup_s": CALIBRATION_S * measured / reference, "setup_measured_s": measured}


def setup(config_path: str) -> None:
    print(json.dumps(_setup(config_path)))


def calibrate() -> float:
    """Time a fixed mix of interpreter and small-array work, like the program's own."""
    import numpy as np
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    a = np.ones(4)
    for _ in range(1500):
        a = a * 1.0000001 + 0.5
    return perf_counter() - t0


def _call(cli, item) -> tuple[float, object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(item["argv"])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a raising command is a failed item, not a crashed benchmark
        code = "raised"
        err.write(traceback.format_exc())
    return perf_counter() - t0, code, out.getvalue(), err.getvalue()


class Loop:
    """Runs items round-robin; keeps per-item times and checked units."""

    def __init__(self, cli, items):
        self.cli, self.items = cli, items
        self.attempted = 0
        self.broken = 0
        self.failures: dict[tuple[str, str], int] = {}

    def run(self, item, times: list) -> None:
        reference = calibrate()
        dt, code, out, err = _call(self.cli, item)
        times.append((dt, reference))
        units, broken = check(item, code, out, err)
        self.broken += broken
        for unit, reason in units:
            self.attempted += 1
            if reason is not None:
                self.failures[unit, reason] = self.failures.get((unit, reason), 0) + 1

    def one_pass(self, times: dict, tracer=None) -> None:
        for index, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = index
            self.run(item, times.setdefault(item["name"], []))

    def for_seconds(self, seconds: float) -> dict:
        """Items round-robin until seconds are spent, after at least one full pass."""
        times: dict = {}
        end = perf_counter() + seconds
        self.one_pass(times)
        while perf_counter() < end:
            for item in self.items:
                self.run(item, times[item["name"]])
                if perf_counter() >= end:
                    break
        return times


def wall(times: dict, calibrated: bool = True) -> float:
    """Whole-input time: the sum over items of each item's median time.

    On a shared host the CPU speed a process gets can vary by 2x in spells
    of seconds to minutes (seen on a 2-vCPU VM), and the program's CPU time
    varies with it.  So each command's time is divided by the time of
    calibrate() run just before it, and the median ratio is scaled back to
    seconds by CALIBRATION_S: the whole-input time at the reference host
    speed.  calibrated=False gives the plain sum of medians, as measured.
    """
    if calibrated:
        return CALIBRATION_S * sum(statistics.median(dt / ref for dt, ref in ts)
                                   for ts in times.values())
    return sum(statistics.median(dt for dt, _ in ts) for ts in times.values())


def run(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = _setup(job["items"][0]["argv"][2])
    from platform_eq import cli
    loop = Loop(cli, job["items"])
    if not job["trace"]:
        times = loop.for_seconds(job["seconds"])
        result["wall_s"] = wall(times)
        result["wall_measured_s"] = wall(times, calibrated=False)
        result["samples"] = sum(len(ts) for ts in times.values())
    else:
        # untraced and traced passes alternate, so both meet the same spells
        # of host speed; counts come from the first traced pass
        from tracing import Tracer
        tracer = Tracer()
        untraced: dict = {}
        traced: dict = {}
        per_pass: list[dict] = []
        end = perf_counter() + job["seconds"]
        while not per_pass or perf_counter() < end:
            loop.one_pass(untraced)
            tracer.install()
            tracer.recording = not per_pass
            loop.one_pass(traced, tracer)
            tracer.uninstall()
            per_pass.append(tracer.take())
        tracer.recording = False
        tracer.write_spans(job["spans_path"])
        layers = {}
        warnings = list(tracer.warnings)
        for key, first in per_pass[0].items():
            values = [p[key] for p in per_pass]
            if key.endswith("_s"):
                layers[key] = None if first is None else statistics.median(values)
            else:
                layers[key] = first
                if any(v != first for v in values):
                    warnings.append(f"{key} differs between traced passes: {values}")
        layers["trace.overhead_ratio"] = wall(traced) / wall(untraced) - 1.0
        result.update(layers=layers, warnings=warnings, traced_passes=len(per_pass),
                      spans=len(tracer.spans))
    import numpy
    scipy = sys.modules.get("scipy")
    result.update(
        attempted=loop.attempted,
        broken=loop.broken,
        failed=sum(loop.failures.values()),
        failures=[{"unit": u, "reason": r, "times": n} for (u, r), n in loop.failures.items()],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": getattr(scipy, "__version__", None)})
    print(json.dumps(result))


if __name__ == "__main__":
    {"setup": setup, "run": run}[sys.argv[1]](sys.argv[2])
