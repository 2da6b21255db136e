"""Benchmark of osptwist: cold-process certificate runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``--trace 0`` starts fresh
interpreters (``child.py``) one after another until ``--seconds`` would be
exceeded, at least one, and reports the median of each end-to-end metric
over them; between them it starts set-up-only processes, so that every run
has several set-up samples.  Times are in reference seconds: wall time
scaled to a fixed host speed by the probes of ``yardstick.py``, which run
in every child; the plain wall-clock medians are in the provenance line.
``--trace 1`` runs the workload once untraced and once under the wrappers
of ``tracer.py`` and reports the per-layer metrics and the tracing
overhead, both as measured (traced minus untraced wall time, in reference
seconds) and as estimated from the wrappers' calibrated per-call cost.

The line before the last holds the provenance: host facts, the commit,
the seed, the workload's sizes and every sample.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  A run in which
any certificate fails, errors or misses its fingerprint, or a process
crashes or times out, still prints a result, with ``correct`` false; a
crashed process is charged with its workload's whole certificate count,
and a figure that no process produced reads null.  The exit status is then
1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9  # set-up-only processes per untraced run
DEADLINE_S = 170.0  # every child is killed past this, counted from start


def host_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def git_commit():
    """HEAD of the checkout; None outside a clone or without git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tally(children) -> tuple[int, int]:
    """(attempted, failed) certificates over child results.  A child that
    crashed, timed out or raised is charged with its workload's whole
    certificate count."""
    attempted = failed = 0
    for child in children:
        certs = child.get("certs")
        if certs is None:
            attempted += child["expected_certs"]
            failed += child["expected_certs"]
        else:
            attempted += len(certs)
            failed += sum(1 for _, ok in certs if not ok)
    return attempted, failed


class Runner:
    """Starts child processes for one workload and seed, and stops them."""

    def __init__(self, workload: str, seed: int, start: float, expected_certs: int):
        self.workload = workload
        self.expected_certs = expected_certs
        self.seed = seed
        self.deadline = start + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"  # dict and set orders, so counts repeat
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def spawn(self, setup_only=False, trace=False) -> dict:
        """Run one cold process; return its result with wall times added."""
        self.count += 1
        tag = "%s-%d-%d-%d" % (self.workload, self.seed, os.getpid(), self.count)
        out = OUT / (tag + ".json")
        cmd = [sys.executable, str(BENCH / "child.py"), self.workload, str(self.seed), str(out)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", str(OUT / ("spans-%s-%d.json" % (self.workload, self.seed)))]
        base = {"expected_certs": self.expected_certs}
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), env=self.env, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code is None:
            return dict(base, error="timed out")
        try:
            with open(out) as fh:
                res = json.load(fh)
            out.unlink()
        except (OSError, ValueError):
            return dict(base, error="exit status %d, no result" % code)
        res.update(base)
        # reference seconds (yardstick.py); the parent's stretch before the
        # child's first line goes at the speed of the child's first probe
        before = (res["t_start"] - t_spawn) * res["start_scale"]
        res["setup_raw_s"] = res["t_setup"] - t_spawn
        res["setup_s"] = before + res["ref_setup"]
        res["peak_rss_mb"] = res["maxrss_kib"] / 1024
        if "t_end" in res:
            res["wall_raw_s"] = res["t_end"] - t_spawn
            res["wall_s"] = before + res["ref_end"]
            # CPU time without the probes, at the wall time's speed factor
            busy = res["wall_raw_s"] - res["probe_s"]
            res["cpu_s"] = (res["cpu_raw_s"] - res["probe_s"]) * res["wall_s"] / busy
        return res


def measure(runner: Runner, seconds: float):
    """Workload processes until the next would end past ``seconds``, with a
    set-up-only process before each; then set-up-only ones up to
    SETUP_SAMPLES.  Returns (workload results, set-up results)."""
    start = time.monotonic()
    children, setups = [], []
    while True:
        setups.append(runner.spawn(setup_only=True))
        children.append(runner.spawn())
        walls = [c["wall_raw_s"] for c in children if "wall_raw_s" in c]
        if len(walls) < len(children):
            break
        if time.monotonic() - start + statistics.median(walls) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(setup_only=True))
    return children, setups


def median_of(results, key):
    """(median, samples) of ``key``; the median is None without samples."""
    values = [r[key] for r in results if key in r]
    return (statistics.median(values) if values else None), values


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "osptwist" / "__init__.py").is_file():
        print("error: no osptwist sources under %s" % src, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # the bytecode cache is written here, so no timed run pays to compile
    for tree in (src / "osptwist", BENCH):
        compileall.compile_dir(str(tree), quiet=1)
    sys.path.insert(0, str(src))
    import workloads

    runner = Runner(
        args.workload, args.seed, time.monotonic(),
        workloads.EXPECTED_CERTS[args.workload],
    )
    prov = {
        "benchmark": "osptwist",
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workloads.SEED_USED[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_facts(),
        "commit": git_commit(),
    }
    if args.trace:
        # alternate which side goes first, so a host drift does not always
        # land on the same side of the overhead
        order = (False, True) if args.seed % 2 == 0 else (True, False)
        runs = {traced: runner.spawn(trace=traced) for traced in order}
        children = list(runs.values())
        traced, plain = runs[True], runs[False]
        wanted = spec["per_layer"]
        # a process that crashed or timed out has no figures: they read null
        values = dict.fromkeys((m["name"] for m in wanted), None)
        if "layers" in traced:
            layers = dict(traced["layers"])
            layers["trace.wall_s"] = traced["wall_s"]
            layers["trace.untraced_wall_s"] = plain.get("wall_s")
            layers["trace.overhead_s"] = (
                traced["wall_s"] - plain["wall_s"] if "wall_s" in plain else None)
            values = {name: layers[name] for name in values}
        prov["spans_file"] = str(OUT.relative_to(ROOT) / (
            "spans-%s-%d.json" % (args.workload, args.seed)))
    else:
        children, setups = measure(runner, args.seconds)
        wanted = spec["end_to_end"]
        values, samples = {}, {}
        for key in ("wall_s", "cpu_s", "peak_rss_mb", "wall_raw_s", "cpu_raw_s", "probe_s"):
            values[key], samples[key] = median_of(children, key)
        for key in ("setup_s", "setup_raw_s"):
            values[key], samples[key] = median_of(children + setups, key)
        # wall-clock figures and the probes' own time, next to the metrics
        prov["raw_medians"] = {
            key: values.pop(key)
            for key in ("wall_raw_s", "cpu_raw_s", "setup_raw_s", "probe_s")}
        prov["samples"] = samples
        prov["processes"] = {"workload": len(children), "setup_only": len(setups)}

    attempted, failed = tally(children)
    if not args.trace:
        values["cert_pass_ratio"] = (attempted - failed) / attempted
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    prov["sizes"] = next((c["sizes"] for c in children if "sizes" in c), None)
    prov["failed_certs"] = sorted({
        name for c in children for name, ok in c.get("certs", ()) if not ok
    })
    prov["errors"] = [c["error"] for c in children if "error" in c]
    prov["metrics"] = metrics
    correct = failed == 0 and not prov["errors"]
    print(json.dumps(prov))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
