"""The benchmark of record: notebook latency end to end, self time per layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py                        # every workload, untraced + traced
    python3 benchmarks/e2e/run.py --workload enedis --seed 3 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --runs 10 --trace 0 --out a.json   # seeds 1..10
    python3 benchmarks/e2e/run.py compare a.json b.json

Workloads, metrics, units, directions and regression bounds are read from
``BENCHMARK.json`` at the repository root.  Each run is a fresh child
process (``workloads.py``) with ``OPENBLAS_NUM_THREADS=1`` and
``OMP_NUM_THREADS=1``, so the program's only parallelism is its own
workers.  An untraced run (``--trace 0``) reports the end-to-end metrics,
a traced run (``--trace 1``) the per-layer ones; without ``--trace`` both
run.  Every metric is printed by name and unit, output checks feed the
failure count, and the exit code is nonzero when any check failed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = 1
#: Each child must finish within this many seconds (the run, set-up and checks).
CHILD_TIMEOUT = 170.0
#: BLAS/OpenMP pools pinned to one thread in every workload process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_benchmark(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- statistics shared by the report and compare ---------------------------------


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def tail(values: list[float]) -> dict | None:
    """The highest of p75..p99 with at least ten samples beyond it, or None.

    Nearest-rank percentiles: ``p`` qualifies when ``n - ceil(p/100 * n)``
    samples lie above its rank, so p80 needs 50 samples and p90 needs 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in (75, 80, 90, 95, 99):
        rank = -(-p * n // 100)
        if rank >= 1 and n - rank >= 10:
            best = {"percentile": p, "value": ordered[rank - 1], "n": n}
    return best


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Compare the runs of one (workload, metric) of set ``a`` with set ``b``.

    ``worse`` when ``b``'s median is worse than ``a``'s by more than the
    bound, ``better`` when better by more than it, ``same`` otherwise, and
    ``unresolved`` when either set's quartile spread exceeds the bound --
    unless every run of ``b`` reads better than every run of ``a``.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0  # > 0: worse
    spread = max(quartile_spread(a), quartile_spread(b))
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound:
        word = "better" if all_better else "unresolved"
    elif change > bound:
        word = "worse"
    elif change < -bound:
        word = "better"
    else:
        word = "same"
    return {"a": med_a, "b": med_b, "delta": sign * change, "spread": spread,
            "bound": bound, "verdict": word}


def compare(doc_a: dict, doc_b: dict, benchmark: dict) -> list[dict]:
    """One verdict per (workload, end-to-end metric) present in both sets."""
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs_a = [r for r in doc_a["runs"] if r["workload"] == workload and r["trace"] == 0]
        runs_b = [r for r in doc_b["runs"] if r["workload"] == workload and r["trace"] == 0]
        if not runs_a or not runs_b:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = verdict([r["metrics"][name] for r in runs_a],
                          [r["metrics"][name] for r in runs_b],
                          metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "runs": (len(runs_a), len(runs_b)), **row})
    return rows


# -- running children ------------------------------------------------------------


def child_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def _reap_group(pgid: int) -> None:
    """Stop and wait out whatever the child left in its process group."""
    for sig in (0, signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
            sig = 0
            time.sleep(0.05)


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One workload run in a fresh process; its result dict, or an error."""
    workdir = HERE / ".work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    request = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "workdir": str(workdir)}
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(request)],
        cwd=ROOT, env=child_env(workdir), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out = ""
    finally:
        _reap_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    wall = time.perf_counter() - started
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "trace": trace, "error":
                f"workload process exited {proc.returncode} after {wall:.1f}s"}
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def git_sha() -> str:
    # The ceiling keeps git from searching above the checkout for a repository.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- reporting -------------------------------------------------------------------


def _units(benchmark: dict) -> dict:
    return {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def print_run(run: dict, units: dict) -> None:
    head = f"== {run['workload']} seed={run['seed']} trace={run['trace']}"
    if "error" in run:
        print(f"{head}: ERROR {run['error']}")
        return
    print(f"{head}: attempted={run['attempted']} failed={run['failed']} "
          f"wall={run['wall_s']:.1f}s")
    for name, value in run["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {units.get(name, '')}")
    for index, phase in enumerate(run["phases"]):
        seconds = phase["notebook_s"]
        top = tail(seconds)
        top_text = (f"p{top['percentile']}={top['value']:.4f}s" if top
                    else "no tail percentile has 10 samples beyond it")
        print(f"  phase {index}: notebook_s n={len(seconds)} "
              f"median={statistics.median(seconds):.4f} min={min(seconds):.4f} "
              f"max={max(seconds):.4f} {top_text}; appends={len(phase['append_s'])} "
              f"first_notebook_s={phase['first_notebook_s']:.4f}")
        print(f"    digests: {json.dumps(phase['digests'])}")
        for failure in phase["failures"]:
            print(f"    FAILED: {failure}")


def contract_line(runs: list[dict], units: dict) -> dict:
    """The last output line: one workload's metrics, or medians keyed by workload."""
    good = [r for r in runs if "error" not in r]
    several = len({r["workload"] for r in good}) > 1
    values: dict[str, tuple[str, list[float]]] = {}
    for run in good:
        for name, value in run["metrics"].items():
            key = f"{run['workload']}.{name}" if several else name
            values.setdefault(key, (units[name], []))[1].append(value)
    return {
        "correct": len(good) == len(runs) and all(r["correct"] for r in good),
        "attempted": sum(r["attempted"] for r in good),
        "failed": sum(r["failed"] for r in good),
        "metrics": {key: {"value": statistics.median(v), "unit": unit}
                    for key, (unit, v) in values.items()},
    }


def main_run(args, benchmark: dict) -> int:
    units = _units(benchmark)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds or benchmark["run_seconds"]
    traces = [args.trace] if args.trace is not None else [0, 1]
    runs = []
    for workload in workloads:
        for trace in traces:
            for index in range(args.runs):
                run = run_child(workload, args.seed + index, seconds, trace)
                kind = "end_to_end" if trace == 0 else "per_layer"
                missing = [m["name"] for m in benchmark[kind]
                           if m["name"] not in run.get("metrics", {})]
                if missing and "error" not in run:
                    run = {**run, "error": f"no value for {', '.join(missing)}"}
                print_run(run, units)
                runs.append(run)
    if any("error" in r for r in runs):
        print("benchmark failed: a workload process did not produce a result",
              file=sys.stderr)
        return 1
    if args.out:
        doc = {
            "schema": SCHEMA,
            "meta": {
                "git_sha": git_sha(), "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": sorted({r["numpy"] for r in runs}),
                "blas_threads": THREAD_ENV, "seed": args.seed, "runs": args.runs,
                "run_seconds": seconds,
                "repeats": {w: [[len(p["notebook_s"]) for p in r["phases"]]
                                for r in runs if r["workload"] == w] for w in workloads},
                "wall_s": {w: sum(r["wall_s"] for r in runs if r["workload"] == w)
                           for w in workloads},
            },
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1), encoding="utf-8")
    line = contract_line(runs, units)
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


def main_compare(path_a: str, path_b: str, benchmark: dict) -> int:
    doc_a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    doc_b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    rows = compare(doc_a, doc_b, benchmark)
    print(f"{'workload':<14} {'metric':<16} {'A median':>11} {'B median':>11} "
          f"{'delta':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<16} {row['a']:>11.5g} "
              f"{row['b']:>11.5g} {row['delta']:>+8.1%} {row['spread']:>7.1%} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    return 1 if worse or not rows else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    benchmark = load_benchmark()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return main_compare(args.a, args.b, benchmark)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (run i of --runs uses seed + i)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer (default: both)")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write every run and its metadata as JSON")
    return main_run(parser.parse_args(argv), benchmark)


if __name__ == "__main__":
    sys.exit(main())
