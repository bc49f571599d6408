#!/usr/bin/env python3
"""exastp benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload stp_o8 --seed 1 --seconds 10 --trace 0

Builds the library (the repository's own CMakeLists.txt, target exastp) and
the driver (perfbench/CMakeLists.txt) under .bench_build/perfbench, makes the
workload's inputs from the seed, runs the driver in one process, checks its
outputs against references.json and prints the metrics. The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer ones. The line
before it holds the provenance, the generated inputs and any problems found.

    python3 perfbench/run.py --write-references

re-measures references.json (solver episodes and pool L2 thresholds) at the
current commit; see README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import evaluate  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Cap on the measuring loop when the sample minimums are slow to reach; keeps
# a run (warm-up, probes, checks included) inside RUN_TIMEOUT_S.
MAX_MEASURE_S = 100


class BenchError(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


# ---- build -------------------------------------------------------------------

def _cmake(args, log):
    with open(log, "a") as out:
        out.write("$ cmake " + " ".join(args) + "\n")
        out.flush()
        result = subprocess.run(["cmake"] + args, stdout=out, stderr=out,
                                timeout=BUILD_TIMEOUT_S)
    if result.returncode != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        raise BenchError("build failed:\n" + "\n".join(tail))


def build():
    """Builds libexastp and the driver; returns the driver's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no exastp sources (CMakeLists.txt, src/) in {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    lib, drv = BUILD / "exastp", BUILD / "driver"
    jobs = str(nproc())
    if not (lib / "CMakeCache.txt").exists():
        _cmake(["-S", str(ROOT), "-B", str(lib), "-DCMAKE_BUILD_TYPE=Release",
                "-DEXASTP_BUILD_TESTS=OFF", "-DEXASTP_BUILD_EXAMPLES=OFF",
                "-DEXASTP_BUILD_BENCHES=OFF"], log)
    _cmake(["--build", str(lib), "--target", "exastp", "-j", jobs], log)
    if not (drv / "CMakeCache.txt").exists():
        _cmake(["-S", str(HERE), "-B", str(drv), "-DCMAKE_BUILD_TYPE=Release",
                f"-DEXASTP_BUILD_DIR={lib}"], log)
    _cmake(["--build", str(drv), "-j", jobs], log)
    return drv / "perfbench_driver"


def provenance(raw, args, threads):
    cache = {}
    for line in (BUILD / "exastp" / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and not line.startswith(("#", "//")):
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted([ROOT / "CMakeLists.txt"] + list((ROOT / "src").rglob("*"))):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS"),
            cache.get("CMAKE_CXX_FLAGS_" + cache.get("CMAKE_BUILD_TYPE", "").upper())])),
        "isa": raw["isa"],
        "nproc": nproc(),
        "threads": threads,
        "peak_gflops_core": raw["peak_gflops_core"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---- running -----------------------------------------------------------------

def run_driver(driver, params, timeout):
    cmd = [str(driver)] + [f"{k}={v}" for k, v in params.items()]
    result = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if result.returncode != 0:
        raise BenchError(f"driver failed ({result.returncode}): "
                         f"{result.stderr.strip()[-2000:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def solver_threads():
    return min(workloads.THREADS, nproc())


def solver_params(workload, receiver_ids, threads):
    points = ";".join(",".join(str(c) for c in workload.receivers[i])
                      for i in receiver_ids)
    return {"mode": "solver", "config": f"{workload.config} threads={threads}",
            "receivers": points}


def run_workload(args, driver, deadline):
    workload = workloads.WORKLOADS[args.workload]
    run_dir = BUILD / "run"
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    common = {"trace": args.trace, "seconds": args.seconds,
              "max_seconds": MAX_MEASURE_S,
              "tmp_dir": run_dir / "tmp",
              "trace_file": run_dir / f"trace-{args.workload}-{args.seed}.json"}
    refs = json.loads(REFERENCES.read_text())
    pool = isinstance(workload, workloads.PoolWorkload)
    if pool:
        lines, record = workloads.ensemble_batch(args.seed)
        batch = run_dir / f"batch-{args.seed}.txt"
        batch.write_text("\n".join(lines) + "\n")
        params = dict(common, mode="pool", batch=batch, jobs=workload.jobs,
                      seed=args.seed)
        threads = workload.jobs
        inputs = {"batch": lines, "mix": record}
    else:
        inputs = workloads.solver_inputs(workload, args.seed)
        threads = solver_threads()
        params = dict(common, **solver_params(workload, inputs["receivers"], threads),
                      seed=inputs["stp_seed"])
    raw = run_driver(driver, params, max(10.0, deadline - time.monotonic()))

    if pool:
        attempted, failed, problems = evaluate.check_pool(
            raw, refs["ensemble_mixed"]["l2_thresholds"])
        if args.trace:
            values, table = evaluate.per_layer(raw, pool=True), evaluate.PER_LAYER
        else:
            values, table = evaluate.pool_end_to_end(raw), evaluate.END_TO_END
        details = evaluate.pool_details(raw)
    else:
        attempted, failed, problems = evaluate.check_solver(
            raw, refs[args.workload], inputs["receivers"])
        if args.trace:
            values, table = evaluate.per_layer(raw, pool=False), evaluate.PER_LAYER
        else:
            values, table = evaluate.solver_end_to_end(raw), evaluate.END_TO_END
        details = {"episodes": len(raw["episodes"]), "step_samples": len(raw["step_ms"])}
    report = {
        "provenance": provenance(raw, args, threads),
        "inputs": inputs,
        "details": details,
        "problems": problems[:20],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": evaluate.with_units(values, table)}
    return report, result


# ---- references --------------------------------------------------------------

def write_references(driver):
    """Re-measures every stored reference at the current commit."""
    refs = {}
    threads = solver_threads()
    for name, workload in workloads.WORKLOADS.items():
        if isinstance(workload, workloads.PoolWorkload):
            continue
        ids = list(range(len(workload.receivers)))
        raw = run_driver(driver, dict(solver_params(workload, ids, threads),
                                      trace=0, seconds=0, min_episodes=1,
                                      min_steps=0), RUN_TIMEOUT_S)
        ep = raw["episodes"][0]
        if ep["error"]:
            raise BenchError(f"{name}: {ep['error']}")
        refs[name] = {"config": workload.config, "steps": ep["steps"],
                      "norms": ep["norms"], "receivers": ep["receivers"]}
        print(f"{name}: {ep['steps']} steps", file=sys.stderr)

    # Pool L2 thresholds: 4x the largest error any generated line of that
    # scenario and order reaches at this commit.
    domain = workloads.ensemble_domain()
    batch = BUILD / "run" / "domain.txt"
    batch.parent.mkdir(parents=True, exist_ok=True)
    batch.write_text("\n".join(domain) + "\n")
    raw = run_driver(driver, {"mode": "pool", "trace": 0, "seconds": 0,
                              "min_batches": 1, "batch": batch,
                              "jobs": workloads.POOL_JOBS}, RUN_TIMEOUT_S)
    worst = {}
    for job in raw["batches"][0]["jobs"]:
        if job["status"] != "done":
            raise BenchError(f"{job['label']}: {job['error']}")
        cfg = workloads.parse_line(job["label"])
        if job["l2_error"] is not None:
            key = (cfg["scenario"], cfg["order"])
            worst[key] = max(worst.get(key, 0.0), job["l2_error"])
    thresholds = {}
    for (scenario, order), err in sorted(worst.items()):
        thresholds.setdefault(scenario, {})[order] = float(f"{4 * err:.2g}")
    refs["ensemble_mixed"] = {"l2_thresholds": thresholds,
                              "l2_measured_max": {f"{s}/{o}": e
                                                  for (s, o), e in sorted(worst.items())}}
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {REFERENCES}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args()
    if args.workload is None and not args.write_references:
        parser.error("--workload is required")
    try:
        driver = build()
        if args.write_references:
            write_references(driver)
            return 0
        report, result = run_workload(args, driver,
                                      time.monotonic() + RUN_TIMEOUT_S)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(report, result=result), indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
