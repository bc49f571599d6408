"""Correctness checks and metrics over the driver's raw measurements.

Pure functions of the driver output (a dict parsed from its JSON), the
stored references and the workload's inputs, so the self-tests can feed
them synthetic data.
"""

import math
import statistics

from workloads import parse_line

# Relative tolerances of the reference checks, scaled by the largest
# magnitude of the compared vector. Legitimate floating-point reordering
# (new microkernels, another reduction order) moves these values by
# ~1e-13; a wrong kernel or corrector moves them by O(1).
NORM_RTOL = 1e-8
RECEIVER_RTOL = 1e-6

END_TO_END = {
    # name: (unit, better)
    "dof_updates_per_s": ("DOF/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "jobs_per_s": ("jobs/s", "higher"),
    "job_ms_p50": ("ms", "lower"),
}

PER_LAYER = {
    "gemm.8x24x8.gflops": ("GFLOP/s", "higher"),
    "gemm.8x24x8.pct_peak": ("%", "higher"),
    "gemm.8x192x8.gflops": ("GFLOP/s", "higher"),
    "gemm.8x192x8.pct_peak": ("%", "higher"),
    "gemm.21x8x8.gflops": ("GFLOP/s", "higher"),
    "gemm.21x8x8.pct_peak": ("%", "higher"),
    "perf.peak_gflops_core": ("GFLOP/s", "higher"),
    "stp.us_per_call": ("us", "lower"),
    "stp.gflops": ("GFLOP/s", "higher"),
    "stp.pct_peak": ("%", "higher"),
    "stp.flops_per_call": ("count", "lower"),
    "stp.workspace_bytes": ("bytes", "lower"),
    "step.ms_per_step": ("ms", "lower"),
    "step.predict_share": ("ratio", "lower"),
    "step.exchange_share": ("ratio", "lower"),
    "step.self_share": ("ratio", "lower"),
    "solver.predict_ms_per_step": ("ms", "lower"),
    "solver.correct_ms_per_step": ("ms", "lower"),
    "solver.rk_stage_ms_per_step": ("ms", "lower"),
    "solver.stable_dt_ms_per_step": ("ms", "lower"),
    "solver.correct_share": ("ratio", "lower"),
    "exchange.halo_kib_per_step": ("KiB", "lower"),
    "exchange.post_ms_per_step": ("ms", "lower"),
    "exchange.wait_ms_per_step": ("ms", "lower"),
    "sched.wait_ms_per_step": ("ms", "lower"),
    "sched.tasks_per_step": ("count", "lower"),
    "sched.blocked_polls_per_step": ("count", "lower"),
    "shard.imbalance": ("ratio", "lower"),
    "lts.clusters": ("count", "higher"),
    "lts.cell_substeps_per_step": ("count", "lower"),
    "io.receivers_us_per_step": ("us", "lower"),
    "engine.setup_solver_ms": ("ms", "lower"),
    "engine.setup_init_ms": ("ms", "lower"),
    "engine.cold_setup_ms": ("ms", "lower"),
    "engine.kernel_cache_hits": ("count", "higher"),
    "engine.kernel_cache_misses": ("count", "lower"),
    "service.memo_hit_ratio": ("ratio", "higher"),
    "service.runs_executed": ("count", "lower"),
    "service.worker_busy": ("ratio", "higher"),
    "run.gflop_per_s": ("GFLOP/s", "higher"),
    "run.pct_peak": ("%", "higher"),
    "run.cpu_util": ("ratio", "higher"),
    "parallel.speedup_vs_serial": ("ratio", "higher"),
    "telemetry.trace_overhead": ("ratio", "lower"),
}


class TooFewSamples(ValueError):
    pass


def tail_percentile(samples, q, min_beyond=10):
    """Nearest-rank q-quantile, only when at least `min_beyond` samples lie
    beyond it (so p90 needs >= 100 samples); raises TooFewSamples otherwise."""
    n = len(samples)
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < min_beyond:
        raise TooFewSamples(f"p{round(100 * q)} needs {min_beyond} samples beyond"
                            f" it, got {n} samples")
    return sorted(samples)[rank - 1]


# ---- correctness ---------------------------------------------------------------

def _close(values, refs, rtol):
    if len(values) != len(refs):
        return False
    scale = max((abs(r) for r in refs), default=0.0)
    return all(v is not None and abs(v - r) <= rtol * scale
               for v, r in zip(values, refs))


def check_episode(episode, reference, receiver_ids):
    """Problems found in one solver episode (empty list = correct)."""
    problems = []
    if episode["error"]:
        return [f"error: {episode['error']}"]
    if episode["steps"] != reference["steps"]:
        problems.append(f"steps {episode['steps']} != {reference['steps']}")
    if not _close(episode["norms"], reference["norms"], NORM_RTOL):
        problems.append("final-state norms differ from the reference")
    for slot, cand in enumerate(receiver_ids):
        got = episode["receivers"][slot] if slot < len(episode["receivers"]) else []
        if not _close(got, reference["receivers"][cand], RECEIVER_RTOL):
            problems.append(f"receiver {cand} trace differs from the reference")
    return problems


def check_job(job, thresholds):
    """Problems found in one pool job (empty list = correct)."""
    if job["status"] != "done":
        return [f"{job['status']}: {job['error']}"]
    cfg = parse_line(job["label"])
    problems = []
    t_end = float(cfg["t_end"])
    if job["steps"] <= 0 or abs(job["t"] - t_end) > 1e-9 * max(1.0, t_end):
        problems.append(f"stopped at t={job['t']} after {job['steps']} steps")
    limit = thresholds.get(cfg["scenario"], {}).get(cfg["order"])
    if limit is not None:
        l2 = job["l2_error"]
        if l2 is None or not l2 <= limit:
            problems.append(f"L2 error {l2} above {limit}")
    return problems


def solver_episodes(raw):
    """Every episode the driver ran, in order (warm-up, timed, traced)."""
    eps = [raw["warmup_episode"]] + raw["episodes"]
    if "traced_episode" in raw:
        eps.append(raw["traced_episode"])
    return eps


def pool_batches(raw):
    batches = [raw["warmup_batch"]] + raw["batches"]
    if "traced_batch" in raw:
        batches.append(raw["traced_batch"])
    return batches


def check_solver(raw, reference, receiver_ids):
    """(attempted steps, failed steps, problems)."""
    attempted = failed = 0
    problems = []
    for i, ep in enumerate(solver_episodes(raw)):
        found = check_episode(ep, reference, receiver_ids)
        attempted += reference["steps"]
        if found:
            failed += reference["steps"]
            problems += [f"episode {i}: {p}" for p in found]
    return attempted, failed, problems


def check_pool(raw, thresholds):
    """(attempted jobs, failed jobs, problems)."""
    attempted = failed = 0
    problems = []
    for b, batch in enumerate(pool_batches(raw)):
        for job in batch["jobs"]:
            attempted += 1
            found = check_job(job, thresholds)
            if found:
                failed += 1
                problems += [f"batch {b} job '{job['label']}': {p}" for p in found]
    return attempted, failed, problems


# ---- end-to-end metrics ----------------------------------------------------------

def solver_end_to_end(raw):
    eps = raw["episodes"]
    steps = raw["step_ms"]
    rates = [e["dofs_per_cell"] * e["cell_substeps"] / e["run_s"] for e in eps]
    job_s = [e["setup_s"] + e["run_s"] for e in eps]
    return {
        "dof_updates_per_s": statistics.median(rates),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": tail_percentile(steps, 0.9),
        "setup_s": statistics.median(e["setup_s"] for e in eps),
        "peak_rss_mib": raw["warmup_peak_rss_mib"],
        "jobs_per_s": len(eps) / sum(job_s),
        "job_ms_p50": 1e3 * statistics.median(job_s),
    }


def executed_jobs(batch):
    return [j for j in batch["jobs"] if "run_s" in j]


def pool_end_to_end(raw):
    batches = raw["batches"]
    executed = [j for b in batches for j in executed_jobs(b)]
    rates = []
    for b in batches:
        ex = executed_jobs(b)
        rates.append(sum(j["dofs_per_cell"] * j["cell_substeps"] for j in ex)
                     / sum(j["run_s"] for j in ex))
    steps = [s for j in executed for s in j["step_ms"]]
    return {
        "dof_updates_per_s": statistics.median(rates),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": tail_percentile(steps, 0.9),
        "setup_s": statistics.median(j["seconds"] - j["run_s"] for j in executed),
        "peak_rss_mib": raw["warmup_peak_rss_mib"],
        "jobs_per_s": statistics.median(len(b["jobs"]) / b["wall_s"]
                                        for b in batches),
        "job_ms_p50": 1e3 * statistics.median(j["seconds"] for j in executed),
    }


def pool_details(raw):
    """Extra pool figures outside the metric contract."""
    executed = [j for b in raw["batches"] for j in executed_jobs(b)]
    job_ms = [1e3 * j["seconds"] for j in executed]
    details = {"executed_jobs": len(executed), "batches": len(raw["batches"])}
    try:
        details["job_ms_p90"] = tail_percentile(job_ms, 0.9)
    except TooFewSamples as e:
        details["job_ms_p90"] = str(e)
    return details


# ---- per-layer metrics -----------------------------------------------------------

def per_layer(raw, pool):
    """Every PER_LAYER metric from a traced driver run."""
    layers = raw["layers"]
    bd = layers["breakdown"]
    steps = max(1.0, bd["steps"])
    step_ms = bd["step_ms"]
    exchange_ms = bd["exchange_post_ms"] + bd["exchange_wait_ms"]
    children = (bd["stable_dt_ms"] + bd["predict_ms"] + bd["correct_ms"]
                + bd["rk_stage_ms"] + exchange_ms + bd["sched_wait_ms"] + bd["receivers_ms"])
    peak = raw["peak_gflops_core"]
    threads = layers["threads"]
    out = dict(raw["gemm"])
    out["perf.peak_gflops_core"] = peak
    out.update({f"stp.{k}": v for k, v in raw["stp"].items()})
    out.update({
        "step.ms_per_step": step_ms / steps,
        "step.predict_share": bd["predict_ms"] / step_ms,
        "step.exchange_share": exchange_ms / step_ms,
        "step.self_share": (step_ms - children) / step_ms,
        "solver.predict_ms_per_step": bd["predict_ms"] / steps,
        "solver.correct_ms_per_step": bd["correct_ms"] / steps,
        "solver.rk_stage_ms_per_step": bd["rk_stage_ms"] / steps,
        "solver.stable_dt_ms_per_step": bd["stable_dt_ms"] / steps,
        "solver.correct_share": bd["correct_ms"] / step_ms,
        "exchange.halo_kib_per_step": layers["halo_bytes_per_step"] / 1024.0,
        "exchange.post_ms_per_step": bd["exchange_post_ms"] / steps,
        "exchange.wait_ms_per_step": bd["exchange_wait_ms"] / steps,
        "sched.wait_ms_per_step": bd["sched_wait_ms"] / steps,
        "sched.tasks_per_step": layers["sched_tasks_per_step"],
        "sched.blocked_polls_per_step": layers["sched_blocked_polls_per_step"],
        "shard.imbalance": layers["shard_imbalance"],
        "lts.clusters": layers["lts_clusters"],
        "lts.cell_substeps_per_step": layers["cell_substeps_per_step"],
        "io.receivers_us_per_step": layers["receivers_us_per_step"],
        "engine.setup_solver_ms": layers["setup_solver_ms"],
        "engine.setup_init_ms": layers["setup_init_ms"],
        "engine.kernel_cache_hits": raw["engine_cache_hits"],
        "engine.kernel_cache_misses": raw["engine_cache_misses"],
        "run.gflop_per_s": layers["run_gflop_per_s"],
        "run.pct_peak": 100.0 * layers["run_gflop_per_s"] / (peak * threads),
        "run.cpu_util": layers["cpu_util"],
        "telemetry.trace_overhead": (statistics.median(raw["traced_step_ms"])
                                     / _untraced_step_p50(raw, pool) - 1.0),
    })
    if pool:
        warm = executed_jobs(raw["warmup_batch"])
        traced = raw["traced_batch"]
        out.update({
            "engine.cold_setup_ms": 1e3 * statistics.median(
                j["seconds"] - j["run_s"] for j in warm),
            "service.memo_hit_ratio": sum(j["from_cache"] for j in traced["jobs"])
                                      / len(traced["jobs"]),
            "service.runs_executed": traced["runs_executed"],
            "service.worker_busy": layers["worker_busy"],
            "parallel.speedup_vs_serial": raw["serial_wall_s"] / raw["parallel_wall_s"],
        })
    else:
        eps = raw["episodes"] + [raw["traced_episode"]]
        out.update({
            "engine.cold_setup_ms": 1e3 * raw["warmup_episode"]["setup_s"],
            "service.memo_hit_ratio": 0.0,
            "service.runs_executed": len(eps) + 1,
            "service.worker_busy": sum(e["setup_s"] + e["run_s"] for e in raw["episodes"])
                                   / raw["elapsed_s"],
            "parallel.speedup_vs_serial": raw["serial_step_ms"] / raw["parallel_step_ms"],
        })
    return out


def _untraced_step_p50(raw, pool):
    if not pool:
        return statistics.median(raw["step_ms"])
    return statistics.median(s for b in raw["batches"] for j in executed_jobs(b)
                             for s in j["step_ms"])


def with_units(values, table):
    """{name: {"value", "unit"}} in the table's order; every name required."""
    missing = [n for n in table if n not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {n: {"value": values[n], "unit": table[n][0]} for n in table}
