"""Self-tests of the benchmark itself (not of exastp).

    python3 perfbench/test_perfbench.py            # fast checks, no build
    PERFBENCH_RUN=1 python3 perfbench/test_perfbench.py
                                                   # also runs every workload

The fast checks feed synthetic driver output through the metric and check
code; the PERFBENCH_RUN checks build the program and run each workload once
untraced and once traced, from the repository root.
"""

import copy
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import evaluate  # noqa: E402
import workloads  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text())


def fake_episode(ref, receiver_ids):
    return {"setup_s": 0.01, "run_s": 1.0, "steps": ref["steps"],
            "cell_substeps": 64.0 * ref["steps"], "dofs_per_cell": 100.0,
            "error": "", "norms": list(ref["norms"]),
            "receivers": [list(ref["receivers"][i]) for i in receiver_ids]}


def fake_solver_raw(n_steps=120, traced=False):
    ref = REFS["stp_o8"]
    ep = fake_episode(ref, [0, 1, 2])
    raw = {"isa": "avx512", "peak_gflops_core": 80.0, "warmup_peak_rss_mib": 30.0,
           "warmup_episode": ep, "episodes": [dict(ep) for _ in range(4)],
           "step_ms": [40.0 + 0.01 * i for i in range(n_steps)],
           "elapsed_s": 4.1}
    if traced:
        raw.update(fake_layers())
        raw.update({"traced_episode": dict(ep), "serial_step_ms": 80.0,
                    "parallel_step_ms": 40.0})
    return raw


def fake_layers():
    breakdown = {"steps": 10, "step_ms": 400.0, "stable_dt_ms": 1.0,
                 "predict_ms": 300.0, "correct_ms": 80.0, "rk_stage_ms": 0.0,
                 "exchange_post_ms": 10.0, "exchange_wait_ms": 0.0,
                 "sched_wait_ms": 2.0, "receivers_ms": 0.5}
    layers = {"breakdown": breakdown, "setup_solver_ms": 5.0,
              "setup_init_ms": 1.0, "shard_imbalance": 1.1,
              "halo_bytes_per_step": 4096.0, "sched_tasks_per_step": 8,
              "sched_blocked_polls_per_step": 0, "lts_clusters": 1,
              "cell_substeps_per_step": 64, "receivers_us_per_step": 10.0,
              "run_gflop_per_s": 12.0, "cpu_util": 0.9, "threads": 4,
              "worker_busy": 0.8}
    gemm = {}
    for shape in ("8x24x8", "8x192x8", "21x8x8"):
        gemm[f"gemm.{shape}.gflops"] = 10.0
        gemm[f"gemm.{shape}.pct_peak"] = 12.5
    return {"layers": layers, "gemm": gemm,
            "stp": {"us_per_call": 1000.0, "gflops": 7.0, "pct_peak": 8.0,
                    "flops_per_call": 7e6, "workspace_bytes": 775488},
            "traced_step_ms": [41.0] * 10, "engine_cache_hits": 3,
            "engine_cache_misses": 1}


def fake_pool_raw(lines, traced=False):
    def batch():
        jobs = []
        seen = set()
        for line in lines:
            cached = line in seen
            seen.add(line)
            job = {"label": line, "status": "done", "error": "",
                   "seconds": 0.03, "from_cache": cached, "steps": 10,
                   "t": float(workloads.parse_line(line)["t_end"]),
                   "l2_error": None, "flops": 1e6}
            cfg = workloads.parse_line(line)
            if cfg["scenario"] != "loh1":
                job["l2_error"] = 1e-12
            if not cached:
                job.update({"run_s": 0.029, "cell_substeps": 270.0,
                            "dofs_per_cell": 256.0, "step_ms": [2.9] * 10})
            jobs.append(job)
        return {"wall_s": 0.4, "runs_executed": len(seen), "jobs": jobs}

    raw = {"isa": "avx512", "peak_gflops_core": 80.0, "warmup_peak_rss_mib": 40.0,
           "warmup_batch": batch(), "batches": [batch() for _ in range(3)],
           "elapsed_s": 1.2}
    if traced:
        raw.update(fake_layers())
        raw.update({"traced_batch": batch(), "serial_wall_s": 1.2,
                    "parallel_wall_s": 0.4})
    return raw


class TailPercentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        with self.assertRaises(evaluate.TooFewSamples):
            evaluate.tail_percentile(list(range(99)), 0.9)
        samples = list(range(100))
        p90 = evaluate.tail_percentile(samples, 0.9)
        self.assertGreaterEqual(sum(1 for s in samples if s > p90), 10)

    def test_end_to_end_refuses_short_runs(self):
        with self.assertRaises(evaluate.TooFewSamples):
            evaluate.solver_end_to_end(fake_solver_raw(n_steps=60))


class MetricsEmitted(unittest.TestCase):
    def check_units(self, emitted, table):
        self.assertEqual(list(emitted), list(table))
        for name, entry in emitted.items():
            self.assertEqual(entry["unit"], table[name][0])
            self.assertIsInstance(entry["value"], (int, float))

    def test_solver_metrics(self):
        self.check_units(evaluate.with_units(
            evaluate.solver_end_to_end(fake_solver_raw()), evaluate.END_TO_END),
            evaluate.END_TO_END)
        self.check_units(evaluate.with_units(
            evaluate.per_layer(fake_solver_raw(traced=True), pool=False),
            evaluate.PER_LAYER), evaluate.PER_LAYER)

    def test_pool_metrics(self):
        lines, _ = workloads.ensemble_batch(3)
        self.check_units(evaluate.with_units(
            evaluate.pool_end_to_end(fake_pool_raw(lines)), evaluate.END_TO_END),
            evaluate.END_TO_END)
        self.check_units(evaluate.with_units(
            evaluate.per_layer(fake_pool_raw(lines, traced=True), pool=True),
            evaluate.PER_LAYER), evaluate.PER_LAYER)

    def test_missing_metric_is_an_error(self):
        values = evaluate.solver_end_to_end(fake_solver_raw())
        del values["setup_s"]
        with self.assertRaises(KeyError):
            evaluate.with_units(values, evaluate.END_TO_END)


class ReferenceChecks(unittest.TestCase):
    def test_solver_reference_passes_and_perturbed_fails(self):
        raw = fake_solver_raw()
        ids = [0, 1, 2]
        ref = REFS["stp_o8"]
        attempted, failed, problems = evaluate.check_solver(raw, ref, ids)
        self.assertEqual((failed, problems), (0, []))
        self.assertEqual(attempted, 5 * ref["steps"])

        perturbed = copy.deepcopy(ref)
        perturbed["norms"][0] *= 1 + 1e-6
        attempted, failed, problems = evaluate.check_solver(raw, perturbed, ids)
        self.assertEqual(failed, attempted)
        self.assertTrue(problems)

        perturbed = copy.deepcopy(ref)
        perturbed["receivers"][1][0] *= 1 + 1e-3
        _, failed, _ = evaluate.check_solver(raw, perturbed, ids)
        self.assertEqual(failed, attempted)

    def test_pool_threshold_perturbed_fails(self):
        lines, _ = workloads.ensemble_batch(5)
        raw = fake_pool_raw(lines)
        thresholds = REFS["ensemble_mixed"]["l2_thresholds"]
        _, failed, _ = evaluate.check_pool(raw, thresholds)
        self.assertEqual(failed, 0)
        tight = {s: {o: 1e-15 for o in orders} for s, orders in thresholds.items()}
        attempted, failed, problems = evaluate.check_pool(raw, tight)
        self.assertGreater(failed, 0)
        self.assertLess(failed, attempted)  # loh1 jobs have no exact solution
        self.assertTrue(problems)


class EnsembleGenerator(unittest.TestCase):
    def test_seeded_and_mix_fixed(self):
        a, rec_a = workloads.ensemble_batch(7)
        b, rec_b = workloads.ensemble_batch(7)
        c, rec_c = workloads.ensemble_batch(8)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(rec_a, rec_c)
        self.assertEqual(len(set(a)), rec_a["unique_configs"])
        self.assertAlmostEqual(rec_a["duplicate_share"],
                               1 - len(set(a)) / len(a))
        self.assertTrue(set(a) <= set(workloads.ensemble_domain()))

    def test_solver_inputs_seeded(self):
        w = workloads.WORKLOADS["stp_o8"]
        self.assertEqual(workloads.solver_inputs(w, 4), workloads.solver_inputs(w, 4))


class BenchmarkJson(unittest.TestCase):
    def test_matches_tables(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)
        for key, table in (("end_to_end", evaluate.END_TO_END),
                           ("per_layer", evaluate.PER_LAYER)):
            self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec[key]},
                             table)


@unittest.skipUnless(os.environ.get("PERFBENCH_RUN") == "1", "set PERFBENCH_RUN=1")
class RealRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        for name in workloads.WORKLOADS:
            for trace, table in ((0, evaluate.END_TO_END), (1, evaluate.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    out = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", name,
                         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                   "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                                     {n: u for n, (u, _) in table.items()})


if __name__ == "__main__":
    unittest.main()
