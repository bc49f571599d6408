"""The benchmark's workloads and the seeded inputs each run receives.

Four workloads, from kernel-bound to pool-bound (see README.md for why each
was chosen). The solver workloads run one fixed configuration; their seed
picks which of the stored receiver candidates are sampled and the order in
which the STP probe visits cells. The ensemble workload's seed generates
its whole batch of config lines.
"""

import random
from dataclasses import dataclass, field

THREADS = 4          # per solver workload, capped at nproc by run.py
POOL_JOBS = 4        # concurrent pool jobs, one thread each
RECEIVERS_PER_RUN = 3

# Receiver candidates: the gaussian pulse sits in the centre of the unit
# box; the LOH1 point source sits at (4, 4, 3) of the 8^3 box.
GAUSSIAN_RECEIVERS = [
    (0.5, 0.5, 0.5), (0.4, 0.55, 0.5), (0.6, 0.45, 0.52), (0.5, 0.35, 0.6),
    (0.3, 0.5, 0.45), (0.62, 0.62, 0.4), (0.45, 0.7, 0.55), (0.55, 0.5, 0.3),
]
LOH1_RECEIVERS = [
    (4.1, 4.1, 3.1), (4.6, 4.2, 3.3), (3.4, 4.4, 2.6), (4.3, 3.5, 3.4),
    (3.7, 3.8, 3.2), (4.9, 4.6, 2.7), (4.2, 4.8, 3.6), (3.3, 3.3, 3.3),
]


@dataclass(frozen=True)
class SolverWorkload:
    name: str
    why: str
    config: str            # key=value tokens; t_end is one episode
    receivers: list = field(default_factory=list)


@dataclass(frozen=True)
class PoolWorkload:
    name: str
    why: str
    jobs: int


WORKLOADS = {
    w.name: w for w in [
        SolverWorkload(
            "stp_o8",
            "paper PDE (curvilinear elastic, m=21) at order 8: the STP "
            "predictor is ~85% of a step, so GEMM and kernel work show here",
            "pde=curvilinear_elastic scenario=gaussian variant=aosoa_splitck "
            "precision=fp64 order=8 cells=4x4x4 shards=1 backend=inprocess "
            "t_end=0.015",
            GAUSSIAN_RECEIVERS),
        SolverWorkload(
            "loh1_o4_sharded",
            "LOH1 order 4 on 2x2x2 shards: the corrector is ~50% of a step "
            "and halo exchange, the deps scheduler and receivers all run",
            "scenario=loh1 variant=splitck order=4 cells=16x16x16 "
            "shards=2x2x2 backend=inprocess scenario.source_delay=0.1 "
            "t_end=0.03",
            LOH1_RECEIVERS),
        SolverWorkload(
            "loh1_lts_sharded",
            "stiff-layer LOH1 with clustered LTS on 4 shards: multi-rate "
            "clusters and three halo channels per correct phase",
            "scenario=loh1 scenario.layer_cp=26 scenario.layer_cs=15 lts=on "
            "variant=splitck order=4 cells=8x8x16 shards=1x1x4 "
            "backend=inprocess scenario.source_delay=0.1 t_end=0.04",
            LOH1_RECEIVERS),
        PoolWorkload(
            "ensemble_mixed",
            "one closed SimulationPool batch of small mixed jobs with "
            "memoization: the only workload that runs per-job set-up, the "
            "kernel cache and pool scheduling",
            POOL_JOBS),
    ]
}


def solver_inputs(workload, seed):
    """The receivers (candidate indices, in order) and the STP probe seed."""
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(len(workload.receivers)),
                              RECEIVERS_PER_RUN))
    return {"receivers": picks, "stp_seed": rng.randrange(2**31)}


# ---- ensemble_mixed generator ------------------------------------------------

# Every scenario class runs each order with each stepper kind once, so the
# batch's work is the same for every seed; the seed varies what leaves the
# cost unchanged: the planewave wave vectors, the LOH1 source frequencies,
# which configs are duplicated and the submission order.
ENSEMBLE_CLASSES = [("planewave", 0.05), ("maxwell_cavity", 0.05), ("loh1", 0.03)]
ENSEMBLE_ORDERS = (3, 4, 5, 6)
KIND_ARGS = {
    "ader": "",
    "ader_fp32": " variant=splitck precision=fp32",
    "rk4": " stepper=rk4",
}
WAVE_VECTORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                (0, 1, 1), (1, 1, 1))
SOURCE_FREQUENCIES = (0.8, 0.9, 1.0, 1.1, 1.2)
DUPLICATE_SHARE = 0.25


def ensemble_cells(order):
    """4^3 cells at orders 3-4, 3^3 at orders 5-6 (evens out job cost)."""
    return 4 if order <= 4 else 3


def ensemble_line(scenario, t_end, order, kind, param=None):
    line = (f"scenario={scenario} order={order} cells={ensemble_cells(order)} "
            f"t_end={t_end} threads=1{KIND_ARGS[kind]}")
    if scenario == "planewave":
        line += " scenario.kx={} scenario.ky={} scenario.kz={}".format(*param)
    elif scenario == "loh1":
        line += f" scenario.source_frequency={param}"
    return line


def _params(scenario):
    return {"planewave": WAVE_VECTORS, "loh1": SOURCE_FREQUENCIES}.get(
        scenario, (None,))


def ensemble_batch(seed):
    """The seeded batch: (config lines, record of the mix).

    One unique line per (scenario, order, stepper kind); a quarter of the
    final batch repeats distinct unique lines, so the memoization hit ratio
    has a known base: duplicates / batch size.
    """
    rng = random.Random(seed)
    unique = [ensemble_line(scenario, t_end, order, kind,
                            rng.choice(_params(scenario)))
              for scenario, t_end in ENSEMBLE_CLASSES
              for order in ENSEMBLE_ORDERS for kind in KIND_ARGS]
    n_dup = round(DUPLICATE_SHARE * len(unique) / (1 - DUPLICATE_SHARE))
    duplicates = rng.sample(unique, n_dup)
    lines = unique + duplicates
    rng.shuffle(lines)
    per_class = len(ENSEMBLE_ORDERS) * len(KIND_ARGS)
    record = {
        "batch_size": len(lines),
        "unique_configs": len(unique),
        "duplicate_lines": len(duplicates),
        "duplicate_share": len(duplicates) / len(lines),
        "jobs_per_scenario": {s: per_class for s, _ in ENSEMBLE_CLASSES},
        "jobs_per_kind": {k: len(ENSEMBLE_CLASSES) * len(ENSEMBLE_ORDERS)
                          for k in KIND_ARGS},
        "orders": list(ENSEMBLE_ORDERS),
    }
    return lines, record


def ensemble_domain():
    """Every config line the generator can emit (for the L2 thresholds)."""
    return [ensemble_line(scenario, t_end, order, kind, param)
            for scenario, t_end in ENSEMBLE_CLASSES
            for order in ENSEMBLE_ORDERS for kind in KIND_ARGS
            for param in _params(scenario)]


def parse_line(line):
    """key=value tokens of one config line as a dict."""
    return dict(token.split("=", 1) for token in line.split())
