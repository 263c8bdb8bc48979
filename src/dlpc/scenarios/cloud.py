"""Cloud-queue emulation: a day of jobs against one device, both pipelines.

Jobs arrive over a 24 hour horizon, are queued FIFO, and execute on a single
server whose standing kernel is the native gate-pool dispatch program.  The
baseline rebuilds that kernel for every job.  The streaming pipeline keeps it
resident and rebuilds only when the queue drains to zero (the kernel exits
when it has nothing to run) or when a scheduled recalibration lands, taken
here as the device's fixed every-2-hours daily calibration marks; a backlog
that spills past the day finishes on the last calibration of the day.

The simulation is discrete-event over simulated time: per-job execution time
comes from the job's gate counts and shot budget, and every compile event is
priced by the fitted cost model on the real pool kernel.  Queue dynamics are
what separate the size classes: small jobs finish faster than the arrival
headway, so the queue drains constantly; large jobs saturate the server and
the kernel survives almost the whole day.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..devcomp import CostModel, KernelBinary, RunCosts
from ..drivers.rb import clifford_pool
from ..pulse import CalibrationDataset

__all__ = [
    "HORIZON_S",
    "RECALIB_PERIOD_S",
    "CLOUD_JOBS",
    "CLOUD_SHOTS_PER_JOB",
    "DISTRIBUTIONS",
    "SIZE_CLASSES",
    "SIZE_GATES",
    "CloudWorkload",
    "CloudReport",
    "standing_kernel_cost",
    "simulate_cloud",
]

HORIZON_S = 24 * 3600.0
RECALIB_PERIOD_S = 2 * 3600.0
CLOUD_JOBS = 12000
CLOUD_SHOTS_PER_JOB = 1200

DISTRIBUTIONS = ("UNIFORM", "BIMODAL", "BURST")
SIZE_CLASSES = ("SMALL", "MEDIUM", "LARGE")

# (one-qubit gates, two-qubit gates) per size class, nominal counts
SIZE_GATES = {"SMALL": (22, 8), "MEDIUM": (75, 25), "LARGE": (150, 50)}


@dataclass(frozen=True, slots=True)
class CloudWorkload:
    distribution: str
    size_class: str
    n_jobs: int = CLOUD_JOBS
    horizon_s: float = HORIZON_S
    recalib_period_s: float = RECALIB_PERIOD_S
    shots_per_job: int = CLOUD_SHOTS_PER_JOB
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
        if self.size_class not in SIZE_CLASSES:
            raise ValueError(f"size_class must be one of {SIZE_CLASSES}")
        if self.n_jobs < 1:
            raise ValueError("workload needs at least one job")

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, stream]))

    def arrivals(self) -> np.ndarray:
        """Sorted arrival times in seconds, all inside the horizon."""
        n, h = self.n_jobs, self.horizon_s
        rng = self._rng(0)
        if self.distribution == "UNIFORM":
            headway = h / n
            base = (np.arange(n) + 0.5) * headway
            t = base + rng.uniform(-1.0, 1.0, n) * headway
        elif self.distribution == "BIMODAL":
            centers = np.where(rng.random(n) < 0.5, 10.0, 15.0) * 3600.0
            t = rng.normal(centers, 1.5 * 3600.0)
        else:  # BURST
            mean_bursts = 8.0
            spread_s = 20.0 * 60.0
            p_size = min(1.0, mean_bursts / n)
            sizes: list[int] = []
            while sum(sizes) < n:
                sizes.append(int(rng.geometric(p_size)))
            sizes[-1] -= sum(sizes) - n
            starts = np.sort(rng.uniform(0.0, h, len(sizes)))
            picks = np.concatenate([np.full(s, b) for b, s in enumerate(sizes)])
            t = starts[picks] + spread_s * rng.standard_normal(n)
        return np.sort(np.clip(t, 0.0, np.nextafter(h, 0.0)))

    def job_gates(self) -> np.ndarray:
        """Per-job (1q, 2q) gate counts, jittered around the class nominal."""
        g1, g2 = SIZE_GATES[self.size_class]
        rng = self._rng(1)
        jitter = rng.uniform(0.8, 1.2, (self.n_jobs, 2))
        counts = np.round(jitter * np.array([g1, g2]))
        return np.maximum(counts, 1.0)


@functools.cache
def _standing_kernel() -> KernelBinary:
    """The resident gate-pool dispatch kernel; it depends on no argument, so it is built once."""
    return clifford_pool(CalibrationDataset.default(1), 100)


def standing_kernel_cost(cost_model: CostModel) -> RunCosts:
    """Price of rebuilding the resident gate-pool dispatch kernel."""
    return cost_model.cost_of(_standing_kernel())


@dataclass(slots=True)
class CloudReport:
    mode: str
    distribution: str
    size_class: str
    seed: int
    n_jobs: int
    jobs_completed: int
    costs: RunCosts  # device_s is the jobs' execution time
    makespan_s: float
    event_times: list[float]
    event_cumulative_s: list[float]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "distribution": self.distribution,
            "size_class": self.size_class,
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "jobs_completed": self.jobs_completed,
            "n_compiles": self.costs.n_compiles,
            "compile_total_s": self.costs.compile_s,
            "exec_total_s": self.costs.device_s,
            "makespan_s": self.makespan_s,
        }


def simulate_cloud(
    workload: CloudWorkload,
    mode: str,
    *,
    cost_model: CostModel,
    prep_us: float,
    detect_us: float,
    t_1q_us: float = 5.0,
    t_2q_us: float = 150.0,
) -> CloudReport:
    """Single-server FIFO over simulated time; returns the compile series."""
    if mode not in ("baseline", "dlpc"):
        raise ValueError(f"mode must be 'baseline' or 'dlpc', got {mode!r}")
    arrivals = workload.arrivals()
    gates = workload.job_gates()
    per_shot_us = prep_us + detect_us + gates[:, 0] * t_1q_us + gates[:, 1] * t_2q_us
    exec_s = workload.shots_per_job * per_shot_us * 1e-6
    kernel = standing_kernel_cost(cost_model)
    rebuild_s = kernel.total_s

    n_day_ticks = math.ceil(workload.horizon_s / workload.recalib_period_s) - 1
    ticks = [(k + 1) * workload.recalib_period_s for k in range(n_day_ticks)]

    free_at = 0.0
    tick_idx = 0
    n_compiles = 0
    compile_total = 0.0
    event_times: list[float] = []
    event_cumulative: list[float] = []

    for i, arrival in enumerate(arrivals):
        start = max(float(arrival), free_at)
        drained = arrival > free_at
        tick_due = tick_idx < len(ticks) and ticks[tick_idx] <= start
        recompile = mode == "baseline" or i == 0 or drained or tick_due
        while tick_idx < len(ticks) and ticks[tick_idx] <= start:
            tick_idx += 1  # every mark up to now is covered by this rebuild
        service = float(exec_s[i])
        if recompile:
            n_compiles += 1
            compile_total += kernel.compile_s
            service += rebuild_s
            event_times.append(start)
            event_cumulative.append(compile_total)
        free_at = start + service

    costs = RunCosts(
        n_compiles,
        compile_total,  # the sum the event series ends on
        n_compiles * kernel.upload_s,
        n_compiles * kernel.schedule_s,
        device_s=float(np.sum(exec_s)),
    )
    return CloudReport(
        mode=mode,
        distribution=workload.distribution,
        size_class=workload.size_class,
        seed=workload.seed,
        n_jobs=workload.n_jobs,
        jobs_completed=len(arrivals),
        costs=costs,
        makespan_s=free_at,
        event_times=event_times,
        event_cumulative_s=event_cumulative,
    )
