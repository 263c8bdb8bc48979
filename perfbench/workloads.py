"""The benchmark's workloads: inputs made from a seed, one driver call, its checks.

Every workload is one closed loop with one client: the driver sends the next
parameters or circuit only after the previous result is back.  A session
repeats the same driver call on the same inputs, so every call of a run does
identical work and must return identical outputs.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

from dlpc.drivers import rb as rb_driver
from dlpc.drivers import vqe as vqe_driver
from dlpc.drivers.accounting import RunCosts
from dlpc.fitting import calibrated_dataset, fit_cost_model
from dlpc.ir import Circuit, Hamiltonian, PauliTerm, SlotRef, op

import checks


class IterationClock:
    """One clock read per completed iteration, taken at the driver boundary."""

    def __init__(self) -> None:
        self.stamps: list[int] = []

    def tick(self) -> None:
        self.stamps.append(perf_counter_ns())


@contextmanager
def patched(owner, name: str, wrapper):
    """Replace ``owner.name`` with ``wrapper(original)`` for the duration."""
    original = getattr(owner, name)
    setattr(owner, name, wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@dataclass(frozen=True, slots=True)
class CallOutput:
    iterations: int
    digest: str  # of the trajectory or the survivals
    sim: dict[str, float]  # the simulated clock, from RunCosts
    failures: list[str]


def sim_values(costs: RunCosts) -> dict[str, float]:
    return {
        "n_compiles": costs.n_compiles,
        "compile_s": costs.compile_s,
        "upload_s": costs.upload_s,
        "schedule_s": costs.schedule_s,
        "device_s": costs.device_s,
        "rpc_s": costs.rpc_s,
        "total_s": costs.total_s,
    }


def small_problem(seed: int, max_evals: int) -> vqe_driver.VqeProblem:
    """``two_param_problem`` with a seeded start point and the given budget."""
    x0 = np.random.default_rng(seed).uniform(-math.pi, math.pi, 2)
    return dataclasses.replace(
        vqe_driver.two_param_problem(), x0=tuple(float(v) for v in x0), max_evals=max_evals
    )


WIDE_QUBITS = 8
WIDE_SHOTS = 1000


def wide_problem(seed: int, max_evals: int) -> vqe_driver.VqeProblem:
    """RY layer, XX(pi/4) chain, RY layer on 8 qubits; ZZ, X and YY terms.

    16 slots and three measurement sections; coefficients and x0 come from
    the seed.  x0 stays within 0.3 of pi/4 per slot: host work per
    evaluation grows with the number of distinct outcomes, and around that
    point a 1000-shot section holds 80 to 210 of them whatever the seed.
    Drawn from the whole circle, the count swings with the seed.
    """
    n = WIDE_QUBITS
    rng = np.random.default_rng(seed)
    ops = [op("RY", q, SlotRef(q)) for q in range(n)]
    ops += [op("XX", (q, q + 1), math.pi / 4) for q in range(n - 1)]
    ops += [op("RY", q, SlotRef(n + q)) for q in range(n)]

    def pauli(letters: dict[int, str]) -> str:
        return "".join(letters.get(q, "I") for q in range(n))

    supports = (
        [pauli({q: "Z", q + 1: "Z"}) for q in range(n - 1)]
        + [pauli({q: "X"}) for q in range(n)]
        + [pauli({q: "Y", q + 1: "Y"}) for q in range(n - 1)]
    )
    terms = [PauliTerm(float(c), p) for c, p in zip(rng.uniform(-1, 1, len(supports)), supports)]
    x0 = math.pi / 4 + rng.uniform(-0.3, 0.3, 2 * n)
    return vqe_driver.VqeProblem(
        Hamiltonian(n, terms),
        Circuit(n, ops),
        x0=tuple(float(v) for v in x0),
        shots=WIDE_SHOTS,
        max_evals=max_evals,
    )


class VqeSession:
    """Streamed VQE through ``run_vqe`` in ``dlpc`` mode."""

    def __init__(self, problem, transport: str, seed: int) -> None:
        fit = fit_cost_model()
        self.problem = problem
        self.transport = transport
        self.seed = seed
        self.cost_model = fit.cost_model
        self.calib = calibrated_dataset(problem.ansatz.n_qubits, fit)

    @property
    def budget(self) -> int:
        return self.problem.max_evals

    def run(self, clock: IterationClock):
        """One driver call; ticks the clock as each evaluation's energy is ready."""
        counts_by_eval: list[dict] = []

        def hook(expectation_from_counts):
            def timed(ham, counts_by_term):
                energy = expectation_from_counts(ham, counts_by_term)
                clock.tick()
                counts_by_eval.append(counts_by_term)
                return energy

            return timed

        with patched(vqe_driver, "expectation_from_counts", hook):
            report = vqe_driver.run_vqe(
                self.problem,
                "dlpc",
                cost_model=self.cost_model,
                calib=self.calib,
                run_seed=self.seed,
                transport=self.transport,
            )
        return report, counts_by_eval

    def check(self, raw) -> CallOutput:
        report, counts_by_eval = raw
        failures = checks.check_energies(self.problem, report.trajectory)
        failures += checks.check_section_counts(self.problem, counts_by_eval)
        if len(counts_by_eval) != len(report.trajectory):
            failures.append(
                f"{len(counts_by_eval)} energies computed for {len(report.trajectory)} evaluations"
            )
        flat = [v for x, e in report.trajectory for v in (*x, e)]
        return CallOutput(
            len(report.trajectory), checks.digest(flat), sim_values(report.costs), failures
        )


class RbSession:
    """Recompile-per-circuit RB through ``run_rb`` in ``baseline`` mode."""

    def __init__(self, per_length: int, seed: int) -> None:
        fit = fit_cost_model()
        self.per_length = per_length
        self.seed = seed
        self.cost_model = fit.cost_model
        self.calib = calibrated_dataset(1, fit)

    @property
    def budget(self) -> int:
        return len(rb_driver.RB_LENGTHS) * self.per_length

    def run(self, clock: IterationClock):
        """One driver call; ticks the clock as each circuit's kernel returns."""

        def hook(execute):
            def timed(*args, **kwargs):
                trace = execute(*args, **kwargs)
                clock.tick()
                return trace

            return timed

        with patched(rb_driver, "execute", hook):
            return rb_driver.run_rb(
                "baseline",
                cost_model=self.cost_model,
                calib=self.calib,
                depolarizing=checks.RB_DEPOLARIZING,
                run_seed=self.seed,
                per_length=self.per_length,
            )

    def check(self, report) -> CallOutput:
        n = len(report.survivals)
        failures = checks.check_rb(report.fit.p, report.costs.n_compiles, n)
        if n != self.budget:
            failures.append(f"{n} survivals for {self.budget} circuits")
        return CallOutput(
            n, checks.digest([*report.survivals, report.fit.p]), sim_values(report.costs), failures
        )


def stream_small(seed: int, budget: int) -> VqeSession:
    return VqeSession(small_problem(seed, budget), "memory", seed)


def stream_wide(seed: int, budget: int) -> VqeSession:
    return VqeSession(wide_problem(seed, budget), "socket", seed)


def recompile_rb(seed: int, budget: int) -> RbSession:
    return RbSession(budget, seed)


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str
    session: Callable[[int, int], VqeSession | RbSession]
    budget: int  # evaluations per call (VQE) or circuits per length (RB)

    def prepare(self, seed: int) -> VqeSession | RbSession:
        """Set-up after the imports: cost-model fit, calibration and inputs."""
        return self.session(seed, self.budget)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stream-small",
            "1 qubit, 3 sections, 100 shots in memory: host time is the streamed path "
            "(four rendezvous handoffs, VM dispatch, simplex step), not device work",
            stream_small,
            budget=2000,
        ),
        Workload(
            "stream-wide",
            "8 qubits, 16 slots, 1000 shots over a socket: VM statevector and sampling, "
            "wire encode/decode and term_expectation on hundreds of outcomes dominate",
            stream_wide,
            budget=100,
        ),
        Workload(
            "recompile-rb",
            "baseline RB, lengths 2..128: every circuit is transpiled, lowered, compiled, "
            "priced and executed on 1 qubit; RPC is unused",
            recompile_rb,
            budget=40,
        ),
    )
}
