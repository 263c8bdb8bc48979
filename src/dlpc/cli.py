"""Command-line harness: run every experiment in either or both pipeline modes.

Each subcommand resolves its settings from (in rising precedence) built-in
defaults, a JSON config file, and command-line flags, then writes three
artifacts into the output directory: ``report.json`` with the full run
record, ``runs.csv`` with one itemized ``RunCosts`` row per executed run, and
a ``fig_<subcommand>.csv`` data table shaped for plotting.  An optimus row
sums the ledgers of every sample at one drift rate; a contour row prices one
labeled machine in one mode.  ``fit-costmodel`` instead writes
``costmodel.json``, which any other subcommand's config can point at through
its ``cost_model`` key.

Every count a study takes must be at least 1 and every list it takes must be
non-empty: an integer config key such as ``shots`` or ``per_length``, a list
key such as ``lengths`` or ``distributions``, and the ``--shots`` and
``--iterations`` flags.  Anything else is a configuration error, so every
table has at least one row.  Float keys such as ``depolarizing`` or
``t_1q_us`` are not counts, and 0 is a valid value for them.  A list's
elements are checked too: ``lengths`` and ``n_qubits`` hold counts,
``drift_rates`` and contour's grids hold numbers, and ``distributions`` and
``size_classes`` hold names the cloud scenario defines.  A JSON boolean is
never a number.  The four numbers of a ``cost_model`` entry, inline or in a
``costmodel.json``, must be finite, and ``prep_us`` and ``detect_us`` must
not be negative.

Exit codes: 0 success, 2 configuration or usage error (nothing is written),
1 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

from .devcomp import MODES, CostModel, RunCosts
from .drivers.calibration import run_calibration
from .drivers.rb import RB_CIRCUITS_PER_LENGTH, RB_LENGTHS, RB_SHOTS, run_rb
from .drivers.vqe import VqeProblem, one_param_problem, run_vqe, two_param_problem
from .fitting import FitResult, calibrated_dataset, fit_cost_model
from .scenarios.cloud import (
    CLOUD_JOBS,
    CLOUD_SHOTS_PER_JOB,
    DISTRIBUTIONS,
    SIZE_CLASSES,
    CloudWorkload,
    simulate_cloud,
)
from .scenarios.contour import sweep_machines
from .scenarios.optimus import (
    OPTIMUS_DRIFT_RATES,
    OPTIMUS_SHOTS,
    OPTIMUS_SPSA_STEPS,
    run_optimus,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

SEED_ENV = "DLPC_SEED"

RUNS_FIELDS = (
    "subcommand",
    "mode",
    "seed",
    "label",
    "n_compiles",
    "compile_s",
    "upload_s",
    "schedule_s",
    "device_s",
    "rpc_s",
    "overhead_s",
    "total_s",
    "compile_fraction",
)


class ConfigError(Exception):
    """Bad flags, config file, or environment; nothing has been written."""


# ---------------------------------------------------------------- config

# Key -> its JSON type (``float`` takes any number, as in Python's typing);
# each element of a list key is checked against _ELEMENTS.
_SCHEMAS: dict[str, dict[str, type | tuple[type, ...]]] = {
    "vqe": {
        "problem": str,
        "shots": int,
        "max_evals": int,
        "depolarizing": float,
    },
    "calibrate": {"n_qubits": (int, list)},
    "rb": {
        "depolarizing": float,
        "shots": int,
        "per_length": int,
        "lengths": list,
    },
    "cloud": {
        "distributions": list,
        "size_classes": list,
        "n_jobs": int,
        "shots_per_job": int,
        "t_1q_us": float,
        "t_2q_us": float,
    },
    "optimus": {
        "drift_rates": list,
        "n_samples": int,
        "n_nodes": int,
        "spsa_steps": int,
        "shots": int,
    },
    "contour": {"t_1q_us": list, "t_2q_us": list, "iterations": int},
    "fit-costmodel": {},
}

_COMMON_KEYS: dict[str, type | tuple[type, ...]] = {
    "seed": int,
    "cost_model": (str, dict),
}

# List key -> what each element must be: a count, a number or one of a set of names.
_ELEMENTS: dict[str, type | tuple] = {
    "n_qubits": int,
    "lengths": int,
    "distributions": DISTRIBUTIONS,
    "size_classes": SIZE_CLASSES,
    "drift_rates": float,
    "t_1q_us": float,
    "t_2q_us": float,
}


def _read_json(path: str, what: str) -> Any:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_config(path: str | None, subcommand: str) -> dict[str, Any]:
    if path is None:
        return {}
    raw = _read_json(path, "config file")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    schema = _SCHEMAS[subcommand] | _COMMON_KEYS
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for {subcommand}")
        counts = key in _SCHEMAS[subcommand]
        _check(key, value, schema[key], counts)
        if isinstance(value, list):
            if not value:
                raise ConfigError(f"config key {key!r} must not be empty")
            for item in value:
                _check(key, item, _ELEMENTS[key], counts)
    return raw


def _check(key: str, value: Any, expected: type | tuple, counts: bool) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` is ``expected``.

    ``expected`` is a type, a tuple of types or a tuple of names.  A JSON
    boolean is never a number, although ``bool`` subclasses ``int``.  With
    ``counts``, an integer where no float is allowed must be at least 1.
    """
    if isinstance(expected, tuple) and isinstance(expected[0], str):
        if value not in expected:
            raise ConfigError(f"config key {key!r} takes names from {expected}, got {value!r}")
        return
    allowed = (int, float) if expected is float else expected
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"config key {key!r} must be {allowed}, got {type(value).__name__}")
    if counts and isinstance(value, int) and expected is not float and value < 1:
        raise ConfigError(f"config key {key!r} must be at least 1, got {value}")


def _resolve_seed(flag: int | None, config: dict[str, Any]) -> int:
    if flag is not None:
        return flag
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    return 0


def _resolve_fit(config: dict[str, Any]) -> FitResult:
    """Cost model from config (inline dict or costmodel.json path), else fitted."""
    spec = config.get("cost_model")
    if spec is None:
        return fit_cost_model()
    if isinstance(spec, str):
        spec = _read_json(spec, "cost_model file")
    try:
        params = spec["cost_model"]
        model = CostModel(
            compile_a=_finite(params, "compile_a"), compile_b=_finite(params, "compile_b")
        )
        return FitResult(
            cost_model=model,
            prep_us=_finite(spec, "prep_us", least=0.0),
            detect_us=_finite(spec, "detect_us", least=0.0),
            reproduced=dict(spec.get("reproduced", {})),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cost_model entry is malformed: {exc}") from exc


def _finite(table: dict[str, Any], key: str, least: float = -math.inf) -> float:
    """``table[key]`` if it is a finite JSON number of at least ``least``."""
    value = table[key]
    _check(key, value, float, False)
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    if value < least:
        raise ConfigError(f"config key {key!r} must be at least {least}, got {value!r}")
    return float(value)


def _setting(flag: Any, config: dict[str, Any], key: str, default: Any) -> Any:
    if flag is not None:
        return flag
    return config.get(key, default)


# ---------------------------------------------------------------- output

def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj: dict) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows: list[dict]) -> None:
    """Write rows under a header of the first row's keys, in order."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _run_row(subcommand: str, mode: str, seed: int, label: str, costs: RunCosts) -> dict:
    row = {
        "subcommand": subcommand,
        "mode": mode,
        "seed": seed,
        "label": label,
    }
    row.update((field, getattr(costs, field)) for field in RUNS_FIELDS[len(row):])
    return row


def _comparison(costs: dict[str, RunCosts]) -> dict:
    base, dlpc = costs["baseline"], costs["dlpc"]
    return {
        "speedup": base.total_s / dlpc.total_s,
        "compile_count": {"baseline": base.n_compiles, "dlpc": dlpc.n_compiles},
        "compile_fraction": {
            "baseline": base.compile_fraction,
            "dlpc": dlpc.compile_fraction,
        },
        "device_fraction": {
            "baseline": base.device_fraction,
            "dlpc": dlpc.device_fraction,
        },
        "total_s": {"baseline": base.total_s, "dlpc": dlpc.total_s},
    }


def _modes(mode: str) -> tuple[str, ...]:
    return MODES if mode == "both" else (mode,)


def _per_mode(args, subcommand: str, seed: int, label: str, run: Callable[[str], Any]):
    """Call ``run(mode)`` once for each requested mode.

    Returns the driver reports by mode, their ``report.json`` entry (each
    report's JSON form, plus the cost comparison under ``--mode both``) and
    their ``runs.csv`` rows.
    """
    reps = {mode: run(mode) for mode in _modes(args.mode)}
    entry: dict[str, Any] = {"reports": {m: rep.to_json_dict() for m, rep in reps.items()}}
    if args.mode == "both":
        entry["comparison"] = _comparison({m: rep.costs for m, rep in reps.items()})
    runs = [_run_row(subcommand, m, seed, label, rep.costs) for m, rep in reps.items()]
    return reps, entry, runs


# ------------------------------------------------------------ subcommands

def _cmd_vqe(args, config: dict[str, Any], fit: FitResult, seed: int):
    name = str(config.get("problem", "one_param"))
    makers = {"one_param": one_param_problem, "two_param": two_param_problem}
    if name not in makers:
        raise ConfigError(f"problem must be one of {sorted(makers)}, got {name!r}")
    problem: VqeProblem = makers[name]()
    shots = int(_setting(args.shots, config, "shots", problem.shots))
    max_evals = int(_setting(args.iterations, config, "max_evals", problem.max_evals))
    problem = replace(problem, shots=shots, max_evals=max_evals)
    depolarizing = float(config.get("depolarizing", 0.0))

    def run(mode: str):
        return run_vqe(
            problem,
            mode,
            cost_model=fit.cost_model,
            calib=calibrated_dataset(problem.ansatz.n_qubits, fit),
            run_seed=seed,
            depolarizing=depolarizing,
        )

    reps, entry, runs = _per_mode(args, "vqe", seed, name, run)
    fig = [
        {
            "mode": mode,
            "eval_idx": k,
            "energy": energy,
            "params": json.dumps(list(x)),
        }
        for mode, rep in reps.items()
        for k, (x, energy) in enumerate(rep.trajectory)
    ]
    spec = {
        "problem": name,
        "shots": shots,
        "max_evals": max_evals,
        "depolarizing": depolarizing,
    }
    return {"spec": spec, **entry}, runs, fig


def _cmd_calibrate(args, config: dict[str, Any], fit: FitResult, seed: int):
    raw = config.get("n_qubits", list(range(2, 11)))
    sizes = [raw] if isinstance(raw, int) else raw

    entries: dict[str, dict] = {}
    runs: list[dict] = []
    fig: list[dict] = []
    for n in sizes:
        reps, entries[str(n)], rows = _per_mode(
            args,
            "calibrate",
            seed,
            f"n_qubits={n}",
            lambda mode: run_calibration(
                calibrated_dataset(n, fit), mode, cost_model=fit.cost_model, run_seed=seed
            ),
        )
        runs += rows
        fig += [
            {
                "n_qubits": n,
                "mode": mode,
                "n_experiments": rep.n_experiments,
                "n_compiles": rep.costs.n_compiles,
                "compile_s": rep.costs.compile_s,
                "total_s": rep.costs.total_s,
                "compile_fraction": rep.costs.compile_fraction,
            }
            for mode, rep in reps.items()
        ]

    report: dict[str, Any] = {"spec": {"n_qubits": sizes}}
    for part in entries[str(sizes[0])]:  # "reports", and "comparison" under --mode both
        report[part] = {n: entry[part] for n, entry in entries.items()}
    return report, runs, fig


def _cmd_rb(args, config: dict[str, Any], fit: FitResult, seed: int):
    depolarizing = float(config.get("depolarizing", 0.0))
    shots = int(_setting(args.shots, config, "shots", RB_SHOTS))
    per_length = int(_setting(args.iterations, config, "per_length", RB_CIRCUITS_PER_LENGTH))
    lengths = tuple(int(m) for m in config.get("lengths", RB_LENGTHS))

    def run(mode: str):
        return run_rb(
            mode,
            cost_model=fit.cost_model,
            calib=calibrated_dataset(1, fit),
            depolarizing=depolarizing,
            run_seed=seed,
            lengths=lengths,
            per_length=per_length,
            shots=shots,
        )

    reps, entry, runs = _per_mode(args, "rb", seed, f"depol={depolarizing}", run)
    fig = [
        {
            "mode": mode,
            "length": m,
            "mean_survival": rep.mean_by_length[m],
            "fitted_p": rep.fit.p,
        }
        for mode, rep in reps.items()
        for m in lengths
    ]
    spec = {
        "depolarizing": depolarizing,
        "shots": shots,
        "per_length": per_length,
        "lengths": list(lengths),
    }
    return {"spec": spec, **entry}, runs, fig


def _cmd_cloud(args, config: dict[str, Any], fit: FitResult, seed: int):
    dists = tuple(str(d) for d in config.get("distributions", DISTRIBUTIONS))
    sizes = tuple(str(s) for s in config.get("size_classes", SIZE_CLASSES))
    n_jobs = int(_setting(args.iterations, config, "n_jobs", CLOUD_JOBS))
    shots = int(_setting(args.shots, config, "shots_per_job", CLOUD_SHOTS_PER_JOB))
    t_1q = float(config.get("t_1q_us", 5.0))
    t_2q = float(config.get("t_2q_us", 150.0))

    reports: dict[str, dict] = {}
    comparison: dict[str, dict] = {}
    runs: list[dict] = []
    fig: list[dict] = []
    for dist in dists:
        for size in sizes:
            cell = f"{dist}/{size}"
            workload = CloudWorkload(
                distribution=dist,
                size_class=size,
                n_jobs=n_jobs,
                shots_per_job=shots,
                seed=seed,
            )
            per_mode: dict[str, Any] = {}
            for mode in _modes(args.mode):
                rep = simulate_cloud(
                    workload,
                    mode,
                    cost_model=fit.cost_model,
                    prep_us=fit.prep_us,
                    detect_us=fit.detect_us,
                    t_1q_us=t_1q,
                    t_2q_us=t_2q,
                )
                per_mode[mode] = rep
                runs.append(_run_row("cloud", mode, seed, cell, rep.costs))
                fig.append(
                    {
                        "distribution": dist,
                        "size_class": size,
                        "mode": mode,
                        "n_compiles": rep.costs.n_compiles,
                        "compile_total_s": rep.costs.compile_s,
                        "compile_total_min": rep.costs.compile_s / 60.0,
                        "exec_total_s": rep.costs.device_s,
                        "makespan_s": rep.makespan_s,
                    }
                )
            reports[cell] = {m: r.to_json_dict() for m, r in per_mode.items()}
            if args.mode == "both":
                base, dlpc = per_mode["baseline"].costs, per_mode["dlpc"].costs
                comparison[cell] = {
                    "compile_s": {"baseline": base.compile_s, "dlpc": dlpc.compile_s},
                    "compile_count": {
                        "baseline": base.n_compiles,
                        "dlpc": dlpc.n_compiles,
                    },
                    "compile_ratio": dlpc.compile_s / base.compile_s,
                }

    spec = {
        "distributions": list(dists),
        "size_classes": list(sizes),
        "n_jobs": n_jobs,
        "shots_per_job": shots,
        "t_1q_us": t_1q,
        "t_2q_us": t_2q,
    }
    report: dict[str, Any] = {"spec": spec, "reports": reports}
    if args.mode == "both":
        report["comparison"] = comparison
    return report, runs, fig


def _cmd_optimus(args, config: dict[str, Any], fit: FitResult, seed: int):
    drift_rates = tuple(float(r) for r in config.get("drift_rates", OPTIMUS_DRIFT_RATES))
    n_samples = int(config.get("n_samples", 100))
    spsa_steps = int(_setting(args.iterations, config, "spsa_steps", OPTIMUS_SPSA_STEPS))
    shots = int(_setting(args.shots, config, "shots", OPTIMUS_SHOTS))
    kwargs: dict[str, Any] = {}
    if "n_nodes" in config:
        kwargs["n_nodes"] = int(config["n_nodes"])

    rep = run_optimus(
        cost_model=fit.cost_model,
        calib=calibrated_dataset(5, fit),
        drift_rates=drift_rates,
        n_samples=n_samples,
        spsa_steps=spsa_steps,
        shots=shots,
        seed=seed,
        **kwargs,
    )

    aggregates = [a for a in rep.aggregates if a.mode in _modes(args.mode)]
    runs = [
        _run_row("optimus", a.mode, seed, f"drift={a.drift_rate}", a.costs)
        for a in aggregates
    ]
    fig = [a.to_json_dict() for a in aggregates]
    comparison: dict[str, dict] = {}
    if args.mode == "both":
        for rate in drift_rates:
            base = rep.aggregate(rate, "baseline")
            dlpc = rep.aggregate(rate, "dlpc")
            comparison[str(rate)] = {
                "speedup": base.mean_total_s / dlpc.mean_total_s,
                "compile_fraction": {
                    "baseline": base.mean_compile_fraction,
                    "dlpc": dlpc.mean_compile_fraction,
                },
            }

    spec = {
        "drift_rates": list(drift_rates),
        "n_samples": n_samples,
        "spsa_steps": spsa_steps,
        "shots": shots,
        "n_nodes": kwargs.get("n_nodes", "default"),
    }
    report: dict[str, Any] = {
        "spec": spec,
        "n_evals": rep.n_evals,
        "reports": fig,
    }
    if args.mode == "both":
        report["comparison"] = comparison
    return report, runs, fig


def _cmd_contour(args, config: dict[str, Any], fit: FitResult, seed: int):
    # inherently comparative: both pipelines are priced at every grid point
    kwargs: dict[str, Any] = {}
    for key in ("t_1q_us", "t_2q_us"):
        if key in config:
            kwargs[key] = tuple(float(t) for t in config[key])
    iterations = _setting(args.iterations, config, "iterations", None)
    if iterations is not None:
        kwargs["iterations"] = int(iterations)

    rep = sweep_machines(cost_model=fit.cost_model, **kwargs)
    fig = [
        {
            "t_1q_us": t1,
            "t_2q_us": t2,
            "ratio": float(rep.ratio[r, c]),
            "baseline_fraction": float(rep.baseline_fraction[r, c]),
            "dlpc_fraction": float(rep.dlpc_fraction[r, c]),
        }
        for r, t2 in enumerate(rep.t_2q_us)
        for c, t1 in enumerate(rep.t_1q_us)
    ]
    runs = [
        _run_row("contour", mode, seed, name, costs)
        for name, per_mode in rep.machine_costs.items()
        for mode, costs in per_mode.items()
    ]
    report = {
        "spec": {
            "iterations": kwargs.get("iterations", "default"),
            "grid": [len(rep.t_2q_us), len(rep.t_1q_us)],
        },
        "reports": rep.to_json_dict(),
    }
    return report, runs, fig


# ------------------------------------------------------------------ main

def positive_int(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1.

    argparse names this function in its error for a non-integer, so the name
    has no leading underscore.
    """
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlpc",
        description="Compare per-iteration kernel recompilation against "
        "partial compilation with runtime parameter streaming.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "vqe": "variational energy minimization, one or two angles",
        "calibrate": "full calibration day over every qubit and pair",
        "rb": "single-qubit randomized benchmarking",
        "cloud": "day-long shared-queue dispatch study",
        "optimus": "probe-and-repair calibration under drift",
        "contour": "compile-share ratio across gate-speed regimes",
        "fit-costmodel": "fit the cost model and write costmodel.json",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument(
            "--mode",
            choices=(*MODES, "both"),
            default="both",
            help="which pipeline(s) to run (default: both)",
        )
        p.add_argument("--config", help="JSON config file for this subcommand")
        p.add_argument(
            "--seed",
            type=int,
            help=f"run seed (default: config, then ${SEED_ENV}, then 0)",
        )
        p.add_argument(
            "--out",
            default="dlpc-out",
            help="output directory (default: dlpc-out)",
        )
        p.add_argument(
            "--shots",
            type=positive_int,
            help="override shots per evaluation/job where the study uses them",
        )
        p.add_argument(
            "--iterations",
            type=positive_int,
            help="override evaluations/jobs/steps where the study uses them",
        )
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="omit timestamps so identical specs give identical bytes",
        )
    return parser


_RUNNERS = {
    "vqe": _cmd_vqe,
    "calibrate": _cmd_calibrate,
    "rb": _cmd_rb,
    "cloud": _cmd_cloud,
    "optimus": _cmd_optimus,
    "contour": _cmd_contour,
}

_FIG_NAMES = {"calibrate": "fig_calib.csv"}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)

    out = Path(args.out)
    try:
        config = _load_config(args.config, args.subcommand)
        seed = _resolve_seed(args.seed, config)
        fit = _resolve_fit(config)
        report: dict[str, Any] = {"subcommand": args.subcommand, "seed": seed}
        if args.subcommand == "fit-costmodel":
            report |= fit.to_json_dict()
            artifacts = [(_write_json, "costmodel.json", fit.to_json_dict())]
        else:
            body, runs, fig = _RUNNERS[args.subcommand](args, config, fit, seed)
            report |= {
                "mode": args.mode,
                "cost_model": fit.to_json_dict()["cost_model"],
                **body,
            }
            fig_name = _FIG_NAMES.get(args.subcommand, f"fig_{args.subcommand}.csv")
            artifacts = [(_write_csv, "runs.csv", runs), (_write_csv, fig_name, fig)]
        if not args.deterministic:
            report["generated_at"] = datetime.now(timezone.utc).isoformat()
        out.mkdir(parents=True, exist_ok=True)
        for write, name, content in artifacts + [(_write_json, "report.json", report)]:
            write(out / name, content)
    except ConfigError as exc:
        print(f"dlpc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"dlpc: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
