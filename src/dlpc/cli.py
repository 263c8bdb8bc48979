"""Command-line harness: run every experiment in either or both pipeline modes.

Each setting of a subcommand is declared once, as one row of ``_SETTINGS``
that gives its config key, its kind, its default and the flag that overrides
it.  A setting resolves from its flag, then the JSON config file, then its
default, where ``None`` leaves the value to the study; the resolved settings
are the report's ``spec``.  ``--shots`` and ``--iterations`` exist only on
the subcommands with a row that names them: calibrate and fit-costmodel take
neither, contour only ``--iterations``.  ``--mode`` is not on contour, which
prices both pipelines, or fit-costmodel.  Every config may also hold ``seed``
and ``cost_model``.

Each subcommand writes three artifacts into the output directory:
``report.json`` with the full run record, ``runs.csv`` with one itemized
``RunCosts`` row per executed run, and a ``fig_<subcommand>.csv`` data table
shaped for plotting.  An optimus row sums the ledgers of every sample at one
drift rate; a contour row prices one labeled machine in one mode.
``fit-costmodel`` instead writes ``costmodel.json``, which any other
subcommand's config can point at through its ``cost_model`` key.

A count is an integer of at least 1, a number a finite int or float of at
least 0, and ``depolarizing`` a number of at most 1; a JSON boolean is none
of them.  A list must be non-empty, and each of
its elements is checked: ``lengths`` and ``n_qubits`` hold counts (calibrate
also takes one bare count, and rb needs three distinct lengths to fit its
decay), ``drift_rates`` and contour's grids numbers, and ``distributions``
and ``size_classes`` names the cloud scenario defines.
Anything else is a configuration error, so every table has at least one row.
A ``cost_model`` entry, inline or in a ``costmodel.json``, holds
``cost_model`` (``compile_a`` and ``compile_b``), ``prep_us``, ``detect_us``
and an optional ``reproduced`` object, and no other key; each of its numbers
must be finite, and ``prep_us`` and ``detect_us`` must not be negative.

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
from .drivers.accounting import speedup
from .drivers.calibration import run_calibration
from .drivers.rb import (
    RB_CIRCUITS_PER_LENGTH,
    RB_DEPOLARIZING,
    RB_LENGTHS,
    RB_SHOTS,
    check_lengths,
    run_rb,
)
from .drivers.vqe import VQE_DEPOLARIZING, one_param_problem, run_vqe, two_param_problem
from .fitting import FitResult, calibrated_dataset, fit_cost_model
from .scenarios.cloud import (
    CLOUD_JOBS,
    CLOUD_SHOTS_PER_JOB,
    CLOUD_T_1Q_US,
    CLOUD_T_2Q_US,
    DISTRIBUTIONS,
    SIZE_CLASSES,
    CloudWorkload,
    simulate_cloud,
)
from .scenarios.contour import sweep_machines
from .scenarios.optimus import (
    OPTIMUS_DRIFT_RATES,
    OPTIMUS_SAMPLES,
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

COUNT = "a count"  # an integer of at least 1
NUMBER = "a number"  # a finite int or float of at least 0
PROBABILITY = "a probability"  # a number of at most 1

_PROBLEMS = {"one_param": one_param_problem, "two_param": two_param_problem}

# Subcommand -> config key -> (kind, default, flag).  A kind is COUNT, NUMBER,
# PROBABILITY, a tuple of allowed names, or a one-element list holding the
# kind of each element of a non-empty list.  A default of None leaves the value to the
# study.  The flag, where there is one, overrides the key.
_SETTINGS: dict[str, dict[str, tuple[Any, Any, str | None]]] = {
    "vqe": {
        "problem": (tuple(_PROBLEMS), "one_param", None),
        "shots": (COUNT, None, "shots"),
        "max_evals": (COUNT, None, "iterations"),
        "depolarizing": (PROBABILITY, VQE_DEPOLARIZING, None),
    },
    "calibrate": {"n_qubits": ([COUNT], tuple(range(2, 11)), None)},
    "rb": {
        "depolarizing": (PROBABILITY, RB_DEPOLARIZING, None),
        "shots": (COUNT, RB_SHOTS, "shots"),
        "per_length": (COUNT, RB_CIRCUITS_PER_LENGTH, "iterations"),
        "lengths": ([COUNT], RB_LENGTHS, None),
    },
    "cloud": {
        "distributions": ([DISTRIBUTIONS], DISTRIBUTIONS, None),
        "size_classes": ([SIZE_CLASSES], SIZE_CLASSES, None),
        "n_jobs": (COUNT, CLOUD_JOBS, "iterations"),
        "shots_per_job": (COUNT, CLOUD_SHOTS_PER_JOB, "shots"),
        "t_1q_us": (NUMBER, CLOUD_T_1Q_US, None),
        "t_2q_us": (NUMBER, CLOUD_T_2Q_US, None),
    },
    "optimus": {
        "drift_rates": ([NUMBER], OPTIMUS_DRIFT_RATES, None),
        "n_samples": (COUNT, OPTIMUS_SAMPLES, None),
        "n_nodes": (COUNT, None, None),
        "spsa_steps": (COUNT, OPTIMUS_SPSA_STEPS, "iterations"),
        "shots": (COUNT, OPTIMUS_SHOTS, "shots"),
    },
    "contour": {
        "t_1q_us": ([NUMBER], None, None),
        "t_2q_us": ([NUMBER], None, None),
        "iterations": (COUNT, None, "iterations"),
    },
    "fit-costmodel": {},
}

# Keys every subcommand's config may hold, with their JSON types.
_COMMON_KEYS: dict[str, type | tuple[type, ...]] = {
    "seed": int,
    "cost_model": (str, dict),
}


def _read_json(path: str, what: str) -> Any:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {path}")
    try:
        return json.loads(p.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_config(path: str | None, subcommand: str) -> dict[str, Any]:
    if path is None:
        return {}
    raw = _read_json(path, "config file")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    settings = _SETTINGS[subcommand]
    for key, value in raw.items():
        if key in settings:
            if key == "n_qubits" and not isinstance(value, list):  # one bare size
                value = raw[key] = [value]
            _check(key, value, settings[key][0])
        elif key in _COMMON_KEYS:
            if isinstance(value, bool) or not isinstance(value, _COMMON_KEYS[key]):
                raise ConfigError(f"config key {key!r} must be {_COMMON_KEYS[key]}, got {value!r}")
        else:
            raise ConfigError(f"unknown config key {key!r} for {subcommand}")
    return raw


def _check(key: str, value: Any, kind: Any) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` is of ``kind``.

    A JSON boolean is never a number, although ``bool`` subclasses ``int``.
    """
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config key {key!r} must be a non-empty list, got {value!r}")
        for item in value:
            _check(key, item, kind[0])
    elif isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"config key {key!r} takes names from {kind}, got {value!r}")
    elif kind != COUNT:
        number = _finite(key, value, least=0.0)
        if kind == PROBABILITY and number > 1.0:
            raise ConfigError(f"config key {key!r} must be at most 1, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
    elif value < 1:
        raise ConfigError(f"config key {key!r} must be at least 1, got {value}")


def _settings(args, config: dict[str, Any], subcommand: str) -> dict[str, Any]:
    """Each setting of ``subcommand``: its flag, else its config value, else its default.

    Numbers become floats and lists become tuples.
    """
    settings: dict[str, Any] = {}
    for key, (kind, default, flag) in _SETTINGS[subcommand].items():
        value = getattr(args, flag) if flag else None
        if value is None:
            value = config.get(key, default)
        if isinstance(kind, list) and value is not None:
            value = tuple(float(v) if kind == [NUMBER] else v for v in value)
        elif kind in (NUMBER, PROBABILITY):
            value = float(value)
        settings[key] = value
    return settings


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
    entry = config.get("cost_model")
    if entry is None:
        return fit_cost_model()
    if isinstance(entry, str):
        entry = _read_json(entry, "cost_model file")
    entry = _object("cost_model entry", entry, ("cost_model", "prep_us", "detect_us", "reproduced"))
    try:
        params = _object("cost_model", entry["cost_model"], ("compile_a", "compile_b"))
        reproduced = _object("reproduced", entry.get("reproduced", {}), None)
        return FitResult(
            cost_model=CostModel(
                compile_a=_finite("compile_a", params["compile_a"], least=0.0),
                compile_b=_finite("compile_b", params["compile_b"], least=0.0),
            ),
            prep_us=_finite("prep_us", entry["prep_us"], least=0.0),
            detect_us=_finite("detect_us", entry["detect_us"], least=0.0),
            reproduced={k: _finite(f"reproduced.{k}", v) for k, v in reproduced.items()},
        )
    except KeyError as exc:
        raise ConfigError(f"cost_model entry lacks key {exc}") from exc


def _object(name: str, value: Any, keys: tuple[str, ...] | None) -> dict[str, Any]:
    """``value`` if it is a JSON object whose keys all come from ``keys`` (any, if None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    for key in value:
        if keys is not None and key not in keys:
            raise ConfigError(f"unknown key {key!r} in {name}")
    return value


def _finite(name: str, value: Any, least: float = -math.inf) -> float:
    """``value`` as a float if it is a finite JSON number of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {name!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the range of a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"config key {name!r} must be finite, got {value!r}")
    if number < least:
        raise ConfigError(f"config key {name!r} must be at least {least}, got {value!r}")
    return number


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
        "speedup": speedup(base, dlpc),
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

def _cmd_vqe(args, spec: dict[str, Any], fit: FitResult, seed: int):
    problem = _PROBLEMS[spec["problem"]]()
    for key in ("shots", "max_evals"):  # unset, the problem's own
        if spec[key] is None:
            spec[key] = getattr(problem, key)
    problem = replace(problem, shots=spec["shots"], max_evals=spec["max_evals"])

    def run(mode: str):
        return run_vqe(
            problem,
            mode,
            cost_model=fit.cost_model,
            calib=calibrated_dataset(problem.ansatz.n_qubits, fit),
            run_seed=seed,
            depolarizing=spec["depolarizing"],
        )

    reps, entry, runs = _per_mode(args, "vqe", seed, spec["problem"], run)
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
    return {"spec": spec, **entry}, runs, fig


def _cmd_calibrate(args, spec: dict[str, Any], fit: FitResult, seed: int):
    sizes = spec["n_qubits"]
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

    report: dict[str, Any] = {"spec": spec}
    for part in entries[str(sizes[0])]:  # "reports", and "comparison" under --mode both
        report[part] = {n: entry[part] for n, entry in entries.items()}
    return report, runs, fig


def _cmd_rb(args, spec: dict[str, Any], fit: FitResult, seed: int):
    try:
        check_lengths(spec["lengths"])
    except ValueError as exc:
        raise ConfigError(f"config key 'lengths': {exc}") from exc

    def run(mode: str):
        return run_rb(
            mode, cost_model=fit.cost_model, calib=calibrated_dataset(1, fit), run_seed=seed, **spec
        )

    reps, entry, runs = _per_mode(args, "rb", seed, f"depol={spec['depolarizing']}", run)
    fig = [
        {
            "mode": mode,
            "length": m,
            "mean_survival": rep.mean_by_length[m],
            "fitted_p": rep.fit.p,
        }
        for mode, rep in reps.items()
        for m in spec["lengths"]
    ]
    return {"spec": spec, **entry}, runs, fig


def _cmd_cloud(args, spec: dict[str, Any], fit: FitResult, seed: int):
    reports: dict[str, dict] = {}
    comparison: dict[str, dict] = {}
    runs: list[dict] = []
    fig: list[dict] = []
    for dist in spec["distributions"]:
        for size in spec["size_classes"]:
            cell = f"{dist}/{size}"
            workload = CloudWorkload(
                distribution=dist,
                size_class=size,
                n_jobs=spec["n_jobs"],
                shots_per_job=spec["shots_per_job"],
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
                    t_1q_us=spec["t_1q_us"],
                    t_2q_us=spec["t_2q_us"],
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

    report: dict[str, Any] = {"spec": spec, "reports": reports}
    if args.mode == "both":
        report["comparison"] = comparison
    return report, runs, fig


def _given(spec: dict[str, Any]) -> dict[str, Any]:
    """The settings that are not left to the study."""
    return {key: value for key, value in spec.items() if value is not None}


def _cmd_optimus(args, spec: dict[str, Any], fit: FitResult, seed: int):
    rep = run_optimus(
        cost_model=fit.cost_model, calib=calibrated_dataset(5, fit), seed=seed, **_given(spec)
    )

    aggregates = [a for a in rep.aggregates if a.mode in _modes(args.mode)]
    runs = [
        _run_row("optimus", a.mode, seed, f"drift={a.drift_rate}", a.costs)
        for a in aggregates
    ]
    fig = [a.to_json_dict() for a in aggregates]
    comparison: dict[str, dict] = {}
    if args.mode == "both":
        for rate in spec["drift_rates"]:
            base = rep.aggregate(rate, "baseline")
            dlpc = rep.aggregate(rate, "dlpc")
            comparison[str(rate)] = {
                "speedup": base.mean_total_s / dlpc.mean_total_s,
                "compile_fraction": {
                    "baseline": base.mean_compile_fraction,
                    "dlpc": dlpc.mean_compile_fraction,
                },
            }

    report: dict[str, Any] = {
        "spec": {**spec, "n_nodes": spec["n_nodes"] or "default"},
        "n_evals": rep.n_evals,
        "reports": fig,
    }
    if args.mode == "both":
        report["comparison"] = comparison
    return report, runs, fig


def _cmd_contour(args, spec: dict[str, Any], fit: FitResult, seed: int):
    rep = sweep_machines(cost_model=fit.cost_model, **_given(spec))
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
            "iterations": spec["iterations"] or "default",
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
        p.set_defaults(mode="both")  # contour prices both pipelines, fit-costmodel neither
        if name not in ("contour", "fit-costmodel"):
            p.add_argument(
                "--mode", choices=(*MODES, "both"), help="which pipeline(s) to run (default: both)"
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
        for key, (_, _, flag) in _SETTINGS[name].items():
            if flag:
                p.add_argument(
                    f"--{flag}", type=positive_int, help=f"override config key {key} (a count)"
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
            spec = _settings(args, config, args.subcommand)
            body, runs, fig = _RUNNERS[args.subcommand](args, spec, fit, seed)
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
