"""CLI harness: exit codes, output artifacts, determinism, overrides."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dlpc.cli import EXIT_CONFIG, EXIT_OK, RUNS_FIELDS, main


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------- failures

def test_missing_config_exits_2_with_no_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code, _ = run_cli(
        capsys, "vqe", "--config", str(tmp_path / "nope.json"), "--out", str(out)
    )
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}')
    out = tmp_path / "out"
    code, _ = run_cli(capsys, "rb", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_malformed_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _ = run_cli(capsys, "vqe", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("where", ["config", "cost_model"])
def test_integer_too_long_to_parse_exits_2_with_no_outputs(tmp_path, capsys, where):
    # json.loads raises a plain ValueError past 4,300 digits, not JSONDecodeError.
    huge = "9" * 5000
    cfg = tmp_path / "cfg.json"
    if where == "config":
        cfg.write_text(f'{{"seed": {huge}}}')
    else:
        costmodel = tmp_path / "costmodel.json"
        costmodel.write_text(f'{{"prep_us": {huge}}}')
        cfg.write_text(json.dumps({"cost_model": str(costmodel)}))
    out = tmp_path / "out"
    code = main(["fit-costmodel", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_bad_seed_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DLPC_SEED", "not-a-number")
    code, _ = run_cli(capsys, "vqe", "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG


def test_bad_mode_value_exits_2(tmp_path, capsys):
    assert main(["vqe", "--mode", "sideways", "--out", str(tmp_path / "o")]) == 2


def _assert_config_error(tmp_path, capsys, subcommand, config, flags, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg), *flags, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


# (subcommand, config, flags, the key or flag the error must name)
EMPTYING_INPUTS = [
    ("rb", {"lengths": []}, (), "lengths"),
    ("rb", {"per_length": 0}, (), "per_length"),
    ("vqe", {"max_evals": 0}, (), "max_evals"),
    ("rb", {"shots": 0}, (), "shots"),
    ("cloud", {"distributions": []}, (), "distributions"),
    ("optimus", {"drift_rates": []}, (), "drift_rates"),
    ("contour", {"t_1q_us": []}, (), "t_1q_us"),
    ("vqe", {}, ("--iterations", "0"), "--iterations"),
    ("rb", {}, ("--shots", "0"), "--shots"),
]


@pytest.mark.parametrize(
    "subcommand, config, flags, named",
    EMPTYING_INPUTS,
    ids=[f"{sub}-{named}" for sub, _, _, named in EMPTYING_INPUTS],
)
def test_zero_count_or_empty_list_exits_2_with_no_outputs(
    tmp_path, capsys, subcommand, config, flags, named
):
    _assert_config_error(tmp_path, capsys, subcommand, config, flags, named)


# (subcommand, the one config key, its bad value): a JSON boolean where a
# number belongs, or a list element of the wrong type, range or name set
BAD_VALUES = [
    ("rb", "shots", True),
    ("rb", "per_length", True),
    ("vqe", "max_evals", True),
    ("optimus", "n_nodes", True),
    ("contour", "iterations", True),
    ("calibrate", "n_qubits", True),
    ("vqe", "seed", True),
    ("rb", "depolarizing", True),
    ("cloud", "t_1q_us", False),
    ("rb", "lengths", [-3, 2]),
    ("rb", "lengths", [0]),
    ("rb", "lengths", [2, True]),
    ("rb", "lengths", [2.5]),
    ("calibrate", "n_qubits", [2, 0]),
    ("calibrate", "n_qubits", [True]),
    ("cloud", "distributions", ["NOPE"]),
    ("cloud", "size_classes", ["SMALL", "TINY"]),
    ("optimus", "drift_rates", [0.0, True]),
    ("optimus", "drift_rates", ["0.1"]),
    ("contour", "t_1q_us", [False]),
    ("contour", "t_2q_us", [150.0, "fast"]),
]


@pytest.mark.parametrize(
    "subcommand, key, value",
    BAD_VALUES,
    ids=[f"{sub}-{key}-{json.dumps(value)}" for sub, key, value in BAD_VALUES],
)
def test_boolean_or_bad_list_element_exits_2_with_no_outputs(
    tmp_path, capsys, subcommand, key, value
):
    _assert_config_error(tmp_path, capsys, subcommand, {key: value}, (), key)


# (subcommand, the one config key, a value that is no finite, physical number):
# a probability outside [0, 1], a negative time, NaN, an infinity, and an
# integer too large for a float; JSON text, since NaN and Infinity are not JSON
UNPHYSICAL_NUMBERS = [
    ("rb", "depolarizing", "-1"),
    ("rb", "depolarizing", "NaN"),
    ("rb", "depolarizing", "2"),
    ("rb", "depolarizing", "Infinity"),
    ("rb", "depolarizing", "9" * 401),
    ("vqe", "depolarizing", "1.5"),
    ("cloud", "t_1q_us", "NaN"),
    ("cloud", "t_2q_us", "-150"),
    ("optimus", "drift_rates", "[NaN]"),
    ("optimus", "drift_rates", "[0.0, -0.05]"),
    ("contour", "t_2q_us", "[NaN]"),
    ("contour", "t_1q_us", "[1.0, Infinity]"),
]


@pytest.mark.parametrize(
    "subcommand, key, text",
    UNPHYSICAL_NUMBERS,
    ids=[f"{sub}-{key}-{text[:12]}" for sub, key, text in UNPHYSICAL_NUMBERS],
)
def test_unphysical_number_exits_2_with_no_outputs(tmp_path, capsys, subcommand, key, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {text}}}')
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["contour", "fit-costmodel"])
def test_mode_flag_only_where_it_selects_a_pipeline(tmp_path, capsys, subcommand):
    out = tmp_path / "out"
    assert main([subcommand, "--mode", "both", "--deterministic", "--out", str(out)]) == 2
    assert "--mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lengths", [[2, 16], [2, 16, 2, 16], [8]])
def test_rb_with_fewer_than_three_distinct_lengths_exits_2_with_no_outputs(
    tmp_path, capsys, lengths
):
    # two means cannot fix A, B and p: any p fits them exactly
    config = {"lengths": lengths, "per_length": 3, "shots": 50, "depolarizing": 0.02}
    flags = ("--mode", "dlpc", "--seed", "3")
    _assert_config_error(tmp_path, capsys, "rb", config, flags, "'lengths'")


# (key, bad value) for a cost_model entry: each must be a finite JSON number
# that is not a boolean, the compile line and the readout durations must not
# be negative, ``reproduced`` must map names to such numbers, and no other key
# may appear
BAD_COST_MODEL_VALUES = [
    ("compile_a", True),
    ("compile_a", -5.0),
    ("compile_b", -0.006),
    ("compile_b", float("inf")),
    ("detect_us", "200"),
    ("prep_us", -100),
    ("prep_us", "nan"),
    ("prep_us", float("nan")),
    ("detect_us", -0.5),
    ("prep_us", 10**400),
    ("reproduced", [["x", "y"]]),
    ("reproduced", {"a": "zz"}),
    ("reproduced", {"a": float("inf")}),
    ("bogus", 1.0),
    ("compile_c", 1.0),
]


@pytest.mark.parametrize("via_file", [False, True], ids=["inline", "file"])
@pytest.mark.parametrize(
    "key, value",
    BAD_COST_MODEL_VALUES,
    ids=[f"{key}-{json.dumps(value)[:20]}" for key, value in BAD_COST_MODEL_VALUES],
)
def test_bad_cost_model_value_exits_2_with_no_outputs(tmp_path, capsys, key, value, via_file):
    spec = {"cost_model": {"compile_a": 0.35, "compile_b": 0.006}, "prep_us": 100.0,
            "detect_us": 200.0}
    (spec["cost_model"] if key.startswith("compile") else spec)[key] = value
    if via_file:
        path = tmp_path / "costmodel.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    _assert_config_error(
        tmp_path, capsys, "vqe", {"cost_model": spec}, ("--iterations", "2", "--shots", "20"), key
    )


# subcommand -> (config, the number key, the float spec it must echo)
INTEGER_NUMBERS = {
    "vqe": ({"depolarizing": 0}, "depolarizing", 0.0),
    "rb": ({"depolarizing": 0}, "depolarizing", 0.0),
    "cloud": (
        {"t_1q_us": 5, "distributions": ["BURST"], "size_classes": ["SMALL"]}, "t_1q_us", 5.0
    ),
    "optimus": ({"drift_rates": [0], "n_samples": 1}, "drift_rates", [0.0]),
}


@pytest.mark.parametrize("subcommand", list(INTEGER_NUMBERS))
def test_integer_zero_float_key_still_runs(tmp_path, capsys, subcommand):
    config, key, want = INTEGER_NUMBERS[subcommand]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, stdout = run_cli(
        capsys, subcommand, "--config", str(cfg), "--iterations", "2", "--shots", "20",
        "--deterministic", "--out", str(out),
    )
    assert code == EXIT_OK
    # the JSON text, so that an integer echo (0 for 0.0) fails
    assert json.dumps(json.loads(stdout)["spec"][key]) == json.dumps(want)
    if subcommand == "optimus":
        assert {row["label"] for row in read_csv(out / "runs.csv")} == {"drift=0.0"}


# (subcommand, a flag no setting of it names)
FLAGS_WITHOUT_SETTINGS = [
    ("calibrate", "--shots"),
    ("calibrate", "--iterations"),
    ("contour", "--shots"),
    ("fit-costmodel", "--shots"),
    ("fit-costmodel", "--iterations"),
]


@pytest.mark.parametrize(
    "subcommand, flag",
    FLAGS_WITHOUT_SETTINGS,
    ids=[f"{sub}{flag}" for sub, flag in FLAGS_WITHOUT_SETTINGS],
)
def test_flag_without_a_setting_exits_2_with_no_outputs(tmp_path, capsys, subcommand, flag):
    out = tmp_path / "out"
    assert main([subcommand, flag, "5", "--deterministic", "--out", str(out)]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ happy paths

def test_vqe_both_surfaces_driver_compile_counts(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout = run_cli(
        capsys, "vqe", "--mode", "both", "--seed", "7", "--deterministic",
        "--out", str(out),
    )
    assert code == EXIT_OK
    report = read_json(out / "report.json")
    assert json.loads(stdout) == report

    n_evals = report["reports"]["baseline"]["n_evals"]
    assert report["comparison"]["compile_count"] == {"baseline": n_evals, "dlpc": 1}
    assert report["comparison"]["speedup"] > 1.0
    assert report["seed"] == 7

    runs = read_csv(out / "runs.csv")
    assert [r["mode"] for r in runs] == ["baseline", "dlpc"]
    assert list(runs[0]) == list(RUNS_FIELDS)


def test_rb_dlpc_noiseless_fits_unit_decay(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lengths": [2, 4, 8], "per_length": 3, "shots": 50}')
    out = tmp_path / "out"
    code, _ = run_cli(
        capsys, "rb", "--mode", "dlpc", "--config", str(cfg),
        "--deterministic", "--out", str(out),
    )
    assert code == EXIT_OK
    report = read_json(out / "report.json")
    assert report["reports"]["dlpc"]["fit"]["p"] == 1.0
    fig = read_csv(out / "fig_rb.csv")
    assert all(float(r["mean_survival"]) == 1.0 for r in fig)


def test_deterministic_reports_are_byte_identical(tmp_path, capsys):
    args = ("vqe", "--mode", "both", "--seed", "3", "--iterations", "5",
            "--shots", "50", "--deterministic")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(a))[0] == EXIT_OK
    assert run_cli(capsys, *args, "--out", str(b))[0] == EXIT_OK
    for name in ("report.json", "runs.csv", "fig_vqe.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_changes_the_report(tmp_path, capsys):
    base = ("vqe", "--mode", "baseline", "--iterations", "5", "--shots", "50",
            "--deterministic")
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, *base, "--seed", "1", "--out", str(a))
    run_cli(capsys, *base, "--seed", "2", "--out", str(b))
    assert (a / "report.json").read_bytes() != (b / "report.json").read_bytes()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DLPC_SEED", "42")
    out = tmp_path / "out"
    code, stdout = run_cli(
        capsys, "vqe", "--mode", "dlpc", "--iterations", "4", "--shots", "50",
        "--deterministic", "--out", str(out),
    )
    assert code == EXIT_OK
    assert json.loads(stdout)["seed"] == 42


def test_flag_overrides_beat_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"shots": 200, "max_evals": 9, "seed": 5}')
    out = tmp_path / "out"
    code, stdout = run_cli(
        capsys, "vqe", "--mode", "dlpc", "--config", str(cfg), "--shots", "60",
        "--deterministic", "--out", str(out),
    )
    assert code == EXIT_OK
    report = json.loads(stdout)
    assert report["spec"]["shots"] == 60  # flag wins
    assert report["spec"]["max_evals"] == 9  # config fills the rest
    assert report["seed"] == 5


def test_calibrate_single_size(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_qubits": 2}')
    out = tmp_path / "out"
    code, _ = run_cli(
        capsys, "calibrate", "--config", str(cfg), "--deterministic",
        "--out", str(out),
    )
    assert code == EXIT_OK
    report = read_json(out / "report.json")
    assert report["reports"]["2"]["dlpc"]["costs"]["compile_s"] == pytest.approx(1.2)
    assert "2" in report["comparison"]
    fig = read_csv(out / "fig_calib.csv")
    assert len(fig) == 2


def test_cloud_grid_rows_and_dominance(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout = run_cli(
        capsys, "cloud", "--iterations", "300", "--deterministic", "--out", str(out),
    )
    assert code == EXIT_OK
    report = json.loads(stdout)
    assert len(report["reports"]) == 9
    for cell in report["comparison"].values():
        assert cell["compile_count"]["dlpc"] <= cell["compile_count"]["baseline"]
    fig = read_csv(out / "fig_cloud.csv")
    assert len(fig) == 18


def test_optimus_small_sample(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_samples": 2}')
    out = tmp_path / "out"
    code, stdout = run_cli(
        capsys, "optimus", "--config", str(cfg), "--deterministic", "--out", str(out),
    )
    assert code == EXIT_OK
    report = json.loads(stdout)
    assert len(report["reports"]) == 10  # 5 drift rates x 2 modes
    assert report["n_evals"] == 201
    for cmp_ in report["comparison"].values():
        assert cmp_["compile_fraction"]["dlpc"] < cmp_["compile_fraction"]["baseline"]


def test_contour_custom_grid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t_1q_us": [1.0, 2.0], "t_2q_us": [10.0, 40.0]}')
    out = tmp_path / "out"
    code, _ = run_cli(
        capsys, "contour", "--config", str(cfg), "--deterministic", "--out", str(out),
    )
    assert code == EXIT_OK
    fig = read_csv(out / "fig_contour.csv")
    assert len(fig) == 4
    assert all(float(r["ratio"]) < 1.0 for r in fig)


def test_costmodel_roundtrip_through_file(tmp_path, capsys):
    fitted = tmp_path / "fitted"
    code, _ = run_cli(capsys, "fit-costmodel", "--deterministic", "--out", str(fitted))
    assert code == EXIT_OK
    costmodel = fitted / "costmodel.json"
    assert costmodel.is_file()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cost_model": str(costmodel)}))
    direct, via_file = tmp_path / "direct", tmp_path / "via"
    args = ("vqe", "--mode", "both", "--seed", "7", "--iterations", "6",
            "--shots", "50", "--deterministic")
    run_cli(capsys, *args, "--out", str(direct))
    run_cli(capsys, *args, "--config", str(cfg), "--out", str(via_file))
    assert (direct / "report.json").read_bytes() == (via_file / "report.json").read_bytes()


# ---------------------------------------------------------- csv roundtrip

def test_runs_csv_rows_match_report_costs(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli(capsys, "vqe", "--mode", "both", "--seed", "1", "--iterations", "6",
            "--shots", "50", "--deterministic", "--out", str(out))
    report = read_json(out / "report.json")
    for row in read_csv(out / "runs.csv"):
        costs = report["reports"][row["mode"]]["costs"]
        assert float(row["total_s"]) == costs["total_s"]
        assert float(row["compile_s"]) == costs["compile_s"]
        assert int(row["n_compiles"]) == costs["n_compiles"]


def test_fig_csv_rows_match_report_trajectory(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli(capsys, "vqe", "--mode", "dlpc", "--seed", "1", "--iterations", "6",
            "--shots", "50", "--deterministic", "--out", str(out))
    report = read_json(out / "report.json")
    trajectory = report["reports"]["dlpc"]["trajectory"]
    rows = read_csv(out / "fig_vqe.csv")
    assert len(rows) == len(trajectory)
    for row, point in zip(rows, trajectory):
        assert float(row["energy"]) == point["energy"]
        assert json.loads(row["params"]) == point["x"]


# ------------------------------------------------------- every subcommand

# A small run of each subcommand: (config, extra flags).
SMALL_RUNS = {
    "vqe": ({}, ("--iterations", "5", "--shots", "50")),
    "calibrate": ({"n_qubits": 2}, ()),
    "rb": ({"lengths": [2, 4, 8], "per_length": 2, "shots": 50}, ()),
    "cloud": ({"distributions": ["BURST"], "size_classes": ["SMALL"]}, ("--iterations", "300")),
    "optimus": ({"n_samples": 2, "drift_rates": [0.0, 0.05]}, ("--iterations", "10")),
    "contour": ({"t_1q_us": [1.0, 5.0], "t_2q_us": [150.0]}, ()),
}


def run_small(tmp_path, capsys, subcommand: str, out: Path) -> str:
    config, flags = SMALL_RUNS[subcommand]
    cfg = tmp_path / f"{subcommand}.json"
    cfg.write_text(json.dumps(config))
    code, stdout = run_cli(
        capsys, subcommand, "--config", str(cfg), *flags, "--deterministic",
        "--out", str(out),
    )
    assert code == EXIT_OK
    return stdout


@pytest.mark.parametrize("subcommand", sorted(SMALL_RUNS))
def test_every_runs_row_is_fully_itemized(tmp_path, capsys, subcommand):
    out = tmp_path / "out"
    run_small(tmp_path, capsys, subcommand, out)
    rows = read_csv(out / "runs.csv")
    assert rows
    for row in rows:
        assert all(row[f] != "" for f in RUNS_FIELDS), row
        assert int(row["n_compiles"]) >= 1
        v = {f: float(row[f]) for f in RUNS_FIELDS[RUNS_FIELDS.index("compile_s"):]}
        parts = v["compile_s"] + v["upload_s"] + v["schedule_s"] + v["rpc_s"]
        assert v["overhead_s"] == pytest.approx(parts, rel=1e-12)
        assert v["total_s"] == pytest.approx(v["device_s"] + v["overhead_s"], rel=1e-12)
        assert v["compile_fraction"] == pytest.approx(
            v["compile_s"] / v["total_s"], rel=1e-12
        )


@pytest.mark.parametrize("subcommand", sorted(SMALL_RUNS))
def test_every_subcommand_is_byte_deterministic(tmp_path, capsys, subcommand):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_small(tmp_path, capsys, subcommand, a) == run_small(
        tmp_path, capsys, subcommand, b
    )
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ------------------------------------------------------- pinned output bytes

DIGESTS = Path(__file__).with_name("deterministic_digests.json")
PINNED_RUNS = {
    "vqe": ('{"max_evals": 8}', ("--shots", "50")),
    "rb": ('{"lengths": [2, 4, 8], "per_length": 3, "shots": 50, "depolarizing": 0.01}', ()),
    "calibrate": ('{"n_qubits": [2]}', ()),
    "cloud": ('{"distributions": ["BURST"], "size_classes": ["SMALL"]}', ("--iterations", "300")),
    "optimus": ('{"n_samples": 2, "drift_rates": [0.0, 0.05]}', ("--iterations", "10")),
    "contour": ('{"t_1q_us": [1.0, 5.0], "t_2q_us": [150.0]}', ()),
    "fit-costmodel": ("{}", ()),
}


def test_deterministic_output_matches_checked_in_digests(tmp_path, capsys):
    """Every --deterministic output file is pinned by its sha256.

    A digest may change only in a change that says why; a new numpy or BLAS
    can also move the last bits of an amplitude, hence the version in the message.
    """
    want = json.loads(DIGESTS.read_text())
    got = {}
    for sub, (config, extra) in PINNED_RUNS.items():
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(config)
        out = tmp_path / sub
        mode = () if sub in ("contour", "fit-costmodel") else ("--mode", "both")
        code, _ = run_cli(
            capsys, sub, *mode, "--seed", "7", "--config", str(cfg),
            *extra, "--deterministic", "--out", str(out),
        )
        assert code == EXIT_OK
        for path in sorted(out.iterdir()):
            got[f"{sub}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, f"output bytes moved in {changed} (numpy {np.__version__})"
