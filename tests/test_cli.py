"""End-to-end checks of the command-line surface.

In-process main(argv) calls with capsys keep most cases fast; determinism
and exit-code behavior go through a real subprocess.
"""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from wignerweyl import build_state, parse_state, parse_system
from wignerweyl.cli import COMMANDS, RunConfig, main
from wignerweyl.serialize import matrix_to_json

GOLDENS = Path(__file__).parent / "goldens"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.err)
    assert set(payload) == {"error", "context"}
    return payload


def test_algebra_reports_zero_residual(capsys):
    out = run_cli(capsys, "algebra", "--system", "su:3:1")
    assert out["dimension"] == 3
    assert out["generator_count"] == 8
    assert out["orthogonality_residual"] < 1e-12
    assert out["generators"][0]["dim"] == [3, 3]


def test_kernel_point_evaluation(capsys):
    out = run_cli(
        capsys, "kernel", "--system", "su:2:1", "--side", "wigner",
        "--point", "0.4,0.7",
    )
    assert out["hermiticity_defect"] < 1e-12
    assert out["matrix"]["dim"] == [2, 2]


def test_kernel_rejects_a_non_finite_point(capsys):
    err = run_cli_err(capsys, "kernel", "--system", "hw:4", "--side", "wigner",
                      "--point", "nan,0")
    assert "alpha must be finite" in err["error"]


def test_evolve_rejects_a_non_hermitian_hamiltonian_file(tmp_path, capsys):
    h = tmp_path / "h.json"
    with open(h, "w") as fh:
        json.dump(matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])), fh)
    err = run_cli_err(capsys, "evolve", "--system", "su:2:1", "--state", "random:3",
                      "--hamiltonian", str(h), "--t-final", "0.1", "--dt", "0.01")
    assert "not a Hermitian matrix" in err["error"]


@pytest.mark.parametrize("argv, message", [
    (("partition", "--system", "su:2:1", "--beta", "0.7", "--field", "nan,0,0"),
     "--field components must be finite, got nan,0,0"),
    (("mean", "--system", "su:2:1", "--beta", "0.7", "--field", "0,0,1",
      "--observable", "vec:nan,0,0"), "vec: components must be finite, got nan,0,0"),
    (("evolve", "--system", "su:2:1", "--state", "random:3", "--field", "inf,0,0",
      "--t-final", "0.1", "--dt", "0.01"), "--field components must be finite, got inf,0,0"),
    (("evolve", "--system", "su:2:1", "--state", "random:3", "--hamiltonian", "{nan}",
      "--t-final", "0.1", "--dt", "0.01"), "--hamiltonian {nan} has a non-finite entry"),
    (("mean", "--system", "su:2:1", "--beta", "0.7", "--field", "0,0,1",
      "--observable", "file:{nan}"), "--observable file:{nan} has a non-finite entry"),
], ids=["partition-field", "mean-vec", "evolve-field", "evolve-hamiltonian", "mean-file"])
def test_non_finite_inputs_exit_2_naming_the_flag(argv, message, tmp_path, capsys):
    """{nan} stands for a matrix file with a NaN entry."""
    nan = tmp_path / "nan.json"
    with open(nan, "w") as fh:
        json.dump(matrix_to_json(np.array([[np.nan, 0.0], [0.0, 1.0]])), fh)
    err = run_cli_err(capsys, *(a.format(nan=nan) for a in argv))
    assert err["error"] == message.format(nan=nan)


@pytest.mark.parametrize("argv, message", [
    (("algebra", "--config", "{list}"), "config file must hold a JSON object"),
    # the config's "command" is skipped: kernel would ask for --point
    (("algebra", "--config", "{kernel}"), "algebra dumps su:N:M generator sets"),
    (("algebra", "--system", "su:2:1", "--threads", "0"), "thread cap must be >= 1"),
    (("partition", "--system", "su:2:1", "--beta", "0.7"), "provide --field or --hamiltonian"),
    (("partition", "--system", "hw:4", "--beta", "0.7", "--field", "0,0,1"),
     "--field needs a single su:N:M system"),
    (("partition", "--system", "su:2:1", "--beta", "0.7", "--field", "0,1"),
     "--field takes three components"),
    (("kernel", "--system", "su:2:1*hw:3", "--point", "0.4,0.7"),
     "takes 2 ';'-separated factor point(s), got 1"),
    (("algebra", "--system", "hw:4"), "algebra dumps su:N:M generator sets"),
    (("mean", "--system", "hw:4", "--beta", "0.7", "--hamiltonian", "{h4}",
      "--observable", "j:3"), "j:<k> observables need an su:N:M system"),
    (("mean", "--system", "su:2:1", "--beta", "0.7", "--field", "0,0,1", "--observable", "x:1"),
     "observable grammar: j:<k> | vec:ex,ey,ez | file:<path>"),
    (("autocorr", "--system", "su:2:1", "--state", "random:7", "--axis", "theta1",
      "--samples", "0:1.5"), "--samples grammar is lo:hi:count"),
    (("figure-data", "--preset", "hw-cat", "--system", "su:2:1"),
     "hw-cat preset needs an hw:<n_max> system"),
    (("figure-data", "--preset", "spin-cat", "--system", "su:3:1"),
     "spin-cat preset needs an su:2:M system"),
], ids=["config-not-an-object", "config-command-skipped", "threads-0", "no-hamiltonian",
        "field-on-hw", "field-count", "point-factor-count", "algebra-on-hw", "mean-j-on-hw",
        "observable-grammar", "samples-grammar", "hw-cat-system", "spin-cat-system"])
def test_input_guards_exit_2_naming_the_input(argv, message, tmp_path, capsys):
    """{list} is a config holding a list, {kernel} one naming another command, {h4} a 4x4 H."""
    files = {name: tmp_path / f"{name}.json" for name in ("list", "kernel", "h4")}
    files["list"].write_text("[1, 2]")
    files["kernel"].write_text(json.dumps({"command": "kernel", "system": "hw:4"}))
    with open(files["h4"], "w") as fh:
        json.dump(matrix_to_json(np.diag([0.0, 1.0, 2.0, 3.0])), fh)
    err = run_cli_err(capsys, *(a.format(**files) for a in argv))
    assert message in err["error"]


def test_wigner_sample_and_reconstruct_roundtrip(tmp_path, capsys):
    csv = tmp_path / "f.csv"
    out = run_cli(
        capsys, "wigner", "--system", "su:2:1",
        "--state", "spincoherent:0.3,0.5", "--out", str(csv),
    )
    assert out["integral_residual"] < 1e-10
    out2 = run_cli(
        capsys, "reconstruct", "--system", "su:2:1", "--side", "wigner",
        "--infile", str(csv),
    )
    assert out2["roundtrip_residual"] < 1e-10
    assert out2["hermiticity_defect"] < 1e-10
    A = np.asarray(out2["matrix"]["re"]) + 1j * np.asarray(out2["matrix"]["im"])
    assert abs(np.trace(A) - 1.0) < 1e-10


@pytest.mark.parametrize("column", [0, 3, 4])
def test_reconstruct_rejects_a_non_finite_csv_entry(column, tmp_path, capsys):
    """A NaN node or value exits 2 naming the first bad data row; no NaN reaches the JSON."""
    csv = tmp_path / "f.csv"
    run_cli(capsys, "wigner", "--system", "su:2:1", "--state", "random:2", "--out", str(csv))
    lines = csv.read_text().splitlines()
    for i in (5, 2):
        cells = lines[1 + i].split(",")
        cells[column] = "nan"
        lines[1 + i] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    err = run_cli_err(capsys, "reconstruct", "--system", "su:2:1", "--side", "wigner",
                      "--infile", str(csv))
    assert err["error"].startswith("CSV row 2 is not finite")


@pytest.mark.parametrize("system, state", [("hw:12", "coherent:0.8-0.5j"),
                                           ("su:2:1*hw:3", "random:6")])
def test_default_plane_grid_csv_roundtrip(system, state, tmp_path, capsys):
    """wigner --out on the default oscillator rule keeps (re, im) rows, and reconstruct reads them back."""
    csv = tmp_path / "f.csv"
    out = run_cli(capsys, "wigner", "--system", system, "--state", state, "--out", str(csv))
    assert out["integral_residual"] < 1e-12
    header = csv.read_text().splitlines()[0].split(",")
    assert header[-5:] == (["re", "im"] if system.startswith("hw") else ["f2_re", "f2_im"]) + [
        "weight", "value_re", "value_im"]
    out2 = run_cli(capsys, "reconstruct", "--system", system, "--side", "wigner",
                   "--infile", str(csv))
    assert out2["roundtrip_residual"] < 1e-12
    back = np.asarray(out2["matrix"]["re"]) + 1j * np.asarray(out2["matrix"]["im"])
    desc = parse_system(system)
    assert np.max(np.abs(back - build_state(parse_state(state, desc), desc))) < 1e-12


def test_radius_without_grid_res_exits_2(capsys):
    err = run_cli_err(capsys, "wigner", "--system", "hw:4", "--state", "fock:1",
                      "--radius", "3")
    assert "--grid-res" in err["error"]


def test_weyl_sample_reports_origin_residual(capsys):
    out = run_cli(
        capsys, "weyl", "--system", "su:2:1", "--state", "spincoherent:0.4,0.3",
    )
    assert out["origin_residual"] < 1e-10


def test_verify_report(capsys):
    out = run_cli(capsys, "verify", "--system", "su:2:1", "--side", "wigner")
    assert out["passed"] is True
    assert all(c["passed"] for c in out["conditions"])


def test_partition_and_mean_print_residuals(capsys):
    out = run_cli(
        capsys, "partition", "--system", "su:2:1",
        "--beta", "0.7", "--field", "0.2,0.1,0.9",
    )
    assert out["residual"] < 1e-8
    out = run_cli(
        capsys, "mean", "--system", "su:2:1",
        "--beta", "0.7", "--field", "0,0,1", "--observable", "vec:1,0,1",
    )
    assert out["residual"] < 1e-8


def test_mean_rejects_a_non_hermitian_observable(tmp_path, capsys):
    path = tmp_path / "iI.json"
    with open(path, "w") as fh:
        json.dump(matrix_to_json(1j * np.eye(2)), fh)
    err = run_cli_err(
        capsys, "mean", "--system", "su:2:1",
        "--beta", "0.7", "--field", "0,0,1", "--observable", f"file:{path}",
    )
    assert "Hermitian" in err["error"]


def test_freeenergy(capsys):
    out = run_cli(
        capsys, "freeenergy", "--system", "su:2:1",
        "--beta", "2.0", "--field", "0,0,0.5",
    )
    assert out["residual"] < 1e-9


def test_thermal_commands_at_large_beta(capsys):
    """Z leaves the doubles at beta = 1000 and exits 2; the mean and F stay finite."""
    base = ["--system", "su:2:1", "--field=1,0,0", "--beta", "1000"]
    err = run_cli_err(capsys, "partition", *base)
    assert "beta = 1000.0" in err["error"] and err["context"]["type"] == "OverflowError"
    out = run_cli(capsys, "mean", *base, "--observable", "j:1")
    assert out["mean"] == pytest.approx(-1.0, abs=1e-12)  # J(1) = sigma_x along the field
    assert out["residual"] < 1e-12
    out = run_cli(capsys, "freeenergy", *base)
    assert out["free_energy"] == pytest.approx(out["eigenvalue_oracle"], abs=1e-12)


def test_moments_residual(capsys):
    out = run_cli(
        capsys, "moments", "--system", "su:2:1",
        "--state", "spincoherent:0.2,0.4", "--orders", "0,0,1",
    )
    assert out["axes"] == ["phi1", "theta1", "Phi1"]
    assert out["residual"] < 1e-8


def test_moments_hw_symmetric_order(capsys):
    out = run_cli(
        capsys, "moments", "--system", "hw:16",
        "--state", "coherent:0.4+0.2j", "--orders", "1,1",
    )
    assert out["residual"] < 1e-7


def test_moments_hw_oracle_is_exact_at_order_four(capsys):
    # the oracle's words are formed in a padded block, like weyl_moments'
    out = run_cli(
        capsys, "moments", "--system", "hw:16",
        "--state", "coherent:1.0-1.0j", "--orders", "2,2",
    )
    assert out["residual"] < 1e-12


def test_autocorr_r0_is_trace(capsys):
    out = run_cli(
        capsys, "autocorr", "--system", "su:2:1", "--state", "random:7",
        "--axis", "theta1", "--samples", "0:1.5:7",
    )
    assert out["r0_trace_residual"] < 1e-10
    assert len(out["values"]) == 7


def test_crosscorr_zero_shift_oracle(capsys):
    out = run_cli(
        capsys, "crosscorr", "--system", "su:2:1",
        "--state", "random:4", "--side", "wigner",
    )
    assert out["shift"] == "zero"
    assert out["residual"] < 1e-10


def test_crosscorr_zero_shift_on_the_plane_rule_compares_the_raw_value(capsys):
    out = run_cli(capsys, "crosscorr", "--system", "hw:8", "--state", "random:4",
                  "--side", "wigner")
    assert out["value"] is None and out["volume"] is None
    assert out["zero_shift_oracle"] == pytest.approx(out["raw_value"]["re"], abs=1e-12)
    assert out["residual"] < 1e-12


def test_crosscorr_shift_takes_the_point_grammar(capsys):
    """A trailing comma is in the --point grammar; "zero shift" is read from the parsed point."""
    base = ["crosscorr", "--system", "su:2:1", "--state", "random:1"]
    zero = run_cli(capsys, *base, "--shift", "0,0,")
    assert zero["shift"] == "0,0,"
    assert zero["residual"] < 1e-12
    assert zero["zero_shift_oracle"] == pytest.approx(zero["value"]["re"], abs=1e-12)
    moved = run_cli(capsys, *base, "--shift", "0.4,0.7,")
    assert "zero_shift_oracle" not in moved
    plain = run_cli(capsys, *base, "--shift", "0.4,0.7")
    assert {**moved, "shift": plain["shift"]} == plain


def test_point_must_fill_each_factor_s_columns(capsys):
    """Five values for su:2:1*hw:3 on the Weyl side, split 2;3 instead of 3;2."""
    err = run_cli_err(capsys, "kernel", "--system", "su:2:1*hw:3", "--side", "weyl",
                      "--point", "0.4,0.7;-0.3,0.3,-0.2")
    assert "(phi1,theta1,Phi1), got 2" in err["error"]


def test_evolve_rejects_a_negative_frame_count(capsys):
    err = run_cli_err(capsys, "evolve", "--system", "su:2:1", "--state", "spincoherent:0.1,0.6",
                      "--field", "0,0,1", "--t-final", "0.1", "--dt", "0.01", "--frames", "-3")
    assert "frame count" in err["error"] and err["context"]["type"] == "ValueError"


def test_evolve_stores_the_requested_frames_after_the_initial_one(capsys):
    """10 steps with --frames 3 store steps 4, 7 and 10; --frames 0 stores the final one only."""
    base = ["evolve", "--system", "su:2:1", "--state", "spincoherent:0.1,0.6",
            "--field", "0,0,1", "--t-final", "0.1", "--dt", "0.01"]
    assert run_cli(capsys, *base, "--frames", "3")["n_frames"] == 4
    assert run_cli(capsys, *base, "--frames", "0")["n_frames"] == 2
    assert run_cli(capsys, *base, "--frames", "30")["n_frames"] == 11


def test_evolve_refuses_a_billion_frames(capsys, monkeypatch):
    """The frame guard fires before the handler transforms the state or the Hamiltonian."""
    import wignerweyl.commands as commands_module

    calls = []
    real = commands_module.phase_function
    monkeypatch.setattr(commands_module, "phase_function",
                        lambda *a: calls.append(a) or real(*a))
    err = run_cli_err(capsys, "evolve", "--system", "su:2:1", "--state", "spincoherent:0.1,0.6",
                      "--field", "0,0,1", "--t-final", "1e7", "--dt", "0.01",
                      "--frames", "1000000000")
    assert "--frames" in err["error"] and "--dt" in err["error"]
    assert err["context"]["type"] == "OverflowError"
    assert calls == []


def test_evolve_reports_drifts(capsys):
    out = run_cli(
        capsys, "evolve", "--system", "su:2:1", "--state", "spincoherent:0.1,0.6",
        "--field", "0,0,1", "--t-final", "0.2", "--dt", "0.01",
    )
    assert out["trace_drift"] < 1e-10
    assert out["propagator_sup_residual"] < 1e-6


def test_evolve_ends_on_a_t_final_that_is_no_multiple_of_dt(capsys):
    out = run_cli(
        capsys, "evolve", "--system", "su:2:1", "--state", "spincoherent:0.1,0.6",
        "--field", "0.3,0,1", "--t-final", "0.025", "--dt", "0.01",
    )
    assert out["propagator_sup_residual"] < 1e-9


@pytest.mark.parametrize("times", [["--t-final", "0.02", "--dt", "inf"],
                                   ["--t-final", "nan", "--dt", "0.01"],
                                   ["--t-final", "1e300", "--dt", "1e-300"]],
                         ids=["dt", "t-final", "t-final-over-dt"])
def test_evolve_rejects_a_non_finite_time(times, capsys):
    err = run_cli_err(capsys, "evolve", "--system", "su:2:1", "--state", "spincoherent:0.1,0.6",
                      "--field", "0,0,1", *times)
    assert "finite dt" in err["error"] and err["context"]["type"] == "ValueError"


def test_partition_rejects_an_infinite_beta(capsys):
    err = run_cli_err(capsys, "partition", "--system", "su:2:1", "--beta", "inf",
                      "--field", "0,0,1")
    assert "beta must be finite" in err["error"]


@pytest.mark.parametrize("system, state", [("hw:4", "coherent:nan"), ("hw:4", "coherent:inf"),
                                           ("su:2:1", "spincoherent:nan,0.1")])
def test_non_finite_state_parameters_exit_2(system, state, capsys):
    err = run_cli_err(capsys, "wigner", "--system", system, "--state", state)
    assert err["error"].startswith(f"bad state string {state!r}")


def test_figure_data_hw_cat(tmp_path, capsys):
    csv = tmp_path / "cat.csv"
    out = run_cli(
        capsys, "figure-data", "--preset", "hw-cat", "--system", "hw:24",
        "--grid-res", "41", "--radius", "4.5", "--out", str(csv),
    )
    assert out["origin_residual"] < 1e-6
    lines = csv.read_text().splitlines()
    assert lines[0] == "re,im,value_re,value_im,magnitude,phase"
    assert len(lines) == 1 + 41 * 41


def test_figure_data_ghz5_rows_match(tmp_path, capsys):
    """Equal-angle GHZ slice: tensor-product route equals the Dicke route."""
    a = tmp_path / "dicke.csv"
    b = tmp_path / "tensor.csv"
    run_cli(capsys, "figure-data", "--preset", "ghz5-dicke",
            "--side", "weyl", "--grid-res", "7", "--out", str(a))
    run_cli(capsys, "figure-data", "--preset", "ghz5-equal-angle",
            "--side", "weyl", "--grid-res", "7", "--out", str(b))
    va = np.loadtxt(a, delimiter=",", skiprows=1)
    vb = np.loadtxt(b, delimiter=",", skiprows=1)
    assert va.shape == vb.shape
    assert np.max(np.abs(va[:, 4:6] - vb[:, 4:6])) < 1e-10


def test_verify_arecchi_reads_grid_flags(capsys):
    """The arecchi family lives on a CP grid, which --grid-res sizes."""
    from wignerweyl import SUN, cp_grid, verify_stratonovich

    out = run_cli(capsys, "verify", "--system", "su:2:1", "--side", "weyl",
                  "--rotation", "arecchi", "--grid-res", "4")
    want = verify_stratonovich(SUN(2, 1), "weyl", grid=cp_grid(SUN(2, 1), 4), rotation="arecchi")
    assert out == json.loads(json.dumps(want.as_dict()))


@pytest.mark.parametrize(
    "preset,flag,value",
    [
        ("ghz5-dicke", "--system", "su:2:5"),
        ("ghz5-dicke", "--radius", "3"),
        ("ghz5-equal-angle", "--system", "su:2:1"),
        ("ghz5-equal-angle", "--radius", "3"),
        ("spin-cat", "--radius", "3"),
    ],
)
def test_figure_data_rejects_flags_the_preset_does_not_read(preset, flag, value, capsys):
    payload = run_cli_err(capsys, "figure-data", "--preset", preset, "--grid-res", "5",
                          flag, value)
    assert payload["error"] == f"figure-data --preset {preset} does not read {flag}"


@pytest.mark.parametrize("preset", ["hw-cat", "spin-cat", "ghz5-dicke", "ghz5-equal-angle"])
def test_figure_data_grid_res_below_two_is_rejected(preset, capsys):
    for res in ("0", "-3", "1"):
        payload = run_cli_err(capsys, "figure-data", "--preset", preset, "--grid-res", res)
        assert payload["error"] == f"figure-data --grid-res must be at least 2, got {res}"
    extra = ["--system", "hw:4"] if preset == "hw-cat" else []
    out = run_cli(capsys, "figure-data", "--preset", preset, *extra, "--grid-res", "2")
    # hw-cat bumps an even count to keep the origin row: 3 x 3; spheres are 3 x 2
    assert out["n_rows"] == (9 if preset == "hw-cat" else 6)
    if preset == "hw-cat":
        assert out["origin_residual"] < 1e-12


_AUTOCORR = ["autocorr", "--system", "su:2:1", "--state", "random:7", "--axis", "theta1"]


@pytest.mark.parametrize("argv, rows", [
    ([*_AUTOCORR, "--samples", "0:1:101"], 101),
    (["figure-data", "--preset", "spin-cat", "--system", "su:2:1", "--grid-res", "8"], 8 * 15),
    (["figure-data", "--preset", "ghz5-equal-angle", "--grid-res", "8"], 8 * 15),
    (["figure-data", "--preset", "hw-cat", "--system", "hw:4", "--grid-res", "10"], 11 * 11),
], ids=["autocorr", "spin-cat", "ghz5-equal-angle", "hw-cat"])
def test_row_tables_over_the_node_limit_are_refused_before_allocation(argv, rows, capsys,
                                                                       monkeypatch):
    import wignerweyl.measures as measures_module

    monkeypatch.setattr(measures_module, "MAX_NODES", 100)
    assert run_cli(capsys, *_AUTOCORR, "--samples", "0:1:100")["n_samples"] == 100
    for name in ("linspace", "meshgrid"):  # neither table is allocated
        monkeypatch.setattr(np, name, None)
    err = run_cli_err(capsys, *argv)
    assert f"asks for {rows} rows (limit 100)" in err["error"]
    assert err["context"]["type"] == "OverflowError"


@pytest.mark.parametrize("command, args", [
    ("wigner", ["--system", "su:2:1", "--state", "spincoherent:0.3,0.5"]),
    ("verify", ["--system", "su:2:1*su:2:1", "--side", "weyl"]),
    ("partition", ["--system", "su:2:1", "--beta", "1.0", "--field", "0,0,1"]),
])
def test_radius_is_rejected_without_an_hw_factor(command, args, capsys):
    payload = run_cli_err(capsys, command, *args, "--radius", "3")
    assert "--radius" in payload["error"] and "no hw factor" in payload["error"]


@pytest.mark.parametrize("argv", [
    ["figure-data", "--preset", "hw-cat", "--system", "hw:6", "--radius", "nan", "--grid-res", "5"],
    ["wigner", "--system", "hw:4", "--state", "coherent:0.5", "--radius", "nan", "--grid-res", "8"],
], ids=["figure-data", "wigner"])
def test_non_finite_radius_exits_2(argv, capsys):
    payload = run_cli_err(capsys, *argv)
    assert "finite" in payload["error"]


@pytest.mark.parametrize("radius", ["0", "-3"])
def test_figure_data_rejects_a_radius_that_is_not_positive(radius, capsys, monkeypatch):
    import wignerweyl.commands as commands

    def fail(*args, **kwargs):
        raise AssertionError("rows were built")

    monkeypatch.setattr(commands, "build_state", fail)
    monkeypatch.setattr(commands, "symbols_at", fail)
    payload = run_cli_err(capsys, "figure-data", "--preset", "hw-cat", "--system", "hw:6",
                          "--radius", radius, "--grid-res", "5")
    assert payload["error"] == f"need a finite radius > 0, got {float(radius)}"


def test_config_file_then_flags_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"system": "su:2:1", "beta": 0.3, "field": "0,0,1"}))
    out = run_cli(capsys, "partition", "--config", str(cfgfile))
    assert out["beta"] == 0.3
    # explicit flag wins over the config value
    out = run_cli(capsys, "partition", "--config", str(cfgfile), "--beta", "1.1")
    assert out["beta"] == 1.1


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"system": "su:2:1", "betaa": 0.3}))
    payload = run_cli_err(capsys, "partition", "--config", str(cfgfile))
    assert "betaa" in payload["error"]
    assert payload["context"]["type"] == "ValueError"


def test_the_quadrature_level_is_not_an_option(tmp_path, capsys):
    """Each manifold has one quadrature level, so neither flag nor config key sets it."""
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--system", "su:2:1", "--state", "random:3", "--exactness", "pairs"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exactness" in capsys.readouterr().err
    cfgfile = tmp_path / "old.json"
    cfgfile.write_text(json.dumps({"system": "su:2:1", "state": "random:3", "exactness": "pairs"}))
    payload = run_cli_err(capsys, "weyl", "--config", str(cfgfile))
    assert "'exactness'" in payload["error"]


def test_error_payload_on_bad_system(capsys):
    payload = run_cli_err(
        capsys, "wigner", "--system", "su:1:1", "--state", "fock:0",
    )
    assert payload["context"]["command"] == "wigner"


def test_runconfig_roundtrip_rejects_unknown():
    cfg = RunConfig(command="partition", system="su:2:1", beta=0.5)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        RunConfig.from_dict({"command": "partition", "nope": 1})


def test_subprocess_csv_is_byte_deterministic(tmp_path):
    """Same invocation twice gives byte-identical output files."""
    outs = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-c", "import sys; from wignerweyl.cli import main; sys.exit(main())",
             "wigner", "--system", "hw:8", "--state", "hwcat:1.2|-1.2",
             "--grid-res", "40", "--radius", "3.5", "--out", str(p)],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


def test_subprocess_error_exit_code():
    r = subprocess.run(
        [sys.executable, "-c", "import sys; from wignerweyl.cli import main; sys.exit(main())",
         "kernel", "--system", "hw:8", "--side", "wigner", "--point", "1.0"],
        capture_output=True, text=True,
    )
    assert r.returncode == 2
    payload = json.loads(r.stderr)
    assert "re,im" in payload["error"]


def test_missing_required_option_reports_json(capsys):
    payload = run_cli_err(capsys, "evolve", "--system", "su:2:1", "--state", "fock:0")
    assert payload["error"] == "--t-final is required for evolve"


# ---------------------------------------------------------------------------
# the command table: accepted flags, --out, thread cap, lazy import

# one successful run per command; "{goldens}" is the goldens directory and
# "{h2}"/"{h4}" are Hamiltonian files for su:2:1 and hw:4
BASE = {
    "algebra": ["--system", "su:2:1"],
    "kernel": ["--system", "su:2:1", "--point", "0.4,0.7"],
    "wigner": ["--system", "su:2:1", "--state", "spincoherent:0.3,0.5"],
    "weyl": ["--system", "su:2:1", "--state", "spincoherent:0.3,0.5"],
    "reconstruct": ["--system", "su:2:1", "--infile", "{goldens}/wigner_su21.csv"],
    "verify": ["--system", "su:2:1"],
    "partition": ["--system", "su:2:1", "--beta", "0.7", "--field", "0.2,0.1,0.9"],
    "mean": ["--system", "su:2:1", "--beta", "0.7", "--field", "0.2,0.1,0.9"],
    "freeenergy": ["--system", "su:2:1", "--beta", "0.7", "--field", "0.2,0.1,0.9"],
    "moments": ["--system", "su:2:1", "--state", "spincoherent:0.2,0.4", "--orders", "0,0,1"],
    "autocorr": ["--system", "su:2:1", "--state", "random:7", "--axis", "theta1",
                 "--samples", "0:1.5:7"],
    "crosscorr": ["--system", "su:2:1", "--state", "random:4"],
    "evolve": ["--system", "su:2:1", "--state", "spincoherent:0.1,0.6", "--field", "0,0,1",
               "--t-final", "0.02", "--dt", "0.01"],
    "figure-data": ["--preset", "spin-cat", "--system", "su:2:3", "--grid-res", "5"],
}

# the value each flag takes in the variant run
FLAG_VALUE = {
    "system": "su:2:2", "state": "random:9", "side": "weyl", "grid_res": "12",
    "radius": "3", "rotation": "arecchi", "beta": "1.3",
    "field": "0.5,0,0", "hamiltonian": "{h2}", "observable": "j:1", "point": "0.1,0.2",
    "shift": "0.3,0.2", "axis": "phi1", "samples": "0:1:5", "orders": "0,1,0",
    "t_final": "0.03", "dt": "0.005", "frames": "1",
    "preset": "ghz5-dicke", "infile": "missing.csv", "out": "out", "seed": "5",
}

# arguments added to both runs where the base run would not read the flag
_HW = ["--system", "hw:4", "--grid-res", "10"]
_HW_STATE = [*_HW, "--state", "fock:1"]
_HW_THERMAL = [*_HW, "--hamiltonian", "{h4}"]
CONTEXT = {
    ("kernel", "side"): ["--system", "hw:4", "--point", "0.3,0.2"],
    ("wigner", "radius"): _HW_STATE,
    # weyl prints the grid-free origin value, so the grid shows in the CSV
    ("weyl", "grid_res"): ["--out", "f.csv"],
    ("weyl", "radius"): [*_HW_STATE, "--out", "f.csv"],
    ("crosscorr", "radius"): _HW_STATE,
    # 60 nodes: the round trips of fock:1 and h4 hold to 2e-7 at radius 5 and 3
    ("evolve", "radius"): [*_HW_STATE, "--hamiltonian", "{h4}", "--grid-res", "60"],
    ("verify", "radius"): _HW,
    ("partition", "radius"): _HW_THERMAL,
    ("freeenergy", "radius"): _HW_THERMAL,
    ("mean", "radius"): [*_HW_THERMAL, "--observable", "file:{h4}"],
    ("reconstruct", "radius"): ["--system", "hw:4", "--side", "weyl", "--grid-res", "10",
                                "--radius", "4", "--infile", "{goldens}/weyl_hw4.csv"],
    ("figure-data", "radius"): ["--preset", "hw-cat", "--system", "hw:8", "--grid-res", "9",
                                "--out", "f.csv"],
}

_PAIRS = [(name, opt) for name, cmd in COMMANDS.items() for opt in (*cmd.options, "out")]


def _flag(opt):
    return "--" + opt.replace("_", "-")


@pytest.fixture
def run_in(tmp_path, monkeypatch, capsys):
    """Run argv in a fresh directory; return exit code, stdout, stderr and files written."""
    h2, h4 = tmp_path / "h2.json", tmp_path / "h4.json"
    for path, A in ((h2, [[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.5]]),
                    (h4, np.diag(np.arange(4.0)) + 0.1 * np.eye(4, k=1) + 0.1 * np.eye(4, k=-1))):
        with open(path, "w") as fh:
            json.dump(matrix_to_json(A), fh)

    def run(workdir, argv):
        argv = [a.format(goldens=GOLDENS, h2=h2, h4=h4) for a in argv]
        (tmp_path / workdir).mkdir()
        monkeypatch.chdir(tmp_path / workdir)
        code = main(argv)
        out, err = capsys.readouterr()
        files = {str(f.relative_to(tmp_path / workdir)): f.read_bytes()
                 for f in sorted((tmp_path / workdir).rglob("*")) if f.is_file()}
        return code, out, err, files

    return run


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_rejects_flags_it_does_not_read(command, capsys):
    accepted = {*COMMANDS[command].options, "out", "threads"}
    for opt in sorted({f.name for f in fields(RunConfig)} - accepted - {"command"}):
        with pytest.raises(SystemExit) as exc:
            main([command, _flag(opt), "1"])
        assert exc.value.code == 2, opt
        assert "unrecognized arguments" in capsys.readouterr().err, opt


@pytest.mark.parametrize("command,opt", _PAIRS)
def test_every_accepted_flag_changes_the_result(command, opt, run_in):
    """A flag a command accepts is read: output, exit code or files differ."""
    argv = [command, *BASE[command], *CONTEXT.get((command, opt), [])]
    base = run_in("base", argv)
    assert base[0] == 0, base[2]
    assert run_in("variant", [*argv, _flag(opt), FLAG_VALUE[opt]]) != base


def test_evolve_refuses_a_grid_that_misses_the_round_trip(run_in):
    """40 nodes miss the round trip of h4 by 3.4e-2: the abort names the grid."""
    code, out, err, files = run_in("run", ["evolve", *BASE["evolve"], *_HW_STATE,
                                           "--hamiltonian", "{h4}", "--grid-res", "40"])
    assert code == 2 and out == "" and files == {}
    assert "--grid-res" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "command", sorted(name for name, cmd in COMMANDS.items() if cmd.out == "json")
)
def test_json_out_writes_the_printed_result(command, run_in):
    code, out, err, files = run_in("run", [command, *BASE[command], "--out", "result.json"])
    assert code == 0, err
    assert files == {"result.json": out.encode()}


def _python(code, *argv, env=None):
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)


def test_threads_flag_overrides_blas_environment():
    env = dict(os.environ, OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2")
    r = _python(
        "import os, sys; from wignerweyl.cli import main; code = main(sys.argv[1:]); "
        "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'], "
        "file=sys.stderr); sys.exit(code)",
        "algebra", "--system", "su:2:1", "--threads", "1", env=env,
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr.split() == ["1", "1"]


def test_threads_flag_fails_once_numpy_is_loaded():
    r = _python(
        "import sys, numpy; from wignerweyl.cli import main; sys.exit(main(sys.argv[1:]))",
        "algebra", "--system", "su:2:1", "--threads", "1",
    )
    assert r.returncode == 2
    assert "numpy is already loaded" in json.loads(r.stderr)["error"]


_PARSER_ARGVS = [
    [], ["--help"], ["frobnicate"], ["--system", "su:2:1"],
    *([name, "--help"] for name in COMMANDS),
    *([name, "--no-such-flag", "1"] for name in COMMANDS),
    *([name, "stray"] for name in COMMANDS),
    ["wigner", "--system"], ["verify", "--side", "sideways"], ["evolve", "--frames", "x"],
    ["figure-data", "--preset", "hw-cat", "--point", "1,2"],
    ["figure-data", "--preset", "nope"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_one_command_parser_reads_as_the_full_parser(argv, capsys):
    """main builds only the invoked command's flags; help, errors and parses are unchanged."""
    from wignerweyl.cli import _build_parser

    outcomes = []
    for parser in (_build_parser(), _build_parser(argv[0] if argv and argv[0] in COMMANDS
                                                   else None)):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
        outcomes.append((result, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1].out or outcomes[0][1].err


def test_one_command_parser_parses_every_flag_as_the_full_parser():
    from wignerweyl.cli import _build_parser

    for name, cmd in COMMANDS.items():
        argv = [name, "--threads", "2", "--out", "o"]
        for opt in cmd.options:
            argv += [_flag(opt), FLAG_VALUE[opt]]
        assert vars(_build_parser(name).parse_args(argv)) == vars(_build_parser().parse_args(argv))


def test_every_exported_name_resolves():
    import wignerweyl

    for name in wignerweyl.__all__:
        getattr(wignerweyl, name)


def test_cli_import_and_parser_leave_numpy_unloaded():
    r = _python("import sys, wignerweyl.cli as c; c._build_parser(); "
                "print('numpy' in sys.modules)")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_commands_import_loads_no_polynomial_module():
    """Importing the command layer loads no numpy.polynomial module that numpy does not.

    The quadrature tables reach numpy.polynomial lazily, at their first build,
    so that start-up stays lean.
    """
    r = _python("import sys, numpy\n"
                "def poly(): return {m for m in sys.modules if m.startswith('numpy.polynomial')}\n"
                "before = poly(); import wignerweyl.commands; print(sorted(poly() - before))")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_figure_data_and_sampling_leave_numpy_ma_unloaded(tmp_path):
    """symbols_at's mesh test and row routes load no numpy.ma (a plain np.unique would)."""
    r = _python(
        "import sys; from wignerweyl.cli import main; "
        "codes = [main(sys.argv[1:8]), main(sys.argv[8:])]; "
        "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)",
        "figure-data", "--preset", "ghz5-equal-angle", "--grid-res", "5",
        "--out", str(tmp_path / "g.csv"),
        "weyl", "--system", "su:2:2", "--state", "random:3",
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr.strip() == "[0, 0] False"


def test_commands_and_a_kernel_run_leave_scipy_unloaded():
    r = _python(
        "import sys, wignerweyl.commands; from wignerweyl.cli import main; "
        "code = main(sys.argv[1:]); print('scipy' in sys.modules, file=sys.stderr); "
        "sys.exit(code)",
        "kernel", "--system", "hw:4", "--side", "wigner", "--point", "0.3,-0.2",
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr.strip() == "False"
