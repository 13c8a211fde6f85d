"""CLI outputs against goldens recorded before a refactor of the code behind them.

Each case runs one command in-process inside a temporary directory and
compares its JSON and CSV outputs with ``tests/goldens/<name>.json`` and
``<name>.csv`` (``evolve`` frames: every file of ``<name>/``): JSON keys and
non-float values, CSV headers, row counts and coordinate columns must match
exactly; floats and symbol values (and the magnitude and phase columns derived
from them) agree within 1e-12.  The goldens were written by running each
case's command and saving stdout and the ``--out`` file(s) under the case
name: the figure-data, autocorr, wigner and weyl cases with the per-point /
plot-grid implementation, the other commands with the hand-built parser that
preceded the command table.  ``moments_hw8`` was re-captured when the
finite-difference moments (and their ``--step`` flag) gave way to exact
derivatives, and again when the oscillator oracle began forming its words in
a padded block (its oracle value and residual changed; the moment did not).
``weyl_su21`` and ``weyl_su21_hw3`` were re-captured when the Euler-Weyl grid
moved from the "quads" to the "pairs" level (150 to 36 SU(2) nodes); every new
row was checked against per-point ``symbol_at`` to 1e-12 before saving, and
``reconstruct --infile`` of the new ``weyl_su21.csv`` returns ``random:3`` to
1e-12.  ``wigner_su21``, ``weyl_su21``, ``wigner_su21_hw3``, ``weyl_su21_hw3``
and ``evolve_su21`` were re-captured when every CP and SU(N) colatitude
moved to its Gauss-Jacobi rule and every SU(N) angle to a uniform one
(su:2:1: 30 to 10 Wigner nodes, 36 to 9 Weyl nodes), with key sets
unchanged: every row matched per-point ``symbols_at`` of its state to
2.3e-16 (the ``evolve`` frames: of U rho U^dagger, to 3.5e-11 at t = 0.02,
inside the 1e-8 propagator tolerance), the printed residuals stayed at
their previous sizes, and ``reconstruct --infile`` of the new
``wigner_su21.csv`` and ``weyl_su21.csv`` returns their states to 5e-16.
``wigner_su21``, ``wigner_su21_hw3`` and ``evolve_su21`` were re-captured
again when every CP phi_j moved to 2M + 1 uniform nodes (su:2:1: 10 to 6
Wigner nodes), with key sets unchanged: every row matched per-point
``kernel_at`` of its state to 2.3e-16 (the ``evolve`` frames: of U rho
U^dagger, to 3.3e-11 at t = 0.02), and the printed residuals stayed at their
previous sizes.
``evolve_su21`` was re-captured once more when ``evolve`` moved from RK4
steps to the exact spectral propagator, with its key set unchanged: every
frame matched the symbols of U rho U^dagger, U = ``scipy.linalg.expm(-iHt)``,
to 8.9e-16, and ``propagator_sup_residual`` fell from 3.3e-11 to 8.9e-16.
``autocorr_hw_re`` and ``autocorr_hw_im`` replaced ``autocorr_hw_q`` and
``autocorr_hw_p`` when the oscillator's autocorrelation axes became the grid
columns ``re`` and ``im`` (alpha itself, where q and p were sqrt(2) alpha):
they sample the same alphas, the old samples divided by sqrt(2), and their
values matched the old files to 2.5e-16.
``wigner_hw4`` and ``weyl_hw4`` had their ``weight`` column, and nothing
else, re-captured when the square window's Gauss-Legendre rule moved from
numpy's ``leggauss`` to the package's Golub-Welsch routine: the 10-point
nodes are unchanged, and the new 1-D weights are the 40-digit Gauss-Legendre
weights correctly rounded, which ``leggauss``'s missed by up to 1.3e-15
relative (node weights moved by up to 2.9e-15 relative).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wignerweyl.cli import main

GOLDENS = Path(__file__).parent / "goldens"
TOL = 1e-12

# name -> argv; "{out}" is replaced by "<name>.csv", "{frames}" by the frames
# directory "<name>" and "{goldens}" by the goldens directory
CASES = {
    "fig_hw_cat_wigner": ["figure-data", "--preset", "hw-cat", "--system", "hw:8",
                          "--grid-res", "9", "--radius", "3", "--side", "wigner", "--out", "{out}"],
    "fig_hw_cat_weyl": ["figure-data", "--preset", "hw-cat", "--system", "hw:8",
                        "--grid-res", "9", "--radius", "3", "--side", "weyl", "--out", "{out}"],
    "fig_spin_cat_wigner": ["figure-data", "--preset", "spin-cat", "--system", "su:2:3",
                            "--grid-res", "5", "--side", "wigner", "--out", "{out}"],
    "fig_spin_cat_weyl": ["figure-data", "--preset", "spin-cat", "--system", "su:2:3",
                          "--grid-res", "5", "--side", "weyl", "--out", "{out}"],
    "fig_ghz5_dicke_wigner": ["figure-data", "--preset", "ghz5-dicke", "--grid-res", "5",
                              "--side", "wigner", "--out", "{out}"],
    "fig_ghz5_dicke_weyl": ["figure-data", "--preset", "ghz5-dicke", "--grid-res", "5",
                            "--side", "weyl", "--out", "{out}"],
    "fig_ghz5_equal_wigner": ["figure-data", "--preset", "ghz5-equal-angle", "--grid-res", "5",
                              "--side", "wigner", "--out", "{out}"],
    "fig_ghz5_equal_weyl": ["figure-data", "--preset", "ghz5-equal-angle", "--grid-res", "5",
                            "--side", "weyl", "--out", "{out}"],
    "autocorr_hw_re": ["autocorr", "--system", "hw:8", "--state", "coherent:0.5+0.3j",
                       "--axis", "re", "--samples=-1.0606601717798212:1.0606601717798212:7",
                       "--out", "{out}"],
    "autocorr_hw_im": ["autocorr", "--system", "hw:8", "--state", "coherent:0.5+0.3j",
                       "--axis", "im", "--samples=-1.0606601717798212:1.0606601717798212:7"],
    "autocorr_su_phi1": ["autocorr", "--system", "su:2:2", "--state", "spincoherent:0.3,0.8",
                         "--axis", "Phi1", "--samples", "0:1.5:7"],
    "wigner_su21": ["wigner", "--system", "su:2:1", "--state", "spincoherent:0.3,0.5",
                    "--out", "{out}"],
    "weyl_su21": ["weyl", "--system", "su:2:1", "--state", "random:3", "--out", "{out}"],
    "wigner_hw4": ["wigner", "--system", "hw:4", "--state", "coherent:0.3-0.2j",
                   "--grid-res", "10", "--radius", "3", "--out", "{out}"],
    "weyl_hw4": ["weyl", "--system", "hw:4", "--state", "fock:1",
                 "--grid-res", "10", "--radius", "4", "--out", "{out}"],
    "wigner_su21_hw3": ["wigner", "--system", "su:2:1*hw:3", "--state", "random:5",
                        "--grid-res", "2", "--radius", "2.5", "--out", "{out}"],
    "weyl_su21_hw3": ["weyl", "--system", "su:2:1*hw:3", "--state", "random:5",
                      "--grid-res", "2", "--radius", "2.5", "--out", "{out}"],
    "algebra_su22": ["algebra", "--system", "su:2:2"],
    "kernel_su21_hw3": ["kernel", "--system", "su:2:1*hw:3", "--side", "weyl",
                        "--point", "0.4,0.7,-0.3;0.3,-0.2"],
    "reconstruct_hw4_weyl": ["reconstruct", "--system", "hw:4", "--side", "weyl",
                             "--grid-res", "10", "--radius", "4",
                             "--infile", "{goldens}/weyl_hw4.csv"],
    "verify_su21_weyl": ["verify", "--system", "su:2:1", "--side", "weyl", "--seed", "3"],
    "partition_su22": ["partition", "--system", "su:2:2", "--beta", "0.7",
                       "--field", "0.2,0.1,0.9"],
    "mean_su21_vec": ["mean", "--system", "su:2:1", "--beta", "0.7", "--field", "0,0,1",
                      "--observable", "vec:1,0,1"],
    "freeenergy_su21": ["freeenergy", "--system", "su:2:1", "--beta", "2.0",
                        "--field", "0,0,0.5"],
    "moments_hw8": ["moments", "--system", "hw:8", "--state", "coherent:0.4+0.2j",
                    "--orders", "1,1"],
    "crosscorr_su21_zero": ["crosscorr", "--system", "su:2:1", "--state", "random:4",
                            "--side", "wigner", "--shift", "0,0"],
    "evolve_su21": ["evolve", "--system", "su:2:1", "--state", "spincoherent:0.1,0.6",
                    "--field", "0,0,1", "--t-final", "0.02", "--dt", "0.01",
                    "--frames", "2", "--out", "{frames}"],
}

# CSV columns holding symbol values; every other column is a coordinate or weight
_VALUE_COLUMNS = {"value_re", "value_im", "magnitude", "phase"}


def _assert_json_close(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"keys differ at {where}"
        for key in want:
            _assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"length differs at {where}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_json_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)), f"type differs at {where}"
        assert abs(got - want) <= TOL * max(1.0, abs(want)), f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _assert_csv_close(got_path, want_path):
    got_head, got_rows = _read_csv(got_path)
    want_head, want_rows = _read_csv(want_path)
    assert got_head == want_head
    assert len(got_rows) == len(want_rows)
    got = np.asarray(got_rows)
    want = np.asarray(want_rows)
    for j, name in enumerate(want_head):
        if name not in _VALUE_COLUMNS:
            assert np.array_equal(got[:, j], want[:, j]), f"column {name} differs"
        elif name != "phase":
            g, w = got[:, j].astype(float), want[:, j].astype(float)
            assert np.all(np.abs(g - w) <= TOL * np.maximum(1.0, np.abs(w))), name
    if "phase" in want_head:
        # compare phases through the values they encode: the angle of a
        # value on the negative real axis may flip between +pi and -pi
        m, p = want_head.index("magnitude"), want_head.index("phase")
        g = got[:, m].astype(float) * np.exp(1j * got[:, p].astype(float))
        w = want[:, m].astype(float) * np.exp(1j * want[:, p].astype(float))
        assert np.all(np.abs(g - w) <= TOL * np.maximum(1.0, np.abs(w))), "phase"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = f"{name}.csv"
    argv = [a.replace("{out}", out).replace("{frames}", name).replace("{goldens}", str(GOLDENS))
            for a in CASES[name]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    want = json.loads((GOLDENS / f"{name}.json").read_text())
    _assert_json_close(json.loads(captured.out), want)
    if "{out}" in CASES[name]:
        _assert_csv_close(tmp_path / out, GOLDENS / out)
    if "{frames}" in CASES[name]:
        want_frames = sorted(p.name for p in (GOLDENS / name).iterdir())
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == want_frames
        for frame in want_frames:
            _assert_csv_close(tmp_path / name / frame, GOLDENS / name / frame)
