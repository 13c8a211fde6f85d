import json

import numpy as np
import pytest

from wignerweyl.serialize import (
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    write_csv,
)


def test_matrix_json_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    obj = matrix_to_json(A)
    assert obj["dim"] == [3, 5]
    back = matrix_from_json(obj)
    assert np.array_equal(back, A)  # bit-exact through tolist()


def test_matrix_json_validation():
    with pytest.raises(ValueError):
        matrix_to_json(np.zeros(4))
    bad = matrix_to_json(np.eye(2))
    bad["dim"] = [3, 2]
    with pytest.raises(ValueError):
        matrix_from_json(bad)


def test_dump_load_matrix(tmp_path):
    A = np.array([[1.0 + 2.0j, -0.5], [0.0, 1e-17j]])
    p = tmp_path / "m.json"
    with open(p, "w") as fh:
        json.dump(matrix_to_json(A), fh)
    assert np.array_equal(load_matrix(p), A)
    # the file is plain JSON anyone can parse
    obj = json.loads(p.read_text())
    assert set(obj) == {"dim", "re", "im"}


def test_write_csv_roundtrips_doubles(tmp_path):
    rows = np.array([[np.pi, 1.0 / 3.0], [1e-300, -2.5000000000000004]])
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], rows)
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b"
    back = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(back, rows)  # 17 significant digits recover doubles


def test_write_csv_validation(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a", "b"], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", ["a"], np.zeros(3))


def test_write_csv_matches_per_value_formatting(tmp_path):
    rows = np.array([
        [np.nan, np.inf, -np.inf],
        [-0.0, 5e-324, 1e300],
        [1e-300, -1e-300, -1e300],
        [np.pi, -2.5000000000000004, 0.0],
    ])
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b", "c"], rows)
    want = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert p.read_bytes() == want.encode()
