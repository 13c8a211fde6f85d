"""Matrix and table serialization helpers.

Complex matrices travel as JSON objects {"dim": [r, c], "re": [[...]], "im":
[[...]]}; numeric tables as CSV with 17 significant digits, enough to
round-trip IEEE doubles.
"""

from __future__ import annotations

import json

import numpy as np


def matrix_to_json(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError("only 2-D matrices are serialized")
    return {
        "dim": [int(A.shape[0]), int(A.shape[1])],
        "re": A.real.tolist(),
        "im": A.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    r, c = obj["dim"]
    A = np.asarray(obj["re"], dtype=np.float64) + 1j * np.asarray(obj["im"], dtype=np.float64)
    if A.shape != (r, c):
        raise ValueError(f"declared dim {(r, c)} does not match data {A.shape}")
    return A


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def write_csv(path, header: list[str], rows: np.ndarray) -> None:
    """Write a float table with a header line at full double precision."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError("rows must be 2-D with one column per header entry")
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row_format * len(rows) % tuple(rows.ravel().tolist()))
