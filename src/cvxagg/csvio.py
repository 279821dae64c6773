"""CSV files for problems, dictionaries, samples, and weights.

One file per entity, header row naming the columns, one row per atom (or
design point, sample pair, weight).  Scalar metadata that belongs to the
whole entity (a problem's bound, a sample's seed) is carried in a constant
column, which keeps the files plain CSV; its rows must agree by value, so
1 and 1.0 are one bound.  Every file the CLI takes has a reader here, and
all four read through `_read_table`, which checks the file as it reads: the
header, each row's field count, and every field, parsed by one `np.loadtxt`
pass.  Integer columns must be exact int64 literals, or uint64 for seed (a
key word, `model._seed`), so 1.0, 1_0, a fullwidth digit, a negative seed
or an overflowing index is refused on any numpy (one that parses a bad
integer via a float warns, an error here); float columns must parse as
numpy parses them (no underscore literals such as 1_0.5, no "#" comment)
and be finite, so inf, nan and 1e999 are refused.  Each such error names
the file and line.  Problems, dictionaries and samples also have writers.
Each builds its file as one string, the header line and then one line per
row of ints and the reprs of the Python floats `.tolist()` gives, and
writes it once; a float's repr reads back bit for bit, and
`tests/test_cli.py::test_csv_round_trips` pins the bytes to what
`csv.writer` writes for the same rows.
"""

from __future__ import annotations

import csv
import re
import warnings
from pathlib import Path

import numpy as np

from .model import Dictionary, DiscreteProblem, SampleSet, SimplexWeights

_PROBLEM = np.dtype(
    [("x_index", np.int64), ("y_value", np.float64), ("probability", np.float64), ("bound_b", np.float64)]
)
_SAMPLES = np.dtype([("x_index", np.int64), ("y_value", np.float64), ("seed", np.uint64)])
_WEIGHTS = np.dtype([("index", np.int64), ("weight", np.float64)])


def _split(path, line_num: int, line: str) -> list[str]:
    """The fields of one line of CSV; a quote left open or followed by more than a comma is an error."""
    try:
        return next(csv.reader([line], strict=True))
    except csv.Error as exc:
        raise ValueError(f"{path}: line {line_num}: {exc}") from exc


def _read_table(path, expected: str, row_dtype) -> np.ndarray:
    """The data rows of path as one structured array.

    row_dtype(header) is the dtype of a row under the header, or None when
    the header is not the `expected` one.  Only a line holding a quote needs
    the csv module; any other line splits at its commas.  Every field is
    parsed by one `np.loadtxt` pass, and every float must be finite.
    """
    with open(path, newline="") as handle:
        lines = [(line_num, line.rstrip("\r\n")) for line_num, line in enumerate(handle, 1)]
    header = _split(path, *lines[0]) if lines else None
    dtype = None if header is None else row_dtype(header)
    if dtype is None:
        raise ValueError(f"{path}: expected header {expected}, found {header}")
    rows = [(line_num, line) for line_num, line in lines[1:] if line]
    for line_num, line in rows:
        fields = len(_split(path, line_num, line)) if '"' in line else line.count(",") + 1
        if fields != len(header):
            raise ValueError(f"{path}: line {line_num} has {fields} fields, the header has {len(header)}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    line_nums, data = zip(*rows)
    try:
        with warnings.catch_warnings():
            # a numpy that still has the fallback deprecated in 1.23 parses a bad integer field
            # as a float and truncates it, with only this warning; as an error, the field is refused
            warnings.simplefilter("error", DeprecationWarning)
            # comments=None: numpy's default "#" would silently cut a row short
            table = np.loadtxt(data, dtype=dtype, delimiter=",", ndmin=1, comments=None, quotechar='"')
    except ValueError as exc:
        # numpy counts data rows from 0; name the file line instead
        message = str(exc)
        row = re.search(r" at row (\d+)", message)
        if row is not None:
            message = f"line {line_nums[int(row[1])]}: {message[:row.start()]}{message[row.end():]}"
        raise ValueError(f"{path}: {message}") from exc
    # every column side by side, as floats: the ints are finite, so only float columns can fail
    flat = np.hstack([table[name].reshape(len(table), -1) for name in dtype.names])
    bad = np.argwhere(~np.isfinite(flat))
    if bad.size:
        row, column = bad[0]
        raise ValueError(f"{path}: line {line_nums[row]}: {header[column]} is {flat[row, column]}, not finite")
    return table


def _read_named(path, dtype) -> np.ndarray:
    """_read_table for a file whose header is exactly dtype's field names."""
    return _read_table(path, ",".join(dtype.names), lambda header: dtype if header == list(dtype.names) else None)


def _constant(path, table, column: str):
    """The one value of a constant column."""
    values = table[column]
    if np.any(values != values[0]):
        raise ValueError(f"{path}: {column} column must be constant")
    return values[0].item()


def _index_order(path, column: str, indices: np.ndarray) -> np.ndarray:
    """Row order that sorts an index column, which must hold exactly 0..K-1."""
    order = np.argsort(indices, kind="stable")
    if not np.array_equal(indices[order], np.arange(indices.size)):
        raise ValueError(f"{path}: {column} values must be exactly 0..{indices.size - 1}")
    return order


def read_problem(path) -> DiscreteProblem:
    table = _read_named(path, _PROBLEM)
    return DiscreteProblem(
        table["x_index"], table["y_value"], table["probability"], bound_b=_constant(path, table, "bound_b")
    )


def write_problem(problem: DiscreteProblem, path) -> None:
    rows = zip(problem.x_indices.tolist(), problem.y_values.tolist(), problem.probabilities.tolist())
    lines = [f"{x},{y!r},{p!r},{problem.bound_b!r}" for x, y, p in rows]
    Path(path).write_text("\n".join([",".join(_PROBLEM.names), *lines]) + "\n")


def _dictionary_header(size_m: int) -> list[str]:
    return ["x_index"] + [f"f{j}" for j in range(size_m)]


def write_dictionary(dictionary: Dictionary, path) -> None:
    lines = [f"{k}," + ",".join(map(repr, column)) for k, column in enumerate(dictionary.values.T.tolist())]
    Path(path).write_text("\n".join([",".join(_dictionary_header(dictionary.size_M)), *lines]) + "\n")


def _dictionary_row(header: list[str]):
    """A design point's row under a dictionary header x_index,f0,...,f{M-1}, M >= 1: its index and M values."""
    if len(header) < 2 or header != _dictionary_header(len(header) - 1):
        return None
    return np.dtype([("x_index", np.int64), ("values", np.float64, (len(header) - 1,))])


def read_dictionary(path) -> Dictionary:
    table = _read_table(path, "x_index,f0,f1,...", _dictionary_row)
    order = _index_order(path, "x_index", table["x_index"])
    return Dictionary(table["values"][order].T)


def write_samples(samples: SampleSet, path) -> None:
    """One row per draw: each atom's pair, repeated its count times, atom by atom."""
    x = np.repeat(samples.x_indices, samples.counts).tolist()
    y = np.repeat(samples.y_values, samples.counts).tolist()
    lines = [f"{a},{b!r},{samples.seed}" for a, b in zip(x, y)]
    Path(path).write_text("\n".join([",".join(_SAMPLES.names), *lines]) + "\n")


def read_samples(path) -> SampleSet:
    """The sample in path: each row's pair is an atom drawn once."""
    table = _read_named(path, _SAMPLES)
    return SampleSet(
        table["x_index"], table["y_value"], np.ones(len(table), dtype=np.int64), seed=_constant(path, table, "seed")
    )


def read_weights(path) -> SimplexWeights:
    table = _read_named(path, _WEIGHTS)
    return SimplexWeights(table["weight"][_index_order(path, "index", table["index"])])
