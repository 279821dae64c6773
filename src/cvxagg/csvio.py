"""CSV files for problems, dictionaries, samples, and weights.

One file per entity, header row naming the columns, one row per atom (or
design point, sample pair, weight).  Scalar metadata that belongs to the
whole entity (a problem's bound, a sample's seed) is carried in a constant
column, which keeps the files plain CSV.  Every file the CLI takes has a
reader here, which checks it as it reads; dictionaries and samples also have
writers, which write floats with repr so round-trips are exact.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .model import Dictionary, DiscreteProblem, SampleSet, SimplexWeights


def _write_rows(path, header, rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buffer.getvalue())


def _data_rows(path, reader, width: int) -> list[list[str]]:
    """The nonempty rows left in reader, each required to have width fields."""
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, the header has {width}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def _read_rows(path, expected_header) -> list[list[str]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, found {header}")
        return _data_rows(path, reader, len(header))


def _index_order(path, column: str, values) -> np.ndarray:
    """Row order that sorts an index column, which must hold exactly 0..K-1."""
    indices = np.array([int(v) for v in values])
    order = np.argsort(indices, kind="stable")
    if not np.array_equal(indices[order], np.arange(indices.size)):
        raise ValueError(f"{path}: {column} values must be exactly 0..{indices.size - 1}")
    return order


def read_problem(path) -> DiscreteProblem:
    rows = _read_rows(path, ["x_index", "y_value", "probability", "bound_b"])
    bounds = {row[3] for row in rows}
    if len(bounds) != 1:
        raise ValueError(f"{path}: bound_b column must be constant")
    return DiscreteProblem(
        np.array([int(r[0]) for r in rows]),
        np.array([float(r[1]) for r in rows]),
        np.array([float(r[2]) for r in rows]),
        bound_b=float(rows[0][3]),
    )


def write_dictionary(dictionary: Dictionary, path) -> None:
    M = dictionary.size_M
    header = ["x_index"] + [f"f{j}" for j in range(M)]
    rows = [
        [k] + [repr(float(v)) for v in dictionary.values[:, k]]
        for k in range(dictionary.num_design_points)
    ]
    _write_rows(path, header, rows)


def read_dictionary(path) -> Dictionary:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "x_index" or len(header) < 2:
            raise ValueError(f"{path}: expected header x_index,f0,f1,...")
        rows = _data_rows(path, reader, len(header))
    order = _index_order(path, "x_index", (r[0] for r in rows))
    table = np.array([[float(v) for v in rows[i][1:]] for i in order])
    return Dictionary(table.T)


def write_samples(samples: SampleSet, path) -> None:
    _write_rows(
        path,
        ["x_index", "y_value", "seed"],
        [
            [int(x), repr(float(y)), samples.seed]
            for x, y in zip(samples.x_indices, samples.y_values)
        ],
    )


def read_samples(path) -> SampleSet:
    rows = _read_rows(path, ["x_index", "y_value", "seed"])
    seeds = {row[2] for row in rows}
    if len(seeds) != 1:
        raise ValueError(f"{path}: seed column must be constant")
    return SampleSet(
        np.array([int(r[0]) for r in rows]),
        np.array([float(r[1]) for r in rows]),
        seed=int(rows[0][2]),
    )


def read_weights(path) -> SimplexWeights:
    rows = _read_rows(path, ["index", "weight"])
    order = _index_order(path, "index", (r[0] for r in rows))
    return SimplexWeights(np.array([float(rows[i][1]) for i in order]))
