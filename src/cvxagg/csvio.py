"""CSV files for problems, dictionaries, samples, and weights.

One file per entity, header row naming the columns, one row per atom (or
design point, sample pair, weight).  Scalar metadata that belongs to the
whole entity (a problem's bound, a sample's seed) is carried in a constant
column, which keeps the files plain CSV.  Every file the CLI takes has a
reader here, which checks it as it reads; dictionaries and samples also have
writers, which write floats with repr so round-trips are exact.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
from pathlib import Path

import numpy as np

from .model import Dictionary, DiscreteProblem, SampleSet, SimplexWeights


def _write_rows(path, header, rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buffer.getvalue())


def _data_rows(path, records, width: int) -> list:
    """(line number, item) for each of records, (line number, field count, item) triples that must have width fields."""
    items = []
    for line_num, fields, item in records:
        if fields != width:
            raise ValueError(f"{path}: line {line_num} has {fields} fields, the header has {width}")
        items.append((line_num, item))
    if not items:
        raise ValueError(f"{path}: no data rows")
    return items


@contextlib.contextmanager
def _csv_errors(path, line_num):
    """Re-raise csv.Error as a ValueError naming path and the line that line_num() gives."""
    try:
        yield
    except csv.Error as exc:
        raise ValueError(f"{path}: line {line_num()}: {exc}") from exc


def _read_rows(path, expected_header) -> list[tuple[int, list[str]]]:
    """(line number, fields) for each data row of path, whose header must be expected_header."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        with _csv_errors(path, lambda: reader.line_num):
            header = next(reader, None)
            if header != expected_header:
                raise ValueError(f"{path}: expected header {expected_header}, found {header}")
            return _data_rows(path, ((reader.line_num, len(row), row) for row in reader if row), len(header))


def _column(path, rows, column: int, kind) -> list:
    """Field column of each (line number, fields) row, read by kind; a field kind rejects names its line."""
    values = []
    for line_num, fields in rows:
        try:
            values.append(kind(fields[column]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_num}: {exc}") from None
    return values


def _index_order(path, column: str, values) -> np.ndarray:
    """Row order that sorts an index column, which must hold exactly 0..K-1."""
    indices = np.array(values)
    order = np.argsort(indices, kind="stable")
    if not np.array_equal(indices[order], np.arange(indices.size)):
        raise ValueError(f"{path}: {column} values must be exactly 0..{indices.size - 1}")
    return order


def read_problem(path) -> DiscreteProblem:
    rows = _read_rows(path, ["x_index", "y_value", "probability", "bound_b"])
    bounds = {row[3] for _, row in rows}
    if len(bounds) != 1:
        raise ValueError(f"{path}: bound_b column must be constant")
    return DiscreteProblem(
        np.array(_column(path, rows, 0, int)),
        np.array(_column(path, rows, 1, float)),
        np.array(_column(path, rows, 2, float)),
        bound_b=_column(path, rows[:1], 3, float)[0],
    )


def _dictionary_header(size_m: int) -> list[str]:
    return ["x_index"] + [f"f{j}" for j in range(size_m)]


def write_dictionary(dictionary: Dictionary, path) -> None:
    header = _dictionary_header(dictionary.size_M)
    rows = [
        [k] + [repr(float(v)) for v in dictionary.values[:, k]]
        for k in range(dictionary.num_design_points)
    ]
    _write_rows(path, header, rows)


def _split(path, line_num: int, line: str) -> list[str]:
    """The fields of one line of CSV."""
    with _csv_errors(path, lambda: line_num):
        return next(csv.reader([line]))


def _dictionary_record(path, line_num: int, line: str):
    """(line number, field count, (x_index field, line)) for one data line.

    Only a line holding a quote needs the csv module; any other line splits
    at its commas, so no Python string is made per value.
    """
    if '"' in line:
        row = _split(path, line_num, line)
        return line_num, len(row), (row[0], line)
    return line_num, line.count(",") + 1, (line.partition(",")[0], line)


def read_dictionary(path) -> Dictionary:
    """The dictionary in path; its values are parsed by one numpy pass over the data lines."""
    with open(path, newline="") as handle:
        lines = [(line_num, line.rstrip("\r\n")) for line_num, line in enumerate(handle, 1)]
    header = _split(path, *lines[0]) if lines else None
    if header is None or len(header) < 2 or header != _dictionary_header(len(header) - 1):
        raise ValueError(f"{path}: expected header x_index,f0,f1,..., found {header}")
    records = (_dictionary_record(path, line_num, line) for line_num, line in lines[1:] if line)
    rows = _data_rows(path, records, len(header))
    order = _index_order(path, "x_index", _column(path, rows, 0, int))
    try:
        # comments=None: numpy's default "#" would silently cut a row short
        table = np.loadtxt(
            [line for _, (_, line) in rows],
            delimiter=",",
            usecols=range(1, len(header)),
            ndmin=2,
            comments=None,
            quotechar='"',
        )
    except ValueError as exc:
        # numpy counts data rows from 0; name the file line instead
        message = str(exc)
        row = re.search(r" at row (\d+)", message)
        if row is not None:
            message = f"line {rows[int(row[1])][0]}: {message[:row.start()]}{message[row.end():]}"
        raise ValueError(f"{path}: {message}") from exc
    return Dictionary(table[order].T)


def write_samples(samples: SampleSet, path) -> None:
    """One row per draw: each atom's pair, repeated its count times, atom by atom."""
    x = np.repeat(samples.x_indices, samples.counts).tolist()
    y = np.repeat(samples.y_values, samples.counts).tolist()
    _write_rows(path, ["x_index", "y_value", "seed"], [[a, repr(b), samples.seed] for a, b in zip(x, y)])


def read_samples(path) -> SampleSet:
    """The sample in path: each row's pair is an atom drawn once."""
    rows = _read_rows(path, ["x_index", "y_value", "seed"])
    seeds = {row[2] for _, row in rows}
    if len(seeds) != 1:
        raise ValueError(f"{path}: seed column must be constant")
    return SampleSet(
        np.array(_column(path, rows, 0, int)),
        np.array(_column(path, rows, 1, float)),
        np.ones(len(rows), dtype=np.int64),
        seed=_column(path, rows[:1], 2, int)[0],
    )


def read_weights(path) -> SimplexWeights:
    rows = _read_rows(path, ["index", "weight"])
    order = _index_order(path, "index", _column(path, rows, 0, int))
    return SimplexWeights(np.array(_column(path, rows, 1, float))[order])
