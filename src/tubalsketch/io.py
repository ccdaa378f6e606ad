"""On-disk formats: tensors, sketch sets, traces, curves and configs.

Tensor format (``.tns``): a self-describing text file

    line 1:  ``tns 1``
    line 2:  ``m n l``
    then m*n*l entries, one per line, in row-major index order (the depth
    index varies fastest).

CSV import of slice stacks: a headerless numeric CSV with m*l rows and n
columns, the l frontal slices stacked top to bottom.

Trace CSV columns: ``t, epsilon, chosen_index, loss_max, loss_sum, seconds,
q_error, stop_reason``.  Row t describes the iterate after t iterations;
``chosen_index`` is the index applied at iteration t (semicolon-joined
per-slice indices for the per-slice methods; empty at t=0 and on a final
summary row that was not itself a recorded step).  ``q_error`` is the
weighted squared error, ``nan`` for a run solved without x_star;
``stop_reason`` is empty except on the last row, where it says why the run
stopped (``tol``, ``zero_loss``, ``max_iters`` or ``diverged``).

Sketch-set JSON holds exactly the fields of a :class:`SketchSet`: kind, m,
l, q and its rows or mats as nested lists, floats at full precision, so a run
replays exactly; ``SketchSet`` checks a file's fields as it checks any set.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .sketching import SketchSet

__all__ = [
    "save_tensor",
    "load_tensor",
    "load_slices_csv",
    "save_sketches",
    "load_sketches",
    "write_trace",
    "read_trace",
    "write_curve",
    "load_experiment_dict",
]

TRACE_COLUMNS = ("t", "epsilon", "chosen_index", "loss_max", "loss_sum", "seconds",
                 "q_error", "stop_reason")


def save_tensor(path, X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError(f"only third-order tensors serialize to .tns, got {X.shape}")
    m, n, l = X.shape
    with open(path, "w") as fh:
        fh.write("tns 1\n")
        fh.write(f"{m} {n} {l}\n")
        for value in X.ravel(order="C"):
            fh.write(f"{float(value)!r}\n")


def load_tensor(path):
    with open(path) as fh:
        magic = fh.readline().split()
        if magic[:1] != ["tns"]:
            raise ValueError(f"{path} is not a .tns tensor file")
        m, n, l = (int(v) for v in fh.readline().split())
        data = np.loadtxt(fh, dtype=np.float64, ndmin=1)
    if data.size != m * n * l:
        raise ValueError(f"{path}: expected {m * n * l} entries, found {data.size}")
    return data.reshape(m, n, l)


def load_slices_csv(path, depth):
    """Read a stack of l frontal slices from a headerless CSV."""
    M = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if M.shape[0] % depth != 0:
        raise ValueError(
            f"{path}: {M.shape[0]} rows do not split into {depth} frontal slices"
        )
    m = M.shape[0] // depth
    return np.moveaxis(M.reshape(depth, m, M.shape[1]), 0, 2)


def save_sketches(path, sketches):
    with open(path, "w") as fh:  # numpy fields are written through .tolist()
        json.dump({k: v for k, v in vars(sketches).items() if v is not None}, fh,
                  default=lambda v: v.tolist())


def load_sketches(path):
    """A set written by :func:`save_sketches`; bad fields raise ``ValueError``."""
    with open(path) as fh:
        fields = json.load(fh)
    if "members" in fields:
        raise ValueError(f"{path}: 'members' is the dense sketch format, which is no "
                         "longer read; save the set again to store rows or mats")
    try:
        return SketchSet(**fields)
    except TypeError as exc:  # a missing or unknown key
        raise ValueError(f"{path}: {exc}") from exc


def _chosen_str(chosen):
    if chosen is None:
        return ""
    if isinstance(chosen, tuple):
        return ";".join(str(c) for c in chosen)
    return str(chosen)


def write_trace(path, record):
    last = record.t.size - 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in range(record.t.size):
            floats = (repr(float(getattr(record, name)[row]))
                      for name in ("loss_max", "loss_sum", "seconds", "q_error"))
            writer.writerow([int(record.t[row]), repr(float(record.epsilon[row])),
                             _chosen_str(record.chosen[row]), *floats,
                             record.stop_reason if row == last else ""])


def read_trace(path):
    """Trace CSV back as a dict of arrays (chosen_index and stop_reason stay
    as lists of strings)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TRACE_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: trace CSV lacks the columns {missing}")
        rows = list(reader)
    out = {name: [r[name] for r in rows] for name in ("chosen_index", "stop_reason")}
    out["t"] = np.array([int(r["t"]) for r in rows])
    for name in ("epsilon", "loss_max", "loss_sum", "seconds", "q_error"):
        out[name] = np.array([float(r[name]) for r in rows])
    return out


def write_curve(path, grid, mean_epsilon, mean_seconds):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean_epsilon", "mean_seconds"])
        for t, e, s in zip(grid, mean_epsilon, mean_seconds):
            writer.writerow([int(t), repr(float(e)), repr(float(s))])


def load_experiment_dict(path):
    """Experiment config as a dict from JSON, or TOML when the interpreter
    ships a TOML reader (Python >= 3.11)."""
    if path.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # Python 3.10: use the JSON form instead
            raise RuntimeError(
                "TOML configs need Python >= 3.11 (tomllib); use JSON"
            ) from exc
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    raise ValueError(f"config file must end in .json or .toml: {path}")
