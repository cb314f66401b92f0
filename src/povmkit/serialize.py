"""JSON encodings shared by the library, the CLI and on-disk artifacts.

The readers check only the layout (an object, a list) and leave every value rule to
the constructor they call.  A measure, state, table or marginal set is written with the
``"tol"`` it carries, and read back at the larger of that ``tol`` and the reader's ``tol``
argument, so a file the library wrote always loads; a file without ``"tol"`` is read at the
argument alone.

Formats
-------
Matrix:    ``{"dim": n, "entries": [[re, im], ...]}`` with ``n**2`` row-major
           entry pairs.  Doubles round-trip bit-exactly through ``json``.
Measure:   ``{"labels": [...], "index_shape": [...] | null,
           "elements": [Matrix, ...], "tol": t}``.
State:     a Matrix holding the density operator, and ``"tol"``.
Table:     ``{"shape": [...], "values": [...], "axis_labels": [...] | null, "tol": t}``
           with values flat in row-major order.
Marginals: ``{"AB": [[..], [..]], "ABp": ..., "ApB": ..., "ApBp": ..., "tol": t}``
           with nested 2x2 probability lists per setting pair.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .feasibility import MarginalSet, _pair_table
from .measures import PovmMeasure, PvmMeasure
from .operators import DEFAULT_TOL, State, _checked_dim, _checked_tol, as_operator
from .tables import ProbabilityTable

_MARGINAL_KEYS = ("AB", "ABp", "ApB", "ApBp")


def matrix_to_dict(matrix) -> dict:
    arr = as_operator(matrix)
    entries = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    return {"dim": arr.shape[0], "entries": entries}


def _loaded_tol(data: dict, tol) -> float:
    """The argument ``tol``, or the larger of it and the file's ``"tol"``, both checked, when the file has one."""
    return max(_checked_tol(data["tol"]), _checked_tol(tol)) if "tol" in data else tol


def _require_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, not {type(data).__name__}")
    return data


def matrix_from_dict(data: dict) -> np.ndarray:
    _require_object(data, "a matrix")
    try:
        dim = _checked_dim(data["dim"], "matrix 'dim'")
        entries = list(data["entries"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"matrix object must carry 'dim' and 'entries': {exc}")
    if len(entries) != dim * dim:
        raise ValidationError(f"matrix declares dim {dim} but carries {len(entries)} entries")
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"matrix entries must be [re, im] pairs: {exc}")
    return flat.reshape(dim, dim)


def _label_to_json(label):
    """A label with each tuple in it, at any depth, as a JSON list."""
    return [_label_to_json(x) for x in label] if isinstance(label, tuple) else label


def _label_from_json(label):
    """A JSON label with each list in it, at any depth, as a tuple."""
    return tuple(map(_label_from_json, label)) if isinstance(label, list) else label


def measure_to_dict(measure: PovmMeasure) -> dict:
    return {
        "labels": [_label_to_json(label) for label in measure.labels],
        "index_shape": None if measure.index_shape is None else list(measure.index_shape),
        "elements": [matrix_to_dict(e) for e in measure.elements],
        "tol": measure.tol,
    }


def _elements_from_dict(data: dict) -> list[np.ndarray]:
    """Unvalidated element matrices of a measure object; none when it has no 'elements'."""
    elements = _require_object(data, "a measure").get("elements", [])
    if not isinstance(elements, list):
        raise ValidationError("a measure must be a JSON object whose 'elements' is a list")
    return [matrix_from_dict(e) for e in elements]


def measure_from_dict(data: dict, *, pvm: bool = False, tol: float = DEFAULT_TOL) -> PovmMeasure:
    elements = _elements_from_dict(data)
    for field in ("labels", "index_shape"):
        if not isinstance(data.get(field), (list, type(None))):
            raise ValidationError(f"measure '{field}' must be a list")
    labels, index_shape = data.get("labels"), data.get("index_shape")
    if labels is not None:
        labels = [_label_from_json(label) for label in labels]
    cls = PvmMeasure if pvm else PovmMeasure
    return cls(elements, labels=labels, index_shape=index_shape, tol=_loaded_tol(data, tol))


def state_to_dict(state: State) -> dict:
    return {**matrix_to_dict(state.matrix), "tol": state.tol}


def state_from_dict(data: dict, tol: float = DEFAULT_TOL) -> State:
    return State(matrix_from_dict(_require_object(data, "a state")), tol=_loaded_tol(data, tol))


def table_to_dict(table: ProbabilityTable) -> dict:
    return {
        "shape": list(table.shape),
        "values": [float(v) for v in table.values.reshape(-1)],
        "axis_labels": _label_to_json(table.axis_labels),
        "tol": table.tol,
    }


def table_from_dict(data: dict, tol: float = DEFAULT_TOL) -> ProbabilityTable:
    _require_object(data, "a table")
    try:
        shape = tuple(_checked_dim(n, "table 'shape' entry") for n in data["shape"])
        values = np.array(data["values"], dtype=float).reshape(shape)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"table object must carry consistent 'shape' and 'values': {exc}")
    labels = _label_from_json(data.get("axis_labels"))
    return ProbabilityTable(values, axis_labels=labels, tol=_loaded_tol(data, tol))


def marginals_to_dict(marginals: MarginalSet) -> dict:
    return dict(zip(_MARGINAL_KEYS, marginals.values.tolist()), tol=marginals.tol)


def marginals_from_dict(data: dict, tol: float = DEFAULT_TOL) -> MarginalSet:
    missing = [key for key in _MARGINAL_KEYS if key not in _require_object(data, "marginals")]
    if missing:
        raise ValidationError(f"marginals object is missing tables {missing}")
    tol = _loaded_tol(data, tol)
    tables = []
    for key in _MARGINAL_KEYS:
        try:
            tables.append(_pair_table(data[key], tol))
        except (DimensionMismatchError, ValidationError) as exc:
            raise type(exc)(f"table {key}: {exc}") from None
    return MarginalSet.from_tables(tables, tol=tol)


def load_json(path) -> dict:
    """The JSON value in the file at ``path``; text that is not UTF-8 JSON raises ValidationError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValidationError(str(exc)) from None


def dump_json(obj: dict, path=None) -> str:
    text = json.dumps(obj, indent=2)
    if path is not None:
        with open(Path(path), "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
