import json
import re

import numpy as np
import pytest

from povmkit import ValidationError, bell_state
from povmkit.feasibility import MarginalSet
from povmkit.measures import PvmMeasure
from povmkit.srt import SrtConfig, srt_bivariate, srt_povm
from povmkit.sampling import random_basis_pvm, random_density_matrix
from povmkit import serialize


def through_json(obj: dict) -> dict:
    """Round-trip a dict through the textual JSON layer."""
    return json.loads(json.dumps(obj))


def test_matrix_round_trip_is_bit_exact(rng):
    matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    data = through_json(serialize.matrix_to_dict(matrix))
    recovered = serialize.matrix_from_dict(data)
    assert np.array_equal(recovered, matrix)


def test_matrix_dict_shape_checked():
    with pytest.raises(ValidationError):
        serialize.matrix_from_dict({"dim": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValidationError):
        serialize.matrix_from_dict({"entries": []})
    with pytest.raises(ValidationError, match=r"^matrix 'dim' must be a positive integer, got 0$"):
        serialize.matrix_from_dict({"dim": 0, "entries": []})
    with pytest.raises(ValidationError, match=r"^matrix declares dim 1 but carries 0 entries$"):
        serialize.matrix_from_dict({"dim": 1, "entries": []})


def test_measure_round_trip(rng):
    measure = srt_bivariate(SrtConfig(0.37, 0.21))
    data = through_json(serialize.measure_to_dict(measure))
    recovered = serialize.measure_from_dict(data)
    assert recovered.labels == measure.labels
    assert recovered.index_shape == measure.index_shape
    for got, want in zip(recovered.elements, measure.elements):
        assert np.array_equal(got, want)


def test_an_empty_index_shape_round_trips_through_a_file(tmp_path):
    # An empty index_shape is written as [] (it was written as null and read back as None).
    from povmkit import PovmMeasure

    measure = PovmMeasure([np.eye(2)], index_shape=())
    path = tmp_path / "measure.json"
    serialize.dump_json(serialize.measure_to_dict(measure), path)
    assert serialize.load_json(path)["index_shape"] == []
    recovered = serialize.measure_from_dict(serialize.load_json(path))
    assert (recovered.index_shape, recovered.labels) == ((), ((),))
    assert np.array_equal(recovered.stack(), measure.stack())


def test_pvm_round_trip_preserves_kind(rng):
    pvm = random_basis_pvm(2, rng)
    data = through_json(serialize.measure_to_dict(pvm))
    recovered = serialize.measure_from_dict(data, pvm=True)
    assert isinstance(recovered, PvmMeasure)


def test_state_round_trip(rng):
    state = random_density_matrix(3, rng)
    recovered = serialize.state_from_dict(through_json(serialize.state_to_dict(state)))
    assert np.array_equal(recovered.matrix, state.matrix)


def test_table_round_trip(rng):
    from povmkit import born_probabilities

    table = born_probabilities(srt_povm(SrtConfig(0.42)), random_density_matrix(2, rng))
    data = through_json(serialize.table_to_dict(table))
    recovered = serialize.table_from_dict(data)
    assert np.array_equal(recovered.values, table.values)
    assert recovered.axis_labels == table.axis_labels


def test_marginals_round_trip():
    from povmkit import joint_probabilities
    from helpers import make_config

    joint = joint_probabilities(make_config(0.25, 0.75, state=bell_state()))
    marginals = MarginalSet.from_quadrivariate(joint)
    data = through_json(serialize.marginals_to_dict(marginals))
    recovered = serialize.marginals_from_dict(data)
    for got, want in zip(recovered.tables(), marginals.tables()):
        assert np.array_equal(got.values, want.values)


def test_marginals_require_all_four_tables():
    with pytest.raises(ValidationError, match="missing"):
        serialize.marginals_from_dict({"AB": [[0.25, 0.25], [0.25, 0.25]]})


@pytest.mark.parametrize(
    "bad, message",
    [([[0.25, 0.25], [0.25, "x"]], "cannot be read"), ([[0.5, 0.5], [0.5, 0.5]], "sums to")],
    ids=["not-a-number", "not-normalized"],
)
def test_marginals_errors_name_the_table(bad, message):
    good = [[0.25, 0.25], [0.25, 0.25]]
    with pytest.raises(ValidationError, match=f"table ApB: probability table {message}"):
        serialize.marginals_from_dict({"AB": good, "ABp": good, "ApB": bad, "ApBp": good})


def test_dump_and_load_file(tmp_path, rng):
    path = tmp_path / "state.json"
    state = random_density_matrix(2, rng)
    serialize.dump_json(serialize.state_to_dict(state), path)
    recovered = serialize.state_from_dict(serialize.load_json(path))
    assert np.array_equal(recovered.matrix, state.matrix)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("labels", 5, "'labels' must be a list"),
        ("labels", "abcd", "'labels' must be a list"),
        ("labels", [[0, [1]], [1], [2], [3]], "one hashable label is required per element"),
        ("index_shape", ["a"], "index_shape ['a'] does not match 4 elements"),
        ("index_shape", 4, "'index_shape' must be a list"),
        ("index_shape", [2.0, 2.0], "index_shape [2.0, 2.0] does not match 4 elements"),
    ],
)
def test_measure_fields_are_guarded(field, value, message):
    data = through_json(serialize.measure_to_dict(srt_bivariate(SrtConfig(0.5))))
    data[field] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        serialize.measure_from_dict(data)


@pytest.mark.parametrize("value", [5, [5]])
def test_table_axis_labels_are_guarded(value):
    data = {"shape": [1], "values": [1.0], "axis_labels": value}
    with pytest.raises(ValidationError, match="^axis_labels do not match the table shape$"):
        serialize.table_from_dict(data)


@pytest.mark.parametrize("value", [5, "text", [1, 2], None, True])
@pytest.mark.parametrize(
    "loader, what",
    [
        (serialize.matrix_from_dict, "a matrix"),
        (serialize.measure_from_dict, "a measure"),
        (serialize.state_from_dict, "a state"),
        (serialize.table_from_dict, "a table"),
        (serialize.marginals_from_dict, "marginals"),
    ],
)
def test_loaders_require_a_json_object(loader, what, value):
    with pytest.raises(ValidationError, match=f"^{what} must be a JSON object, not "):
        loader(value)
