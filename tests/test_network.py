import json
import math

import numpy as np
import pytest

from multiphoton.errors import SizeLimitError, ValidationError
from multiphoton.network import (
    check_occupation,
    enumerate_outputs,
    fourier,
    load_network,
    mode_list,
    mu,
    network_from_dict,
    network_to_dict,
    output_count,
    parse_network_source,
    random_unitary,
    submatrix,
    unitarity_deviation,
    validate_network,
)
from multiphoton.probability import prob_ideal_indistinguishable


def test_fourier_m2_is_balanced_splitter():
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(fourier(2), expected)


def test_fourier_m1():
    assert np.allclose(fourier(1), [[1.0]])


def test_fourier_unitarity():
    for m in (2, 3, 5, 8):
        assert unitarity_deviation(fourier(m)) < 1e-14


def test_random_unitary_deterministic():
    assert np.array_equal(random_unitary(4, 11), random_unitary(4, 11))


def test_random_unitary_unitary():
    assert unitarity_deviation(random_unitary(4, 3)) < 1e-12


def test_random_unitary_seed_sensitivity():
    a, b = random_unitary(4, 1), random_unitary(4, 2)
    assert np.max(np.abs(a - b)) > 1e-3


def test_submatrix_identity_case():
    u = random_unitary(3, 0)
    assert np.array_equal(submatrix(u, (1, 1, 1), (1, 1, 1)), u)


def test_submatrix_bunched_input():
    u = random_unitary(2, 0)
    sub = submatrix(u, (2, 0), (1, 1))
    assert np.array_equal(sub, u[np.ix_([0, 0], [0, 1])])


def test_submatrix_fourier3_duplicated_column():
    u = fourier(3)
    sub = submatrix(u, (1, 1, 1), (2, 1, 0))
    assert np.array_equal(sub[:, 0], u[:, 0])
    assert np.array_equal(sub[:, 1], u[:, 0])
    assert np.array_equal(sub[:, 2], u[:, 1])


def test_submatrix_size_mismatch():
    with pytest.raises(ValidationError):
        submatrix(fourier(2), (1, 1), (1, 0))


def test_mode_list_and_mu():
    assert mode_list((2, 0, 1)) == (0, 0, 2)
    assert mu((2, 0, 1)) == 2
    assert mu((3, 2)) == 12


def test_enumerate_outputs_m2_n2_order():
    assert enumerate_outputs(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_enumerate_outputs_m3_n1():
    assert enumerate_outputs(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_enumerate_outputs_m4_n3_count():
    outs = enumerate_outputs(4, 3)
    assert len(outs) == 20 == output_count(4, 3)


def test_enumerate_outputs_counts():
    for m, n in [(2, 3), (5, 2), (3, 4)]:
        assert len(enumerate_outputs(m, n)) == math.comb(m + n - 1, n)


def test_enumerate_outputs_cap():
    with pytest.raises(SizeLimitError):
        enumerate_outputs(50, 12)


def test_validate_network_rejects_nonunitary():
    with pytest.raises(ValidationError):
        validate_network(np.ones((2, 2)))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
def test_validate_network_refuses_a_tolerance_it_cannot_use(tol):
    """NaN or inf would pass every matrix (the check reads dev > tol), and a
    negative tolerance would refuse every matrix: all three are refused,
    for a unitary matrix too, and for every network source."""
    for u in (fourier(2), np.ones((2, 2))):
        with pytest.raises(ValidationError, match="tolerance"):
            validate_network(u, tol)
    with pytest.raises(ValidationError, match="tolerance"):
        parse_network_source("fourier:2", tol)


def test_validate_network_takes_a_zero_tolerance():
    u = fourier(2) * (1 + 1e-12)  # max |U^dagger U - I| about 2e-12
    assert np.array_equal(validate_network(u), u)
    with pytest.raises(ValidationError, match="not unitary"):
        validate_network(u, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_network_rejects_non_finite_entries(bad):
    """A non-finite entry makes the unitarity deviation NaN, which no
    tolerance comparison catches; the entry check comes first."""
    u = fourier(2)
    u[0, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        validate_network(u)
    with pytest.raises(ValidationError, match="finite"):
        validate_network(np.full((2, 2), bad))
    data = network_to_dict(fourier(2))
    data["rows"][1][0][1] = bad
    with pytest.raises(ValidationError, match="finite"):
        network_from_dict(json.loads(json.dumps(data)))


def test_check_occupation_refuses_what_it_would_round():
    ints = (1, 0, 2)
    assert check_occupation(ints, 3) is ints
    assert check_occupation([np.int64(1), 1.0, np.float32(2.0)]) == (1, 1, 2)
    assert all(type(x) is int for x in check_occupation(np.array([1, 0])))
    for bad in ([1.5, 0.7], [np.nan, 0], [np.inf, 0], ["1", 0], [1 + 0j, 0], [None, 0]):
        with pytest.raises(ValidationError, match="integers"):
            check_occupation(bad)
    with pytest.raises(ValidationError, match="integers"):
        prob_ideal_indistinguishable(fourier(2), [1.5, 0.7], [1, 0])


def test_network_json_roundtrip(tmp_path):
    u = random_unitary(3, 9)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_dict(u)))
    loaded = load_network(str(path))
    assert np.allclose(loaded, u, atol=1e-15)


def test_parse_network_source_forms(tmp_path):
    assert np.allclose(parse_network_source("fourier:3"), fourier(3))
    assert np.allclose(parse_network_source("haar:3:5"), random_unitary(3, 5))
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_dict(fourier(2))))
    assert np.allclose(parse_network_source(str(path)), fourier(2))


def test_user_file_unitarity_tolerance(tmp_path):
    u = random_unitary(3, 1)
    data = network_to_dict(u)
    # rounded decimals should still load under the looser user tolerance
    data["rows"] = [[[round(re, 10), round(im, 10)] for re, im in row] for row in data["rows"]]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    loaded = load_network(str(path))
    assert unitarity_deviation(loaded) < 1e-8
