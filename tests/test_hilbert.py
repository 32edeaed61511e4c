import warnings

import numpy as np
import pytest

import qlgame as ql
from qlgame.hilbert import HilbertError, norm
from qlgame.representation import born_tables


def test_inner_product_delta_vectors():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert ql.inner_product(e1, e2) == 0


def test_inner_product_unit_norm():
    v = np.array([3 / 5, 4j / 5])
    assert ql.inner_product(v, v) == pytest.approx(1.0)


def test_inner_product_conjugates_second_argument():
    v = np.array([1.0 + 0j, 0.0])
    w = np.array([1j, 0.0])
    assert ql.inner_product(v, w) == pytest.approx(-1j)
    assert ql.inner_product(w, v) == pytest.approx(1j)


def test_inner_product_dimension_mismatch():
    with pytest.raises(HilbertError, match="dimension"):
        ql.inner_product(np.ones(2), np.ones(3))


def test_born_probability_extremes():
    basis = ql.delta_basis(2)
    assert ql.born_probability(basis[0], basis[0]) == pytest.approx(1.0)
    assert ql.born_probability(basis[0], basis[1]) == 0.0


def test_born_probability_rejects_non_unit():
    with pytest.raises(HilbertError, match="norm"):
        ql.born_probability(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "state, basis_vector, message",
    [
        (np.eye(2), [1.0, 0.0], "expected a vector, got shape (2, 2)"),
        ([complex(0.0, np.inf), 0.0], [1.0, 0.0], "vector entries must be finite"),
        ([0.6, 0.6j], [1.0, 0.0], "state has norm 0.848528137424, expected 1"),
        ([0.6, 0.8j], [0.5, 0.5], "basis vector has norm 0.707106781187, expected 1"),
        ([0.6, 0.8j], [1.0, 0.0, 0.0], "dimension mismatch: 2 vs 3"),
        # the state is refused before the basis vector is looked at
        ([0.6, 0.6j], [np.nan, 0.0], "state has norm 0.848528137424, expected 1"),
    ],
    ids=["2d-state", "non-finite-state", "non-unit-state", "non-unit-basis-vector",
         "dimension-mismatch", "state-first"],
)
def test_born_probability_refusal_messages(state, basis_vector, message):
    with pytest.raises(HilbertError) as info:
        ql.born_probability(state, basis_vector)
    assert str(info.value) == message


def test_born_probability_d1_amplitude(d1):
    rep = ql.build_representation(d1)
    assert ql.born_probability(rep.psi, rep.b_basis[0]) == pytest.approx(0.5, abs=1e-12)
    assert abs(ql.inner_product(rep.psi, rep.psi) - 1) < 1e-12


def test_expand_in_delta_basis(rng):
    v = ql.random_unit_vector(4, rng)
    coeffs = ql.expand_in_basis(v, ql.delta_basis(4))
    assert np.allclose(coeffs, v)


def test_expand_d1_b_vector_in_a_basis(d1):
    rep = ql.build_representation(d1)
    coeffs = ql.expand_in_basis(rep.b_basis[0], rep.a_basis)
    assert abs(coeffs[0]) ** 2 == pytest.approx(0.75, abs=1e-12)
    assert abs(coeffs[1]) ** 2 == pytest.approx(0.25, abs=1e-12)


def test_expand_basis_vector_in_own_basis(rng):
    basis = ql.random_orthonormal_basis(3, rng)
    coeffs = ql.expand_in_basis(basis[1], basis)
    assert np.allclose(coeffs, [0.0, 1.0, 0.0], atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_reconstruction_and_parseval(n, rng):
    for _ in range(10):
        basis = ql.random_orthonormal_basis(n, rng)
        v = ql.random_unit_vector(n, rng)
        coeffs = ql.expand_in_basis(v, basis)
        assert np.max(np.abs(coeffs @ basis.vectors - v)) < 1e-10
        assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(
            abs(ql.inner_product(v, v)), abs=1e-10
        )


def test_expectation_global_phase_invariance(rng):
    basis = ql.random_orthonormal_basis(3, rng)
    eigen = np.array([0.5, -1.5, 2.0])
    state = ql.random_unit_vector(3, rng)
    rotated = np.exp(1j * 0.7343) * state
    born, _, _ = born_tables(state, basis, basis)
    born_rotated, _, _ = born_tables(rotated, basis, basis)
    assert eigen @ born_rotated == pytest.approx(eigen @ born, abs=1e-12)


def test_orthonormal_basis_rejects_skewed():
    with pytest.raises(HilbertError, match="orthonormal"):
        ql.OrthonormalBasis(np.array([[1.0, 0.0], [0.5, 0.5]], dtype=complex))


def test_hilbert_errors_are_validation_errors():
    with pytest.raises(ql.ValidationError, match="orthonormal"):
        ql.OrthonormalBasis([[1.0, 0.0], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_orthonormal_basis_rejects_non_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the Gram product warns
        with pytest.raises(HilbertError, match="basis vectors must be finite"):
            ql.OrthonormalBasis(np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex))


def test_norm_helper():
    assert norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
