import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qlgame as ql
import helpers
from qlgame.hilbert import NORM_TOL, HilbertError, norm
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
    v = helpers.random_unit_vector(4, rng)
    coeffs = ql.expand_in_basis(v, ql.delta_basis(4))
    assert np.allclose(coeffs, v)


def test_expand_d1_b_vector_in_a_basis(d1):
    rep = ql.build_representation(d1)
    coeffs = ql.expand_in_basis(rep.b_basis[0], rep.a_basis)
    assert abs(coeffs[0]) ** 2 == pytest.approx(0.75, abs=1e-12)
    assert abs(coeffs[1]) ** 2 == pytest.approx(0.25, abs=1e-12)


def test_expand_basis_vector_in_own_basis(rng):
    basis = helpers.random_orthonormal_basis(3, rng)
    coeffs = ql.expand_in_basis(basis[1], basis)
    assert np.allclose(coeffs, [0.0, 1.0, 0.0], atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_reconstruction_and_parseval(n, rng):
    for _ in range(10):
        basis = helpers.random_orthonormal_basis(n, rng)
        v = helpers.random_unit_vector(n, rng)
        coeffs = ql.expand_in_basis(v, basis)
        assert np.max(np.abs(coeffs @ basis.vectors - v)) < 1e-10
        assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(
            abs(ql.inner_product(v, v)), abs=1e-10
        )


def test_expectation_global_phase_invariance(rng):
    basis = helpers.random_orthonormal_basis(3, rng)
    eigen = np.array([0.5, -1.5, 2.0])
    state = helpers.random_unit_vector(3, rng)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow and non-finite entries stay quiet
        assert norm([1e300, 1e300]) == math.inf
        assert norm([complex(0.0, -np.inf), 1.0]) == math.inf
        assert math.isnan(norm([np.nan, np.inf]))
    with pytest.raises(HilbertError, match=r"expected a vector, got shape \(2, 2\)"):
        norm(np.eye(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ql.born_probability([1e300, 1e300], [1.0, 0.0]), "state has norm inf, expected 1"),
        (lambda: ql.born_probability([1.0, 0.0], [1e300, 1e300]),
         "basis vector has norm inf, expected 1"),
        (lambda: born_tables(np.array([1e300, 1e300]), ql.delta_basis(2), ql.delta_basis(2)),
         "psi has norm inf, expected 1"),
        (lambda: ql.OrthonormalBasis([[1e300, 0.0], [0.0, 1.0]]), "vectors are not orthonormal"),
        (lambda: ql.OrthonormalBasis([[0.0, 1.0], [1j * 1e300, 0.0]]), "vectors are not orthonormal"),
    ],
    ids=["born-state", "born-basis-vector", "born-tables", "basis", "basis-imaginary"],
)
def test_overflowing_input_is_refused_without_warning(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ql.ValidationError) as info:
            call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ql.OrthonormalBasis(np.zeros((0, 0))),
         r"a basis needs at least one vector, got shape \(0, 0\)"),
        (lambda: ql.delta_basis(0), "basis size must be at least 1, got 0"),
        (lambda: ql.delta_basis(-1), "basis size must be at least 1, got -1"),
        (lambda: ql.delta_basis(2.0), "basis size must be an integer, got 2.0"),
        (lambda: ql.delta_basis(True), "basis size must be an integer, got True"),
    ],
    ids=["empty-basis", "delta-0", "delta-negative", "delta-float", "delta-bool"],
)
def test_empty_bases_are_refused(call, message):
    with pytest.raises(HilbertError, match=f"^{message}$"):
        call()


def test_delta_basis_is_shared_and_read_only():
    basis = ql.delta_basis(3)
    assert ql.delta_basis(3) is basis
    assert ql.delta_basis(np.int64(3)) is basis
    assert np.array_equal(basis.vectors, np.eye(3))
    with pytest.raises(ValueError):
        basis.vectors[0, 0] = 2.0


# Norms at, one ulp either side of and just inside or outside 1 -/+ NORM_TOL.
NORM_EDGES = [
    edge + shift
    for edge in (1.0 - NORM_TOL, 1.0 + NORM_TOL)
    for shift in (0.0, -1e-2 * NORM_TOL, 1e-2 * NORM_TOL)
] + [
    float(np.nextafter(edge, toward))
    for edge in (1.0 - NORM_TOL, 1.0 + NORM_TOL)
    for toward in (0.0, 2.0)
]
NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)]


@st.composite
def born_vectors(draw, n: int):
    """A vector of n entries: unit, scaled to a NORM_TOL edge, scaled
    anywhere, or scaled near 1e300; maybe real only, maybe with one nan or
    inf entry, maybe reshaped to 2-D."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n))
    v = np.array(parts[:n], dtype=complex)
    if draw(st.booleans()):
        v += 1j * np.array(parts[n:])
    length = np.linalg.norm(v)
    v = v / length if length > 1e-6 else np.eye(n, dtype=complex)[0]
    v = v * draw({
        "unit": st.just(1.0),
        "edge": st.sampled_from(NORM_EDGES),
        "scaled": st.floats(0.1, 10.0),
        "huge": st.floats(1e299, 1e301),
    }[draw(st.sampled_from(["unit"] * 4 + ["edge"] * 4 + ["scaled", "huge"]))])
    bad = draw(st.sampled_from([None] * 10 + NON_FINITE))
    if bad is not None:
        v[draw(st.integers(0, n - 1))] = bad
    return v.reshape(1, n) if draw(st.sampled_from([False] * 19 + [True])) else v


@st.composite
def born_inputs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.one_of(st.just(n), st.integers(1, 4)))
    return draw(born_vectors(n)), draw(born_vectors(m))


def _born_outcome(check, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "value", check(*args, **kwargs)
        except HilbertError as exc:
            return "refused", str(exc)


def _same(got, want) -> bool:
    if got[0] == want[0] == "value":
        return abs(got[1] - want[1]) <= 1e-15
    return got == want


def _last_bit_apart(v) -> bool:
    """``hilbert.norm`` and numpy's norm of ``v`` differ in the last bit only."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or not np.isfinite(arr).all():
        return False
    with np.errstate(all="ignore"):
        theirs = float(np.linalg.norm(arr))
    ours = norm(arr)
    return math.isfinite(theirs) and ours != theirs and abs(ours - theirs) <= math.ulp(theirs)


@settings(max_examples=400, deadline=None)
@given(born_inputs())
@example(([1e300, 1e300], [1.0, 0.0]))
@example(([1.0 + NORM_TOL, 0.0], [1.0, 0.0]))
@example(([1.0, 0.0], [1.0 - NORM_TOL, 0.0]))
@example((np.array([0.6, 0.8j]), np.array([np.inf, 0.0])))
# a norm just inside 1 - NORM_TOL that running sums rounded two ulps low, onto the edge
@example((
    np.array([1.0, 0.0, 0.0]),
    np.array([0.5005506943591729j, 8.435732103161863e-10 + 0.6759990675419193j,
              0.1581362827195128 + 0.5171722913562367j]),
))
def test_born_probability_matches_reference(case):
    got = _born_outcome(ql.born_probability, *case)
    # the same decision, message and value as the reference on the same norm
    assert _same(got, _born_outcome(helpers.reference_born_probability, *case, length=norm))
    # and on numpy's norm, unless its dot, which may fuse multiply-adds,
    # rounds a sum of squares one ulp away
    if not _same(got, _born_outcome(helpers.reference_born_probability, *case)):
        assert any(_last_bit_apart(v) for v in case)
