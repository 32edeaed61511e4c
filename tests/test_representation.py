import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import qlgame as ql
import helpers
from qlgame import representation
from qlgame.representation import PHASE_TOL, _select_phases, born_tables

SQRT6_OVER_12 = math.sqrt(6.0) / 12.0


def test_interference_coefficients_d1(d1):
    lambdas = ql.interference_coefficients(d1)
    assert lambdas[0] == pytest.approx(SQRT6_OVER_12, abs=1e-14)
    assert lambdas[1] == pytest.approx(-SQRT6_OVER_12, abs=1e-14)


def test_interference_vanishes_when_total_probability_holds():
    # p_b chosen exactly as sum_alpha p_a(alpha) p(b|alpha)
    p, q = 0.3, 0.8
    predicted = p * q + (1 - p) * (1 - q)
    ctx = helpers.symmetric_context(p, q, predicted)
    assert np.max(np.abs(ql.interference_coefficients(ctx))) < 1e-12


def test_interference_hyperbolic_fixture(hyperbolic_ctx):
    lambdas = ql.interference_coefficients(hyperbolic_ctx)
    assert lambdas[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert lambdas[1] == pytest.approx(-4.0 / 3.0, abs=1e-12)


def test_interference_requires_positivity():
    raw = dict(helpers.D1_RAW)
    raw["trans_b_given_a"] = [[1.0, 0.0], [0.0, 1.0]]
    raw["trans_a_given_b"] = [[1.0, 0.0], [0.0, 1.0]]
    data = ql.validate_context_data(raw)
    with pytest.raises(ql.ValidationError, match="positivity.*trans_b_given_a"):
        ql.interference_coefficients(data)


def test_underflowing_product_is_refused_without_a_warning():
    # p_a(F) p(b|a=F) underflows to 0, so the denominator of lambda vanishes
    data = ql.validate_context_data(dict(helpers.D1_RAW, marginal_a=[5e-324, 1.0]))
    with pytest.raises(ql.ValidationError, match="interference coefficients must be finite"):
        ql.build_representation(data)


def test_classify_context():
    assert ql.classify_context([0.204124, -0.204124]) == ql.TRIGONOMETRIC
    assert ql.classify_context([4.0 / 3.0, -4.0 / 3.0]) == ql.HYPERBOLIC
    assert ql.classify_context([1.0, -1.0]) == ql.TRIGONOMETRIC  # closed boundary


THREE_OUTCOME_RAW = {
    "alphabet": ["x", "y", "z"],
    "marginal_a": [0.2, 0.5, 0.3],
    "marginal_b": [0.4, 0.35, 0.25],
    "trans_b_given_a": [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]],
    "trans_a_given_b": [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]],
}


def test_interference_coefficients_refuse_three_outcomes():
    data = ql.validate_context_data(THREE_OUTCOME_RAW)  # strictly positive, R1
    with pytest.raises(ql.ValidationError, match="two-outcome alphabet, got 3 outcomes"):
        ql.interference_coefficients(data)


def test_classify_context_refuses_three_coefficients():
    with pytest.raises(ql.ValidationError, match="two-outcome alphabet, got 3 outcomes"):
        ql.classify_context([0.2, -0.1, -0.1])


def test_build_representation_d1(d1):
    rep = ql.build_representation(d1)
    theta = rep.profile.thetas
    assert theta[0] == pytest.approx(math.acos(SQRT6_OVER_12), abs=1e-12)
    assert theta[1] == pytest.approx(math.acos(SQRT6_OVER_12) + math.pi, abs=1e-12)
    assert rep.psi[0] == pytest.approx(0.5 + math.sqrt(1 / 6) * np.exp(1j * theta[0]))
    assert rep.psi[1] == pytest.approx(
        math.sqrt(1 / 12) + math.sqrt(0.5) * np.exp(1j * theta[1])
    )
    assert abs(rep.psi[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(rep.psi[1]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_build_representation_uniform(uniform_ctx):
    rep = ql.build_representation(uniform_ctx)
    assert np.allclose(rep.profile.lambdas, 0.0, atol=1e-15)
    assert rep.profile.thetas[0] == pytest.approx(math.pi / 2.0)
    assert rep.profile.thetas[1] == pytest.approx(3.0 * math.pi / 2.0)
    for vec in (*rep.b_basis.vectors, *rep.a_basis.vectors):
        assert ql.born_probability(rep.psi, vec) == pytest.approx(0.5, abs=1e-12)


def test_build_representation_rejects_hyperbolic(hyperbolic_ctx):
    with pytest.raises(ql.HyperbolicContextError, match="hyperbolic context"):
        ql.build_representation(hyperbolic_ctx)


def test_build_representation_rejects_asymmetric():
    raw = dict(helpers.D1_RAW)
    raw["trans_a_given_b"] = [[0.6, 0.4], [0.4, 0.6]]
    data = ql.validate_context_data(raw)
    with pytest.raises(ql.ValidationError, match="R1"):
        ql.build_representation(data)


def test_phase_selection_boundary_lambda():
    thetas = _select_phases(np.array([1.0, -1.0]))
    assert thetas[0] == pytest.approx(0.0)
    assert thetas[1] == pytest.approx(math.pi)


def _round_trip_error(ctx, rep) -> float:
    back = ql.reconstruct_data(rep)
    return max(
        float(np.max(np.abs(back.marginal_a.probs - ctx.marginal_a.probs))),
        float(np.max(np.abs(back.marginal_b.probs - ctx.marginal_b.probs))),
        float(np.max(np.abs(back.trans_b_given_a.rows - ctx.trans_b_given_a.rows))),
        float(np.max(np.abs(back.trans_a_given_b.rows - ctx.trans_a_given_b.rows))),
    )


interior_probs = st.floats(0.02, 0.98)
# |lambda| = 1 - 10**-k (k in [6, 16]) or up to 5e-13 past the boundary
boundary_magnitudes = st.one_of(
    st.floats(6.0, 16.0).map(lambda k: 1.0 - 10.0 ** -k),
    st.floats(0.0, 5e-13).map(lambda excess: 1.0 + excess),
)


@given(interior_probs, interior_probs, boundary_magnitudes, st.sampled_from([1.0, -1.0]))
def test_near_boundary_contexts_build(p, q, magnitude, sign):
    r = helpers.b_marginal_for_lambda(p, q, sign * magnitude)
    assume(0.0 < r < 1.0)  # strict positivity (R2) of the b-marginal
    ctx = helpers.symmetric_context(p, q, r)
    rep = ql.build_representation(ctx)
    thetas = rep.profile.thetas
    assert thetas[1] == thetas[0] + math.pi
    assert _round_trip_error(ctx, rep) <= PHASE_TOL


@pytest.mark.parametrize("gap", [1e-11, 1e-13, 0.0])
def test_boundary_contexts_all_build(gap):
    rng = np.random.default_rng(20070)
    for sign in (1.0, -1.0):
        for _ in range(250):
            p, q = rng.uniform(0.02, 0.98, size=2)
            r = helpers.b_marginal_for_lambda(p, q, sign * (1.0 - gap))
            ctx = helpers.symmetric_context(p, q, r)
            assert _round_trip_error(ctx, ql.build_representation(ctx)) <= PHASE_TOL


# Entries from 1e-14 up to 1 - 1e-14, with the bulk in between.
small_probs = st.one_of(
    st.floats(1e-14, 1e-3),
    st.floats(1e-3, 0.999),
    st.floats(1e-14, 1e-3).map(lambda x: 1.0 - x),
)


@given(small_probs, small_probs, st.floats(-1.0, 1.0))
def test_small_probability_contexts_round_trip(p, q, lam):
    r = helpers.b_marginal_for_lambda(p, q, lam)
    assume(0.0 < r < 1.0)  # strict positivity (R2) of the b-marginal
    t = [[q, 1.0 - q], [1.0 - q, q]]
    ctx = ql.validate_context_data(
        {"marginal_a": [p, 1.0 - p], "marginal_b": [r, 1.0 - r],
         "trans_b_given_a": t, "trans_a_given_b": t}
    )
    # Rounding of r can push |lambda| of the numbers as given past 1.
    assume(ql.classify_context(ql.interference_coefficients(ctx)) == ql.TRIGONOMETRIC)
    assert _round_trip_error(ctx, ql.build_representation(ctx)) <= 1e-10


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_just_hyperbolic_context_refused(sign):
    r = helpers.b_marginal_for_lambda(0.3, 0.6, sign * (1.0 + 1e-9))
    ctx = helpers.symmetric_context(0.3, 0.6, r)
    with pytest.raises(ql.HyperbolicContextError, match=r"\|lambda\| - 1 = 1e-09"):
        ql.build_representation(ctx)


def test_build_representation_refuses_three_outcomes():
    t = ql.TransitionMatrix(np.full((3, 3), 1.0 / 3.0), ("F", "I", "X"))
    third = ql.uniform_distribution(("F", "I", "X"))
    with pytest.raises(ql.ValidationError, match="two-outcome alphabet, got 3 outcomes"):
        ql.build_representation(ql.ContextData(third, third, t, t))


def test_a_basis_orthonormal_and_transitions(d1):
    rep = ql.build_representation(d1)
    assert abs(ql.inner_product(rep.a_basis.vectors[0], rep.a_basis.vectors[1])) < 1e-12
    for alpha in range(2):
        for beta in range(2):
            overlap = abs(ql.inner_product(rep.b_basis.vectors[beta], rep.a_basis.vectors[alpha])) ** 2
            assert overlap == pytest.approx(
                d1.trans_b_given_a.rows[alpha, beta], abs=1e-12
            )


def test_state_is_superposition_of_a_basis(d1):
    # psi = sqrt(p_a(1)) e_1^a + sqrt(p_a(2)) e_2^a
    rep = ql.build_representation(d1)
    rebuilt = (
        math.sqrt(d1.marginal_a.probs[0]) * rep.a_basis.vectors[0]
        + math.sqrt(d1.marginal_a.probs[1]) * rep.a_basis.vectors[1]
    )
    assert np.max(np.abs(rebuilt - rep.psi)) < 1e-12


def test_expectations_match_conditional_averages(d1):
    # the +-1 observable diagonal in each basis averages to its marginal's mean
    rep = ql.build_representation(d1)
    eigen = np.array([1.0, -1.0])
    born_a, born_b, _ = born_tables(rep.psi, rep.a_basis, rep.b_basis)
    assert eigen @ born_a == pytest.approx(float(eigen @ d1.marginal_a.probs), abs=1e-10)
    assert eigen @ born_b == pytest.approx(float(eigen @ d1.marginal_b.probs), abs=1e-10)


def test_reconstruct_round_trip_d1(d1):
    back = ql.reconstruct_data(ql.build_representation(d1))
    assert np.max(np.abs(back.marginal_a.probs - d1.marginal_a.probs)) < 1e-10
    assert np.max(np.abs(back.marginal_b.probs - d1.marginal_b.probs)) < 1e-10
    assert np.max(np.abs(back.trans_b_given_a.rows - d1.trans_b_given_a.rows)) < 1e-10
    assert np.max(np.abs(back.trans_a_given_b.rows - d1.trans_a_given_b.rows)) < 1e-10


def test_reconstruct_round_trip_uniform(uniform_ctx):
    back = ql.reconstruct_data(ql.build_representation(uniform_ctx))
    assert np.max(np.abs(back.marginal_a.probs - 0.5)) < 1e-12
    assert np.max(np.abs(back.trans_b_given_a.rows - 0.5)) < 1e-12


def test_round_trip_property_over_random_contexts(rng):
    for _ in range(100):
        ctx = helpers.random_trig_context(rng)
        rep = ql.build_representation(ctx)
        profile = rep.profile
        assert np.max(np.abs(np.cos(profile.thetas) - profile.lambdas)) < 1e-12
        gap = (profile.thetas[1] - profile.thetas[0] - math.pi) % (2.0 * math.pi)
        assert min(gap, 2.0 * math.pi - gap) < 1e-10
        back = ql.reconstruct_data(rep)
        assert np.max(np.abs(back.marginal_a.probs - ctx.marginal_a.probs)) < 1e-10
        assert np.max(np.abs(back.marginal_b.probs - ctx.marginal_b.probs)) < 1e-10
        assert (
            np.max(np.abs(back.trans_b_given_a.rows - ctx.trans_b_given_a.rows)) < 1e-10
        )


@pytest.mark.parametrize(
    "psi, match",
    [
        (np.full(3, 1.0 / math.sqrt(3.0)), "dimension"),
        (np.eye(2), "dimension"),
        (np.array([1.0, 1.0]), "norm"),
        (np.array([np.nan, 0.0]), "norm"),
    ],
)
def test_born_tables_refusals(psi, match):
    basis = ql.delta_basis(2)
    with pytest.raises(ql.ValidationError, match=match):
        born_tables(psi, basis, basis)


def test_round_trip_refuses_phases_that_miss_the_data(d1, monkeypatch):
    select = representation._select_phases
    # d1's rows are doubly stochastic, so psi keeps norm 1 under any theta_1
    monkeypatch.setattr(representation, "_select_phases", lambda lambdas: select(lambdas) + 0.5)
    with pytest.raises(ql.ValidationError) as info:
        ql.build_representation(d1)
    assert str(info.value) == "representation fails the probability round-trip by 0.202"


def test_lambda_antisymmetry_under_r1(rng):
    for _ in range(200):
        p, q, r = rng.uniform(0.01, 0.99, size=3)
        lambdas = ql.interference_coefficients(helpers.symmetric_context(p, q, r))
        assert abs(lambdas[0] + lambdas[1]) < 1e-12


def test_representation_json_fields(d1):
    payload = ql.representation_to_json(ql.build_representation(d1))
    assert payload["classification"] == "trigonometric"
    assert len(payload["psi"]) == 2 and len(payload["psi"][0]) == 2
    assert set(payload) >= {"lambda", "theta", "classification", "psi", "a_basis", "b_basis"}
    again = ql.validate_context_data(payload["reconstructed"])
    assert again.r1_symmetric


def test_reconstruction_is_computed_once_per_representation(d1, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return born_tables(*args)

    monkeypatch.setattr(representation, "born_tables", counted)
    rep = ql.build_representation(d1)
    back = ql.reconstruct_data(rep)
    assert ql.reconstruct_data(rep) is back
    assert ql.representation_to_json(rep)["reconstructed"] == ql.context_to_json(back)
    assert len(calls) == 1  # the tables the round trip checked are reused
