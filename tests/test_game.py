import math
import warnings

import numpy as np
import pytest

import qlgame as ql
import helpers
from helpers import MATCH, MIRROR
from qlgame.game import _basis_map_unitary


def spin_identification_discrepancy(delta: float) -> float:
    """Expected ||U psi - psi'|| for consecutive uniform-marginal spin
    pairs, from the expansion coefficients alone: the source state has
    coefficients sqrt(1/2)(|cos(delta/2)| + i |sin(delta/2)|)-style entries
    in the shared basis while the target state's are real sqrt(1/2)."""
    c = abs(math.cos(delta / 2.0))
    s = abs(math.sin(delta / 2.0))
    return math.sqrt(2.0 - c - s)


def test_part_average_d1(d1):
    joint = ql.joint_distribution(d1.marginal_a, d1.trans_b_given_a)
    assert ql.part_average(joint, MATCH) == pytest.approx(0.5, abs=1e-12)


def test_part_average_uniform_joint_is_mean():
    joint = ql.JointTable(("a", "b"), np.full((2, 2), 0.25))
    h = ql.PayoffMatrix([[4.0, -2.0], [1.0, 3.0]])
    assert ql.part_average(joint, h) == pytest.approx(np.mean(h.entries))


def test_part_average_zero_payoff(d1):
    joint = ql.joint_distribution(d1.marginal_a, d1.trans_b_given_a)
    assert ql.part_average(joint, ql.PayoffMatrix(np.zeros((2, 2)))) == 0.0


def test_total_averages_d1_zero_sum(d1):
    spec = helpers.zero_sum_spec()
    averages = ql.total_averages(spec, d1)
    assert averages.part_averages[0]["bob"] == pytest.approx(0.5, abs=1e-12)
    assert averages.part_averages[1]["bob"] == pytest.approx(-0.5, abs=1e-12)
    assert averages.totals["bob"] == pytest.approx(0.0, abs=1e-12)
    assert averages.totals["alice"] == pytest.approx(0.0, abs=1e-12)


def test_total_averages_uniform_symmetric(uniform_ctx):
    averages = ql.total_averages(helpers.zero_sum_spec(), uniform_ctx)
    assert averages.totals["alice"] == pytest.approx(0.0, abs=1e-12)
    assert averages.totals["bob"] == pytest.approx(0.0, abs=1e-12)


def test_total_averages_three_player_spin():
    thetas = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0)
    contexts = helpers.spin_pair_contexts(*thetas, names=("alice", "bob", "cecilia"))
    averages = ql.total_averages(helpers.three_player_spin_spec(), contexts)
    assert averages.part_averages[0]["bob"] == pytest.approx(-0.5, abs=1e-12)
    assert averages.part_averages[1]["cecilia"] == pytest.approx(0.5, abs=1e-12)
    assert averages.part_averages[2]["alice"] == pytest.approx(0.5, abs=1e-12)


def test_total_averages_missing_pair_errors(d1):
    spec = helpers.three_player_spin_spec()
    with pytest.raises(ql.ValidationError, match="no transition data"):
        ql.total_averages(spec, {("alice", "bob"): d1})


def test_zero_sum_flag_enforced():
    with pytest.raises(ql.ValidationError, match="zero-sum"):
        ql.GameSpec(
            ("alice", "bob"),
            (ql.GamePart("alice", "bob", {"bob": MATCH, "alice": MATCH}),),
            zero_sum=True,
        )


def test_payoff_convention_warning():
    with pytest.warns(ql.PayoffConventionWarning):
        ql.GameSpec(
            ("alice", "bob"),
            (ql.GamePart("alice", "bob", {"bob": MIRROR}),),  # tester loses on match
        )


def test_game_averages_totals_sum_parts(d1):
    averages = ql.total_averages(helpers.zero_sum_spec(), d1)
    for player in ("alice", "bob"):
        assert averages.totals[player] == pytest.approx(
            sum(part[player] for part in averages.part_averages), abs=1e-12
        )


def test_zero_sum_part_sums_vanish(rng):
    for _ in range(25):
        ctx = helpers.random_trig_context(rng)
        spec = helpers.random_zero_sum_symmetric_spec(rng)
        averages = ql.total_averages(spec, ctx)
        for part in averages.part_averages:
            assert abs(sum(part.values())) < 1e-12


def test_ql_average_matches_probabilistic_d1(d1):
    spec = helpers.zero_sum_spec()
    rep = ql.build_representation(d1)
    ql_form = ql.ql_average(rep, spec)
    prob_form = ql.total_averages(spec, ql.reconstruct_data(rep))
    for ql_part, prob_part in zip(ql_form.part_averages, prob_form.part_averages):
        for player in spec.players:
            assert ql_part[player] == pytest.approx(prob_part[player], abs=1e-10)
    assert ql_form.totals["bob"] == pytest.approx(0.0, abs=1e-10)


def test_ql_average_uniform_equals_probabilistic(uniform_ctx):
    spec = helpers.zero_sum_spec()
    rep = ql.build_representation(uniform_ctx)
    ql_form = ql.ql_average(rep, spec)
    prob_form = ql.total_averages(spec, uniform_ctx)
    for player in spec.players:
        assert ql_form.totals[player] == pytest.approx(prob_form.totals[player], abs=1e-12)


def test_ql_average_equivalence_random(rng):
    for _ in range(50):
        ctx = helpers.random_trig_context(rng)
        spec = helpers.random_zero_sum_symmetric_spec(rng)
        rep = ql.build_representation(ctx)
        ql_form = ql.ql_average(rep, spec)
        prob_form = ql.total_averages(spec, ctx)
        for player in spec.players:
            assert ql_form.totals[player] == pytest.approx(
                prob_form.totals[player], abs=1e-10
            )


def test_factored_and_interference_forms_agree(rng):
    for _ in range(50):
        ctx = helpers.random_trig_context(rng)
        spec = helpers.random_zero_sum_symmetric_spec(rng)
        rep = ql.build_representation(ctx)
        tester_payoff = spec.parts[0].payoffs["bob"]
        full = ql.ql_average(rep, spec).totals["bob"]
        factored = ql.zero_sum_symmetric_average(rep, tester_payoff)
        interference = ql.interference_average(rep, tester_payoff)
        assert factored == pytest.approx(full, abs=1e-12)
        assert interference == pytest.approx(full, abs=1e-10)


def test_interference_average_matches_per_vector_reference(rng):
    # the cross term built vector by vector from <psi, e^a_k> and <e^b_x, e^a_k>
    for _ in range(20):
        rep = ql.build_representation(helpers.random_trig_context(rng))
        h = ql.PayoffMatrix(rng.uniform(-2.0, 2.0, size=(2, 2)))
        proj_a = np.array([ql.inner_product(rep.psi, v) for v in rep.a_basis.vectors])
        born_b = []
        for e_b in rep.b_basis.vectors:
            z = np.conj(ql.expand_in_basis(e_b, rep.a_basis)) * proj_a
            cross = 2.0 * abs(z[0]) * abs(z[1]) * math.cos(np.angle(z[0]) - np.angle(z[1]))
            born_b.append(abs(z[0]) ** 2 + abs(z[1]) ** 2 + cross)
        born_a = np.abs(proj_a) ** 2
        trans = np.abs(rep.a_basis.vectors @ rep.b_basis.vectors.conj().T) ** 2
        expected = np.sum((born_a - np.array(born_b)) * np.sum(h.entries * trans, axis=1))
        assert ql.interference_average(rep, h) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_basis_map_unitary_matches_outer_product_sum(n, rng):
    source = ql.random_orthonormal_basis(n, rng).vectors
    target = ql.random_orthonormal_basis(n, rng).vectors
    u = _basis_map_unitary(source, target)
    reference = sum(np.outer(target[k], source[k].conj()) for k in range(n))
    assert np.max(np.abs(u - reference)) < 1e-12
    assert np.max(np.abs(source @ u.T - target)) < 1e-12  # u e_k = f_k for every k


def test_three_player_representations_uniform():
    ctx = helpers.uniform_context()
    report = ql.three_player_representations(
        {("a", "b"): ctx, ("b", "c"): ctx, ("c", "a"): ctx}
    )
    expected = spin_identification_discrepancy(math.pi / 2.0)  # all-1/2 matrix
    assert report.discrepancies[0] == pytest.approx(expected, abs=1e-12)
    assert report.discrepancies[1] == pytest.approx(expected, abs=1e-12)
    for u in report.unitaries:
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10


def test_three_player_representations_spin_triple():
    thetas = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0)
    report = ql.three_player_representations(helpers.spin_pair_contexts(*thetas))
    assert report.discrepancies[0] == pytest.approx(
        spin_identification_discrepancy(thetas[0] - thetas[1]), abs=1e-10
    )
    assert report.discrepancies[1] == pytest.approx(
        spin_identification_discrepancy(thetas[1] - thetas[2]), abs=1e-10
    )
    assert report.pairs == (("a", "b"), ("b", "c"), ("c", "a"))


def test_three_player_rejects_equal_angles():
    contexts = helpers.spin_pair_contexts(0.7, 0.7, 0.7)
    with pytest.raises(ql.ValidationError, match=r"pair \('a', 'b'\)"):
        ql.three_player_representations(contexts)


def test_three_player_rejects_hyperbolic_pair(hyperbolic_ctx, uniform_ctx):
    contexts = {
        ("a", "b"): uniform_ctx,
        ("b", "c"): hyperbolic_ctx,
        ("c", "a"): uniform_ctx,
    }
    with pytest.raises(ql.HyperbolicContextError, match=r"pair \('b', 'c'\)"):
        ql.three_player_representations(contexts)


def test_three_player_rejects_broken_cycle(uniform_ctx):
    contexts = {
        ("a", "b"): uniform_ctx,
        ("b", "c"): uniform_ctx,
        ("a", "c"): uniform_ctx,
    }
    with pytest.raises(ql.ValidationError, match="cycle"):
        ql.three_player_representations(contexts)


def test_multidim_reduces_to_two_player(d1):
    rep = ql.build_representation(d1)
    spec = ql.GameSpec(
        ("alice", "bob"),
        (
            ql.GamePart("alice", "bob", {"bob": MATCH}),
            ql.GamePart("bob", "alice", {"bob": MIRROR}),
        ),
    )
    two_player = ql.ql_average(rep, spec).totals["bob"]
    multi = ql.multidim_average(rep.psi, rep.a_basis, rep.b_basis, MATCH, MIRROR)
    assert multi == pytest.approx(two_player, abs=1e-10)


def test_multidim_identical_bases_diagonal_reward(rng):
    basis = ql.random_orthonormal_basis(3, rng)
    psi = ql.random_unit_vector(3, rng)
    reward = np.eye(3)
    value = ql.multidim_average(psi, basis, basis, reward, np.zeros((3, 3)))
    assert value == pytest.approx(1.0, abs=1e-10)


def test_multidim_zero_payoffs(rng):
    a4 = ql.random_orthonormal_basis(4, rng)
    b4 = ql.random_orthonormal_basis(4, rng)
    psi = ql.random_unit_vector(4, rng)
    assert ql.multidim_average(psi, a4, b4, np.zeros((4, 4)), np.zeros((4, 4))) == 0.0


def test_multidim_dimension_mismatch(rng):
    a3 = ql.random_orthonormal_basis(3, rng)
    b4 = ql.random_orthonormal_basis(4, rng)
    with pytest.raises(ql.ValidationError, match="dimension"):
        ql.multidim_average(ql.random_unit_vector(3, rng), a3, b4, np.zeros((3, 3)), np.zeros((3, 3)))


def test_multidim_raw_payoffs_raise_no_convention_warning(rng):
    a3 = ql.random_orthonormal_basis(3, rng)
    b3 = ql.random_orthonormal_basis(3, rng)
    psi = ql.random_unit_vector(3, rng)
    h1, h2 = rng.uniform(-1.0, 1.0, size=(2, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = ql.multidim_average(psi, a3, b3, h1, h2)
    assert math.isfinite(value)


def test_multidim_rejects_nan_payoff(rng):
    basis = ql.random_orthonormal_basis(2, rng)
    h = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ql.ValidationError, match="finite"):
        ql.multidim_average(np.array([1.0, 0.0]), basis, basis, np.eye(2), h)


def test_multidim_tolerance_edge_basis_is_finite():
    # Same basis as the simulation test: squared norms 1 + 1.2e-12, inside NORM_TOL.
    hi, lo = math.sqrt(0.7 + 6e-13), math.sqrt(0.3 + 6e-13)
    b3 = ql.OrthonormalBasis([[hi, lo, 0.0], [-lo, hi, 0.0], [0.0, 0.0, 1.0]])
    psi = np.full(3, 1.0 / math.sqrt(3.0))
    h = np.arange(9.0).reshape(3, 3)
    assert math.isfinite(ql.multidim_average(psi, ql.delta_basis(3), b3, h, h))


def test_game_spec_json_round_trip():
    spec = helpers.zero_sum_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ql.PayoffConventionWarning)
        again = ql.game_from_json(ql.game_to_json(spec))
    assert again.players == spec.players
    assert again.zero_sum
    assert np.array_equal(
        again.parts[0].payoffs["bob"].entries, spec.parts[0].payoffs["bob"].entries
    )
