import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlgame as ql
import helpers
from helpers import MATCH, MIRROR
from qlgame.game import _basis_map_unitary
from qlgame.representation import born_context, born_tables


def spin_identification_discrepancy(delta: float) -> float:
    """Expected ||U psi - psi'|| for consecutive uniform-marginal spin
    pairs, from the expansion coefficients alone: the source state has
    coefficients sqrt(1/2)(|cos(delta/2)| + i |sin(delta/2)|)-style entries
    in the shared basis while the target state's are real sqrt(1/2)."""
    c = abs(math.cos(delta / 2.0))
    s = abs(math.sin(delta / 2.0))
    return math.sqrt(2.0 - c - s)


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


def test_zero_sum_check_refuses_overflowing_cell_sums_without_a_warning():
    huge = ql.PayoffMatrix([[1e308, 1e308], [1e308, 1e308]])
    signed = ql.PayoffMatrix([[1e308, -1e308], [-1e308, 1e308]])
    with pytest.raises(ql.ValidationError, match="cell sums reach inf"):
        ql.GameSpec(
            ("alice", "bob"),
            (ql.GamePart("alice", "bob", {"alice": huge, "bob": signed}),),
            zero_sum=True,
        )


def test_payoff_convention_warning():
    # one rule for both roles: the chooser's matrix is the tester's negated
    with pytest.warns(ql.PayoffConventionWarning) as record:
        ql.GameSpec(
            ("alice", "bob"),
            # tester loses on match, chooser gains on it
            (ql.GamePart("alice", "bob", {"bob": MIRROR, "alice": MATCH}),),
        )
    assert [str(w.message) for w in record] == [
        "part 0: tester 'bob' payoff signs look inverted",
        "part 0: chooser 'alice' payoff signs look inverted",
    ]
    assert {w.filename for w in record} == {__file__}  # the caller's line


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d1: ql.total_averages(helpers.three_player_spin_spec(), d1),
         "a single context only covers a two-player game; pass a mapping of "
         "(chooser, tester) pairs to contexts"),
        (lambda d1: ql.ql_average(ql.build_representation(d1), helpers.three_player_spin_spec()),
         "QL averages are defined for two-player games"),
        (lambda d1: ql.three_player_representations({("a", "b"): d1, ("b", "a"): d1}),
         "need exactly 3 pair contexts, got 2"),
        (lambda d1: ql.three_player_representations(
            {("a", "b"): d1, ("b", "c"): d1, ("c", "d"): d1}),
         "pair keys [('a', 'b'), ('b', 'c'), ('c', 'd')] do not close into a cycle"),
    ],
    ids=["single-context-three-players", "ql-three-players", "two-pairs", "open-chain"],
)
def test_game_refusal_messages(d1, call, message):
    with pytest.raises(ql.ValidationError) as info:
        call(d1)
    assert str(info.value) == message


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
    source = helpers.random_orthonormal_basis(n, rng).vectors
    target = helpers.random_orthonormal_basis(n, rng).vectors
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
    basis = helpers.random_orthonormal_basis(3, rng)
    psi = helpers.random_unit_vector(3, rng)
    reward = np.eye(3)
    value = ql.multidim_average(psi, basis, basis, reward, np.zeros((3, 3)))
    assert value == pytest.approx(1.0, abs=1e-10)


def test_multidim_zero_payoffs(rng):
    a4 = helpers.random_orthonormal_basis(4, rng)
    b4 = helpers.random_orthonormal_basis(4, rng)
    psi = helpers.random_unit_vector(4, rng)
    assert ql.multidim_average(psi, a4, b4, np.zeros((4, 4)), np.zeros((4, 4))) == 0.0


def test_multidim_dimension_mismatch(rng):
    a3 = helpers.random_orthonormal_basis(3, rng)
    b4 = helpers.random_orthonormal_basis(4, rng)
    with pytest.raises(ql.ValidationError, match="dimension"):
        ql.multidim_average(helpers.random_unit_vector(3, rng), a3, b4, np.zeros((3, 3)), np.zeros((3, 3)))


def test_multidim_raw_payoffs_raise_no_convention_warning(rng):
    a3 = helpers.random_orthonormal_basis(3, rng)
    b3 = helpers.random_orthonormal_basis(3, rng)
    psi = helpers.random_unit_vector(3, rng)
    h1, h2 = rng.uniform(-1.0, 1.0, size=(2, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = ql.multidim_average(psi, a3, b3, h1, h2)
    assert math.isfinite(value)


def test_multidim_rejects_nan_payoff(rng):
    basis = helpers.random_orthonormal_basis(2, rng)
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
        again = ql.game_from_json(helpers.game_to_json(spec))
    assert again.players == spec.players
    assert again.zero_sum
    assert np.array_equal(
        again.parts[0].payoffs["bob"].entries, spec.parts[0].payoffs["bob"].entries
    )


@pytest.mark.parametrize("flag", ["false", "", 0, 1, 0.0, None, [True]])
def test_game_zero_sum_flag_must_be_a_boolean(flag):
    # not zero-sum, so a flag read as true would refuse it for another reason
    part = {"chooser": "a", "tester": "b", "payoffs": {"b": [[1, -1], [-1, 1]]}}
    doc = {"players": ["a", "b"], "parts": [part]}
    assert not ql.game_from_json(doc).zero_sum
    assert not ql.game_from_json(dict(doc, zero_sum=False)).zero_sum
    message = f"^zero_sum must be true or false, got {re.escape(repr(flag))}$"
    with pytest.raises(ql.ValidationError, match=message):
        ql.game_from_json(dict(doc, zero_sum=flag))

WRONG_SHAPE = ql.PayoffMatrix(np.zeros((3, 3)))


@pytest.mark.parametrize(
    "average",
    [
        pytest.param(lambda spec, ctx, rep: ql.total_averages(spec, ctx), id="total"),
        pytest.param(lambda spec, ctx, rep: ql.simulate_game(spec, ctx, 10, 1), id="simulated"),
        pytest.param(lambda spec, ctx, rep: ql.ql_average(rep, spec), id="ql"),
        pytest.param(
            lambda spec, ctx, rep: ql.zero_sum_symmetric_average(rep, WRONG_SHAPE), id="factored"
        ),
        pytest.param(
            lambda spec, ctx, rep: ql.interference_average(rep, WRONG_SHAPE), id="interference"
        ),
    ],
)
def test_every_average_refuses_a_wrong_shaped_payoff(d1, average):
    spec = ql.GameSpec(
        ("alice", "bob"),
        (
            ql.GamePart("alice", "bob", {"bob": WRONG_SHAPE}),
            ql.GamePart("bob", "alice", {"bob": WRONG_SHAPE}),
        ),
    )
    with pytest.raises(ql.ValidationError) as info:
        average(spec, d1, ql.build_representation(d1))
    assert str(info.value) == "payoff shape (3, 3) does not match joint (2, 2)"


def _items(averages: ql.GameAverages):
    """Every part average and total, with the order of its players."""
    return [list(part.items()) for part in averages.part_averages], list(averages.totals.items())


def _random_context(rng, alphabet) -> ql.ContextData:
    k = len(alphabet)
    marginals = [ql.Distribution(rng.dirichlet(np.ones(k)), alphabet) for _ in range(2)]
    rows = [ql.TransitionMatrix(rng.dirichlet(np.ones(k), size=k), alphabet) for _ in range(2)]
    return ql.ContextData(*marginals, *rows)


def _random_spec(rng, players, pairs, k) -> ql.GameSpec:
    """One to four parts over ``pairs``, each played in either order and
    paying each roster player (in or out of the part) with probability 1/2."""
    parts = []
    for _ in range(rng.integers(1, 5)):
        chooser, tester = pairs[rng.integers(len(pairs))][:: rng.choice([1, -1])]
        payoffs = {
            player: ql.PayoffMatrix(rng.uniform(-2.0, 2.0, size=(k, k)))
            for player in players
            if rng.random() < 0.5
        }
        parts.append(ql.GamePart(chooser, tester, payoffs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ql.PayoffConventionWarning)
        return ql.GameSpec(players, tuple(parts))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), three=st.booleans())
def test_game_averages_keep_their_bits(seed, k, three):
    rng = np.random.default_rng(seed)
    alphabet = tuple(f"o{j}" for j in range(k))
    players = ("alice", "bob", "cecilia") if three else ("alice", "bob")
    cycle = [(players[j], players[(j + 1) % len(players)]) for j in range(len(players))]
    pairs = cycle if three else cycle[:1]
    # each pair's context stored under either orientation
    contexts = {pair[:: rng.choice([1, -1])]: _random_context(rng, alphabet) for pair in pairs}
    if not three and rng.random() < 0.5:
        (contexts,) = contexts.values()
    spec = _random_spec(rng, players, pairs, k)
    expected = helpers.reference_total_averages(spec, contexts)
    assert _items(ql.total_averages(spec, contexts)) == _items(expected)
    report = ql.simulate_game(
        spec, contexts, int(rng.integers(1, 10**6)), int(rng.integers(2**32)),
        partitions=int(rng.integers(1, 5)),
    )
    assert _items(report.analytic_averages) == _items(expected)
    assert _items(report.empirical_averages) == _items(
        helpers.reference_empirical_averages(spec, report)
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ql_averages_keep_their_bits(seed):
    rng = np.random.default_rng(seed)
    rep = ql.build_representation(helpers.random_trig_context(rng))
    spec = _random_spec(rng, ("alice", "bob"), [("alice", "bob")], 2)
    assert _items(ql.ql_average(rep, spec)) == _items(helpers.reference_ql_average(rep, spec))


def _renormalised_born_game(psi, a, b, h1, h2):
    """The n-dimensional game as an ordinary game on the renormalised Born
    context, the form that ``simulate_multidim`` plays."""
    context = born_context(born_tables(psi, a, b), tuple(f"o{k}" for k in range(a.dimension)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ql.PayoffConventionWarning)
        spec = ql.GameSpec(("a", "b"), (
            ql.GamePart("a", "b", {"b": ql.PayoffMatrix(h1)}),
            ql.GamePart("b", "a", {"b": ql.PayoffMatrix(h2)}),
        ))
    return spec, context


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_multidim_average_stays_near_the_renormalised_game(seed, n):
    # raw Born weights sum to 1 only up to rounding; renormalising them
    # moves the average by a few ulps
    rng = np.random.default_rng(seed)
    psi = helpers.random_unit_vector(n, rng)
    a, b = (helpers.random_orthonormal_basis(n, rng) for _ in range(2))
    h1, h2 = (ql.PayoffMatrix(h) for h in rng.uniform(-2.0, 2.0, size=(2, n, n)))
    value = ql.multidim_average(psi, a, b, h1, h2)
    assert value == helpers.reference_multidim_average(psi, a, b, h1.entries, h2.entries)
    renormalised = helpers.reference_total_averages(
        *_renormalised_born_game(psi, a, b, h1.entries, h2.entries))
    assert abs(value - renormalised.totals["b"]) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_multidim_averages_keep_their_bits(seed, n):
    rng = np.random.default_rng(seed)
    psi = helpers.random_unit_vector(n, rng)
    a, b = (helpers.random_orthonormal_basis(n, rng) for _ in range(2))
    h1, h2 = rng.uniform(-2.0, 2.0, size=(2, n, n))
    assert ql.multidim_average(psi, a, b, h1, h2) == helpers.reference_multidim_average(
        psi, a, b, h1, h2)
    spec, context = _renormalised_born_game(psi, a, b, h1, h2)
    expected = helpers.reference_total_averages(spec, context)
    report = ql.simulate_multidim(psi, a, b, h1, h2, trials=10**5, seed=seed)
    assert _items(report.analytic_averages) == _items(expected)
    assert _items(report.empirical_averages) == _items(
        helpers.reference_empirical_averages(spec, report)
    )
