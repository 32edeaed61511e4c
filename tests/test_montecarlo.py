import json
import math
import warnings

import numpy as np
import pytest

import qlgame as ql
import helpers
from qlgame.game import part_statistics
from qlgame.montecarlo import report_to_json


def test_sample_outcome_deterministic_generators():
    rng = ql.stream_rng(1, "t")
    always_f = ql.GeneratorSpec(ql.Distribution([1.0, 0.0]), "g_a")
    assert ql.sample_outcomes(always_f, 20, rng).outcomes == ("F",) * 20
    always_i = ql.GeneratorSpec(ql.Distribution([0.0, 1.0]), "g_a")
    assert ql.sample_outcomes(always_i, 20, rng).outcomes == ("I",) * 20


# (probabilities, alphabet, stream, seed, n) -> per-label counts and the
# first 32 labels, recorded before sequences were stored as code arrays.
SAMPLE_PINS = [
    (([0.5, 0.5], ("F", "I"), "fair-coin", 2024, 1000),
     [524, 476], "IFFIFFFIFIIFFIFFIIIIIFFIIIFIFIFF"),
    (([0.3, 0.7], ("F", "I"), "biased", 99, 5000),
     [1499, 3501], "IFIIIIFIIIIIIIIIIIIIFIIIIIFIIIFF"),
    (([0.2, 0.5, 0.3], ("x", "y", "z"), "three", 7, 3000),
     [635, 1469, 896], "yyzxyxxyxyzxyzyyxxyzxyxxxzzyzxzy"),
]


@pytest.mark.parametrize("case, counts, head", SAMPLE_PINS)
def test_sample_outcomes_pinned_labels(case, counts, head):
    probs, alphabet, stream, seed, n = case
    gen = ql.GeneratorSpec(ql.Distribution(probs, alphabet), stream)
    seq = ql.sample_outcomes(gen, n, ql.stream_rng(seed, stream))
    assert seq.context_tag == stream and len(seq) == n
    assert [seq.outcomes.count(label) for label in alphabet] == counts
    assert "".join(seq.outcomes[:32]) == head


def test_sample_outcome_fair_coin_bound():
    gen = ql.GeneratorSpec(ql.uniform_distribution(), "g_b")
    seq = ql.sample_outcomes(gen, 10**6, ql.stream_rng(42, gen.stream_id))
    freq = ql.estimate_frequencies(seq)
    assert abs(freq.probs[0] - 0.5) <= 0.002  # 4 sigma at N = 1e6


def test_stream_rng_distinct_streams():
    a = ql.stream_rng(5, "alpha").random(8)
    b = ql.stream_rng(5, "beta").random(8)
    a2 = ql.stream_rng(5, "alpha").random(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, a2)


def test_stream_rng_rejects_negative_seed():
    with pytest.raises(ql.ValidationError, match="seed"):
        ql.stream_rng(-1, "alpha")


def test_simulate_game_single_trial(d1):
    report = ql.simulate_game(helpers.zero_sum_spec(), d1, trials=1, seed=9)
    for counts in report.part_counts:
        assert counts.sum() == 1
    for joint in report.empirical_joints:
        assert joint.entries.sum() == pytest.approx(1.0, abs=1e-15)


def test_simulate_game_deterministic_context():
    ident = ql.TransitionMatrix([[1.0, 0.0], [0.0, 1.0]])
    sure_f = ql.Distribution([1.0, 0.0])
    ctx = ql.ContextData(sure_f, sure_f, ident, ident)
    report = ql.simulate_game(helpers.zero_sum_spec(), ctx, trials=500, seed=3)
    assert report.max_deviation == 0.0
    assert report.part_counts[0][0, 0] == 500


@pytest.mark.parametrize("seed", [7, 19, 37, 53, 71])
def test_simulate_game_convergence(d1, seed):
    # payoff range 2 (entries in [-1, 1]): max deviation <= 4 * 2 / sqrt(N)
    spec = helpers.zero_sum_spec()
    report = ql.simulate_game(spec, d1, trials=10**6, seed=seed)
    assert abs(report.empirical_averages.totals["bob"]) <= 0.005
    assert report.max_deviation <= 4.0 * 2.0 * math.sqrt(1.0 / 10**6)


def test_simulate_game_counts_sum_to_trials(d1, rng):
    trials = int(rng.integers(10, 5000))
    report = ql.simulate_game(helpers.zero_sum_spec(), d1, trials=trials, seed=11)
    for counts in report.part_counts:
        assert counts.sum() == trials


def test_simulate_game_bit_identical(d1):
    spec = helpers.zero_sum_spec()
    first = ql.simulate_game(spec, d1, trials=20000, seed=123)
    second = ql.simulate_game(spec, d1, trials=20000, seed=123)
    assert json.dumps(report_to_json(first)) == json.dumps(report_to_json(second))


def test_simulate_game_partitioned_determinism(d1):
    spec = helpers.zero_sum_spec()
    first = ql.simulate_game(spec, d1, trials=20000, seed=123, partitions=4)
    second = ql.simulate_game(spec, d1, trials=20000, seed=123, partitions=4)
    assert json.dumps(report_to_json(first)) == json.dumps(report_to_json(second))
    for counts in first.part_counts:
        assert counts.sum() == 20000


def test_simulate_game_three_player_covariances():
    thetas = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0)
    contexts = helpers.spin_pair_contexts(*thetas, names=("alice", "bob", "cecilia"))
    spec = helpers.three_player_spin_spec()
    report = ql.simulate_game(spec, contexts, trials=10**6, seed=31)
    covs = [ql.covariance(joint) for joint in report.empirical_joints]
    for cov, expected in zip(covs, (-0.5, 0.5, 0.5)):
        assert abs(cov - expected) <= 0.005


def test_simulate_game_missing_context(d1):
    spec = helpers.three_player_spin_spec()
    with pytest.raises(ql.ValidationError, match="no transition data"):
        ql.simulate_game(spec, {("alice", "bob"): d1}, trials=10, seed=1)


def test_simulate_game_refuses_parts_in_order(d1):
    # part 1 pays a wrong-shaped matrix and part 2 has no context: part 1 is refused first
    spec = ql.GameSpec(
        ("alice", "bob", "cecilia"),
        (
            ql.GamePart("alice", "bob", {"bob": ql.PayoffMatrix(np.zeros((3, 3)))}),
            ql.GamePart("bob", "cecilia", {"cecilia": helpers.MATCH}),
        ),
    )
    with pytest.raises(ql.ValidationError) as info:
        ql.simulate_game(spec, {("alice", "bob"): d1}, trials=10, seed=1)
    assert str(info.value) == "payoff shape (3, 3) does not match joint (2, 2)"


def test_simulate_game_looks_up_each_part_once(monkeypatch):
    contexts = helpers.spin_pair_contexts(0.0, 1.0, 2.0, names=("alice", "bob", "cecilia"))
    spec = helpers.three_player_spin_spec()
    calls = []

    def counted(part, pair_contexts):
        calls.append((part.chooser, part.tester))
        return part_statistics(part, pair_contexts)

    for module in (ql.game, ql.montecarlo):
        monkeypatch.setattr(module, "part_statistics", counted)
    ql.simulate_game(spec, contexts, trials=100, seed=1)
    assert calls == [(part.chooser, part.tester) for part in spec.parts]


def test_frequency_agreement_with_generator(d1):
    gen = ql.GeneratorSpec(d1.marginal_a, "chooser")
    n = 10**6
    seq = ql.sample_outcomes(gen, n, ql.stream_rng(17, gen.stream_id))
    freq = ql.estimate_frequencies(seq)
    for k in range(2):
        p = d1.marginal_a.probs[k]
        assert abs(freq.probs[k] - p) <= 4.0 * math.sqrt(p * (1 - p) / n)


def test_simulate_multidim_matches_analytic(rng):
    a4 = helpers.random_orthonormal_basis(4, rng)
    b4 = helpers.random_orthonormal_basis(4, rng)
    psi = helpers.random_unit_vector(4, rng)
    h1 = rng.uniform(-1.0, 1.0, size=(4, 4))
    h2 = rng.uniform(-1.0, 1.0, size=(4, 4))
    report = ql.simulate_multidim(psi, a4, b4, h1, h2, trials=10**6, seed=5)
    analytic = ql.multidim_average(psi, a4, b4, h1, h2)
    assert report.analytic_averages.totals["b"] == pytest.approx(analytic, abs=1e-12)
    assert abs(report.empirical_averages.totals["b"] - analytic) <= 0.01


def test_simulate_multidim_identical_bases_diagonal(rng):
    basis = helpers.random_orthonormal_basis(2, rng)
    psi = helpers.random_unit_vector(2, rng)
    report = ql.simulate_multidim(
        psi, basis, basis, np.eye(2), np.zeros((2, 2)), trials=1000, seed=8
    )
    assert report.empirical_averages.part_averages[0]["b"] == 1.0


def test_simulate_multidim_zero_payoffs(rng):
    basis_a = helpers.random_orthonormal_basis(3, rng)
    basis_b = helpers.random_orthonormal_basis(3, rng)
    psi = helpers.random_unit_vector(3, rng)
    report = ql.simulate_multidim(
        psi, basis_a, basis_b, np.zeros((3, 3)), np.zeros((3, 3)), trials=100, seed=2
    )
    assert report.empirical_averages.totals["b"] == 0.0
    assert report.max_deviation == 0.0


def test_simulate_multidim_rejects_non_unit(rng):
    basis = helpers.random_orthonormal_basis(2, rng)
    with pytest.raises(ql.ValidationError, match="norm"):
        ql.simulate_multidim(
            np.array([1.0, 1.0]), basis, basis, np.eye(2), np.eye(2), trials=10, seed=1
        )


def test_simulate_multidim_raw_payoffs_raise_no_convention_warning(rng):
    a3 = helpers.random_orthonormal_basis(3, rng)
    b3 = helpers.random_orthonormal_basis(3, rng)
    psi = helpers.random_unit_vector(3, rng)
    h1, h2 = rng.uniform(-1.0, 1.0, size=(2, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ql.simulate_multidim(psi, a3, b3, h1, h2, trials=1000, seed=3)


def test_simulate_multidim_rejects_nan_payoff(rng):
    basis = helpers.random_orthonormal_basis(2, rng)
    h = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ql.ValidationError, match="finite"):
        ql.simulate_multidim(
            np.array([1.0, 0.0]), basis, basis, h, np.eye(2), trials=10, seed=1
        )


def test_simulate_multidim_reports_both_players(rng):
    basis = helpers.random_orthonormal_basis(2, rng)
    report = ql.simulate_multidim(
        np.array([1.0, 0.0]), basis, basis, np.eye(2), np.eye(2), trials=10, seed=1
    )
    assert report.part_labels == (("a", "b"), ("b", "a"))
    assert report.empirical_averages.totals["a"] == 0.0
    assert report.empirical_joints[0].alphabet == ("o0", "o1")


def test_report_json_shape(d1):
    report = ql.simulate_game(helpers.zero_sum_spec(), d1, trials=100, seed=1)
    payload = report_to_json(report)
    assert payload["trials"] == 100
    assert len(payload["parts"]) == 2
    assert set(payload["parts"][0]) == {
        "chooser", "tester", "counts", "empirical_joint", "empirical_averages"
    }
    json.dumps(payload)  # serializable


# Count-level sampling: each part's joint counts are drawn from multinomials.

ALMOST_ONE = [1.0 + 5e-13, -5e-13]  # valid at PROB_TOL, refused by raw multinomial


def _refused_by_multinomial(pvals):
    with pytest.raises(ValueError):
        np.random.default_rng(0).multinomial(10, pvals)


def test_simulate_game_tolerance_edge_probabilities():
    _refused_by_multinomial(ALMOST_ONE)
    edge = ql.Distribution(ALMOST_ONE)
    rows = ql.TransitionMatrix([ALMOST_ONE, [0.5, 0.5]])
    ctx = ql.ContextData(edge, ql.uniform_distribution(), rows, rows)
    for partitions in (1, 3):
        report = ql.simulate_game(
            helpers.zero_sum_spec(), ctx, trials=10**5, seed=4, partitions=partitions
        )
        for counts in report.part_counts:
            assert counts.sum() == 10**5
        assert report.part_counts[0][0, 0] == 10**5  # the chooser always says F, then F


def test_simulate_multidim_tolerance_edge_basis():
    # b0 and b1 have squared norm 1 + 1.2e-12, inside NORM_TOL, so the Born
    # rows and columns of the overlap sum past the multinomial's own limit.
    hi, lo = math.sqrt(0.7 + 6e-13), math.sqrt(0.3 + 6e-13)
    b3 = ql.OrthonormalBasis([[hi, lo, 0.0], [-lo, hi, 0.0], [0.0, 0.0, 1.0]])
    a3 = ql.delta_basis(3)
    overlap = np.abs(b3.vectors @ a3.vectors.conj().T) ** 2
    _refused_by_multinomial(overlap[0])
    _refused_by_multinomial(overlap[:, 0])
    psi = np.full(3, 1.0 / math.sqrt(3.0))
    h = np.arange(9.0).reshape(3, 3)
    report = ql.simulate_multidim(psi, a3, b3, h, h, trials=10**5, seed=6, partitions=2)
    for counts in report.part_counts:
        assert counts.sum() == 10**5
        assert counts[:2, 2].sum() == counts[2, :2].sum() == 0


def _assert_cells_within_6_se(counts, table, trials):
    expected = trials * table
    se = np.sqrt(trials * table * (1.0 - table))
    assert np.all(np.abs(counts - expected) <= 6.0 * se), (counts, expected)


@pytest.mark.parametrize("seed", [3, 29, 811])
def test_simulate_game_cells_within_6_se(d1, seed):
    trials = 10**6
    report = ql.simulate_game(helpers.zero_sum_spec(), d1, trials=trials, seed=seed)
    tables = (
        d1.marginal_a.probs[:, None] * d1.trans_b_given_a.rows,
        d1.marginal_b.probs[:, None] * d1.trans_a_given_b.rows,
    )
    for counts, table in zip(report.part_counts, tables):
        _assert_cells_within_6_se(counts, table, trials)


@pytest.mark.parametrize("seed", [3, 29, 811])
def test_simulate_multidim_cells_within_6_se(seed):
    rng = np.random.default_rng(1000 + seed)
    a3 = helpers.random_orthonormal_basis(3, rng)
    b3 = helpers.random_orthonormal_basis(3, rng)
    psi = helpers.random_unit_vector(3, rng)
    trials = 10**6
    report = ql.simulate_multidim(
        psi, a3, b3, np.eye(3), np.eye(3), trials=trials, seed=seed, partitions=4
    )
    a, b = a3.vectors, b3.vectors
    ab = np.abs(a.conj() @ b.T) ** 2  # [j, i] = |<a_j|b_i>|^2
    tables = (
        np.abs(a.conj() @ psi)[:, None] ** 2 * ab,
        np.abs(b.conj() @ psi)[:, None] ** 2 * ab.T,
    )
    for counts, table in zip(report.part_counts, tables):
        _assert_cells_within_6_se(counts, table, trials)


def test_simulate_game_counts_beyond_memory(d1):
    # 1e12 trials would need terabytes as per-trial arrays.
    trials = 10**12
    report = ql.simulate_game(helpers.zero_sum_spec(), d1, trials=trials, seed=12, partitions=3)
    for counts in report.part_counts:
        assert counts.dtype == np.int64
        assert int(counts.sum()) == trials
    assert report.max_deviation < 1e-5


def test_simulate_game_largest_trial_count(d1):
    trials = ql.montecarlo.MAX_TRIALS
    report = ql.simulate_game(helpers.zero_sum_spec(), d1, trials=trials, seed=1)
    for counts in report.part_counts:
        assert int(counts.sum()) == trials


def test_simulate_reports_repeat_per_partition_count(d1):
    spec = helpers.zero_sum_spec()

    def text(partitions):
        report = ql.simulate_game(spec, d1, trials=10**6, seed=77, partitions=partitions)
        return json.dumps(report_to_json(report))

    assert text(1) == text(1)
    assert text(5) == text(5)
    assert text(1) != text(5)


@pytest.mark.parametrize(
    "trials, partitions",
    [(10, 10**9), (1, 2), (2**63, 1), (2**70, 3), (10**9, 10**9)],
)
def test_simulation_arguments_bounded(d1, rng, trials, partitions):
    basis = helpers.random_orthonormal_basis(2, rng)
    runs = (
        lambda: ql.simulate_game(
            helpers.zero_sum_spec(), d1, trials=trials, seed=1, partitions=partitions
        ),
        lambda: ql.simulate_multidim(
            np.array([1.0, 0.0]), basis, basis, np.eye(2), np.eye(2),
            trials=trials, seed=1, partitions=partitions,
        ),
    )
    for run in runs:
        with pytest.raises(ql.ValidationError) as info:
            run()
        assert f"trials ({trials})" in str(info.value) or f"partitions ({partitions})" in str(info.value)
        assert str(trials) in str(info.value) and str(partitions) in str(info.value)


def test_partitions_may_equal_trials(d1):
    report = ql.simulate_game(helpers.zero_sum_spec(), d1, trials=7, seed=2, partitions=7)
    for counts in report.part_counts:
        assert counts.sum() == 7


@pytest.mark.parametrize(
    "name, value",
    [
        ("trials", 1e3),
        ("trials", True),
        ("trials", "10"),
        ("partitions", 2.0),
        ("partitions", True),
        ("seed", 1.5),
        ("seed", 1.0),
        ("seed", False),
        ("seed", None),
    ],
)
def test_simulation_refuses_non_integer_arguments(d1, rng, name, value):
    basis = helpers.random_orthonormal_basis(2, rng)
    args = {"trials": 10, "seed": 1, "partitions": 1, name: value}
    runs = (
        lambda: ql.simulate_game(helpers.zero_sum_spec(), d1, **args),
        lambda: ql.simulate_multidim(np.array([1.0, 0.0]), basis, basis, np.eye(2), np.eye(2), **args),
    )
    for run in runs:
        with pytest.raises(ql.ValidationError) as info:
            run()
        assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("name", ["trials", "partitions"])
def test_simulation_refuses_zero_counts(d1, rng, name):
    basis = helpers.random_orthonormal_basis(2, rng)
    args = {"trials": 10, "seed": 1, "partitions": 1, name: 0}
    runs = (
        lambda: ql.simulate_game(helpers.zero_sum_spec(), d1, **args),
        lambda: ql.simulate_multidim(np.array([1.0, 0.0]), basis, basis, np.eye(2), np.eye(2), **args),
    )
    for run in runs:
        with pytest.raises(ql.ValidationError) as info:
            run()
        assert str(info.value) == f"{name} must be at least 1"


def test_simulation_accepts_numpy_integers(d1):
    # the report keeps plain ints, so that it still serialises to JSON
    spec = helpers.zero_sum_spec()
    plain = ql.simulate_game(spec, d1, trials=1000, seed=5, partitions=3)
    typed = ql.simulate_game(
        spec, d1, trials=np.int64(1000), seed=np.uint32(5), partitions=np.int16(3)
    )
    assert json.dumps(report_to_json(typed)) == json.dumps(report_to_json(plain))


@pytest.mark.parametrize(
    "value, message",
    [
        (1.5, "partition must be an integer, got 1.5"),
        (True, "partition must be an integer, got True"),
        (-1, "partition must be a nonnegative integer"),
    ],
    ids=["float", "bool", "negative"],
)
def test_stream_rng_refuses_bad_partitions(value, message):
    with pytest.raises(ql.ValidationError) as info:
        ql.stream_rng(1, "x", value)
    assert str(info.value) == message


def test_stream_rng_accepts_numpy_partitions():
    typed = ql.stream_rng(1, "x", np.int16(1)).random(4)
    assert np.array_equal(typed, ql.stream_rng(1, "x", 1).random(4))
