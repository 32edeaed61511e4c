import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qlgame as ql
import helpers
from qlgame import probability
from qlgame.probability import PROB_TOL, _probability_table
from qlgame.representation import born_context, born_tables

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_validate_d1(d1):
    assert d1.r1_symmetric
    assert d1.r2_positive
    assert d1.marginal_a.probs[0] == pytest.approx(1 / 3, abs=1e-15)


def test_validate_rejects_bad_row_sum():
    raw = dict(helpers.D1_RAW)
    raw["trans_b_given_a"] = [[0.7, 0.4], [0.25, 0.75]]
    with pytest.raises(ql.ValidationError, match=r"trans_b_given_a.*1\.1"):
        ql.validate_context_data(raw)


def test_validate_rejects_negative_marginal():
    raw = dict(helpers.D1_RAW)
    raw["marginal_a"] = [-0.2, 1.2]
    with pytest.raises(ql.ValidationError, match="marginal_a"):
        ql.validate_context_data(raw)


def test_validate_refuses_integer_beyond_float_range():
    raw = dict(helpers.D1_RAW, marginal_a=[10**400, 0])
    with pytest.raises(
        ql.ValidationError,
        match=r"^marginal_a: not a numeric array \(int too large to convert to float\)$",
    ):
        ql.validate_context_data(raw)


def test_validate_refuses_context_data_object(d1):
    with pytest.raises(ql.ValidationError, match="context data must be a mapping"):
        ql.validate_context_data(d1)


def test_validate_missing_component():
    raw = dict(helpers.D1_RAW)
    del raw["marginal_b"]
    with pytest.raises(ql.ValidationError, match="marginal_b"):
        ql.validate_context_data(raw)


def test_identity_transitions_flag_r2_false():
    raw = dict(helpers.D1_RAW)
    raw["trans_b_given_a"] = [[1.0, 0.0], [0.0, 1.0]]
    raw["trans_a_given_b"] = [[1.0, 0.0], [0.0, 1.0]]
    data = ql.validate_context_data(raw)
    assert data.r1_symmetric
    assert not data.r2_positive


def test_asymmetric_transitions_flag_r1_false():
    raw = dict(helpers.D1_RAW)
    raw["trans_a_given_b"] = [[0.6, 0.4], [0.4, 0.6]]
    data = ql.validate_context_data(raw)
    assert not data.r1_symmetric


def test_joint_distribution_d1(d1):
    joint = ql.joint_distribution(d1.marginal_a, d1.trans_b_given_a)
    assert joint.entries[0, 0] == pytest.approx(1 / 4, abs=1e-15)
    assert joint.entries[0, 1] == pytest.approx(1 / 12, abs=1e-15)
    assert joint.entries[1, 0] == pytest.approx(1 / 6, abs=1e-15)
    assert joint.entries[1, 1] == pytest.approx(1 / 2, abs=1e-15)


def test_joint_distribution_identity_matrix():
    joint = ql.joint_distribution(
        ql.uniform_distribution(), ql.TransitionMatrix([[1.0, 0.0], [0.0, 1.0]])
    )
    assert np.allclose(joint.entries, [[0.5, 0.0], [0.0, 0.5]])


def test_joint_distribution_independence():
    joint = ql.joint_distribution(
        ql.uniform_distribution(), ql.TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    )
    assert np.allclose(joint.entries, 0.25)


def test_check_reversibility_d1(d1):
    report = ql.check_reversibility(d1)
    assert not report.consistent
    assert report.max_discrepancy == pytest.approx(1 / 8, abs=1e-12)


def test_check_reversibility_uniform(uniform_ctx):
    report = ql.check_reversibility(uniform_ctx)
    assert report.consistent
    assert report.max_discrepancy == 0.0


def test_check_reversibility_deterministic_copy():
    ident = ql.TransitionMatrix([[1.0, 0.0], [0.0, 1.0]])
    third = ql.Distribution([1 / 3, 2 / 3])
    data = ql.ContextData(third, third, ident, ident)
    assert ql.check_reversibility(data).consistent


def _table_checks(monkeypatch, call):
    """How many tables ``call()`` checks, and what it returns."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _probability_table(*args, **kwargs)

    monkeypatch.setattr(probability, "_probability_table", counted)
    result = call()
    monkeypatch.undo()
    return len(calls), result


def test_each_table_is_checked_once(monkeypatch):
    """Outside arrays are checked once; tables derived from checked ones are not re-checked."""
    rng = np.random.default_rng(11)
    checks, data = _table_checks(monkeypatch, lambda: ql.validate_context_data(helpers.D1_RAW))
    assert checks == 4
    rep = ql.build_representation(data)
    psi = helpers.random_unit_vector(4, rng)
    a, b = (helpers.random_orthonormal_basis(4, rng) for _ in range(2))
    alphabet = ("w", "x", "y", "z")
    derived = {
        "reversibility": lambda: ql.check_reversibility(data),
        "averages": lambda: ql.total_averages(helpers.zero_sum_spec(), data),
        "reconstruction": lambda: ql.reconstruct_data(rep),
        "born context": lambda: born_context(born_tables(psi, a, b), alphabet),
    }
    results = {}
    for name, call in derived.items():
        checks, results[name] = _table_checks(monkeypatch, call)
        assert checks == 0, name
    report = results["reversibility"]
    tables = [report.joint_ab.entries, report.joint_ba.entries]
    for ctx in (results["reconstruction"], results["born context"]):
        tables += [ctx.marginal_a.probs, ctx.marginal_b.probs,
                   ctx.trans_b_given_a.rows, ctx.trans_a_given_b.rows]
    assert not any(t.flags.writeable for t in tables)
    assert results["born context"].alphabet == alphabet
    assert report.joint_ab.order == ("a", "b") and report.joint_ab.alphabet == data.alphabet


@pytest.mark.parametrize(
    "dimension, alphabet, message",
    [
        (1, ("o0",), "alphabet needs at least 2 outcomes"),
        (3, ("F", "I"), r"expected 2 probabilities, got shape \(3,\)"),
    ],
)
def test_born_context_keeps_its_refusals(dimension, alphabet, message):
    basis = ql.delta_basis(dimension)
    with pytest.raises(ql.ValidationError, match=f"^{message}$"):
        born_context(born_tables(np.eye(dimension)[0], basis, basis), alphabet)


@given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), r=st.floats(0.0, 1.0))
def test_joint_sums_to_one_and_reproduces_first_marginal(p, q, r):
    marginal = ql.Distribution([p, 1.0 - p])
    trans = ql.TransitionMatrix([[q, 1.0 - q], [r, 1.0 - r]])
    joint = ql.joint_distribution(marginal, trans)
    assert joint.entries.tobytes() == (marginal.probs[:, None] * trans.rows).tobytes()
    assert abs(joint.entries.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(joint.entries.sum(axis=1) - marginal.probs)) <= 1e-12


@given(q=st.floats(0.0, 1.0))
def test_r1_implies_doubly_stochastic(q):
    ctx = helpers.symmetric_context(0.4, q, 0.6)
    assert ctx.r1_symmetric
    assert np.abs(ctx.trans_b_given_a.rows.sum(axis=0) - 1.0).max() <= PROB_TOL
    assert np.abs(ctx.trans_a_given_b.rows.sum(axis=0) - 1.0).max() <= PROB_TOL


@given(q=st.floats(0.0, 1.0))
def test_uniform_marginals_with_r1_are_reversible(q):
    ctx = helpers.symmetric_context(0.5, q, 0.5)
    assert ql.check_reversibility(ctx).consistent


def test_context_json_round_trip(d1):
    again = ql.validate_context_data(ql.context_to_json(d1))
    assert np.array_equal(again.marginal_a.probs, d1.marginal_a.probs)
    assert np.array_equal(again.trans_b_given_a.rows, d1.trans_b_given_a.rows)


def test_joint_table_rejects_bad_total():
    with pytest.raises(ql.ValidationError, match="sum"):
        ql.JointTable(("a", "b"), [[0.5, 0.5], [0.5, 0.5]])


# Sums just past PROB_TOL print as 1 at 12 significant digits, so the
# message has to name the deviation itself.
PAST_TOL = [0.7 + 6e-13, 0.3 + 6e-13, 0.0]  # sums to 1 + 1.2e-12


def test_distribution_sum_error_names_deviation():
    with pytest.raises(ql.ValidationError, match=r"sum - 1 = 1\.2e-12, beyond PROB_TOL = 1e-12"):
        ql.Distribution(PAST_TOL, ("x", "y", "z"))


def test_transition_sum_error_names_deviation():
    rows = [PAST_TOL, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ql.ValidationError, match=r"row 0 sums to 1: sum - 1 = 1\.2e-12"):
        ql.TransitionMatrix(rows, ("x", "y", "z"))


def test_joint_sum_error_names_deviation():
    entries = [[0.7 + 6e-13, 0.3 + 6e-13], [0.0, 0.0]]
    with pytest.raises(ql.ValidationError, match=r"sum - 1 = 1\.2e-12, beyond PROB_TOL"):
        ql.JointTable(("a", "b"), entries)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ql.Distribution([-0.2, 1.2]), r"^probabilities must lie in \[0, 1\], got -0\.2$"),
        (
            lambda: ql.TransitionMatrix([[1.5, -0.5], [0.5, 0.5]]),
            r"^transition probabilities must lie in \[0, 1\], got 1\.5$",
        ),
        (
            lambda: ql.JointTable(("a", "b"), [[0.25, 0.25], [0.75, -0.25]]),
            r"^joint probabilities must lie in \[0, 1\], got -0\.25$",
        ),
        (lambda: ql.TransitionMatrix([[np.inf, 0.0], [0.5, 0.5]]), "got inf$"),
        (lambda: ql.JointTable(("a", "b"), [[0.5, 0.5], [0.0, np.nan]]), "got nan$"),
        (lambda: ql.Distribution(["x", 0.5]), "^not a numeric array"),
        (lambda: ql.JointTable(("a", "b"), [[0.5, 0.5], [0.0]]), "^not a numeric array"),
    ],
    ids=["distribution", "transition", "joint", "inf", "nan", "non-numeric", "ragged"],
)
def test_table_errors_name_the_value(build, message):
    with pytest.raises(ql.ValidationError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda d1: ql.ContextData(
            d1.marginal_a, ql.Distribution(d1.marginal_b.probs, ("x", "y")),
            d1.trans_b_given_a, d1.trans_a_given_b),
         "all components must share one outcome alphabet"),
        (lambda d1: ql.joint_distribution(
            d1.marginal_a, ql.TransitionMatrix(d1.trans_b_given_a.rows, ("x", "y"))),
         "marginal and transition matrix use different alphabets"),
    ],
    ids=["context", "joint"],
)
def test_mixed_alphabets_are_refused(d1, build, message):
    with pytest.raises(ql.ValidationError) as info:
        build(d1)
    assert str(info.value) == message


def test_distribution_refuses_repeated_label():
    with pytest.raises(ql.ValidationError, match="outcome label 'F' is repeated"):
        ql.Distribution([0.5, 0.5], ("F", "F"))


def test_transition_refuses_repeated_label():
    with pytest.raises(ql.ValidationError, match="outcome label 'y' is repeated"):
        ql.TransitionMatrix(np.eye(3), ("x", "y", "y"))


def test_joint_refuses_repeated_label():
    with pytest.raises(ql.ValidationError, match="outcome label 'I' is repeated"):
        ql.JointTable(("a", "b"), [[0.25, 0.25], [0.25, 0.25]], ("I", "I"))


@pytest.mark.parametrize("alphabet", [5, None, "FI", [1, 2], [["F"], ["I"]]])
def test_validate_refuses_alphabet_that_is_not_string_labels(alphabet):
    with pytest.raises(ql.ValidationError, match="alphabet must be a list of string labels"):
        ql.validate_context_data(dict(helpers.D1_RAW, alphabet=alphabet))


# entries at, just inside and just outside [-PROB_TOL, 1 + PROB_TOL], and non-finite
EDGE_ENTRIES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, -PROB_TOL, 1.0 + PROB_TOL]),
    st.floats(0.5, 1.5).map(lambda f: -f * PROB_TOL),
    st.floats(0.5, 1.5).map(lambda f: 1.0 + f * PROB_TOL),
)


@st.composite
def probability_tables(draw):
    """A table normalised along its sum axis; then up to two edge entries,
    each possibly balanced by another entry of its sum so the sum holds;
    then possibly one entry shifted by 0.5 to 2 PROB_TOL."""
    n = draw(st.integers(2, 4))
    ndim = draw(st.sampled_from([1, 2]))
    sum_axis = None if ndim == 1 else draw(st.sampled_from([None, 1]))
    if ndim == 1:
        noun = "probabilities"
    else:
        noun = "joint probabilities" if sum_axis is None else "transition probabilities"
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n**ndim, max_size=n**ndim))
    table = np.array(weights).reshape((n,) * ndim)
    table = table / table.sum(axis=sum_axis, keepdims=True)
    # each row of ``groups`` is one sum the check tests (a view into ``table``)
    groups = table.reshape(-1, n) if sum_axis == 1 else table.reshape(1, -1)
    group = st.integers(0, groups.shape[0] - 1)
    position = st.integers(0, groups.shape[1] - 1)
    for g, k, value, balance in draw(
        st.lists(st.tuples(group, position, EDGE_ENTRIES, st.booleans()), max_size=2)
    ):
        old, groups[g, k] = groups[g, k], value
        if balance and math.isfinite(value):
            groups[g, (k + 1) % groups.shape[1]] += old - value
    if draw(st.booleans()):
        sign = draw(st.sampled_from([-1.0, 1.0]))
        groups[draw(group), draw(position)] += sign * draw(st.floats(0.5, 2.0)) * PROB_TOL
    return table, tuple("FIXY"[:n]), ndim, noun, sum_axis


def _table_outcome(check, *args):
    try:
        arr, labels = check(*args)
    except ql.ValidationError as exc:
        return "refused", str(exc)
    return "accepted", arr.dtype, arr.shape, arr.tobytes(), arr.flags.writeable, labels


@settings(max_examples=400, deadline=None)
@given(probability_tables())
@example((np.array([1.0 + PROB_TOL, -PROB_TOL]), ("F", "I"), 1, "probabilities", None))
def test_table_check_matches_reference(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _table_outcome(_probability_table, *case)
        want = _table_outcome(helpers.reference_probability_table, *case)
    assert got == want
