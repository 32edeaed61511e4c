import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qlgame as ql
import helpers
from helpers import feasibility_interval_oracle
from qlgame import classicality
from qlgame.probability import PROB_TOL

VIOLATING_THETAS = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0)


def test_bayes_consistency_d1(d1):
    report = ql.bayes_consistency(d1)
    assert not report.consistent
    assert report.max_discrepancy == pytest.approx(1 / 8, abs=1e-12)
    assert report.r1_symmetric
    assert not report.marginals_uniform
    assert report.theorem_check is True


def test_bayes_consistency_uniform(uniform_ctx):
    report = ql.bayes_consistency(uniform_ctx)
    assert report.consistent
    assert report.marginals_uniform
    assert report.theorem_check is True


def test_bayes_consistency_without_r1():
    # engineered so p_a(x) t(y|x) = p_b(y) t'(x|y) without uniform marginals:
    # t'(x|y) := p_a(x) t(y|x) / p_b(y)
    pa = np.array([0.3, 0.7])
    t = np.array([[0.6, 0.4], [0.2, 0.8]])
    pb = pa @ t
    t_back = (pa[:, None] * t / pb[None, :]).T
    data = ql.ContextData(
        ql.Distribution(pa),
        ql.Distribution(pb),
        ql.TransitionMatrix(t),
        ql.TransitionMatrix(t_back),
    )
    report = ql.bayes_consistency(data)
    assert not report.r1_symmetric
    assert report.consistent
    assert not report.marginals_uniform
    assert report.theorem_check is None


def test_theorem_grid_consistency():
    # under exact R1 with positive transitions: reversible iff uniform
    for p in np.linspace(0.05, 0.5, 10):
        for q in np.linspace(0.05, 0.95, 10):
            report = ql.bayes_consistency(helpers.symmetric_context(p, q, p))
            assert report.theorem_check is True


def test_spin_transition_matrix_cases():
    ident = ql.spin_transition_matrix(0.4, 0.4)
    assert np.allclose(ident.rows, np.eye(2))
    anti = ql.spin_transition_matrix(0.0, math.pi)
    assert np.allclose(anti.rows, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    half = ql.spin_transition_matrix(0.0, math.pi / 2.0)
    assert np.allclose(half.rows, 0.5)


def test_spin_transition_matrix_properties(rng):
    for _ in range(50):
        ti, tj = rng.uniform(0.0, 2.0 * math.pi, size=2)
        m = ql.spin_transition_matrix(ti, tj)
        assert np.abs(m.rows.sum(axis=0) - 1.0).max() <= PROB_TOL
        assert np.allclose(m.rows, m.rows.T)
        assert np.all(m.rows >= 0.0) and np.all(m.rows <= 1.0)


def test_covariance_values(d1):
    perfect = ql.JointTable(("a", "b"), [[0.5, 0.0], [0.0, 0.5]])
    assert ql.covariance(perfect) == 1.0
    uniform = ql.JointTable(("a", "b"), np.full((2, 2), 0.25))
    assert ql.covariance(uniform) == 0.0
    joint = ql.joint_distribution(d1.marginal_a, d1.trans_b_given_a)
    assert ql.covariance(joint) == pytest.approx(0.5, abs=1e-12)


def test_covariance_in_unit_interval(rng):
    for _ in range(100):
        raw = rng.random((2, 2))
        joint = ql.JointTable(("a", "b"), raw / raw.sum())
        assert -1.0 <= ql.covariance(joint) <= 1.0


def test_covariance_ignores_labels(rng):
    for _ in range(100):
        raw = rng.random((2, 2))
        entries = raw / raw.sum()
        values = {
            ql.covariance(ql.JointTable(("a", "b"), entries, alphabet))
            for alphabet in (("F", "I"), ("I", "F"), ("x", "y"))
        }
        assert len(values) == 1


def test_bell_check_violating_triple():
    report = ql.bell_check(ql.spin_system(*VIOLATING_THETAS))
    assert report.cov_ab == pytest.approx(-0.5, abs=1e-12)
    assert report.cov_bc == pytest.approx(0.5, abs=1e-12)
    assert report.cov_ca == pytest.approx(0.5, abs=1e-12)
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.5, abs=1e-12)
    assert report.violated
    assert not report.lp_feasible


def test_bell_check_equal_angles():
    report = ql.bell_check(ql.spin_system(0.0, 0.0, 0.0))
    assert report.cov_ab == report.cov_bc == report.cov_ca == 1.0
    assert report.lhs == 0.0 and report.rhs == 0.0
    assert not report.violated
    assert report.lp_feasible
    witness = report.witness
    assert witness[0, 0, 0] == pytest.approx(0.5, abs=1e-9)
    assert witness[1, 1, 1] == pytest.approx(0.5, abs=1e-9)


def test_bell_check_non_violating_triple():
    report = ql.bell_check(ql.spin_system(0.0, math.pi / 3.0, 2.0 * math.pi / 3.0))
    assert report.cov_ab == pytest.approx(0.5, abs=1e-12)
    assert report.cov_bc == pytest.approx(0.5, abs=1e-12)
    assert report.cov_ca == pytest.approx(-0.5, abs=1e-12)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.5, abs=1e-12)
    assert not report.violated


def test_feasibility_independent_uniform_joints():
    quarter = ql.JointTable(("a", "b"), np.full((2, 2), 0.25))
    system = ql.PairwiseSystem(
        ql.uniform_distribution(),
        ql.uniform_distribution(),
        ql.uniform_distribution(),
        ql.JointTable(("a", "b"), np.full((2, 2), 0.25)),
        ql.JointTable(("b", "c"), np.full((2, 2), 0.25)),
        ql.JointTable(("c", "a"), np.full((2, 2), 0.25)),
    )
    result = ql.joint_feasibility(system)
    assert result.feasible
    _assert_witness_matches(result.witness, system)
    # the triple moment ranges over [-1, 1]; its midpoint 0 is the product joint
    assert np.allclose(result.witness, 1 / 8, atol=1e-15)


def test_feasibility_witness_reproduces_joints():
    system = ql.spin_system(0.3, 1.1, 2.0)
    result = ql.joint_feasibility(system)
    assert result.feasible == feasibility_interval_oracle(system)
    if result.feasible:
        _assert_witness_matches(result.witness, system)


def test_feasibility_infeasible_for_violation():
    assert not ql.joint_feasibility(ql.spin_system(*VIOLATING_THETAS)).feasible


def test_feasibility_rejects_inconsistent_marginals():
    with pytest.raises(ql.ValidationError, match="disagree"):
        ql.PairwiseSystem(
            ql.Distribution([0.7, 0.3]),
            ql.uniform_distribution(),
            ql.uniform_distribution(),
            ql.JointTable(("a", "b"), np.full((2, 2), 0.25)),
            ql.JointTable(("b", "c"), np.full((2, 2), 0.25)),
            ql.JointTable(("c", "a"), np.full((2, 2), 0.25)),
        )


def test_feasibility_matches_interval_oracle_random(rng):
    # random spin triples plus random non-uniform-marginal systems
    for _ in range(200):
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=3)
        system = ql.spin_system(*thetas)
        assert ql.joint_feasibility(system).feasible == feasibility_interval_oracle(system)
    for _ in range(200):
        system = _random_product_system(rng)
        assert ql.joint_feasibility(system).feasible == feasibility_interval_oracle(system)


def _random_product_system(rng) -> ql.PairwiseSystem:
    """Pairwise marginals of an actual random joint over 8 atoms (always
    feasible), or a twisted variant (sometimes infeasible)."""
    atoms = rng.random(8).reshape(2, 2, 2)
    atoms /= atoms.sum()
    return _twisted_system(atoms, rng) if rng.random() < 0.5 else _atom_system(atoms)


def _atom_system(atoms: np.ndarray, alphabet=ql.ALPHABET) -> ql.PairwiseSystem:
    """Marginals and chooser-first pairwise tables of a joint over k^3 atoms."""
    return _system_from_joints(atoms.sum(axis=2), atoms.sum(axis=0), atoms.sum(axis=1).T, alphabet)


def _twisted_system(atoms: np.ndarray, rng, max_shift: float = 0.2) -> ql.PairwiseSystem:
    """Push each pairwise table of ``atoms`` towards its diagonal.  Twisting
    preserves each joint's marginals, so the three joints stay mutually
    consistent even when no common joint exists."""

    def twist(j):
        j = j.copy()
        shift = min(j[0, 1], j[1, 0], rng.uniform(0.0, max_shift))
        j[0, 0] += shift
        j[1, 1] += shift
        j[0, 1] -= shift
        j[1, 0] -= shift
        return j

    return _system_from_joints(
        twist(atoms.sum(axis=2)), twist(atoms.sum(axis=0)), twist(atoms.sum(axis=1).T)
    )


def _system_from_joints(joint_ab, joint_bc, joint_ca, alphabet=ql.ALPHABET) -> ql.PairwiseSystem:
    return ql.PairwiseSystem(
        ql.Distribution(joint_ab.sum(axis=1), alphabet),
        ql.Distribution(joint_bc.sum(axis=1), alphabet),
        ql.Distribution(joint_ca.sum(axis=1), alphabet),
        ql.JointTable(("a", "b"), joint_ab, alphabet),
        ql.JointTable(("b", "c"), joint_bc, alphabet),
        ql.JointTable(("c", "a"), joint_ca, alphabet),
    )


def _constraint_rhs(system: ql.PairwiseSystem) -> np.ndarray:
    return np.concatenate(
        [
            system.joint_ab.entries.ravel(),
            system.joint_bc.entries.ravel(),
            system.joint_ca.entries.ravel(),
            [1.0],
        ]
    )


_CONSTRAINTS = {k: classicality._pairwise_constraints(k) for k in (2, 3)}


def _simplex_feasible(system: ql.PairwiseSystem) -> bool:
    """Verdict of the phase-1 simplex, which joint_feasibility keeps for k > 2."""
    A = _CONSTRAINTS[len(system.alphabet)]
    x = classicality._phase1_simplex(A, _constraint_rhs(system), classicality.FEASIBILITY_TOL)
    return x is not None


def _assert_closed_form_matches_simplex(system: ql.PairwiseSystem) -> bool:
    result = ql.joint_feasibility(system)
    assert result.feasible == _simplex_feasible(system)
    if result.feasible:
        _assert_witness_matches(result.witness, system)
    return result.feasible


def _pulled(joint: np.ndarray, rng) -> np.ndarray:
    """``joint`` plus a zero-total shift whose row and column sums reach up
    to 0.95 PROB_TOL, inside the marginal slack PairwiseSystem admits."""
    shift = rng.uniform(-1.0, 1.0, joint.shape)
    shift -= shift.mean()
    slack = max(np.abs(shift.sum(axis=0)).max(), np.abs(shift.sum(axis=1)).max())
    return joint + shift * (rng.uniform(0.0, 0.95) * PROB_TOL / slack)


def test_closed_form_matches_simplex_dirichlet(rng):
    for _ in range(200):
        system = _atom_system(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
        assert _assert_closed_form_matches_simplex(system)
    # the same joints with their marginals pulled apart by up to ~PROB_TOL:
    # the midpoint witness still reproduces them within FEASIBILITY_TOL
    for _ in range(200):
        atoms = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        exact = (atoms.sum(axis=2), atoms.sum(axis=0), atoms.sum(axis=1).T)
        system = ql.PairwiseSystem(
            *(ql.Distribution(joint.sum(axis=1)) for joint in exact),
            *(
                ql.JointTable(tuple(xy), _pulled(joint, rng))
                for xy, joint in zip(("ab", "bc", "ca"), exact)
            ),
        )
        assert _assert_closed_form_matches_simplex(system)


def test_closed_form_matches_simplex_twisted(rng):
    verdicts = [
        _assert_closed_form_matches_simplex(
            _twisted_system(rng.dirichlet(np.ones(8)).reshape(2, 2, 2), rng, max_shift=0.5)
        )
        for _ in range(300)
    ]
    assert any(verdicts) and not all(verdicts)


def _boundary_spin_system(rng) -> ql.PairwiseSystem:
    """Spin system with theta3 bisected onto the boundary |cov_ab - cov_bc| =
    1 - cov_ca of the correlation inequality, then moved by up to 3e-10."""

    def violated(t1, t2, t3):
        return abs(math.cos(t1 - t2) - math.cos(t2 - t3)) > 1.0 - math.cos(t3 - t1)

    while True:
        t1, t2, lo, hi = rng.uniform(0.0, 2.0 * math.pi, size=4)
        if violated(t1, t2, lo) != violated(t1, t2, hi):
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if violated(t1, t2, mid) == violated(t1, t2, lo):
            lo = mid
        else:
            hi = mid
    return ql.spin_system(t1, t2, lo + rng.uniform(-3e-10, 3e-10))


def test_closed_form_matches_simplex_on_grid(rng):
    # the pi/12 grid puts many points on the boundary lo == hi of the
    # triple-moment interval, where only the tolerance absorbs the rounding;
    # the bisected triples sit up to 3e-10 off it, where the midpoint
    # atoms come closest to -FEASIBILITY_TOL / 16
    for _ in range(500):
        _assert_closed_form_matches_simplex(_boundary_spin_system(rng))
    step = math.pi / 12.0
    angles = [k * step for k in range(24)]
    unif = ql.uniform_distribution()
    joints = {
        (i, j, order): ql.joint_distribution(unif, ql.spin_transition_matrix(ti, tj), order)
        for order in (("a", "b"), ("b", "c"), ("c", "a"))
        for i, ti in enumerate(angles)
        for j, tj in enumerate(angles)
    }
    feasible = 0
    for i1 in range(24):
        for i2 in range(24):
            for i3 in range(24):
                system = ql.PairwiseSystem(
                    unif, unif, unif,
                    joints[i1, i2, ("a", "b")],
                    joints[i2, i3, ("b", "c")],
                    joints[i3, i1, ("c", "a")],
                )
                feasible += _assert_closed_form_matches_simplex(system)
    assert 0 < feasible < 24**3


def test_simplex_matches_linprog_k3(rng):
    optimize = pytest.importorskip("scipy.optimize")
    alphabet = ("F", "I", "S")
    A = _CONSTRAINTS[3]
    verdicts = []
    for n in range(80):
        atoms = rng.dirichlet(np.ones(27)).reshape(3, 3, 3)
        joints = [atoms.sum(axis=2), atoms.sum(axis=0), atoms.sum(axis=1).T]
        if n % 2:
            joints = [_twist(j, rng, 0.3) for j in joints]
        system = _system_from_joints(*joints, alphabet)
        result = ql.joint_feasibility(system)
        reference = optimize.linprog(
            np.zeros(27), A_eq=A, b_eq=_constraint_rhs(system), bounds=(0, None), method="highs"
        )
        assert reference.status in (0, 2)  # solved or infeasible
        assert result.feasible == (reference.status == 0)
        if result.feasible:
            _assert_witness_matches(result.witness, system)
        verdicts.append(result.feasible)
    assert any(verdicts) and not all(verdicts)


def test_feasibility_three_outcome_alphabet(rng):
    # same interface for larger alphabets: 27 atoms, marginals of a real joint
    alphabet = ("F", "I", "S")
    atoms = rng.random((3, 3, 3))
    atoms /= atoms.sum()
    system = ql.PairwiseSystem(
        ql.Distribution(atoms.sum(axis=(1, 2)), alphabet),
        ql.Distribution(atoms.sum(axis=(0, 2)), alphabet),
        ql.Distribution(atoms.sum(axis=(0, 1)), alphabet),
        ql.JointTable(("a", "b"), atoms.sum(axis=2), alphabet),
        ql.JointTable(("b", "c"), atoms.sum(axis=0), alphabet),
        ql.JointTable(("c", "a"), atoms.sum(axis=1).T, alphabet),
    )
    result = ql.joint_feasibility(system)
    assert result.feasible
    assert result.witness.shape == (3, 3, 3)
    assert np.max(np.abs(result.witness.sum(axis=2) - system.joint_ab.entries)) < 1e-9


def _assert_witness_matches(witness, system):
    assert witness is not None
    assert np.all(witness >= -1e-9)
    assert np.max(np.abs(witness.sum(axis=2) - system.joint_ab.entries)) < 1e-9
    assert np.max(np.abs(witness.sum(axis=0) - system.joint_bc.entries)) < 1e-9
    assert np.max(np.abs(witness.sum(axis=1).T - system.joint_ca.entries)) < 1e-9


def test_grid_scan_small_step_agreement():
    # coarse grid: Bell violation always implies infeasibility, and
    # infeasibility is exactly characterized by the cyclic inequalities
    # plus the negative-correlation-sum bound
    rows = list(ql.bell_scan(math.pi / 2.0))
    assert len(rows) == 64
    for row in rows:
        cab, cbc, cca = row["cov_ab"], row["cov_bc"], row["cov_ca"]
        if row["violated"]:
            assert not row["lp_feasible"]
        cyclic = (
            abs(cab - cbc) > 1.0 - cca + 1e-12
            or abs(cbc - cca) > 1.0 - cab + 1e-12
            or abs(cca - cab) > 1.0 - cbc + 1e-12
        )
        sum_bound = cab + cbc + cca < -1.0 - 1e-12
        assert (not row["lp_feasible"]) == (cyclic or sum_bound)


def test_bell_scan_matches_bell_check_bitwise():
    def bits(row):
        return {k: (type(v), v.hex() if isinstance(v, float) else v) for k, v in row.items()}

    rows = list(ql.bell_scan(math.pi / 4.0))
    assert len(rows) == 8**3
    for row in rows:
        t1, t2, t3 = row["theta1"], row["theta2"], row["theta3"]
        report = ql.bell_check(ql.spin_system(t1, t2, t3))
        expected = {
            "theta1": t1, "theta2": t2, "theta3": t3,
            "cov_ab": report.cov_ab, "cov_bc": report.cov_bc, "cov_ca": report.cov_ca,
            "lhs": report.lhs, "rhs": report.rhs,
            "violated": report.violated, "lp_feasible": report.lp_feasible,
        }
        assert bits(row) == bits(expected)


def _bell_gap(t1, t2, t3):
    """lhs - rhs of the correlation inequality for spin angles, whose
    covariances are the cosines of the angle differences."""
    return abs(math.cos(t1 - t2) - math.cos(t2 - t3)) - (1.0 - math.cos(t3 - t1))


def _roots(gap, lo, hi, points=64):
    """Each sign change of ``gap`` on a grid over [lo, hi], bisected down
    to adjacent floats."""
    grid = np.linspace(lo, hi, points + 1).tolist()
    roots = []
    for left, right in zip(grid, grid[1:]):
        side = gap(left) > 0
        if (gap(right) > 0) == side:
            continue
        while left < (mid := 0.5 * (left + right)) < right:
            if (gap(mid) > 0) == side:
                left = mid
            else:
                right = mid
        roots.append(left)
    return roots


NEAR_BOUNDARY = st.floats(-3e-10, 3e-10)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi), st.integers(0, 63),
       NEAR_BOUNDARY)
def test_bell_check_violation_implies_infeasibility_near_the_boundary(t1, t2, pick, offset):
    roots = _roots(lambda t3: _bell_gap(t1, t2, t3), 0.0, 2.0 * math.pi)
    assume(roots)
    report = ql.bell_check(ql.spin_system(t1, t2, roots[pick % len(roots)] + offset))
    assert not (report.violated and report.lp_feasible)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 63), NEAR_BOUNDARY)
def test_bell_scan_violation_implies_infeasibility_near_the_boundary(i2, i3, pick, offset):
    # a step that puts the grid row (0, i2 * step, i3 * step) on the
    # boundary, with at most 12 angles per axis
    roots = _roots(
        lambda s: _bell_gap(0.0, i2 * s, i3 * s), math.pi / 6.0, 2.0 * math.pi / (max(i2, i3) + 1)
    )
    assume(roots)
    for row in ql.bell_scan(roots[pick % len(roots)] + offset):
        assert not (row["violated"] and row["lp_feasible"])


@pytest.mark.parametrize("step", [0.0, -0.5, math.nan, math.inf, 1e-300, 5e-324])
def test_bell_scan_refuses_bad_steps(step):
    with pytest.raises(ql.ValidationError, match="grid step"):
        next(ql.bell_scan(step))


def test_bell_scan_grid_count_limit():
    finest = 2.0 * math.pi / classicality.MAX_GRID_COUNT
    assert classicality._grid_count(finest) == classicality.MAX_GRID_COUNT
    assert next(ql.bell_scan(finest))["theta3"] == 0.0
    with pytest.raises(ql.ValidationError, match="angles per axis"):
        next(ql.bell_scan(2.0 * math.pi / (classicality.MAX_GRID_COUNT + 1)))


@pytest.mark.parametrize("step", [7.0, 1e13])
def test_bell_scan_step_beyond_the_circle_gives_the_one_angle_zero(step):
    assert [row["theta1"] for row in ql.bell_scan(step)] == [0.0]


def test_spin_angles_whose_difference_overflows_are_accepted():
    # 1e308 - (-1e308) overflows, but the half angles subtract to a finite 1e308
    system = ql.spin_system(1e308, -1e308, 0.0)
    assert ql.bell_check(system).cov_ab == pytest.approx(2.0 * math.cos(1e308) ** 2 - 1.0, abs=1e-12)


def _three_outcome_system():
    third = ql.uniform_distribution(("F", "I", "S"))
    return ql.PairwiseSystem(third, third, third, *(
        ql.JointTable(order, np.full((3, 3), 1.0 / 9.0), third.alphabet)
        for order in (("a", "b"), ("b", "c"), ("c", "a"))
    ))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ql.spin_transition_matrix(math.nan, 0.0), "angles must be finite"),
        (lambda: ql.spin_system(0.0, math.inf, 0.0), "angles must be finite"),
        (lambda: ql.covariance(_three_outcome_system().joint_ab),
         "covariance requires a dichotomous joint table"),
        (lambda: ql.bell_check(_three_outcome_system()),
         "covariance requires a dichotomous joint table"),
    ],
    ids=["nan-angle", "inf-angle", "covariance-k3", "bell-check-k3"],
)
def test_classicality_refusal_messages(call, message):
    with pytest.raises(ql.ValidationError) as info:
        call()
    assert str(info.value) == message


def _pairwise_parts(marginal_a=None, marginal_b=None, marginal_c=None, ab=None, bc=None, ca=None):
    """Uniform 2-outcome marginals and quarter joints, with any part replaced."""
    unif = ql.uniform_distribution()
    quarter = np.full((2, 2), 0.25)
    return (
        marginal_a or unif,
        marginal_b or unif,
        marginal_c or unif,
        ql.JointTable(("a", "b"), quarter if ab is None else ab),
        ql.JointTable(("b", "c"), quarter if bc is None else bc),
        ql.JointTable(("c", "a"), quarter if ca is None else ca),
    )


ROWS_OFF = [[0.35, 0.25], [0.15, 0.25]]  # row sums (0.6, 0.4), column sums (0.5, 0.5)
COLUMNS_OFF = [[0.25, 0.35], [0.25, 0.15]]  # row sums (0.5, 0.5), column sums (0.6, 0.4)


@pytest.mark.parametrize(
    "parts, message",
    [
        (_pairwise_parts(ab=ROWS_OFF), "joint_ab marginals disagree with the stated distributions by 0.1"),
        (_pairwise_parts(bc=COLUMNS_OFF), "joint_bc marginals disagree with the stated distributions by 0.1"),
        (_pairwise_parts(ca=ROWS_OFF), "joint_ca marginals disagree with the stated distributions by 0.1"),
        # two joints fail at once: the first in (ab, bc, ca) order is named
        (_pairwise_parts(bc=ROWS_OFF, ca=[[0.45, 0.05], [0.05, 0.45]]),
         "joint_bc marginals disagree with the stated distributions by 0.1"),
        (_pairwise_parts(marginal_c=ql.Distribution([0.8, 0.2])),
         "joint_bc marginals disagree with the stated distributions by 0.3"),
        (_pairwise_parts(marginal_a=ql.Distribution([0.5 + 1.5 * PROB_TOL, 0.5 - 1.5 * PROB_TOL])),
         "joint_ab marginals disagree with the stated distributions by 1.5e-12"),
    ],
    ids=["ab", "bc", "ca", "bc-and-ca", "marginal-c", "past-prob-tol"],
)
def test_pairwise_system_refusal_messages(parts, message):
    with pytest.raises(ql.ValidationError) as info:
        ql.PairwiseSystem(*parts)
    assert str(info.value) == message


def test_pairwise_system_accepts_gap_within_prob_tol():
    gap = 0.5 * PROB_TOL
    system = ql.PairwiseSystem(*_pairwise_parts(marginal_a=ql.Distribution([0.5 + gap, 0.5 - gap])))
    assert ql.joint_feasibility(system).feasible


@pytest.mark.parametrize(
    "parts",
    [
        _pairwise_parts()[:3] + tuple(
            ql.JointTable(order, np.full((2, 2), 0.25), ("X", "Y"))
            for order in (("a", "b"), ("b", "c"), ("c", "a"))
        ),
        _pairwise_parts(marginal_c=ql.uniform_distribution(("F", "I", "S"))),
    ],
    ids=["relabelled-joints", "three-outcome-marginal"],
)
def test_pairwise_system_refuses_mixed_alphabets(parts):
    with pytest.raises(ql.ValidationError, match="^all components must share one outcome alphabet$"):
        ql.PairwiseSystem(*parts)


# Angles on the pi/12 grid put many triples on the boundary of the
# triple-moment interval; arbitrary angles cover the interior.
ANGLES = st.one_of(st.integers(0, 23).map(lambda n: n * math.pi / 12.0), st.floats(0.0, 2.0 * math.pi))
GAP_FACTORS = [0.5, 0.999, 1.001, 1.5, 2.0, 1e6]


def _twist(joint: np.ndarray, rng, max_shift: float) -> np.ndarray:
    """Move mass onto the diagonal of a random 2x2 block of ``joint``,
    which keeps its row and column sums."""
    k = joint.shape[0]
    (r0, r1), (c0, c1) = rng.choice(k, 2, replace=False), rng.choice(k, 2, replace=False)
    shift = min(joint[r0, c1], joint[r1, c0], rng.uniform(0.0, max_shift))
    joint[r0, c0] += shift
    joint[r1, c1] += shift
    joint[r0, c1] -= shift
    joint[r1, c0] -= shift
    return joint


@st.composite
def pairwise_parts(draw):
    """The six parts of a pairwise system: a spin triple, or the pairwise
    tables of Dirichlet atoms over k = 2, 3 or 4 outcomes, some atoms
    zeroed (rank-deficient, degenerate constraints), some tables twisted
    towards infeasibility, and maybe mass of PROB_TOL scale moved within
    one or two marginals."""
    if draw(st.integers(0, 4)) == 0:
        system = ql.spin_system(draw(ANGLES), draw(ANGLES), draw(ANGLES))
        return tuple(getattr(system, name) for name in (
            "marginal_a", "marginal_b", "marginal_c", "joint_ab", "joint_bc", "joint_ca"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([2, 2, 3, 3, 4]))
    alphabet = ("F", "I", "S", "T")[:k]
    atoms = rng.dirichlet(np.ones(k**3))
    if draw(st.booleans()):
        atoms[rng.random(k**3) < draw(st.floats(0.1, 0.9))] = 0.0
        atoms[rng.integers(k**3)] += 1.0 - atoms.sum()  # back to a total of 1
    atoms = atoms.reshape(k, k, k)
    joints = [atoms.sum(axis=2), atoms.sum(axis=0), atoms.sum(axis=1).T]
    if draw(st.booleans()):
        max_shift = draw(st.sampled_from([0.05, 0.2, 0.5]))
        for _ in range(k - 1):
            joints = [_twist(joint, rng, max_shift) for joint in joints]
    marginals = [joint.sum(axis=1) for joint in joints]
    for t in draw(st.lists(st.integers(0, 2), max_size=2)):
        gap = draw(st.sampled_from(GAP_FACTORS)) * PROB_TOL
        source = int(np.argmax(marginals[t]))
        marginals[t][source] -= gap
        marginals[t][(source + 1) % k] += gap
    return (
        *(ql.Distribution(m, alphabet) for m in marginals),
        *(ql.JointTable(order, j, alphabet) for order, j in zip(
            (("a", "b"), ("b", "c"), ("c", "a")), joints)),
    )


def _bits(value):
    return value.tobytes() if isinstance(value, np.ndarray) else value


@settings(max_examples=300, deadline=None)
@given(pairwise_parts())
def test_classicality_matches_reference(parts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            helpers.reference_pairwise_marginals(*parts)
            refusal = None
        except ql.ValidationError as exc:
            refusal = str(exc)
        try:
            system = ql.PairwiseSystem(*parts)
        except ql.ValidationError as exc:
            assert str(exc) == refusal
            return
        assert refusal is None
        want = helpers.reference_joint_feasibility(system)
        result = ql.joint_feasibility(system)
        # bell_check covers two-outcome systems only
        report = ql.bell_check(system) if len(system.alphabet) == 2 else None
    assert result.feasible == (want is not None)
    assert _bits(result.witness) == _bits(want)
    assert result.witness is None or result.witness.shape == want.shape
    if report is not None:
        cov_ab, cov_bc, cov_ca = (float(helpers._SIGNS @ j.entries @ helpers._SIGNS) for j in parts[3:])
        lhs, rhs = abs(cov_ab - cov_bc), 1.0 - cov_ca
        assert (report.cov_ab, report.cov_bc, report.cov_ca, report.lhs, report.rhs) == (
            cov_ab, cov_bc, cov_ca, lhs, rhs)
        assert report.violated == (lhs > rhs and not result.feasible)
        assert report.lp_feasible == result.feasible
        assert _bits(report.witness) == _bits(want)
