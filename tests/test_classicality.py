import math

import numpy as np
import pytest

import qlgame as ql
import helpers
from helpers import feasibility_interval_oracle
from qlgame import classicality

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
        assert m.doubly_stochastic
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


def test_closed_form_matches_simplex_dirichlet(rng):
    for _ in range(200):
        system = _atom_system(rng.dirichlet(np.ones(8)).reshape(2, 2, 2))
        assert _assert_closed_form_matches_simplex(system)


def test_closed_form_matches_simplex_twisted(rng):
    verdicts = [
        _assert_closed_form_matches_simplex(
            _twisted_system(rng.dirichlet(np.ones(8)).reshape(2, 2, 2), rng, max_shift=0.5)
        )
        for _ in range(300)
    ]
    assert any(verdicts) and not all(verdicts)


def test_closed_form_matches_simplex_on_grid():
    # the pi/12 grid puts many points on the boundary lo == hi of the
    # triple-moment interval, where only the tolerance absorbs the rounding
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
            # marginal-preserving twists on a random 2x2 block of each table
            for j in joints:
                (r0, r1), (c0, c1) = rng.choice(3, 2, replace=False), rng.choice(3, 2, replace=False)
                shift = min(j[r0, c1], j[r1, c0], rng.uniform(0.0, 0.3))
                j[r0, c0] += shift
                j[r1, c1] += shift
                j[r0, c1] -= shift
                j[r1, c0] -= shift
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
