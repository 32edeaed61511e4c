"""Tests for the existence of a single classical probability model.

Two observables: the chooser-first joint tables of the two play orders
must agree (the conditional product rule of one probability space), which
under symmetric conditioning forces uniform marginals.  Three observables:
a joint distribution over the 2^3 atoms reproducing all three pairwise
tables must exist; its necessary three-term correlation inequality and the
exact feasibility decision are both provided.  For two outcomes the decision
is closed form (the admissible interval of the triple moment); larger
alphabets solve a small linear feasibility problem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .probability import (
    ALPHABET,
    PROB_TOL,
    ContextData,
    Distribution,
    JointTable,
    TransitionMatrix,
    ValidationError,
    _derived,
    _frozen,
    _one_alphabet,
    check_reversibility,
    joint_distribution,
)

UNIFORM_TOL = 1e-10
FEASIBILITY_TOL = 1e-9
# Finest bell_scan grid: at most 360 angles per axis (a one-degree step),
# 360^3 ~ 4.7e7 points.
MAX_GRID_COUNT = 360


@dataclass(frozen=True)
class BayesConsistencyReport:
    """Reversibility verdict plus the uniform-marginals criterion.

    Under symmetric conditioning with strictly positive transitions, the
    two play orders agree exactly when both marginals are uniform;
    ``theorem_check`` records whether that equivalence held (None when the
    data is not symmetrically conditioned).
    """

    consistent: bool
    max_discrepancy: float
    r1_symmetric: bool
    marginals_uniform: bool
    theorem_check: bool | None


def bayes_consistency(data: ContextData) -> BayesConsistencyReport:
    rev = check_reversibility(data)
    uniform = all(
        abs(m.probs - 1.0 / m.probs.size).max() <= UNIFORM_TOL
        for m in (data.marginal_a, data.marginal_b)
    )
    theorem = (rev.consistent == uniform) if data.r1_symmetric else None
    return BayesConsistencyReport(
        consistent=rev.consistent,
        max_discrepancy=rev.max_discrepancy,
        r1_symmetric=data.r1_symmetric,
        marginals_uniform=uniform,
        theorem_check=theorem,
    )


def spin_transition_matrix(theta_i: float, theta_j: float) -> TransitionMatrix:
    """Two-outcome transition matrix with ``cos^2((theta_i - theta_j) / 2)``
    on the diagonal; symmetric and doubly stochastic by construction."""
    if not (math.isfinite(theta_i) and math.isfinite(theta_j)):
        raise ValidationError("angles must be finite")
    c = math.cos(theta_i / 2.0 - theta_j / 2.0) ** 2
    s = 1.0 - c
    # c and s lie in [0, 1] and sum to 1 within an ulp, so no check is needed
    return _derived(TransitionMatrix, rows=np.array([[c, s], [s, c]]), alphabet=ALPHABET)


def covariance(joint: JointTable) -> float:
    """Product moment with outcome index 0 = +1 and index 1 = -1, i.e.
    ``p(FF) + p(II) - p(FI) - p(IF)``.  Swapping the two values leaves it
    unchanged, so the labels play no part."""
    if len(joint.alphabet) != 2:
        raise ValidationError("covariance requires a dichotomous joint table")
    return float(_SIGNS @ joint.entries @ _SIGNS)


_JOINT_NAMES = ("joint_ab", "joint_bc", "joint_ca")


@dataclass(frozen=True)
class PairwiseSystem:
    """Three marginals plus the three chooser-first pairwise joint tables
    of the cycle (a, b), (b, c), (c, a).  Each joint's marginals must match
    the corresponding distributions."""

    marginal_a: Distribution
    marginal_b: Distribution
    marginal_c: Distribution
    joint_ab: JointTable
    joint_bc: JointTable
    joint_ca: JointTable

    def __post_init__(self):
        marginals = (self.marginal_a, self.marginal_b, self.marginal_c)
        joints = (self.joint_ab, self.joint_bc, self.joint_ca)
        _one_alphabet(marginals + joints)
        entries = np.array([joint.entries for joint in joints])
        # joint t's first observable is marginal t, its second marginal t + 1 (cyclically)
        probs = np.array([m.probs for m in marginals + marginals[:1]])
        gaps = np.maximum(
            np.abs(entries.sum(axis=2) - probs[:3]), np.abs(entries.sum(axis=1) - probs[1:])
        ).max(axis=1)
        if gaps.max() > PROB_TOL:
            t = int(np.argmax(gaps > PROB_TOL))
            raise ValidationError(
                f"{_JOINT_NAMES[t]} marginals disagree with the stated distributions "
                f"by {gaps[t]:.3g}"
            )

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.marginal_a.alphabet

    @functools.cached_property
    def _feasibility(self) -> FeasibilityResult:
        """:func:`joint_feasibility` of this system, decided once; the
        witness is read-only, so every caller sees the same one."""
        k = len(self.alphabet)
        # chooser-first: the rows of joint_ca are indexed by c
        tables = np.array((self.joint_ab.entries, self.joint_bc.entries, self.joint_ca.entries))
        if k == 2:
            means = tables.sum(axis=2) @ _SIGNS  # a, b, c: chooser-first rows
            covs = _SIGNS @ tables @ _SIGNS
            base, lo, hi, feasible = _triple_moment_interval(np.concatenate((means, covs)))
            # lo - hi <= FEASIBILITY_TOL keeps each midpoint atom >= -FEASIBILITY_TOL / 16,
            # and the atoms reproduce the joints up to PairwiseSystem's marginal slack
            x = (base + 0.5 * (lo + hi) * _XYZ) / 8.0 if feasible else None
        else:
            cells = tables.ravel()
            x = _phase1_simplex(
                _pairwise_constraints(k), cells[_independent_cells(k)], FEASIBILITY_TOL
            )
            # the objective bounds the independent rows only: a witness must
            # also reproduce every other cell, and the total, within tolerance
            if x is not None and not (
                np.abs(_cell_constraints(k) @ x - np.append(cells, 1.0)).max() <= FEASIBILITY_TOL
                and x.min() >= -FEASIBILITY_TOL
            ):
                x = None
        if x is None:
            return FeasibilityResult(feasible=False, witness=None)
        x.setflags(write=False)
        return FeasibilityResult(feasible=True, witness=x.reshape((k, k, k)))


def spin_system(theta_a: float, theta_b: float, theta_c: float) -> PairwiseSystem:
    """Pairwise system of three angle-labelled observables with uniform
    marginals and the cos^2-half-angle transitions."""
    t_ab = spin_transition_matrix(theta_a, theta_b)
    t_bc = spin_transition_matrix(theta_b, theta_c)
    t_ca = spin_transition_matrix(theta_c, theta_a)
    # uniform times doubly stochastic rows: each joint's marginals are the
    # uniform ones within an ulp, so neither the marginal nor the system is
    # checked again
    uniform = _derived(Distribution, probs=np.full(2, 0.5), alphabet=ALPHABET)
    return _derived(
        PairwiseSystem,
        marginal_a=uniform,
        marginal_b=uniform,
        marginal_c=uniform,
        joint_ab=joint_distribution(uniform, t_ab, ("a", "b")),
        joint_bc=joint_distribution(uniform, t_bc, ("b", "c")),
        joint_ca=joint_distribution(uniform, t_ca, ("c", "a")),
    )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: np.ndarray | None  # shape (k, k, k), axes ordered (a, b, c); read-only


@dataclass(frozen=True)
class BellReport:
    cov_ab: float
    cov_bc: float
    cov_ca: float
    lhs: float
    rhs: float
    violated: bool
    lp_feasible: bool
    witness: np.ndarray | None


def _phase1_simplex(A: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray | None:
    """Find x >= 0 with A x = b (b >= 0) by minimizing artificial slack.

    Bland's rule on the original columns only (artificials never re-enter),
    so the iteration terminates even on degenerate systems, such as those
    with zero cells or deterministic joints.
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, n] = b
    T[m, :n] = A.sum(axis=0)  # reduced costs after pricing out artificials
    T[m, n] = b.sum()
    basis = list(range(n, n + m))  # artificial i sits in row i
    while True:
        # pivot selection on Python floats: the same comparisons as on the
        # array's float64 values, without a numpy scalar per element
        enter = next((j for j, cost in enumerate(T[m, :n].tolist()) if cost > tol), -1)
        if enter < 0:
            break
        ratio = math.inf
        leave = -1
        for i, (a, rhs) in enumerate(zip(T[:m, enter].tolist(), T[:m, n].tolist())):
            if a > tol:
                r = rhs / a
                if leave < 0 or r < ratio - tol:
                    ratio = r
                    leave = i
                elif r <= ratio + tol and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            break  # objective bounded below by 0, so this is numerically stalled
        pivot_row = T[leave] / T[leave, enter]
        T -= T[:, enter, None] * pivot_row
        T[leave] = pivot_row
        basis[leave] = enter
    if T[m, n] > tol:
        return None
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = T[i, n]
    return x


@functools.cache
def _independent_cells(k: int) -> np.ndarray:
    """Mask over the 3 k^2 pairwise cells (ab, bc, ca, each row-major and
    chooser-first) whose constraints are linearly independent: every ab
    cell, the bc cells with c < k - 1 and the ca cells with c, a < k - 1,
    3(k-1)^2 + 3(k-1) + 1 in all.  Each other cell, and the total, is a
    sum of these up to the marginals the joints share."""
    inner = np.arange(k) < k - 1
    mask = np.concatenate(
        (np.ones(k * k, dtype=bool), np.tile(inner, k), np.outer(inner, inner).ravel())
    )
    mask.setflags(write=False)  # cached, so shared read-only
    return mask


@functools.cache
def _cell_constraints(k: int) -> np.ndarray:
    """Constraint matrix of the whole pairwise system: one row per cell of
    the three joints (its atoms sum over the remaining observable), in the
    order of :func:`_independent_cells`, plus the overall normalization."""
    atoms = np.arange(k**3)
    i_idx, j_idx, l_idx = atoms // k**2, (atoms // k) % k, atoms % k
    rows = [
        (first == u) & (second == v)
        for first, second in ((i_idx, j_idx), (j_idx, l_idx), (l_idx, i_idx))
        for u in range(k)
        for v in range(k)
    ]
    rows.append(np.ones(k**3, dtype=bool))
    return _frozen(rows)  # cached, so shared read-only


@functools.cache
def _pairwise_constraints(k: int) -> np.ndarray:
    """The linearly independent rows of :func:`_cell_constraints`."""
    return _frozen(_cell_constraints(k)[:-1][_independent_cells(k)])  # cached, so shared read-only


# The 8 atoms of a k = 2 joint in the order of ``witness.ravel()``: atom
# 4 i + 2 j + l holds outcome indices (i, j, l) of (a, b, c), and outcome
# index 0 carries the value +1, index 1 the value -1.
_SIGNS = np.array([1.0, -1.0])
_X, _Y, _Z = _SIGNS[(np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1].T
_XYZ = _X * _Y * _Z
_MOMENT_SIGNS = np.stack([_X, _Y, _Z, _X * _Y, _Y * _Z, _Z * _X])


def _triple_moment_interval(moments):
    """Sign atoms of three +-1 observables whose moments ``(E a, E b, E c,
    E ab, E bc, E ca)`` lie along the last axis of ``moments``, and the
    k = 2 feasibility decision.

    Every joint has ``8 p(x, y, z) = base(x, y, z) + t x y z`` with the
    triple moment ``t = E[abc]`` as its one free parameter, so a joint
    exists iff some ``t`` in ``[lo, hi]`` keeps all 8 atoms nonnegative,
    i.e. iff ``lo <= hi`` (Suppes & Zanotti 1981; Fine 1982), decided here
    within ``FEASIBILITY_TOL``.  Leading axes are kept; ``base`` gains a
    trailing axis of 8 atoms.
    """
    base = 1.0 + moments @ _MOMENT_SIGNS
    lo = (-base[..., _XYZ > 0]).max(axis=-1)
    hi = base[..., _XYZ < 0].min(axis=-1)
    return base, lo, hi, lo <= hi + FEASIBILITY_TOL


def joint_feasibility(system: PairwiseSystem) -> FeasibilityResult:
    """Decide whether one distribution over the k^3 atoms reproduces all
    three pairwise joints.  Two outcomes: the closed-form triple-moment
    interval, whose midpoint is the witness; more outcomes: exact linear
    feasibility by the phase-1 simplex on the independent cell constraints,
    whose witness is accepted only if it reproduces every cell within
    ``FEASIBILITY_TOL`` (the atom count is exponential in the number of
    observables, fine for three).  Each system is decided once: later calls, and
    :func:`bell_check`, return the same result, with a read-only witness."""
    return system._feasibility


def bell_check(system: PairwiseSystem) -> BellReport:
    """Three-term correlation inequality |cov(a,b) - cov(b,c)| <= 1 - cov(c,a),
    together with the exact feasibility decision it is necessary for.
    ``violated`` needs lhs > rhs and no joint within FEASIBILITY_TOL, so a
    violation always implies infeasibility."""
    cov_ab = covariance(system.joint_ab)
    cov_bc = covariance(system.joint_bc)
    cov_ca = covariance(system.joint_ca)
    lhs = abs(cov_ab - cov_bc)
    rhs = 1.0 - cov_ca
    feas = joint_feasibility(system)
    return BellReport(
        cov_ab=cov_ab,
        cov_bc=cov_bc,
        cov_ca=cov_ca,
        lhs=lhs,
        rhs=rhs,
        violated=lhs > rhs and not feas.feasible,
        lp_feasible=feas.feasible,
        witness=feas.witness,
    )


def _grid_count(step: float) -> int:
    """Number of angles per axis of the grid ``{0, step, 2*step, ...}`` over
    [0, 2*pi), refusing steps whose grid exceeds ``MAX_GRID_COUNT``."""
    if not (math.isfinite(step) and step > 0):
        raise ValidationError(f"grid step must be positive and finite, got {step!r}")
    span = 2.0 * math.pi / step - 1e-12
    if span > MAX_GRID_COUNT:
        raise ValidationError(
            f"grid step {step!r} gives more than {MAX_GRID_COUNT} angles per axis"
        )
    return max(1, math.ceil(span))


def bell_scan(step: float) -> Iterator[dict]:
    """Bell reports for uniform-marginal spin systems on the angle grid
    ``{0, step, 2*step, ...} ^ 3`` over [0, 2*pi), in the row order and with
    the values of ``bell_check(spin_system(theta1, theta2, theta3))``.

    Evaluated as arrays one theta1 slab at a time, so memory stays
    quadratic in the angle count.
    """
    count = _grid_count(step)
    angles = [k * step for k in range(count)]
    # spin_transition_matrix's diagonal for the ordered pair (theta_i, theta_j)
    c = np.array([[math.cos(ti / 2.0 - tj / 2.0) ** 2 for tj in angles] for ti in angles])
    # covariance() of the joint [[c, s], [s, c]] / 2: the +-1 signs and the
    # halving are exact, which leaves this single rounding
    cov = c - (1.0 - c)
    cov_rows = cov.tolist()
    for i1, t1 in enumerate(angles):
        cov_ab = cov[i1, :, None]  # pair (theta1, theta2), theta2 along axis 0
        cov_ca = cov[:, i1]  # pair (theta3, theta1), theta3 along the last axis
        lhs = np.abs(cov_ab - cov)
        rhs = 1.0 - cov_ca
        # uniform marginals: the row sums of both rows of each joint are
        # the same two numbers, so the means are exactly 0
        moments = np.stack(np.broadcast_arrays(0.0, 0.0, 0.0, cov_ab, cov, cov_ca), axis=-1)
        *_, feasible = _triple_moment_interval(moments)
        violated = (lhs > rhs) & ~feasible
        lhs_rows, rhs_row = lhs.tolist(), rhs.tolist()
        violated_rows, feasible_rows = violated.tolist(), feasible.tolist()
        for i2, t2 in enumerate(angles):
            for i3, t3 in enumerate(angles):
                yield {
                    "theta1": t1,
                    "theta2": t2,
                    "theta3": t3,
                    "cov_ab": cov_rows[i1][i2],
                    "cov_bc": cov_rows[i2][i3],
                    "cov_ca": cov_rows[i3][i1],
                    "lhs": lhs_rows[i2][i3],
                    "rhs": rhs_row[i3],
                    "violated": violated_rows[i2][i3],
                    "lp_feasible": feasible_rows[i2][i3],
                }
