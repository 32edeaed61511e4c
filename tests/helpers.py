"""Shared fixtures-as-functions: canonical contexts, payoff specs, and the
seeded random-context generator used by property and acceptance tests."""

import warnings

import numpy as np

import qlgame as ql
from qlgame.hilbert import NORM_TOL, HilbertError
from qlgame.probability import PROB_TOL, _frozen, _labels

D1_RAW = {
    "marginal_a": [1 / 3, 2 / 3],
    "marginal_b": [0.5, 0.5],
    "trans_b_given_a": [[0.75, 0.25], [0.25, 0.75]],
    "trans_a_given_b": [[0.75, 0.25], [0.25, 0.75]],
}

HYPERBOLIC_RAW = {
    "marginal_a": [0.5, 0.5],
    "marginal_b": [0.9, 0.1],
    "trans_b_given_a": [[0.9, 0.1], [0.1, 0.9]],
    "trans_a_given_b": [[0.9, 0.1], [0.1, 0.9]],
}

MATCH = ql.PayoffMatrix([[1.0, -1.0], [-1.0, 1.0]])
MIRROR = ql.PayoffMatrix([[-1.0, 1.0], [1.0, -1.0]])


def d1_context() -> ql.ContextData:
    return ql.validate_context_data(D1_RAW)


def uniform_context() -> ql.ContextData:
    half = ql.TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    return ql.ContextData(
        ql.uniform_distribution(), ql.uniform_distribution(), half, half
    )


def hyperbolic_context() -> ql.ContextData:
    return ql.validate_context_data(HYPERBOLIC_RAW)


def symmetric_context(p: float, q: float, r: float) -> ql.ContextData:
    """Context with marginals (p, 1-p), (r, 1-r) and the symmetric doubly
    stochastic transition matrix [[q, 1-q], [1-q, q]] both ways (exact R1)."""
    t = ql.TransitionMatrix([[q, 1.0 - q], [1.0 - q, q]])
    return ql.ContextData(
        ql.Distribution([p, 1.0 - p]), ql.Distribution([r, 1.0 - r]), t, t
    )


def b_marginal_for_lambda(p: float, q: float, lam: float) -> float:
    """p_b(F) that gives ``symmetric_context(p, q, .)`` the first
    interference coefficient ``lam``: pq + (1-p)(1-q) + 2 lam sqrt(pq(1-p)(1-q))."""
    return p * q + (1.0 - p) * (1.0 - q) + 2.0 * lam * np.sqrt(p * q * (1.0 - p) * (1.0 - q))


def random_trig_context(rng: np.random.Generator, min_prob: float = 0.02) -> ql.ContextData:
    """Rejection-sample a strictly positive, symmetrically conditioned
    context whose interference coefficients stay in [-1, 1]."""
    while True:
        p = rng.uniform(min_prob, 1.0 - min_prob)
        q = rng.uniform(min_prob, 1.0 - min_prob)
        r = rng.uniform(min_prob, 1.0 - min_prob)
        ctx = symmetric_context(p, q, r)
        if ql.classify_context(ql.interference_coefficients(ctx)) == ql.TRIGONOMETRIC:
            return ctx


def zero_sum_spec(players=("alice", "bob")) -> ql.GameSpec:
    """Matching-pennies style two-part game: tester gains on a correct
    answer; part 2 swaps roles with mirrored payoffs."""
    first, second = players
    return ql.GameSpec(
        players=players,
        parts=(
            ql.GamePart(first, second, {second: MATCH, first: MIRROR}),
            ql.GamePart(second, first, {second: MIRROR, first: MATCH}),
        ),
        zero_sum=True,
    )


def random_zero_sum_symmetric_spec(rng: np.random.Generator, players=("alice", "bob")) -> ql.GameSpec:
    """Zero-sum game whose part-2 payoffs mirror part 1 cell by cell."""
    h = rng.uniform(-2.0, 2.0, size=(2, 2))
    tester1 = ql.PayoffMatrix(h)
    first, second = players
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ql.PayoffConventionWarning)
        return ql.GameSpec(
            players=players,
            parts=(
                ql.GamePart(first, second, {second: tester1, first: ql.PayoffMatrix(-h)}),
                ql.GamePart(second, first, {second: ql.PayoffMatrix(-h), first: tester1}),
            ),
            zero_sum=True,
        )


def spin_context(theta_i: float, theta_j: float) -> ql.ContextData:
    t = ql.spin_transition_matrix(theta_i, theta_j)
    return ql.ContextData(
        ql.uniform_distribution(), ql.uniform_distribution(), t, t
    )


def spin_pair_contexts(theta_a: float, theta_b: float, theta_c: float, names=("a", "b", "c")):
    na, nb, nc = names
    return {
        (na, nb): spin_context(theta_a, theta_b),
        (nb, nc): spin_context(theta_b, theta_c),
        (nc, na): spin_context(theta_c, theta_a),
    }


def three_player_spin_spec(names=("alice", "bob", "cecilia")) -> ql.GameSpec:
    na, nb, nc = names
    return ql.GameSpec(
        players=names,
        parts=(
            ql.GamePart(na, nb, {nb: MATCH, na: MIRROR}),
            ql.GamePart(nb, nc, {nc: MATCH, nb: MIRROR}),
            ql.GamePart(nc, na, {na: MATCH, nc: MIRROR}),
        ),
        zero_sum=True,
    )


def feasibility_interval_oracle(system: ql.PairwiseSystem, tol: float = 1e-9) -> bool:
    """Independent feasibility decision for dichotomous three-observable
    systems: a joint over the 8 sign atoms exists iff the admissible range
    for the triple moment is nonempty.  Enumerates all 8 sign constraints
    directly; shares nothing with the simplex path."""
    ma = float(system.marginal_a.probs[0] - system.marginal_a.probs[1])
    mb = float(system.marginal_b.probs[0] - system.marginal_b.probs[1])
    mc = float(system.marginal_c.probs[0] - system.marginal_c.probs[1])
    cab = ql.covariance(system.joint_ab)
    cbc = ql.covariance(system.joint_bc)
    cca = ql.covariance(system.joint_ca)
    lo, hi = -np.inf, np.inf
    for x in (1, -1):
        for y in (1, -1):
            for z in (1, -1):
                base = 1.0 + ma * x + mb * y + mc * z + cab * x * y + cbc * y * z + cca * z * x
                if x * y * z > 0:
                    lo = max(lo, -base)
                else:
                    hi = min(hi, base)
    return lo <= hi + tol


def reference_indices(outcomes, alphabet) -> list[int]:
    """Label-at-a-time positions of ``outcomes`` in ``alphabet``, refusing
    the first unknown label as the frequency layer does."""
    lookup = {label: k for k, label in enumerate(alphabet)}
    idx = []
    for label in outcomes:
        if label not in lookup:
            raise ql.ValidationError(f"outcome {label!r} not in alphabet {alphabet}")
        idx.append(lookup[label])
    return idx


def reference_running(outcomes, alphabet) -> list[list[float]]:
    """Running frequencies one trial at a time: row N-1 after N trials."""
    counts = [0.0] * len(alphabet)
    rows = []
    for n, k in enumerate(reference_indices(outcomes, alphabet), start=1):
        counts[k] += 1.0
        rows.append([c / n for c in counts])
    if not rows:
        raise ql.ValidationError("empty sequence")
    return rows


def reference_estimate(outcomes, alphabet) -> list[float]:
    if not outcomes:
        raise ql.ValidationError("empty sequence")
    return reference_running(outcomes, alphabet)[-1]


def reference_stabilization(outcomes, window_fraction, tol, alphabet):
    """(final frequencies, largest tail oscillation, stabilized) from the
    full running table, with the refusals of ``stabilization_report``."""
    if not 0.0 < window_fraction <= 1.0:
        raise ql.ValidationError("window_fraction must lie in (0, 1]")
    n = len(outcomes)
    if n < 2.0 / window_fraction:
        raise ql.ValidationError(
            f"sequence of length {n} too short for window fraction {window_fraction}"
        )
    rows = reference_running(outcomes, alphabet)
    final = rows[-1]
    tail = rows[n - int(n * window_fraction):]
    oscillation = max(abs(v - f) for row in tail for v, f in zip(row, final))
    return final, oscillation, oscillation <= tol


def reference_probability_table(values, alphabet, ndim, noun, sum_axis=None):
    """The table check that locates every fault up front: shape, then the
    first entry outside [0, 1], then the first sum more than PROB_TOL from 1."""
    labels = _labels(alphabet)
    arr = _frozen(values)
    shape = (len(labels),) * ndim
    if arr.shape != shape:
        raise ql.ValidationError(
            f"expected {'x'.join(map(str, shape))} {noun}, got shape {arr.shape}"
        )
    outside = ~((arr >= -PROB_TOL) & (arr <= 1.0 + PROB_TOL))
    if outside.any():
        raise ql.ValidationError(f"{noun} must lie in [0, 1], got {arr[outside][0]:.12g}")
    sums = np.ravel(arr.sum(axis=sum_axis))
    off = np.flatnonzero(np.abs(sums - 1.0) > PROB_TOL)
    if off.size:
        what = f"{noun} sum to" if sum_axis is None else f"{noun} row {off[0]} sums to"
        total = float(sums[off[0]])
        raise ql.ValidationError(
            f"{what} {total:.12g}: sum - 1 = {total - 1.0:.3g}, beyond PROB_TOL = {PROB_TOL:g}"
        )
    return arr, labels


def reference_born_probability(state, basis_vector, length=np.linalg.norm):
    """Born probability checked one argument at a time: shape, finiteness,
    then ``length`` (numpy's norm, whose overflow warnings are silenced)
    within NORM_TOL of 1, then the dimension, then ``|sum(v * conj(w))|^2``."""

    def unit(v, what):
        arr = np.asarray(v, dtype=complex)
        if arr.ndim != 1:
            raise HilbertError(f"expected a vector, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise HilbertError("vector entries must be finite")
        with np.errstate(all="ignore"):
            size = float(length(arr))
        if not abs(size - 1.0) <= NORM_TOL:
            raise HilbertError(f"{what} has norm {size:.12g}, expected 1")
        return arr

    state = unit(state, "state")
    basis_vector = unit(basis_vector, "basis vector")
    if state.shape != basis_vector.shape:
        raise HilbertError(f"dimension mismatch: {state.size} vs {basis_vector.size}")
    return abs(complex(np.sum(state * np.conj(basis_vector)))) ** 2
