"""Shared fixtures-as-functions: canonical contexts, payoff specs, and the
seeded random-context generator used by property and acceptance tests."""

import math
import re
import warnings

import numpy as np

import qlgame as ql
from qlgame.classicality import FEASIBILITY_TOL, _independent_cells, _pairwise_constraints
from qlgame.game import normalize_contexts, part_statistics
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


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_orthonormal_basis(n: int, rng: np.random.Generator) -> ql.OrthonormalBasis:
    """Orthonormalised rows of a complex Gaussian matrix (QR of its transpose)."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ql.OrthonormalBasis(np.linalg.qr(raw.T)[0].T)


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


def game_to_json(spec: ql.GameSpec) -> dict:
    """The game file of ``spec``, the document ``game_from_json`` reads."""
    return {
        "players": list(spec.players),
        "zero_sum": spec.zero_sum,
        "parts": [
            {
                "chooser": part.chooser,
                "tester": part.tester,
                "payoffs": {p: m.entries.tolist() for p, m in part.payoffs.items()},
            }
            for part in spec.parts
        ],
    }


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


def reference_codes(labels) -> tuple[list[int], tuple]:
    """(codes, alphabet) through one dictionary, the alphabet in order of
    first appearance: the coding ``TrialSequence`` keeps for every label."""
    alphabet = tuple(dict.fromkeys(labels))
    lookup = {label: k for k, label in enumerate(alphabet)}
    return [lookup[label] for label in labels], alphabet


# Every boundary ``str.splitlines`` knows, "\r\n" first so that it counts once.
LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def reference_read_lines(text: str) -> list[str]:
    """The labels of a sequence file, one line at a time: each line is
    stripped and blank lines are skipped."""
    labels = []
    for line in LINE_BREAK.split(text):
        label = line.strip()
        if label:
            labels.append(label)
    return labels


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
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ql.ValidationError(f"tol must be finite and nonnegative, got {tol!r}")
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


def reference_pairwise_marginals(marginal_a, marginal_b, marginal_c, joint_ab, joint_bc, joint_ca):
    """The pairwise-system marginal check one joint at a time: refuse the
    first joint (ab, bc, ca order) whose row or column sums are more than
    PROB_TOL from its stated marginals."""
    checks = (
        ("joint_ab", joint_ab, marginal_a, marginal_b),
        ("joint_bc", joint_bc, marginal_b, marginal_c),
        ("joint_ca", joint_ca, marginal_c, marginal_a),
    )
    for name, joint, first, second in checks:
        entries = joint.entries
        d1 = float(np.max(np.abs(entries.sum(axis=1) - first.probs)))
        d2 = float(np.max(np.abs(entries.sum(axis=0) - second.probs)))
        if max(d1, d2) > PROB_TOL:
            raise ql.ValidationError(
                f"{name} marginals disagree with the stated distributions "
                f"by {max(d1, d2):.3g}"
            )


def reference_phase1_simplex(A, b, tol):
    """Phase-1 simplex with Bland's rule, pivoting on numpy scalars one
    element at a time (artificials never re-enter)."""
    m, n = A.shape
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A
    T[:m, n] = b
    T[m, :n] = A.sum(axis=0)
    T[m, n] = b.sum()
    basis = list(range(n, n + m))
    while True:
        enter = -1
        for j in range(n):
            if T[m, j] > tol:
                enter = j
                break
        if enter < 0:
            break
        ratio = np.inf
        leave = -1
        col = T[:m, enter]
        for i in range(m):
            if col[i] > tol:
                r = T[i, n] / col[i]
                if leave < 0 or r < ratio - tol:
                    ratio = r
                    leave = i
                elif r <= ratio + tol and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            break
        pivot_row = T[leave] / T[leave, enter]
        T -= np.outer(T[:, enter], pivot_row)
        T[leave] = pivot_row
        basis[leave] = enter
    if T[m, n] > tol:
        return None
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = T[i, n]
    return x


_SIGNS = np.array([1.0, -1.0])
_X, _Y, _Z = _SIGNS[(np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1].T
_XYZ = _X * _Y * _Z
_MOMENT_SIGNS = np.stack([_X, _Y, _Z, _X * _Y, _Y * _Z, _Z * _X])


def reference_triple_moment_interval(ma, mb, mc, cab, cbc, cca):
    """Sign atoms ``base`` and the triple-moment interval [lo, hi] of six
    moments passed one by one (scalars or arrays that broadcast)."""
    moments = np.stack(np.broadcast_arrays(ma, mb, mc, cab, cbc, cca), axis=-1)
    base = 1.0 + moments @ _MOMENT_SIGNS
    lo = np.max(-base[..., _XYZ > 0], axis=-1)
    hi = np.min(base[..., _XYZ < 0], axis=-1)
    return base, lo, hi


def reference_sign_atom_witness(system):
    """Closed-form k = 2 witness from per-table means and covariances."""
    tables = (system.joint_ab.entries, system.joint_bc.entries, system.joint_ca.entries)
    means = [table.sum(axis=1) @ _SIGNS for table in tables]
    covs = [_SIGNS @ table @ _SIGNS for table in tables]
    base, lo, hi = reference_triple_moment_interval(*means, *covs)
    if lo > hi + FEASIBILITY_TOL:
        return None
    return (base + 0.5 * (lo + hi) * _XYZ) / 8.0


def full_pairwise_constraints(k):
    """All 3 k^2 + 1 rows of the pairwise system over the k^3 atoms, with
    axes (a, b, c): one per cell of the chooser-first joints ab, bc, ca
    (row-major) and the normalization; rank 3(k-1)^2 + 3(k-1) + 1."""
    atoms = np.arange(k**3)
    a, b, c = atoms // k**2, (atoms // k) % k, atoms % k
    rows = [
        (first == u) & (second == v)
        for first, second in ((a, b), (b, c), (c, a))
        for u in range(k)
        for v in range(k)
    ]
    return np.array(rows + [np.ones(k**3, dtype=bool)], dtype=float)


def pairwise_cells(system):
    """The 3 k^2 cells of the chooser-first joints ab, bc, ca, row-major."""
    joints = (system.joint_ab, system.joint_bc, system.joint_ca)
    return np.concatenate([joint.entries.ravel() for joint in joints])


def full_constraint_rhs(system):
    """Right-hand side of :func:`full_pairwise_constraints`."""
    return np.append(pairwise_cells(system), 1.0)


def independent_constraint_rhs(system):
    """Right-hand side of ``_pairwise_constraints``: the independent cells."""
    return pairwise_cells(system)[_independent_cells(len(system.alphabet))]


def reference_joint_feasibility(system):
    """The witness over the k^3 atoms (shape (k, k, k)) or None, from the
    reference kernels: the closed form at k = 2, the reference simplex on
    the independent cells above, each held to FEASIBILITY_TOL on every cell
    and the total."""
    k = len(system.alphabet)
    if k == 2:
        x = reference_sign_atom_witness(system)
    else:
        x = reference_phase1_simplex(
            _pairwise_constraints(k), independent_constraint_rhs(system), FEASIBILITY_TOL
        )
    A, b = full_pairwise_constraints(k), full_constraint_rhs(system)
    if x is not None and (
        np.max(np.abs(A @ x - b)) > FEASIBILITY_TOL or np.min(x) < -FEASIBILITY_TOL
    ):
        x = None
    return None if x is None else x.reshape((k, k, k))


def _reference_game_averages(parts, players) -> ql.GameAverages:
    parts = tuple({p: float(avg.get(p, 0.0)) for p in players} for avg in parts)
    totals = {p: float(sum(avg[p] for avg in parts)) for p in players}
    return ql.GameAverages(parts, totals)


def reference_total_averages(spec, contexts) -> ql.GameAverages:
    """Probabilistic averages part by part: each chooser-first joint table,
    then ``sum h * joint`` for every paid player."""
    pair_contexts = normalize_contexts(spec, contexts)
    parts = []
    for part in spec.parts:
        marginal, trans = part_statistics(part, pair_contexts)
        joint = ql.joint_distribution(marginal, trans, (part.chooser, part.tester))
        parts.append(
            {
                player: float((payoff.entries * joint.entries).sum())
                for player, payoff in part.payoffs.items()
            }
        )
    return _reference_game_averages(parts, spec.players)


def reference_ql_average(rep, spec) -> ql.GameAverages:
    """State-space averages from the Born probability |<psi, e>|^2 of each
    basis vector and the squared inner products of the two bases, written
    out in numpy.  ``np.vdot``, the complex modulus and ``** 2`` each round
    as the library does: ``@`` or ``np.abs`` in their place differ in the
    last bit for about half of all contexts."""
    psi = rep.psi
    born_a, born_b = (
        np.array([abs(complex(np.vdot(e, psi))) ** 2 for e in basis.vectors])
        for basis in (rep.a_basis, rep.b_basis)
    )
    trans = np.abs(rep.a_basis.vectors @ rep.b_basis.vectors.conj().T) ** 2
    first, second = spec.players
    parts = []
    for part in spec.parts:
        if part.chooser == first:
            weights = born_a[:, None] * trans
        else:
            weights = born_b[:, None] * trans.T
        parts.append(
            {
                player: float((payoff.entries * weights).sum())
                for player, payoff in part.payoffs.items()
            }
        )
    return _reference_game_averages(parts, spec.players)


def reference_multidim_average(psi, a_basis, b_basis, h1, h2) -> float:
    """Tester total of the n-dimensional two-part game as the double sum
    ``sum_j sum_i h[j, i] |<psi, e_j>|^2 |<e_i, e_j>|^2`` over raw Born
    weights: chooser basis a and payoffs ``h1`` in part 1, b and ``h2`` in
    part 2."""
    psi = np.asarray(psi, dtype=complex)
    a, b = a_basis.vectors, b_basis.vectors
    born_a = np.abs(a.conj() @ psi) ** 2
    born_b = np.abs(b.conj() @ psi) ** 2
    trans = np.abs(a @ b.conj().T) ** 2
    part1 = (np.asarray(h1) * (born_a[:, None] * trans)).sum()
    part2 = (np.asarray(h2) * (born_b[:, None] * trans.T)).sum()
    return float(part1 + part2)


def reference_empirical_averages(spec, report) -> ql.GameAverages:
    """Simulated averages from the report's joint counts, as relative
    frequencies ``counts / trials`` weighted by each paid player's payoff."""
    parts = []
    for part, counts in zip(spec.parts, report.part_counts):
        freq = counts / report.trials
        parts.append(
            {
                player: float(np.sum(payoff.entries * freq))
                for player, payoff in part.payoffs.items()
            }
        )
    return _reference_game_averages(parts, spec.players)


def reference_csv_line(values) -> str:
    """One ``bell`` CSV line formatted cell by cell: a bool as true/false,
    any other value to 12 significant digits."""
    return ",".join(
        ("true" if v else "false") if isinstance(v, bool) else f"{v:.12g}" for v in values
    ) + "\n"
