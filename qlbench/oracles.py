"""Failure accounting and the benchmark's own oracles.

Every oracle here recomputes the expected answer with numpy from the
generated inputs; none of them calls qlgame or compares with a stored
result.  A checker returns a list of problems, empty when the output is
right, so that a test can plant a wrong output and see it rejected.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

ALPHABET = ("F", "I")
SIGNS = np.array([1.0, -1.0])  # F = +1, I = -1, the covariance encoding

ROUND_TRIP_TOL = 1e-10
AVERAGE_TOL = 1e-10
ANTISYMMETRY_TOL = 1e-12
COVARIANCE_TOL = 1e-12
WITNESS_TOL = 1e-9
FEASIBILITY_TOL = 1e-9
OSCILLATION_TOL = 1e-12
Z_BOUND = 6.0  # a seeded estimate outside 6 standard errors is a wrong result
CLI_TOL = 1e-11  # the CLI rounds floats to 12 significant digits


def is_domain_error(exc: BaseException) -> bool:
    """qlgame's refusals are ValueError subclasses defined in the package."""
    return isinstance(exc, ValueError) and type(exc).__module__.startswith("qlgame")


class Ledger:
    """Operations attempted and failed in one pass.

    An operation fails when it raises unexpectedly, returns a wrong result
    or exits with an unexpected code.  Expected refusals count as correct.
    ``problems`` holds wrong results, crashes and CLI contract breaches:
    any of them makes the run incorrect.  A domain error on valid input is
    a failure but not a wrong output, so it is counted in ``errors`` only.
    """

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.errors: Counter = Counter()
        self.problems: list[str] = []
        self._tracer = tracer

    def op(self, refusal: type | None = None) -> "_Op":
        """Context for one operation; ``refusal`` is the exception it must raise."""
        return _Op(self, refusal)

    def judge(self, label: str, problems: list[str]) -> None:
        """Record the checks of an operation that returned normally."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def refuse_valid(self, kind: str) -> None:
        self.failed += 1
        self.errors[kind] += 1

    def merge_repeats(self, repeats: list["Ledger"]) -> None:
        """Count the operations of one of several repeats of the same work:
        the repeat with the most failures.  The counts then depend on the
        inputs alone, not on how many repeats fitted in the run.  The wrong
        results of every repeat are kept."""
        if not repeats:
            return
        worst_repeat = max(repeats, key=lambda r: r.failed)
        self.attempted += worst_repeat.attempted
        self.failed += worst_repeat.failed
        self.refused += worst_repeat.refused
        self.errors.update(worst_repeat.errors)
        for repeat in repeats:
            self.problems.extend(repeat.problems)

    @property
    def correct(self) -> bool:
        return not self.problems


class _Op:
    __slots__ = ("ledger", "refusal")

    def __init__(self, ledger: Ledger, refusal):
        self.ledger = ledger
        self.refusal = refusal

    def __enter__(self):
        ledger = self.ledger
        ledger.attempted += 1
        if ledger._tracer is not None:
            ledger._tracer.op = ledger.attempted
        return self

    def __exit__(self, etype, exc, tb):
        ledger = self.ledger
        if exc is None:
            if self.refusal is not None:
                ledger.judge(f"op {ledger.attempted}", [f"{self.refusal.__name__} not raised"])
            return False
        if not isinstance(exc, Exception):
            return False
        if self.refusal is not None and isinstance(exc, self.refusal):
            ledger.refused += 1
            return True
        ledger.failed += 1
        ledger.errors[type(exc).__name__] += 1
        if not is_domain_error(exc):
            ledger.problems.append(f"op {ledger.attempted}: {type(exc).__name__}: {exc}")
        return True


def worst(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


# --------------------------------------------------------------------------
# analytic


def lambda_magnitude(p: float, q: float, r: float) -> float:
    """|lambda| of the symmetric context with marginals (p, 1-p), (r, 1-r)
    and transitions [[q, 1-q], [1-q, q]]."""
    pred = p * q + (1.0 - p) * (1.0 - q)
    return abs(r - pred) / (2.0 * math.sqrt(p * q * (1.0 - p) * (1.0 - q)))


CONTEXT_KEYS = ("marginal_a", "marginal_b", "trans_b_given_a", "trans_a_given_b")


def context_arrays(raw: dict):
    return tuple(np.asarray(raw[k], float) for k in CONTEXT_KEYS)


def two_player_totals(raw: dict, h: np.ndarray) -> dict:
    """Totals of the mirrored zero-sum game: part 1 has alice choose and bob
    test for ``h``; part 2 has bob choose and bob pay ``h``."""
    pa, pb, tba, tab = context_arrays(raw)
    bob = float(np.sum(h * (pa[:, None] * tba)) - np.sum(h * (pb[:, None] * tab)))
    return {"alice": -bob, "bob": bob}


def check_round_trip(raw: dict, psi, a_vectors, b_vectors) -> list[str]:
    """The Born rule on the representation returns every input probability."""
    pa, pb, tba, _ = context_arrays(raw)
    psi = np.asarray(psi, complex)
    a = np.asarray(a_vectors, complex)
    b = np.asarray(b_vectors, complex)
    problems = []
    if abs(np.linalg.norm(psi) - 1.0) > ROUND_TRIP_TOL:
        problems.append(f"state norm {np.linalg.norm(psi):.17g}")
    err = max(
        worst(np.abs(a.conj() @ psi) ** 2, pa),
        worst(np.abs(b.conj() @ psi) ** 2, pb),
        worst(np.abs(a @ b.conj().T) ** 2, tba),
    )
    if err > ROUND_TRIP_TOL:
        problems.append(f"Born round trip off by {err:.3g}")
    return problems


def check_reconstruction(raw: dict, back) -> list[str]:
    """``back`` is (marginal_a, marginal_b, trans_b_given_a, trans_a_given_b)."""
    err = max(worst(x, y) for x, y in zip(back, context_arrays(raw)))
    return [f"reconstruction off by {err:.3g}"] if err > ROUND_TRIP_TOL else []


def check_antisymmetry(lambdas, tol: float = ANTISYMMETRY_TOL) -> list[str]:
    s = abs(float(lambdas[0]) + float(lambdas[1]))
    return [f"lambda(F) + lambda(I) = {s:.3g}"] if s > tol else []


def check_reversibility(raw: dict, max_discrepancy: float) -> list[str]:
    pa, pb, tba, tab = context_arrays(raw)
    own = worst(pa[:, None] * tba, (pb[:, None] * tab).T)
    if abs(own - max_discrepancy) > COVARIANCE_TOL:
        return [f"reversibility discrepancy {max_discrepancy!r}, expected {own!r}"]
    return []


def check_averages(expected: dict, prob: dict, ql: dict, factored: float, interference: float) -> list[str]:
    """Probabilistic and state-space totals agree with the oracle, and both
    factored forms reproduce the tester's total."""
    problems = []
    for player, value in expected.items():
        if abs(prob[player] - value) > AVERAGE_TOL:
            problems.append(f"probabilistic total {player} {prob[player]!r}, expected {value!r}")
        if abs(ql[player] - value) > AVERAGE_TOL:
            problems.append(f"QL total {player} {ql[player]!r}, expected {value!r}")
    for name, value in (("factored", factored), ("interference", interference)):
        if abs(value - expected["bob"]) > AVERAGE_TOL:
            problems.append(f"{name} average {value!r}, expected {expected['bob']!r}")
    return problems


def multidim_expected(psi, a_vectors, b_vectors, h1, h2) -> float:
    """Two-part tester average written out as the double sum over chooser
    outcome j and answer i."""
    psi = np.asarray(psi, complex)
    a = np.asarray(a_vectors, complex)
    b = np.asarray(b_vectors, complex)
    n = psi.size
    total = 0.0
    for j in range(n):
        for i in range(n):
            overlap = abs(np.vdot(a[j], b[i])) ** 2
            total += h1[j, i] * abs(np.vdot(a[j], psi)) ** 2 * overlap
            total += h2[i, j] * abs(np.vdot(b[i], psi)) ** 2 * overlap
    return float(total)


# --------------------------------------------------------------------------
# classicality


def sign_test(ma, mb, mc, cab, cbc, cca, tol: float = FEASIBILITY_TOL):
    """Joint existence over the 8 sign atoms, vectorised over systems.

    With the +-1 encoding, 8 p(x, y, z) = base(x, y, z) + t x y z for the
    unknown triple moment t; a joint exists iff some t keeps all eight
    atoms nonnegative.
    """
    lo = -np.inf
    hi = np.inf
    for x in (1, -1):
        for y in (1, -1):
            for z in (1, -1):
                base = 1.0 + ma * x + mb * y + mc * z + cab * x * y + cbc * y * z + cca * z * x
                if x * y * z > 0:
                    lo = np.maximum(lo, -base)
                else:
                    hi = np.minimum(hi, base)
    return lo <= hi + tol


def covariance_of(table) -> float:
    return float(SIGNS @ np.asarray(table, float) @ SIGNS)


def grid_angles(step: float) -> np.ndarray:
    count = int(math.ceil(2.0 * math.pi / step - 1e-12))
    return np.arange(count) * step


BELL_COLUMNS = (
    "theta1", "theta2", "theta3",
    "cov_ab", "cov_bc", "cov_ca",
    "lhs", "rhs", "violated", "lp_feasible",
)


def check_bell_rows(rows: list[dict], step: float, tol: float = COVARIANCE_TOL) -> list[str]:
    """Grid rows of uniform-marginal spin systems: the ten named columns,
    every grid triple once, covariances cos(theta_i - theta_j), and
    ``lp_feasible`` equal to the 8-sign test; a violated row is infeasible."""
    if not rows:
        return ["no rows"]
    missing = [c for c in BELL_COLUMNS if c not in rows[0]]
    if missing:
        return [f"missing columns {missing}"]
    cols = {c: np.array([row[c] for row in rows]) for c in BELL_COLUMNS}
    problems = []
    angles = grid_angles(step)
    expected = np.stack(np.meshgrid(angles, angles, angles, indexing="ij"), -1).reshape(-1, 3)
    got = np.stack([cols["theta1"], cols["theta2"], cols["theta3"]], -1).astype(float)
    if got.shape != expected.shape or worst(got, expected) > tol * 10:
        problems.append(f"grid has {len(rows)} rows, expected {len(expected)}")
        return problems
    t1, t2, t3 = expected.T
    cov = np.stack([cols["cov_ab"], cols["cov_bc"], cols["cov_ca"]], -1).astype(float)
    want = np.stack([np.cos(t1 - t2), np.cos(t2 - t3), np.cos(t3 - t1)], -1)
    if worst(cov, want) > tol:
        problems.append(f"covariances off cos(theta_i - theta_j) by {worst(cov, want):.3g}")
    if worst(cols["lhs"].astype(float), np.abs(cov[:, 0] - cov[:, 1])) > tol or worst(
        cols["rhs"].astype(float), 1.0 - cov[:, 2]
    ) > tol:
        problems.append("lhs/rhs do not match the covariances")
    feasible = cols["lp_feasible"].astype(bool)
    own = sign_test(0.0, 0.0, 0.0, cov[:, 0], cov[:, 1], cov[:, 2])
    bad = np.flatnonzero(feasible != own)
    if bad.size:
        problems.append(f"{bad.size} rows disagree with the sign test, first at row {int(bad[0])}")
    violated = cols["violated"].astype(bool)
    if np.any(violated & feasible):
        problems.append(f"{int(np.sum(violated & feasible))} violated rows marked feasible")
    return problems


def system_tables(x: np.ndarray):
    """Marginals and chooser-first pairwise tables of a joint over k^3 atoms
    with axes (a, b, c)."""
    return (
        x.sum(axis=(1, 2)), x.sum(axis=(0, 2)), x.sum(axis=(0, 1)),
        x.sum(axis=2), x.sum(axis=0), x.sum(axis=1).T,
    )


def check_witness(witness, tables) -> list[str]:
    """A feasibility witness is a distribution reproducing the pairwise tables."""
    if witness is None:
        return ["feasible without a witness"]
    w = np.asarray(witness, float)
    problems = []
    if np.min(w) < -WITNESS_TOL:
        problems.append(f"witness entry {np.min(w):.3g} < 0")
    err = max(worst(got, want) for got, want in zip(system_tables(w)[3:], tables[3:]))
    if err > WITNESS_TOL:
        problems.append(f"witness misses the pairwise tables by {err:.3g}")
    return problems


def check_feasibility(tables, feasible: bool, witness, expect: bool) -> list[str]:
    """``expect`` is the known verdict: the 8-sign test for k = 2, or True for
    systems built from a distribution over the atoms."""
    problems = []
    if feasible != expect:
        problems.append(f"lp_feasible {feasible}, expected {expect}")
    if feasible:
        problems.extend(check_witness(witness, tables))
    return problems


def k2_expectation(tables) -> tuple[bool, tuple[float, float, float]]:
    ma, mb, mc, jab, jbc, jca = tables
    covs = (covariance_of(jab), covariance_of(jbc), covariance_of(jca))
    verdict = sign_test(SIGNS @ ma, SIGNS @ mb, SIGNS @ mc, *covs)
    return bool(verdict), covs


# --------------------------------------------------------------------------
# simulation


def part_table(marginal, trans) -> np.ndarray:
    return np.asarray(marginal, float)[:, None] * np.asarray(trans, float)


def check_simulation(doc: dict, trials: int, tables: list, payoffs: list[dict]) -> list[str]:
    """A simulation report (as ``report_to_json`` writes it) against the
    analytic part tables: counts sum to ``trials`` in every part and each
    empirical payoff average lies within Z_BOUND standard errors of the
    analytic one.  ``payoffs[k]`` maps each player to their part-k matrix."""
    problems = []
    if doc["trials"] != trials:
        problems.append(f"trials {doc['trials']}, expected {trials}")
    if len(doc["parts"]) != len(tables):
        return problems + [f"{len(doc['parts'])} parts, expected {len(tables)}"]
    for k, (part, table, pay) in enumerate(zip(doc["parts"], tables, payoffs)):
        counts = np.asarray(part["counts"])
        if counts.shape != table.shape or np.any(counts < 0) or int(counts.sum()) != trials:
            problems.append(f"part {k} counts sum to {int(counts.sum())}, expected {trials}")
            continue
        for player, h in pay.items():
            mean = float(np.sum(h * table))
            var = max(float(np.sum(h * h * table)) - mean * mean, 0.0)
            bound = Z_BOUND * math.sqrt(var / trials) + 1e-12
            emp = part["empirical_averages"][player]
            if abs(emp - mean) > bound:
                problems.append(
                    f"part {k} {player} average {emp!r} is {abs(emp - mean):.3g} from "
                    f"{mean!r}, bound {bound:.3g}"
                )
            if abs(float(np.sum(h * counts)) / trials - emp) > CLI_TOL:
                problems.append(f"part {k} {player} average does not follow from the counts")
    return problems


# --------------------------------------------------------------------------
# sequences


def label_counts(labels, alphabet=ALPHABET) -> np.ndarray:
    if isinstance(labels, np.ndarray):
        return np.array([np.count_nonzero(labels == a) for a in alphabet])
    return np.array([labels.count(a) for a in alphabet])


def check_frequencies(probs, labels, alphabet=ALPHABET) -> list[str]:
    """Frequencies equal the counts divided by N, exactly."""
    want = label_counts(labels, alphabet) / len(labels)
    got = np.asarray(probs, float)
    if got.shape != want.shape or np.any(got != want):
        return [f"frequencies {got.tolist()}, expected {want.tolist()}"]
    return []


def tail_oscillation(labels, window_fraction: float, alphabet=ALPHABET) -> float:
    """Largest distance between the running frequencies over the trailing
    window of prefix lengths and the final frequencies."""
    arr = np.asarray(labels)
    n = arr.size
    running = np.stack(
        [np.cumsum(arr == a) / np.arange(1, n + 1) for a in alphabet], axis=1
    )
    tail = running[n - int(n * window_fraction):]
    return float(np.max(np.abs(tail - running[-1])))


def check_oscillation(got: float, want: float, tol: float = OSCILLATION_TOL) -> list[str]:
    if abs(got - want) > tol:
        return [f"tail oscillation {got!r}, expected {want!r}"]
    return []


def check_draws(labels, probs, alphabet=ALPHABET) -> list[str]:
    """Seeded draws: only alphabet labels, each frequency within Z_BOUND
    standard errors of the generator probability."""
    n = len(labels)
    counts = label_counts(labels, alphabet)
    if int(counts.sum()) != n:
        return [f"{n - int(counts.sum())} labels outside {alphabet}"]
    p = np.asarray(probs, float)
    z = np.abs(counts / n - p) / np.sqrt(np.maximum(p * (1 - p), 1e-300) / n)
    if np.any(z > Z_BOUND):
        return [f"draw frequencies {(counts / n).tolist()} are {float(np.max(z)):.1f} sigma from {p.tolist()}"]
    return []
