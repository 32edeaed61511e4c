"""Seeded simulation of the games by sequentially applied dichotomous
(or n-ary) random generators.

Every generator owns a private PCG64 stream keyed by (seed, stream id,
partition), so trials can be split across partitions and merged in fixed
order while remaining bit-reproducible for identical (seed, trials,
partition count).  A game report needs only the joint counts of each part,
whose law for i.i.d. trials is multinomial: per partition the chooser's
counts are drawn at once, then the tester's answer counts for each chooser
outcome, so cost and memory do not depend on the number of trials.
Sequences of single outcomes (:func:`sample_outcomes`) are drawn one
uniform variate per trial, inverse-CDF over the fixed outcome order.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .frequency import _BLOCK, TrialSequence, _code_type
from .game import (
    GameAverages,
    GamePart,
    GameSpec,
    PayoffConventionWarning,
    _averages,
    _payoff_matrices,
    normalize_contexts,
    part_statistics,
    total_averages,
)
from .hilbert import OrthonormalBasis
from .probability import (
    Distribution,
    JointTable,
    TransitionMatrix,
    ValidationError,
)
from .representation import born_context, born_tables


@dataclass(frozen=True)
class GeneratorSpec:
    """One random generator: a distribution plus a stream label."""

    distribution: Distribution
    stream_id: str

    def __post_init__(self):
        if not isinstance(self.distribution, Distribution):
            raise ValidationError(f"distribution must be a Distribution, got {self.distribution!r}")
        _stream_id(self.stream_id)


def _stream_id(value) -> None:
    if not isinstance(value, str):
        raise ValidationError(f"stream_id must be a string, got {value!r}")


def _count(value, name: str, least: int) -> int:
    # bool is an Integral, and int() would truncate 1.5 to a different seed
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(
            f"{name} must be at least {least}" if least else f"{name} must be a nonnegative integer"
        )
    return int(value)


def stream_rng(seed: int, stream_id: str, partition: int = 0) -> np.random.Generator:
    """Independent PCG64 stream for (seed, stream id, partition).

    The stream id is hashed (SHA-256) into seed words so that label choice,
    not Python's randomized ``hash``, determines the stream.
    """
    seed = _count(seed, "seed", 0)
    _stream_id(stream_id)
    partition = _count(partition, "partition", 0)
    import hashlib  # imported here: it loads OpenSSL, which only seeding needs

    digest = hashlib.sha256(stream_id.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng([seed, *words, partition])


def _draw_codes(probs: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` inverse-CDF draws over ``probs`` as codes of :func:`_code_type`,
    one block of variates at a time: ``Generator.random`` gives the same
    doubles in pieces as at once."""
    cum = np.cumsum(probs)
    codes = np.empty(n, _code_type(cum.size))
    for start in range(0, n, _BLOCK):
        idx = np.searchsorted(cum, rng.random(min(_BLOCK, n - start)), side="right")
        codes[start:start + _BLOCK] = np.minimum(idx, cum.size - 1, out=idx)
    return codes


def sample_outcomes(gen: GeneratorSpec, n: int, rng: np.random.Generator) -> TrialSequence:
    """Draw ``n`` outcomes as a trial sequence tagged with the stream id, one
    variate per outcome, coded over the distribution's alphabet."""
    n = _count(n, "n", 0)
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be a numpy.random.Generator, got {rng!r}")
    codes = _draw_codes(gen.distribution.probs, rng, n)
    return TrialSequence._from_codes(codes, gen.distribution.alphabet, gen.stream_id)


# Counts are int64: a larger total cannot be drawn or stored.
MAX_TRIALS = 2**63 - 1
# Every partition seeds its own generator streams, ~0.1 ms for a two-part
# game, so the count is capped.
MAX_PARTITIONS = 4096


def _partition_sizes(trials: int, partitions: int) -> list[int]:
    trials = _count(trials, "trials", 1)
    partitions = _count(partitions, "partitions", 1)
    if trials > MAX_TRIALS:
        raise ValidationError(
            f"trials ({trials}) must not exceed 2**63 - 1 = {MAX_TRIALS} "
            f"(partitions {partitions})"
        )
    if partitions > MAX_PARTITIONS:
        raise ValidationError(
            f"partitions ({partitions}) must not exceed {MAX_PARTITIONS} "
            f"(trials {trials})"
        )
    if partitions > trials:
        raise ValidationError(
            f"partitions ({partitions}) must not exceed trials ({trials})"
        )
    base, extra = divmod(trials, partitions)
    return [base + (1 if p < extra else 0) for p in range(partitions)]


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Empirical joint counts and payoff averages against their analytic
    counterparts.  Counts are integers summing to ``trials`` per part."""

    trials: int
    seed: int
    partitions: int
    part_labels: tuple[tuple[str, str], ...]
    part_counts: tuple[np.ndarray, ...]
    empirical_joints: tuple[JointTable, ...]
    empirical_averages: GameAverages
    analytic_averages: GameAverages
    max_deviation: float


def _deviation(empirical: GameAverages, analytic: GameAverages) -> float:
    worst = 0.0
    for emp_part, ana_part in zip(empirical.part_averages, analytic.part_averages):
        for player, value in emp_part.items():
            worst = max(worst, abs(value - ana_part[player]))
    for player, value in empirical.totals.items():
        worst = max(worst, abs(value - analytic.totals[player]))
    return worst


def _pvals(probs: np.ndarray) -> np.ndarray:
    """Clip at 0 and renormalise.  Valid inputs may dip below 0 or sum past
    1 within tolerance (PROB_TOL for distributions, NORM_TOL for the Born
    probabilities of bases), and ``multinomial`` refuses both."""
    clipped = np.clip(probs, 0.0, None)
    return clipped / clipped.sum()


def _simulate_part_counts(
    label: str, marginal: Distribution, trans: TransitionMatrix, seed: int, sizes: list[int]
) -> np.ndarray:
    """Counts[chooser, answer] over all partitions, merged in fixed order.

    Per partition the chooser counts are one multinomial draw on the
    chooser stream; each chooser outcome drawn m > 0 times then gets one
    multinomial draw of m answers on its own conditional answer stream.
    This has the law of the sequential generators applied trial by trial,
    at O(n²) work per partition whatever the partition's size.
    """
    n = len(marginal.alphabet)
    chooser_pvals = _pvals(marginal.probs)
    counts = np.zeros((n, n), dtype=np.int64)
    for partition, size in enumerate(sizes):
        chooser_rng = stream_rng(seed, f"{label}:chooser", partition)
        chosen = chooser_rng.multinomial(size, chooser_pvals)
        for alpha in range(n):
            m = int(chosen[alpha])
            if m == 0:
                continue
            answer_rng = stream_rng(seed, f"{label}:answer|{marginal.alphabet[alpha]}", partition)
            counts[alpha] += answer_rng.multinomial(m, _pvals(trans.rows[alpha]))
    return counts


def simulate_game(
    spec: GameSpec,
    contexts,
    trials: int,
    seed: int,
    partitions: int = 1,
) -> SimulationReport:
    """Play every part ``trials`` times: draw the chooser's outcome from the
    chooser marginal, then the tester's answer from the conditional
    generator selected by that outcome; accumulate payoffs and compare with
    the analytic averages."""
    pair_contexts = normalize_contexts(spec, contexts)
    sizes = _partition_sizes(trials, partitions)
    analytic = total_averages(spec, pair_contexts)
    statistics = [part_statistics(part, pair_contexts) for part in spec.parts]
    part_counts = tuple(
        _simulate_part_counts(f"part{k}:{part.chooser}>{part.tester}", m, t, seed, sizes)
        for k, (part, (m, t)) in enumerate(zip(spec.parts, statistics))
    )
    joints = tuple(
        JointTable((part.chooser, part.tester), counts / trials, marginal.alphabet)
        for part, (marginal, _), counts in zip(spec.parts, statistics, part_counts)
    )
    empirical = _averages(spec, (joint.entries for joint in joints))
    return SimulationReport(
        trials=int(trials),
        seed=int(seed),
        partitions=int(partitions),
        part_labels=tuple((part.chooser, part.tester) for part in spec.parts),
        part_counts=part_counts,
        empirical_joints=joints,
        empirical_averages=empirical,
        analytic_averages=analytic,
        max_deviation=_deviation(empirical, analytic),
    )


def simulate_multidim(
    psi,
    a_basis: OrthonormalBasis,
    b_basis: OrthonormalBasis,
    payoff_part1,
    payoff_part2,
    trials: int,
    seed: int,
    partitions: int = 1,
) -> SimulationReport:
    """Simulate the n-dimensional two-part game of
    :func:`qlgame.game.multidim_average` as the ordinary game over the
    n-letter Born context of the state and bases: player ``a`` chooses and
    ``b`` tests in part 1, the roles reverse in part 2, and only ``b`` is
    paid.  The empirical tester average converges to the analytic double sum."""
    alphabet = tuple(f"o{k}" for k in range(a_basis.dimension))
    context = born_context(born_tables(psi, a_basis, b_basis), alphabet)
    h1, h2 = _payoff_matrices(payoff_part1, payoff_part2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PayoffConventionWarning)
        spec = GameSpec(
            ("a", "b"),
            (GamePart("a", "b", {"b": h1}), GamePart("b", "a", {"b": h2})),
        )
    return simulate_game(spec, context, trials, seed, partitions)


def report_to_json(report: SimulationReport) -> dict:
    return {
        "trials": report.trials,
        "seed": report.seed,
        "partitions": report.partitions,
        "parts": [
            {
                "chooser": chooser,
                "tester": tester,
                "counts": counts.tolist(),
                "empirical_joint": joint.entries.tolist(),
                "empirical_averages": averages,
            }
            for (chooser, tester), counts, joint, averages in zip(
                report.part_labels,
                report.part_counts,
                report.empirical_joints,
                report.empirical_averages.part_averages,
            )
        ],
        "empirical_totals": report.empirical_averages.totals,
        "analytic_parts": list(report.analytic_averages.part_averages),
        "analytic_totals": report.analytic_averages.totals,
        "max_deviation": report.max_deviation,
    }
