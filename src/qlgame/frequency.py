"""Frequency estimation from trial sequences.

Probabilities are treated as limits of relative frequencies; since finite
sequences never reach the limit, stabilization is operationalized as the
largest oscillation of the running frequencies over a trailing window.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .probability import ALPHABET, Distribution, ValidationError

DEFAULT_WINDOW_FRACTION = 0.1
DEFAULT_STABILIZATION_TOL = 0.01


@dataclass(frozen=True)
class TrialSequence:
    """Ordered outcomes observed under one generating context."""

    outcomes: tuple[str, ...]
    context_tag: str = "C"

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class StabilizationReport:
    final_frequencies: Distribution
    max_tail_oscillation: float
    stabilized: bool


def _indices(seq: TrialSequence, alphabet: tuple[str, ...]) -> np.ndarray:
    lookup = {label: k for k, label in enumerate(alphabet)}
    try:
        return np.array([lookup[x] for x in seq.outcomes], dtype=np.intp)
    except KeyError as exc:
        raise ValidationError(
            f"outcome {exc.args[0]!r} not in alphabet {alphabet}"
        ) from None


def estimate_frequencies(
    seq: TrialSequence, alphabet: tuple[str, ...] = ALPHABET
) -> Distribution:
    """Relative frequency of each outcome; entries are exact multiples of 1/N."""
    if len(seq) == 0:
        raise ValidationError("empty sequence")
    idx = _indices(seq, alphabet)
    counts = np.bincount(idx, minlength=len(alphabet))
    return Distribution(counts / len(seq), alphabet)


def running_frequencies(
    seq: TrialSequence, alphabet: tuple[str, ...] = ALPHABET
) -> np.ndarray:
    """Running relative frequencies: row N-1 holds the frequencies after N trials."""
    if len(seq) == 0:
        raise ValidationError("empty sequence")
    idx = _indices(seq, alphabet)
    onehot = np.zeros((len(seq), len(alphabet)))
    onehot[np.arange(len(seq)), idx] = 1.0
    cum = np.cumsum(onehot, axis=0)
    return cum / np.arange(1, len(seq) + 1)[:, None]


def stabilization_report(
    seq: TrialSequence,
    window_fraction: float = DEFAULT_WINDOW_FRACTION,
    tol: float = DEFAULT_STABILIZATION_TOL,
    alphabet: tuple[str, ...] = ALPHABET,
) -> StabilizationReport:
    """Check convergence of running frequencies over the trailing window.

    The oscillation is ``max |nu_N(beta) - nu_final(beta)|`` over the last
    ``window_fraction`` of prefix lengths N and all outcomes beta; the
    sequence counts as stabilized when it does not exceed ``tol``.
    """
    if not 0.0 < window_fraction <= 1.0:
        raise ValidationError("window_fraction must lie in (0, 1]")
    n = len(seq)
    if n < 2.0 / window_fraction:
        raise ValidationError(
            f"sequence of length {n} too short for window fraction {window_fraction}"
        )
    running = running_frequencies(seq, alphabet)
    window = int(n * window_fraction)
    tail = running[n - window :]
    final = running[-1]
    oscillation = float(np.max(np.abs(tail - final)))
    return StabilizationReport(
        final_frequencies=Distribution(final, alphabet),
        max_tail_oscillation=oscillation,
        stabilized=oscillation <= tol,
    )


def conditional_frequencies(
    pairs: Sequence[tuple[str, str]],
    given: str,
    alphabet: tuple[str, ...] = ALPHABET,
    context_tag: str = "C",
) -> Distribution:
    """Transition-frequency estimate from a paired (condition, result) sequence.

    Filters the pairs on ``condition == given`` — the selection context for
    that outcome — and estimates frequencies of the results.
    """
    selected = tuple(result for condition, result in pairs if condition == given)
    return estimate_frequencies(
        TrialSequence(selected, context_tag=f"{context_tag}_{given}"), alphabet
    )


def read_sequence(source, context_tag: str = "C") -> TrialSequence:
    """Read a plain-text sequence: one outcome label per line, blanks skipped."""
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text().splitlines()
    else:
        lines = source
    outcomes = tuple(line.strip() for line in lines if line.strip())
    return TrialSequence(outcomes, context_tag=context_tag)
