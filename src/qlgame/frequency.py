"""Frequency estimation from trial sequences.

Probabilities are treated as limits of relative frequencies; since finite
sequences never reach the limit, stabilization is operationalized as the
largest oscillation of the running frequencies over a trailing window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .probability import ALPHABET, Distribution, ValidationError

DEFAULT_WINDOW_FRACTION = 0.1
DEFAULT_STABILIZATION_TOL = 0.01


_UTF32 = "utf-32-le"
_BLOCK = 1 << 16


def _one_char(labels: Iterable) -> bool:
    """Whether every label is an exact ``str`` of length 1."""
    return all(type(label) is str and len(label) == 1 for label in labels)


def _code(labels: Sequence) -> tuple[np.ndarray, tuple]:
    """The labels as (codes, alphabet), the alphabet in order of first appearance.

    When every distinct label is an exact one-character ``str``, the joined
    labels are read as UTF-32 code points and ``searchsorted`` maps them to
    the sorted distinct points; ``minimum.at`` finds each point's first
    position and the codes are remapped to first-appearance order.  Any
    other labels are mapped through a dictionary, one label at a time.
    """
    distinct = set(labels)
    if not _one_char(distinct):
        alphabet = tuple(dict.fromkeys(labels))
        lookup = {label: k for k, label in enumerate(alphabet)}
        return np.fromiter(map(lookup.__getitem__, labels), np.intp, len(labels)), alphabet
    points = np.sort(np.fromiter(map(ord, distinct), np.uint32, len(distinct)))
    text = "".join(labels).encode(_UTF32, "surrogatepass")
    codes = np.searchsorted(points, np.frombuffer(text, np.uint32))
    del text
    # First position of each point, a block at a time, so that no n-long
    # position array is built; most sequences show every label in block one.
    first = np.full(points.size, codes.size)
    step = max(_BLOCK, points.size)
    for start in range(0, codes.size, step):
        block = codes[start:start + step]
        np.minimum.at(first, block, np.arange(start, start + block.size))
        if first.max() < codes.size:
            break
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    # Remapped in place: clip mode reads each code before it writes that
    # slot and, unlike the default mode, builds no buffer.
    np.take(rank, codes, out=codes, mode="clip")
    return codes, tuple(map(chr, points[order].tolist()))


class TrialSequence:
    """Ordered outcomes observed under one generating context.

    The labels are mapped once to an integer ``codes`` array over
    ``alphabet``, the labels in order of first appearance; ``outcomes``
    rebuilds the label tuple on demand.
    """

    def __init__(self, outcomes: Iterable[str], context_tag: str = "C"):
        labels = outcomes if isinstance(outcomes, (tuple, list)) else tuple(outcomes)
        self._set(*_code(labels), context_tag)

    @classmethod
    def _from_codes(cls, codes: np.ndarray, alphabet: tuple[str, ...], context_tag: str):
        seq = cls.__new__(cls)
        seq._set(np.asarray(codes, dtype=np.intp), tuple(alphabet), context_tag)
        return seq

    def _set(self, codes: np.ndarray, alphabet: tuple[str, ...], context_tag: str) -> None:
        codes.setflags(write=False)
        self.codes = codes
        self.alphabet = alphabet
        self.context_tag = context_tag

    @cached_property
    def outcomes(self) -> tuple[str, ...]:
        if _one_char(self.alphabet):
            points = np.fromiter(map(ord, self.alphabet), np.uint32, len(self.alphabet))
            return tuple(str(points[self.codes], _UTF32, "surrogatepass"))
        return tuple(np.array(self.alphabet, dtype=object)[self.codes].tolist())

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class StabilizationReport:
    final_frequencies: Distribution
    max_tail_oscillation: float
    stabilized: bool


def _indices(seq: TrialSequence, alphabet: tuple[str, ...]) -> np.ndarray:
    """The sequence's codes remapped to positions in ``alphabet``."""
    lookup = {label: k for k, label in enumerate(alphabet)}
    table = np.array([lookup.get(label, -1) for label in seq.alphabet], dtype=np.intp)
    idx = table[seq.codes]
    unknown = idx < 0
    if unknown.any():
        label = seq.alphabet[seq.codes[int(np.argmax(unknown))]]
        raise ValidationError(f"outcome {label!r} not in alphabet {alphabet}")
    return idx


def _running(idx: np.ndarray, k: int, start: int = 0) -> np.ndarray:
    """Running relative frequencies after start + 1, ..., N trials.

    The counts are integers, exact in float64, so each row equals the same
    row computed from trial 1 on.
    """
    tail = idx[start:]
    counts = np.zeros((tail.size, k))
    counts[np.arange(tail.size), tail] = 1.0
    np.cumsum(counts, axis=0, out=counts)
    counts += np.bincount(idx[:start], minlength=k)
    counts /= np.arange(start + 1, idx.size + 1)[:, None]
    return counts


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
    return _running(_indices(seq, alphabet), len(alphabet))


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
    window = int(n * window_fraction)
    tail = _running(_indices(seq, alphabet), len(alphabet), n - window)
    final = tail[-1]
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
) -> Distribution:
    """Transition-frequency estimate from a paired (condition, result) sequence.

    Filters the pairs on ``condition == given`` — the selection context for
    that outcome — and estimates frequencies of the results.
    """
    selected = [result for condition, result in pairs if condition == given]
    if not selected:
        raise ValidationError(f"no pair has condition {given!r}")
    return estimate_frequencies(TrialSequence(selected), alphabet)


def read_sequence(source) -> TrialSequence:
    """Read a plain-text sequence: one outcome label per line, blanks skipped.

    A path is read as UTF-8; its line list is freed before the labels are coded.
    """
    if isinstance(source, (str, Path)):
        source = Path(source).read_text(encoding="utf-8").splitlines()
    labels = list(filter(None, map(str.strip, source)))
    del source
    return TrialSequence(labels)
