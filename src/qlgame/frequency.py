"""Frequency estimation from trial sequences.

Probabilities are treated as limits of relative frequencies; since finite
sequences never reach the limit, stabilization is operationalized as the
largest oscillation of the running frequencies over a trailing window.
"""

from __future__ import annotations

import math
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
    labels are read as UTF-32 code points and coded by :func:`_code_points`.
    Any other labels are mapped through a dictionary, one label at a time.
    """
    distinct = set(labels)
    if not _one_char(distinct):
        alphabet = tuple(dict.fromkeys(labels))
        lookup = {label: k for k, label in enumerate(alphabet)}
        return np.fromiter(map(lookup.__getitem__, labels), np.intp, len(labels)), alphabet
    points = np.sort(np.fromiter(map(ord, distinct), np.uint32, len(distinct)))
    return _code_points(points, np.frombuffer(
        "".join(labels).encode(_UTF32, "surrogatepass"), np.uint32))


def _code_points(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Code points as (codes, alphabet): ``searchsorted`` onto their sorted
    distinct ``points``, then remapped in place to first-appearance order."""
    codes = np.searchsorted(points, values)
    del values  # a temporary of the caller's is freed here
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


def _table(seq: TrialSequence, alphabet: tuple[str, ...]) -> np.ndarray:
    """Position in ``alphabet`` of each label of the sequence's alphabet, -1 if
    absent; refuses an empty sequence, then the first absent label, in
    sequence order, that occurs."""
    if len(seq) == 0:
        raise ValidationError("empty sequence")
    lookup = {label: k for k, label in enumerate(alphabet)}
    table = np.array([lookup.get(label, -1) for label in seq.alphabet], dtype=np.intp)
    if (table < 0).any() and (unknown := table[seq.codes] < 0).any():
        label = seq.alphabet[seq.codes[int(np.argmax(unknown))]]
        raise ValidationError(f"outcome {label!r} not in alphabet {alphabet}")
    return table


def _counts(codes: np.ndarray, table: np.ndarray, k: int) -> np.ndarray:
    """Float counts of the ``k`` positions that ``table`` gives the codes, counted
    a block at a time because ``bincount`` copies its input."""
    own = np.zeros(table.size, np.intp)
    for start in range(0, codes.size, _BLOCK):
        own += np.bincount(codes[start:start + _BLOCK], minlength=table.size)
    known = table >= 0
    return np.bincount(table[known], own[known], k)


def _running(idx: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Running relative frequencies over ``idx``, continuing from the counts ``before``.

    The counts are integers, exact in float64, so each row equals the same
    row computed from trial 1 on.
    """
    counts = np.zeros((idx.size, before.size))
    counts[np.arange(idx.size), idx] = 1.0
    np.cumsum(counts, axis=0, out=counts)
    counts += before
    start = int(before.sum())
    counts /= np.arange(start + 1, start + idx.size + 1)[:, None]
    return counts


def estimate_frequencies(
    seq: TrialSequence, alphabet: tuple[str, ...] = ALPHABET
) -> Distribution:
    """Relative frequency of each outcome; entries are exact multiples of 1/N."""
    counts = _counts(seq.codes, _table(seq, alphabet), len(alphabet))
    return Distribution(counts / len(seq), alphabet)


def running_frequencies(
    seq: TrialSequence, alphabet: tuple[str, ...] = ALPHABET
) -> np.ndarray:
    """Running relative frequencies: row N-1 holds the frequencies after N trials."""
    return _running(_table(seq, alphabet)[seq.codes], np.zeros(len(alphabet)))


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
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tol must be finite and nonnegative, got {tol!r}")
    n = len(seq)
    if n < 2.0 / window_fraction:
        raise ValidationError(
            f"sequence of length {n} too short for window fraction {window_fraction}"
        )
    start = n - int(n * window_fraction)
    table = _table(seq, alphabet)
    tail = _running(table[seq.codes[start:]], _counts(seq.codes[:start], table, len(alphabet)))
    final = tail[-1].copy()
    tail -= final
    oscillation = float(np.max(np.abs(tail, out=tail)))
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

    A path is read as UTF-8 with any byte-order mark dropped.  A file of lines
    of one byte in 0x21-0x7E and ``"\\n"`` is coded straight from its bytes.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
        raw = np.frombuffer(data, np.uint8)
        column = raw[::2]
        if raw.size and not raw.size % 2 and (raw[1::2] == 10).all() and (column - 0x21 < 0x5E).all():
            seen = np.zeros(256, bool)  # not np.unique: its first call imports numpy.ma
            seen[column] = True
            points = np.flatnonzero(seen).astype(np.uint8)
            return TrialSequence._from_codes(*_code_points(points, column), "C")
        source = data.decode("utf-8-sig").splitlines()
        del data, raw, column
    labels = list(filter(None, map(str.strip, source)))
    del source
    return TrialSequence(labels)
