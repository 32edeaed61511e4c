"""Frequency estimation from trial sequences.

Probabilities are treated as limits of relative frequencies; since finite
sequences never reach the limit, stabilization is operationalized as the
largest oscillation of the running frequencies over a trailing window.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .probability import ALPHABET, Distribution, ValidationError

DEFAULT_WINDOW_FRACTION = 0.1
DEFAULT_STABILIZATION_TOL = 0.01


_UTF32 = "utf-32-le"
# Trials per block of every frequency kernel and of sampling: a block of
# intp codes or float64 variates takes 64 KiB.
_BLOCK = 1 << 13


def _one_char(labels: Iterable) -> bool:
    """Whether every label is an exact ``str`` of length 1."""
    return all(type(label) is str and len(label) == 1 for label in labels)


def _code_type(k: int) -> np.dtype:
    """The narrowest unsigned integer type that holds the codes 0 .. k-1."""
    return np.min_scalar_type(max(k - 1, 0))


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
        codes = np.fromiter(map(lookup.__getitem__, labels), _code_type(len(alphabet)), len(labels))
        return codes, alphabet
    points = np.sort(np.fromiter(map(ord, distinct), np.uint32, len(distinct)))
    return _code_points(points, np.frombuffer(
        "".join(labels).encode(_UTF32, "surrogatepass"), np.uint32))


def _code_points(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Code points as (codes, alphabet): ``searchsorted`` onto their sorted
    distinct ``points``, then remapped to first-appearance order.

    Both passes go a block at a time into codes of :func:`_code_type`, so no
    other array as long as the values is built.
    """
    codes = np.empty(values.size, _code_type(points.size))
    # First position of each point, n while unseen; block one usually sees every point.
    first = np.full(points.size, values.size, _code_type(values.size + 1))
    step = max(_BLOCK, points.size)
    for start in range(0, values.size, step):
        block = np.searchsorted(points, values[start:start + step])
        if first.max() == values.size:
            np.minimum.at(first, block, np.arange(start, start + block.size, dtype=first.dtype))
        codes[start:start + step] = block
        del block  # freed before the next block is allocated
    del values  # a temporary of the caller's is freed here
    order = np.argsort(first)
    rank = np.empty(order.size, codes.dtype)
    rank[order] = np.arange(order.size)
    for start in range(0, codes.size, _BLOCK):
        block = codes[start:start + _BLOCK]
        # clip mode writes straight into ``out``; the default copies it first
        np.take(rank, block, out=block, mode="clip")
    return codes, tuple(map(chr, points[order].tolist()))


class TrialSequence:
    """Ordered outcomes observed under one generating context.

    The labels are mapped once to a read-only ``codes`` array over
    ``alphabet``, the labels in order of first appearance. The codes take the
    narrowest unsigned type that holds ``len(alphabet) - 1``: one byte a
    trial for up to 256 labels. ``outcomes`` rebuilds the label tuple on
    demand.
    """

    def __init__(self, outcomes: Iterable[str], context_tag: str = "C"):
        labels = outcomes if isinstance(outcomes, (tuple, list)) else tuple(outcomes)
        self._set(*_code(labels), context_tag)

    @classmethod
    def _from_codes(cls, codes: np.ndarray, alphabet: tuple[str, ...], context_tag: str):
        """A sequence over ``alphabet`` from codes in range, converted to the
        alphabet's code type (no copy when they have it) and made read-only."""
        seq = cls.__new__(cls)
        seq._set(np.asarray(codes, _code_type(len(alphabet))), tuple(alphabet), context_tag)
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


def _sequence(seq) -> None:
    if not isinstance(seq, TrialSequence):
        raise ValidationError(f"seq must be a TrialSequence, got {type(seq).__name__}")


def _real(value, name: str) -> None:
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")


def _table(seq: TrialSequence, alphabet: tuple[str, ...]) -> np.ndarray:
    """Position in ``alphabet`` of each label of the sequence's alphabet, -1 if
    absent; refuses an empty sequence, then the first absent label, in
    sequence order, that occurs."""
    if len(seq) == 0:
        raise ValidationError("empty sequence")
    lookup = {label: k for k, label in enumerate(alphabet)}
    table = np.array([lookup.get(label, -1) for label in seq.alphabet], dtype=np.intp)
    if (table < 0).any():
        for start in range(0, len(seq), _BLOCK):
            block = seq.codes[start:start + _BLOCK]
            if (unknown := table[block] < 0).any():
                label = seq.alphabet[block[int(np.argmax(unknown))]]
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


def _running(codes: np.ndarray, table: np.ndarray, before: np.ndarray) -> Iterator[np.ndarray]:
    """Running relative frequencies of the positions that ``table`` gives the
    codes, one block of rows at a time, continuing from the counts ``before``.

    The counts are integers, exact in float64, so each row equals the same
    row computed from trial 1 on.  A block is summed as its transpose, one
    contiguous line per position, and yielded as a view of rows.
    """
    counts = before
    done = int(before.sum())
    positions = np.arange(before.size)[:, None]
    for start in range(0, codes.size, _BLOCK):
        idx = table[codes[start:start + _BLOCK]]
        lines = np.cumsum(idx == positions, axis=1, dtype=np.float64)
        lines += counts[:, None]
        counts = lines[:, -1].copy()
        lines /= np.arange(done + start + 1, done + start + idx.size + 1)
        yield lines.T


def estimate_frequencies(
    seq: TrialSequence, alphabet: tuple[str, ...] = ALPHABET
) -> Distribution:
    """Relative frequency of each outcome; entries are exact multiples of 1/N."""
    _sequence(seq)
    counts = _counts(seq.codes, _table(seq, alphabet), len(alphabet))
    return Distribution(counts / len(seq), alphabet)


def running_frequencies(
    seq: TrialSequence, alphabet: tuple[str, ...] = ALPHABET
) -> np.ndarray:
    """Running relative frequencies: row N-1 holds the frequencies after N trials."""
    _sequence(seq)
    table = _table(seq, alphabet)
    out = np.empty((len(seq), len(alphabet)))
    blocks = _running(seq.codes, table, np.zeros(len(alphabet)))
    for start, rows in zip(range(0, len(seq), _BLOCK), blocks):
        out[start:start + _BLOCK] = rows
    return out


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
    _sequence(seq)
    _real(window_fraction, "window_fraction")
    if not 0.0 < window_fraction <= 1.0:
        raise ValidationError("window_fraction must lie in (0, 1]")
    _real(tol, "tol")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tol must be finite and nonnegative, got {tol!r}")
    n = len(seq)
    if n < 2.0 / window_fraction:
        raise ValidationError(
            f"sequence of length {n} too short for window fraction {window_fraction}"
        )
    start = n - int(n * window_fraction)
    table = _table(seq, alphabet)
    before = _counts(seq.codes[:start], table, len(alphabet))
    final = (before + _counts(seq.codes[start:], table, len(alphabet))) / n
    oscillation = 0.0
    for rows in _running(seq.codes[start:], table, before):
        rows -= final
        oscillation = max(oscillation, float(np.max(np.abs(rows, out=rows))))
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
    try:
        selected = [result for condition, result in pairs if condition == given]
    except (TypeError, ValueError) as exc:
        # the malformed pair is looked for only here, so the filter costs no more
        if not isinstance(pairs, (list, tuple)):
            raise ValidationError(
                f"pairs must be an iterable of (condition, result) pairs, got {pairs!r}"
            ) from exc
        for index, pair in enumerate(pairs):
            try:
                _, _ = pair
            except (TypeError, ValueError):
                raise ValidationError(
                    f"pair {index} must be a (condition, result) pair, got {pair!r}"
                ) from exc
        raise
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
        if raw.size and not raw.size % 2 and (raw[1::2] == 10).all():
            seen = np.zeros(256, bool)  # not np.unique: its first call imports numpy.ma
            seen[column] = True
            points = np.flatnonzero(seen).astype(np.uint8)
            if 0x21 <= points[0] and points[-1] <= 0x7E:
                return TrialSequence._from_codes(*_code_points(points, column), "C")
        source = data.decode("utf-8-sig").splitlines()
        del data, raw, column
    try:
        labels = list(filter(None, map(str.strip, source)))
    except TypeError as exc:
        # the faulty line is looked for only here, so reading costs no more
        if isinstance(source, (list, tuple)):
            index, line = next((i, x) for i, x in enumerate(source) if not isinstance(x, str))
            raise ValidationError(f"line {index} must be a str, got {line!r}") from exc
        raise ValidationError(
            f"source must be a path or an iterable of str lines, got {source!r}"
        ) from exc
    del source
    return TrialSequence(labels)
