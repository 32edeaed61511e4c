"""Contextual probability data for a pair of dichotomous observables.

A context is described by the two marginal distributions and the two
transition-probability matrices between the observables.  Everything is
kept in a fixed outcome order (index 0 = "F", index 1 = "I") so that file
formats and covariance sign conventions are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

# One global tolerance for all stochasticity / consistency checks.
PROB_TOL = 1e-12

ALPHABET = ("F", "I")


class ValidationError(ValueError):
    """Probability data violates a structural constraint."""


def _frozen(values) -> np.ndarray:
    """Read-only float copy of ``values``; refuses non-numeric or ragged input."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"not a numeric array ({exc})") from exc
    arr.setflags(write=False)
    return arr


def _named(name: str, build, *args):
    """``build(*args)``, naming ``name`` in any ValidationError it raises;
    the error keeps its class."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _labels(alphabet) -> tuple[str, ...]:
    labels = tuple(alphabet)
    if len(set(labels)) != len(labels):
        repeated = next(x for k, x in enumerate(labels) if x in labels[:k])
        raise ValidationError(f"outcome label {repeated!r} is repeated in the alphabet")
    if len(labels) < 2:
        raise ValidationError("alphabet needs at least 2 outcomes")
    return labels


def _probability_table(values, alphabet, ndim: int, noun: str, sum_axis: int | None = None):
    """``values`` as a read-only array with one axis of ``len(alphabet)``
    per dimension, entries in [0, 1] and sums within PROB_TOL of 1: along
    ``sum_axis`` when given, else in total.  Returns the array and labels;
    a refusal names the first entry outside [0, 1] in C order, else the
    first sum that is off."""
    labels = _labels(alphabet)
    arr = _frozen(values)
    shape = (len(labels),) * ndim
    if arr.shape != shape:
        raise ValidationError(
            f"expected {'x'.join(map(str, shape))} {noun}, got shape {arr.shape}"
        )
    for x in arr.ravel().tolist():
        # nan and inf fail every comparison
        if not -PROB_TOL <= x <= 1.0 + PROB_TOL:
            raise ValidationError(f"{noun} must lie in [0, 1], got {x:.12g}")
    sums = arr.sum(axis=sum_axis, keepdims=True).ravel().tolist()
    for off, total in enumerate(sums):
        if not abs(total - 1.0) <= PROB_TOL:
            what = f"{noun} sum to" if sum_axis is None else f"{noun} row {off} sums to"
            # 12 significant digits print a sum just past PROB_TOL as 1, so the
            # deviation itself is what names the fault.
            raise ValidationError(
                f"{what} {total:.12g}: sum - 1 = {total - 1.0:.3g}, beyond PROB_TOL = {PROB_TOL:g}"
            )
    return arr, labels


def _derived(cls, **fields):
    """A ``cls`` table holding ``fields`` as given, with no second check.

    For tables (and systems of tables) the library computes from tables it
    has already checked or by formulas whose values are probabilities, such
    as products of a checked marginal and checked rows: their entries
    carry the error of their inputs (a product of two tables, each within
    PROB_TOL, may sum to within 2 PROB_TOL of 1), so checking them again
    would refuse data that was accepted.  Array fields are made read-only.
    """
    table = object.__new__(cls)
    vars(table).update(fields)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return table


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite ordered outcome alphabet."""

    probs: np.ndarray
    alphabet: tuple[str, ...] = ALPHABET

    def __post_init__(self):
        probs, labels = _probability_table(self.probs, self.alphabet, 1, "probabilities")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "alphabet", labels)


def uniform_distribution(alphabet: tuple[str, ...] = ALPHABET) -> Distribution:
    n = len(alphabet)
    return Distribution(np.full(n, 1.0 / n), alphabet)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix: ``rows[i, j] = p(result j | condition i)``."""

    rows: np.ndarray
    alphabet: tuple[str, ...] = ALPHABET

    def __post_init__(self):
        rows, labels = _probability_table(
            self.rows, self.alphabet, 2, "transition probabilities", sum_axis=1
        )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "alphabet", labels)


def _one_alphabet(parts) -> None:
    if len({part.alphabet for part in parts}) != 1:
        raise ValidationError("all components must share one outcome alphabet")


_CONTEXT_KEYS = ("marginal_a", "marginal_b", "trans_b_given_a", "trans_a_given_b")


def _r2_fault(data: ContextData) -> str | None:
    """Names the first entry of ``data``'s tables, in ``_CONTEXT_KEYS``
    order, that is not > 0 (strict positivity, R2); None when there is none."""
    tables = (
        data.marginal_a.probs,
        data.marginal_b.probs,
        data.trans_b_given_a.rows,
        data.trans_a_given_b.rows,
    )
    for key, table in zip(_CONTEXT_KEYS, tables):
        for idx, x in enumerate(table.ravel().tolist()):
            if not x > 0.0:
                return f"strict positivity (R2) violated: {key} entry {idx} is {x:.12g}"
    return None


@dataclass(frozen=True)
class ContextData:
    """Marginals and transition matrices of two observables in one context.

    Symmetric conditioning (``r1_symmetric``) and strict positivity
    (``r2_positive``) are recorded as flags rather than enforced: games can
    be defined and simulated without them, only the amplitude
    reconstruction requires them.
    """

    marginal_a: Distribution
    marginal_b: Distribution
    trans_b_given_a: TransitionMatrix
    trans_a_given_b: TransitionMatrix
    r1_symmetric: bool = field(init=False)
    r2_positive: bool = field(init=False)

    def __post_init__(self):
        parts = (self.marginal_a, self.marginal_b, self.trans_b_given_a, self.trans_a_given_b)
        _one_alphabet(parts)
        forward = self.trans_b_given_a.rows
        backward = self.trans_a_given_b.rows
        r1 = all(
            abs(f - b) <= PROB_TOL
            for f, b in zip(forward.ravel().tolist(), backward.T.ravel().tolist())
        )
        object.__setattr__(self, "r1_symmetric", r1)
        object.__setattr__(self, "r2_positive", _r2_fault(self) is None)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.marginal_a.alphabet


# The structure of every input document; each refusal names the document or field.
def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValidationError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _field(doc: Mapping, key: str, what: str):
    if key not in doc:
        raise ValidationError(f"{what} is missing field {key!r}")
    return doc[key]


def _list(value, what: str, of: str, item=object) -> list | tuple:
    if isinstance(value, (list, tuple)) and all(isinstance(x, item) for x in value):
        return value
    got = repr(value) if isinstance(value, (str, list, tuple)) else type(value).__name__
    raise ValidationError(f"{what} must be a list of {of}, got {got}")


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value


def _name(doc: Mapping, key: str, what: str) -> str:
    if not isinstance(_field(doc, key, what), str):
        raise ValidationError(f"{what} {key} must be a string, got {doc[key]!r}")
    return doc[key]


def _document_alphabet(raw: Mapping) -> tuple[str, ...]:
    """The optional ``alphabet`` entry of a mapping read from a file:
    distinct string labels, :data:`ALPHABET` when it is absent."""
    return _labels(_list(raw.get("alphabet", ALPHABET), "alphabet", "string labels", str))


def validate_context_data(raw) -> ContextData:
    """Validate a context-data mapping, naming the offending component.

    ``raw`` has keys ``marginal_a``, ``marginal_b``, ``trans_b_given_a``,
    ``trans_a_given_b`` (arrays / nested lists) and optionally ``alphabet``.
    """
    raw = _mapping(raw, "context data")
    tables = [_field(raw, key, "context data") for key in _CONTEXT_KEYS]
    kinds = (Distribution, Distribution, TransitionMatrix, TransitionMatrix)
    return ContextData(*map(_named, _CONTEXT_KEYS, kinds, tables, [_document_alphabet(raw)] * 4))


def context_to_json(data: ContextData) -> dict:
    return {
        "marginal_a": data.marginal_a.probs.tolist(),
        "marginal_b": data.marginal_b.probs.tolist(),
        "trans_b_given_a": data.trans_b_given_a.rows.tolist(),
        "trans_a_given_b": data.trans_a_given_b.rows.tolist(),
    }


@dataclass(frozen=True)
class JointTable:
    """Order-dependent joint distribution over outcome pairs.

    ``entries[i, j]`` is the probability that the first observable of
    ``order`` yields outcome ``i`` and the second yields ``j``.
    """

    order: tuple[str, str]
    entries: np.ndarray
    alphabet: tuple[str, ...] = ALPHABET

    def __post_init__(self):
        entries, labels = _probability_table(
            self.entries, self.alphabet, 2, "joint probabilities"
        )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "alphabet", labels)


def joint_distribution(
    first_marginal: Distribution,
    trans: TransitionMatrix,
    order: tuple[str, str] = ("a", "b"),
) -> JointTable:
    """Joint table ``p(first=i, second=j) = first_marginal[i] * trans[i, j]``.

    Built from its two checked inputs without a second check.  Its first
    marginal is ``first_marginal`` times the row sums of ``trans``, so its
    total is 1 only up to the error of both inputs: within about 2 PROB_TOL.
    """
    if first_marginal.alphabet != trans.alphabet:
        raise ValidationError("marginal and transition matrix use different alphabets")
    return _derived(
        JointTable,
        order=tuple(order),
        entries=first_marginal.probs[:, None] * trans.rows,
        alphabet=first_marginal.alphabet,
    )


@dataclass(frozen=True)
class ReversibilityReport:
    """Whether the two play orders induce the same pair statistics."""

    consistent: bool
    max_discrepancy: float
    joint_ab: JointTable
    joint_ba: JointTable


def check_reversibility(data: ContextData) -> ReversibilityReport:
    """Compare ``p(a=i, b=j)`` chooser-first against ``p(b=j, a=i)``.

    Their equality is exactly what a single classical probability space
    would force via the conditional product rule; the report carries the
    maximum absolute discrepancy over all outcome pairs.
    """
    joint_ab = joint_distribution(data.marginal_a, data.trans_b_given_a, ("a", "b"))
    joint_ba = joint_distribution(data.marginal_b, data.trans_a_given_b, ("b", "a"))
    disc = float(abs(joint_ab.entries - joint_ba.entries.T).max())
    return ReversibilityReport(
        consistent=disc <= PROB_TOL,
        max_discrepancy=disc,
        joint_ab=joint_ab,
        joint_ba=joint_ba,
    )
