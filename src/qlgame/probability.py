"""Contextual probability data for a pair of dichotomous observables.

A context is described by the two marginal distributions and the two
transition-probability matrices between the observables.  Everything is
kept in a fixed outcome order (index 0 = "F", index 1 = "I") so that file
formats and covariance sign conventions are stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

# One global tolerance for all stochasticity / consistency checks.
PROB_TOL = 1e-12

ALPHABET = ("F", "I")
OUTCOME_VALUES = {"F": 1.0, "I": -1.0}


class ValidationError(ValueError):
    """Probability data violates a structural constraint."""


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sum_error(what: str, total: float) -> str:
    # 12 significant digits print a sum just past PROB_TOL as 1, so the
    # deviation itself is what names the fault.
    return f"{what} {_fmt(total)}: sum - 1 = {total - 1.0:.3g}, beyond PROB_TOL = {PROB_TOL:g}"


def _labels(alphabet) -> tuple[str, ...]:
    labels = tuple(alphabet)
    if len(set(labels)) != len(labels):
        repeated = next(x for k, x in enumerate(labels) if x in labels[:k])
        raise ValidationError(f"outcome label {repeated!r} is repeated in the alphabet")
    return labels


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite ordered outcome alphabet."""

    probs: np.ndarray
    alphabet: tuple[str, ...] = ALPHABET

    def __post_init__(self):
        probs = _frozen(self.probs)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "alphabet", _labels(self.alphabet))
        if probs.ndim != 1 or probs.size != len(self.alphabet):
            raise ValidationError(
                f"expected {len(self.alphabet)} probabilities, got shape {probs.shape}"
            )
        if len(self.alphabet) < 2:
            raise ValidationError("alphabet needs at least 2 outcomes")
        if not np.all(np.isfinite(probs)):
            raise ValidationError("probabilities must be finite")
        if np.any(probs < -PROB_TOL) or np.any(probs > 1 + PROB_TOL):
            bad = probs[(probs < -PROB_TOL) | (probs > 1 + PROB_TOL)][0]
            raise ValidationError(f"probability {_fmt(bad)} outside [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(_sum_error("probabilities sum to", total))

    def prob(self, label: str) -> float:
        return float(self.probs[self.alphabet.index(label)])

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.probs > 0.0))

    def is_uniform(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.probs - 1.0 / len(self.alphabet))) <= tol)


def uniform_distribution(alphabet: tuple[str, ...] = ALPHABET) -> Distribution:
    n = len(alphabet)
    return Distribution(np.full(n, 1.0 / n), alphabet)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix: ``rows[i, j] = p(result j | condition i)``."""

    rows: np.ndarray
    alphabet: tuple[str, ...] = ALPHABET

    def __post_init__(self):
        rows = _frozen(self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "alphabet", _labels(self.alphabet))
        n = len(self.alphabet)
        if rows.shape != (n, n):
            raise ValidationError(f"expected a {n}x{n} matrix, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValidationError("transition probabilities must be finite")
        if np.any(rows < -PROB_TOL) or np.any(rows > 1 + PROB_TOL):
            raise ValidationError("transition probabilities must lie in [0, 1]")
        sums = rows.sum(axis=1)
        for i, s in enumerate(sums):
            if abs(s - 1.0) > PROB_TOL:
                raise ValidationError(_sum_error(f"row {i} sums to", float(s)))

    def prob(self, result: str, given: str) -> float:
        return float(self.rows[self.alphabet.index(given), self.alphabet.index(result)])

    @property
    def doubly_stochastic(self) -> bool:
        return bool(np.max(np.abs(self.rows.sum(axis=0) - 1.0)) <= PROB_TOL)

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.rows > 0.0))


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
        alphabets = {
            self.marginal_a.alphabet,
            self.marginal_b.alphabet,
            self.trans_b_given_a.alphabet,
            self.trans_a_given_b.alphabet,
        }
        if len(alphabets) != 1:
            raise ValidationError("all components must share one outcome alphabet")
        r1 = bool(
            np.max(np.abs(self.trans_b_given_a.rows - self.trans_a_given_b.rows.T))
            <= PROB_TOL
        )
        r2 = (
            self.marginal_a.strictly_positive
            and self.marginal_b.strictly_positive
            and self.trans_b_given_a.strictly_positive
            and self.trans_a_given_b.strictly_positive
        )
        object.__setattr__(self, "r1_symmetric", r1)
        object.__setattr__(self, "r2_positive", r2)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.marginal_a.alphabet


_CONTEXT_KEYS = ("marginal_a", "marginal_b", "trans_b_given_a", "trans_a_given_b")


def validate_context_data(raw) -> ContextData:
    """Validate a context-data candidate, naming the offending component.

    ``raw`` is either a mapping with keys ``marginal_a``, ``marginal_b``,
    ``trans_b_given_a``, ``trans_a_given_b`` (arrays / nested lists) or an
    already-built :class:`ContextData` (revalidated by reconstruction).
    """
    if isinstance(raw, ContextData):
        parts = {
            "marginal_a": raw.marginal_a.probs,
            "marginal_b": raw.marginal_b.probs,
            "trans_b_given_a": raw.trans_b_given_a.rows,
            "trans_a_given_b": raw.trans_a_given_b.rows,
            "alphabet": raw.alphabet,
        }
        raw = parts
    if not isinstance(raw, Mapping):
        raise ValidationError("context data must be a mapping or ContextData")
    missing = [k for k in _CONTEXT_KEYS if k not in raw]
    if missing:
        raise ValidationError(f"missing context component(s): {', '.join(missing)}")
    alphabet = raw.get("alphabet", ALPHABET)
    if not isinstance(alphabet, (list, tuple)) or not all(isinstance(x, str) for x in alphabet):
        raise ValidationError(f"alphabet must be a list of string labels, got {alphabet!r}")
    alphabet = _labels(alphabet)

    def build(key, cls):
        try:
            return cls(np.asarray(raw[key], dtype=float), alphabet)
        except ValidationError as exc:
            raise ValidationError(f"{key}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{key}: not a numeric array ({exc})") from exc

    return ContextData(
        marginal_a=build("marginal_a", Distribution),
        marginal_b=build("marginal_b", Distribution),
        trans_b_given_a=build("trans_b_given_a", TransitionMatrix),
        trans_a_given_b=build("trans_a_given_b", TransitionMatrix),
    )


def context_to_json(data: ContextData) -> dict:
    return {
        "marginal_a": data.marginal_a.probs.tolist(),
        "marginal_b": data.marginal_b.probs.tolist(),
        "trans_b_given_a": data.trans_b_given_a.rows.tolist(),
        "trans_a_given_b": data.trans_a_given_b.rows.tolist(),
    }


def context_from_json(obj) -> ContextData:
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    return validate_context_data(obj)


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
        entries = _frozen(self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "alphabet", _labels(self.alphabet))
        n = len(self.alphabet)
        if entries.shape != (n, n):
            raise ValidationError(f"expected a {n}x{n} joint table, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValidationError("joint probabilities must be finite")
        if np.any(entries < -PROB_TOL) or np.any(entries > 1 + PROB_TOL):
            raise ValidationError("joint probabilities must lie in [0, 1]")
        total = float(entries.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(_sum_error("joint probabilities sum to", total))

    def prob(self, first: str, second: str) -> float:
        i = self.alphabet.index(first)
        j = self.alphabet.index(second)
        return float(self.entries[i, j])

    def first_marginal(self) -> Distribution:
        return Distribution(self.entries.sum(axis=1), self.alphabet)

    def second_marginal(self) -> Distribution:
        return Distribution(self.entries.sum(axis=0), self.alphabet)


def joint_distribution(
    first_marginal: Distribution,
    trans: TransitionMatrix,
    order: tuple[str, str] = ("a", "b"),
) -> JointTable:
    """Joint table ``p(first=i, second=j) = first_marginal[i] * trans[i, j]``.

    The result sums to 1 and reproduces ``first_marginal`` as its first
    marginal by construction (rows of ``trans`` each sum to 1).
    """
    if first_marginal.alphabet != trans.alphabet:
        raise ValidationError("marginal and transition matrix use different alphabets")
    entries = first_marginal.probs[:, None] * trans.rows
    return JointTable(order=order, entries=entries, alphabet=first_marginal.alphabet)


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
    disc = float(np.max(np.abs(joint_ab.entries - joint_ba.entries.T)))
    return ReversibilityReport(
        consistent=disc <= PROB_TOL,
        max_discrepancy=disc,
        joint_ab=joint_ab,
        joint_ba=joint_ba,
    )
