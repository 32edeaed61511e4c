"""Reconstruction of a complex probability amplitude from contextual data.

For a context with symmetric conditioning and strictly positive
probabilities, the deviation of each marginal from the total-probability
prediction defines an interference coefficient lambda.  When every
|lambda| <= 1 the context admits a cosine parametrization: symmetric
conditioning makes lambda_2 = -lambda_1, so theta_1 = arccos(lambda_1) and
theta_2 = theta_1 + pi, the amplitude is assembled from the square roots
of the products of probabilities, and the second observable's basis
follows from the same phases.  Squared inner products then return every
input probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hilbert import NORM_TOL, OrthonormalBasis, delta_basis, norm
from .probability import (
    PROB_TOL,
    ContextData,
    Distribution,
    TransitionMatrix,
    ValidationError,
    _derived,
    _frozen,
    _labels,
    _r2_fault,
    context_to_json,
)

TRIGONOMETRIC = "trigonometric"
HYPERBOLIC = "hyperbolic"

# Tolerance of the Born-rule round-trip check.
PHASE_TOL = 1e-10


class HyperbolicContextError(ValidationError):
    """Context has |lambda| > 1: no cosine-phase representation exists."""


class PhaseConstraintError(ValueError):
    """Kept for callers that name it; the closed-form phases never raise it."""


@dataclass(frozen=True)
class InterferenceProfile:
    """Interference coefficients, their classification and chosen phases."""

    lambdas: np.ndarray
    classification: str
    thetas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _frozen(self.lambdas))
        object.__setattr__(self, "thetas", _frozen(self.thetas))


@dataclass(frozen=True)
class QLRepresentation:
    """State vector plus the two observable bases reconstructed from a context.

    ``psi`` lives in the coordinates of ``b_basis`` (delta functions on the
    second observable's outcomes); ``a_basis`` carries the phases.
    """

    psi: np.ndarray
    b_basis: OrthonormalBasis
    a_basis: OrthonormalBasis
    profile: InterferenceProfile
    source: ContextData

    def __post_init__(self):
        psi = np.array(self.psi, dtype=complex)
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @cached_property
    def _born_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`born_tables` of this representation, computed once and read-only."""
        tables = born_tables(self.psi, self.a_basis, self.b_basis)
        for table in tables:
            table.setflags(write=False)
        return tables

    @cached_property
    def _reconstructed(self) -> ContextData:
        return born_context(self._born_tables, self.source.alphabet)


def _require_two_outcomes(n: int, what: str) -> None:
    if n != 2:
        raise ValidationError(f"{what} needs a two-outcome alphabet, got {n} outcomes")


def interference_coefficients(data: ContextData) -> np.ndarray:
    """Normalized deviation of the b-marginal from the total-probability rule.

    lambda(beta) = [p_b(beta) - sum_alpha p_a(alpha) p(beta|alpha)]
                   / [2 sqrt(prod_alpha p_a(alpha) p(beta|alpha))]

    Requires two outcomes and strictly positive probabilities; a zero entry
    would make the denominator vanish.
    """
    _require_two_outcomes(len(data.alphabet), "the interference coefficient formula")
    if not data.r2_positive:
        raise ValidationError(_r2_fault(data))
    pa = data.marginal_a.probs
    pb = data.marginal_b.probs
    t = data.trans_b_given_a.rows
    predicted = pa @ t
    denominator = 2.0 * np.sqrt((pa[:, None] * t).prod(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (pb - predicted) / denominator


def classify_context(lambdas) -> str:
    """``trigonometric`` iff every |lambda| <= 1 + PROB_TOL, else ``hyperbolic``.

    Takes the two coefficients of a two-outcome context.  The boundary
    |lambda| = 1 counts as trigonometric with degenerate phase 0 or pi,
    also when rounding puts it just outside.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    _require_two_outcomes(lambdas.size, "the classification")
    if not np.isfinite(lambdas).all():
        raise ValidationError("interference coefficients must be finite")
    return TRIGONOMETRIC if float(abs(lambdas).max()) <= 1.0 + PROB_TOL else HYPERBOLIC


def _select_phases(lambdas: np.ndarray) -> np.ndarray:
    """theta_1 = arccos(lambda_1) in [0, pi] and theta_2 = theta_1 + pi,
    because symmetric conditioning makes lambda_2 = -lambda_1."""
    theta1 = math.acos(min(1.0, max(-1.0, float(lambdas[0]))))
    return np.array([theta1, theta1 + math.pi])


def build_representation(data: ContextData) -> QLRepresentation:
    """Construct state and bases whose squared inner products return the data.

    Requires two outcomes, symmetric conditioning, strict positivity and a
    trigonometric classification; hyperbolic contexts are rejected, never
    silently represented.
    """
    _require_two_outcomes(len(data.alphabet), "the amplitude reconstruction")
    if not data.r1_symmetric:
        raise ValidationError(
            "symmetric conditioning (R1) required: transition matrices are "
            "not each other's transpose"
        )
    lambdas = interference_coefficients(data)
    if classify_context(lambdas) == HYPERBOLIC:
        largest = float(np.max(np.abs(lambdas)))
        raise HyperbolicContextError(
            "hyperbolic context: no trigonometric representation (max |lambda| = "
            f"{largest:.12g}: |lambda| - 1 = {largest - 1.0:.3g}, beyond PROB_TOL = {PROB_TOL:g})"
        )
    thetas = _select_phases(lambdas)
    profile = InterferenceProfile(lambdas, TRIGONOMETRIC, thetas)

    pa = data.marginal_a.probs
    t = data.trans_b_given_a.rows
    phases = np.exp(1j * thetas)
    # psi(beta) = sqrt(p_a(1) p(beta|1)) + e^{i theta(beta)} sqrt(p_a(2) p(beta|2))
    psi = np.sqrt(pa[0] * t[0]) + phases * np.sqrt(pa[1] * t[1])

    u = np.sqrt(t)
    a_vectors = np.array([
        [u[0, 0], u[0, 1]],
        [phases[0] * u[1, 0], phases[1] * u[1, 1]],
    ])
    rep = QLRepresentation(
        psi=psi,
        b_basis=delta_basis(2),
        a_basis=OrthonormalBasis(a_vectors),
        profile=profile,
        source=data,
    )
    _verify_round_trip(rep)
    return rep


def born_tables(psi, a_basis: OrthonormalBasis, b_basis: OrthonormalBasis):
    """Born probabilities ``|<psi, e^a_alpha>|^2`` and ``|<psi, e^b_beta>|^2``
    plus ``trans[alpha, beta] = |<e^a_alpha, e^b_beta>|^2``.

    Symmetric conditioning is automatic because |<x, y>| = |<y, x>|.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or a_basis.dimension != psi.size or b_basis.dimension != psi.size:
        raise ValidationError(
            f"dimension mismatch: psi has shape {psi.shape}, bases have "
            f"{a_basis.dimension} and {b_basis.dimension}"
        )
    length = norm(psi)
    if not abs(length - 1.0) <= NORM_TOL:
        raise ValidationError(f"psi has norm {length:.12g}, expected 1")
    born_a = np.abs(a_basis.vectors.conj() @ psi) ** 2
    born_b = np.abs(b_basis.vectors.conj() @ psi) ** 2
    trans = np.abs(a_basis.vectors @ b_basis.vectors.conj().T) ** 2
    return born_a, born_b, trans


def born_context(tables, alphabet) -> ContextData:
    """The context whose probabilities are the renormalised Born ``tables``
    (as returned by :func:`born_tables`).

    The tables come from a norm-checked state in checked bases, so after
    renormalising every entry is a nonnegative |.|^2 and every sum is 1 up
    to rounding: they are built without a second check.
    """
    alphabet = _labels(alphabet)
    born_a, born_b, trans = tables
    if born_a.shape != (len(alphabet),):
        raise ValidationError(
            f"expected {len(alphabet)} probabilities, got shape {born_a.shape}"
        )
    return ContextData(
        marginal_a=_derived(Distribution, probs=born_a / born_a.sum(), alphabet=alphabet),
        marginal_b=_derived(Distribution, probs=born_b / born_b.sum(), alphabet=alphabet),
        trans_b_given_a=_derived(
            TransitionMatrix, rows=trans / trans.sum(axis=1, keepdims=True), alphabet=alphabet
        ),
        trans_a_given_b=_derived(
            TransitionMatrix, rows=trans.T / trans.T.sum(axis=1, keepdims=True), alphabet=alphabet
        ),
    )


def _verify_round_trip(rep: QLRepresentation) -> None:
    data = rep.source
    born_a, born_b, trans = rep._born_tables
    worst = max(
        float(np.abs(born_b - data.marginal_b.probs).max()),
        float(np.abs(born_a - data.marginal_a.probs).max()),
        float(np.abs(trans - data.trans_b_given_a.rows).max()),
    )
    if worst > PHASE_TOL:
        raise ValidationError(
            f"representation fails the probability round-trip by {worst:.3g}"
        )


def reconstruct_data(rep: QLRepresentation) -> ContextData:
    """Recover the context from the representation via squared inner products.

    Computed once per representation from the Born tables that the round
    trip already checked: repeated calls return the same object.
    """
    return rep._reconstructed


def _complex_pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def representation_to_json(rep: QLRepresentation) -> dict:
    return {
        "lambda": rep.profile.lambdas.tolist(),
        "theta": rep.profile.thetas.tolist(),
        "classification": rep.profile.classification,
        "psi": _complex_pairs(rep.psi),
        "a_basis": [_complex_pairs(v) for v in rep.a_basis.vectors],
        "b_basis": [_complex_pairs(v) for v in rep.b_basis.vectors],
        "reconstructed": context_to_json(reconstruct_data(rep)),
    }
