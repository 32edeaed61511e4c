"""Minimal complex linear algebra for finite-dimensional state spaces.

Only what the probability representation needs: the Hermitian inner
product (linear in the first argument, conjugate-linear in the second),
squared-modulus probabilities and basis expansions.  Pure states are unit
vectors; each observable is an orthonormal basis of its outcomes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .probability import ValidationError

NORM_TOL = 1e-10


class HilbertError(ValidationError):
    """Dimension mismatch or a vector/basis violating its normalization."""


def _vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise HilbertError(f"expected a vector, got shape {arr.shape}")
    return arr


def _as_complex(v) -> np.ndarray:
    arr = _vector(v)
    if not np.isfinite(arr).all():
        raise HilbertError("vector entries must be finite")
    return arr


def _inner(v: np.ndarray, w: np.ndarray) -> complex:
    """``sum_k v[k] * conj(w[k])`` of two converted vectors."""
    if v.shape != w.shape:
        raise HilbertError(f"dimension mismatch: {v.size} vs {w.size}")
    return complex(np.vdot(w, v))


def inner_product(v, w) -> complex:
    """Hermitian inner product ``sum_k v[k] * conj(w[k])``."""
    return _inner(_as_complex(v), _as_complex(w))


def norm(v) -> float:
    """Euclidean length of a vector, its squares summed exactly by ``math.fsum``.

    Only the squares and the sum are rounded, so the length stays within
    an ulp of numpy's in practice and both put it on the same side of
    1 -/+ NORM_TOL; a running sum can drift two ulps and flip that side.
    Overflow-safe: squares or a sum past the float range give inf, and a
    nan or inf entry gives nan or inf, without a numpy warning.
    """
    squares = []
    for z in _vector(v).tolist():
        squares.append(z.real * z.real)
        squares.append(z.imag * z.imag)
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class OrthonormalBasis:
    """``vectors[k]`` is the k-th basis vector; pairwise inner products are checked."""

    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=complex)
        if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
            raise HilbertError(f"expected n vectors of dimension n, got {vectors.shape}")
        if vectors.size == 0:
            raise HilbertError(f"a basis needs at least one vector, got shape {vectors.shape}")
        # an entry of modulus past 1 + NORM_TOL (or nan) fails the Gram check
        # anyway; refusing it first keeps the Gram product from overflowing
        if not np.abs(vectors).max() <= 1.0 + NORM_TOL:
            if not np.isfinite(vectors).all():
                raise HilbertError("basis vectors must be finite")
            raise HilbertError("vectors are not orthonormal")
        gram = vectors @ vectors.conj().T
        if np.abs(gram - np.eye(vectors.shape[0])).max() > NORM_TOL:
            raise HilbertError("vectors are not orthonormal")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]


def delta_basis(n: int) -> OrthonormalBasis:
    """The standard basis of size n; one shared, read-only instance per size."""
    # checked before the cache, where 2.0 and True would hit the entries of 2 and 1
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise HilbertError(f"basis size must be an integer, got {n!r}")
    if n < 1:
        raise HilbertError(f"basis size must be at least 1, got {n}")
    return _delta_basis(int(n))


@lru_cache(maxsize=8)
def _delta_basis(n: int) -> OrthonormalBasis:
    return OrthonormalBasis(np.eye(n, dtype=complex))


def _unit(v, what: str) -> np.ndarray:
    """``v`` converted, refused unless its norm is within NORM_TOL of 1.

    A nan or inf entry makes the norm nan or inf, so a finite vector is
    accepted on the norm alone; a refused one is named non-finite first.
    """
    arr = _vector(v)
    length = norm(arr)
    if not abs(length - 1.0) <= NORM_TOL:
        _as_complex(arr)
        raise HilbertError(f"{what} has norm {length:.12g}, expected 1")
    return arr


def born_probability(state, basis_vector) -> float:
    """Squared modulus ``|<state, basis_vector>|^2`` for unit-norm inputs."""
    state = _unit(state, "state")
    return abs(_inner(state, _unit(basis_vector, "basis vector"))) ** 2


def expand_in_basis(v, basis: OrthonormalBasis) -> np.ndarray:
    """Coefficients ``c_k = <v, e_k>`` so that ``v = sum_k c_k e_k``."""
    v = _as_complex(v)
    if v.size != basis.dimension:
        raise HilbertError(f"dimension mismatch: {v.size} vs {basis.dimension}")
    return basis.vectors.conj() @ v

