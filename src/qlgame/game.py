"""Choose-and-test game payoffs and their analytic averages.

Each part of a game names a chooser and a tester; the part's joint
statistics always put the chooser first, so the two play orders of a
round never share a joint table.  Averages come in a probabilistic form
(payoff-weighted joint tables) and an equivalent state-space form built
from squared inner products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .hilbert import born_probability
from .probability import (
    ContextData,
    ValidationError,
    _field,
    _flag,
    _frozen,
    _list,
    _mapping,
    _name,
    _named,
    joint_distribution,
)
from .representation import QLRepresentation, born_tables, build_representation

ZERO_SUM_TOL = 1e-12


class PayoffConventionWarning(UserWarning):
    """A payoff entry contradicts the natural testing-game sign convention."""


@dataclass(frozen=True)
class PayoffMatrix:
    """Payoffs ``entries[chooser_outcome, tester_outcome]`` for one player
    in one game part."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError(f"payoff matrix must be square, got {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValidationError("payoff entries must be finite")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class GamePart:
    chooser: str
    tester: str
    payoffs: Mapping[str, PayoffMatrix]

    def __post_init__(self):
        object.__setattr__(self, "payoffs", dict(self.payoffs))
        if self.chooser == self.tester:
            raise ValidationError(
                f"part has identical chooser and tester {self.chooser!r}"
            )


@dataclass(frozen=True)
class GameSpec:
    """Roster, ordered parts, and per-part per-player payoff matrices."""

    players: tuple[str, ...]
    parts: tuple[GamePart, ...]
    zero_sum: bool = False

    def __post_init__(self):
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.players) not in (2, 3):
            raise ValidationError("roster must have 2 or 3 players")
        if len(set(self.players)) != len(self.players):
            raise ValidationError("player names must be distinct")
        for k, part in enumerate(self.parts):
            for name in (part.chooser, part.tester):
                if name not in self.players:
                    raise ValidationError(f"part {k} references unknown player {name!r}")
            for player in part.payoffs:
                if player not in self.players:
                    raise ValidationError(f"part {k} pays unknown player {player!r}")
            if self.zero_sum:
                shapes = [m.entries.shape for m in part.payoffs.values()]
                if len(set(shapes)) > 1:
                    raise ValidationError(f"part {k} payoff matrices differ in shape: {shapes}")
                with np.errstate(over="ignore"):
                    total = sum(m.entries for m in part.payoffs.values())
                if np.max(np.abs(total)) > ZERO_SUM_TOL:
                    raise ValidationError(
                        f"zero-sum violated in part {k}: cell sums reach "
                        f"{float(np.max(np.abs(total))):.3g}"
                    )
            _warn_on_sign_convention(k, part)


def _warn_on_sign_convention(k: int, part: GamePart) -> None:
    # Natural convention: the tester gains on the diagonal (correct answer)
    # and loses off it; the chooser is reversed, so its matrix is negated.
    # Advisory only, and it names the line that built the GameSpec.
    roles = {part.tester: ("tester", 1.0), part.chooser: ("chooser", -1.0)}
    for player, matrix in part.payoffs.items():
        if player not in roles:
            continue
        role, sign = roles[player]
        h = sign * matrix.entries
        if np.any(np.diag(h) < 0) or np.any(h[~np.eye(len(h), dtype=bool)] > 0):
            warnings.warn(
                f"part {k}: {role} {player!r} payoff signs look inverted",
                PayoffConventionWarning,
                stacklevel=4,
            )


@dataclass(frozen=True)
class GameAverages:
    """Expected payoff per part and player, with per-player totals."""

    part_averages: tuple[dict[str, float], ...]
    totals: dict[str, float]


def _weighted(payoff: PayoffMatrix, table: np.ndarray, axis=None):
    """``h * table`` summed over ``axis`` (all of it by default), refused
    unless the payoff ``h`` is shaped like the chooser-first ``table``."""
    if payoff.entries.shape != table.shape:
        raise ValidationError(
            f"payoff shape {payoff.entries.shape} does not match joint {table.shape}"
        )
    return (payoff.entries * table).sum(axis=axis)


def _averages(spec: GameSpec, tables) -> GameAverages:
    """Part averages over one chooser-first table per part: contextual
    joints, squared inner products or relative frequencies.  A lazy
    ``tables`` is read part by part, so refusals keep their part order."""
    parts = []
    for part, table in zip(spec.parts, tables):
        paid = {player: float(_weighted(h, table)) for player, h in part.payoffs.items()}
        parts.append({player: paid.get(player, 0.0) for player in spec.players})
    totals = {player: float(sum(avg[player] for avg in parts)) for player in spec.players}
    return GameAverages(tuple(parts), totals)


PairContexts = Mapping[tuple[str, str], ContextData]


def normalize_contexts(spec: GameSpec, contexts) -> PairContexts:
    if isinstance(contexts, ContextData):
        if len(spec.players) != 2:
            raise ValidationError(
                "a single context only covers a two-player game; pass a "
                "mapping of (chooser, tester) pairs to contexts"
            )
        return {(spec.players[0], spec.players[1]): contexts}
    return dict(contexts)


def part_statistics(part: GamePart, pair_contexts: PairContexts):
    """Chooser marginal and tester-given-chooser transitions for one part.

    The pair's context may be stored under either orientation; the chooser
    side selects which marginal/transition pair applies.
    """
    key = (part.chooser, part.tester)
    if key in pair_contexts:
        ctx = pair_contexts[key]
        return ctx.marginal_a, ctx.trans_b_given_a
    reverse = (part.tester, part.chooser)
    if reverse in pair_contexts:
        ctx = pair_contexts[reverse]
        return ctx.marginal_b, ctx.trans_a_given_b
    raise ValidationError(
        f"no transition data for part ({part.chooser}, {part.tester})"
    )


def total_averages(spec: GameSpec, contexts) -> GameAverages:
    """Probabilistic part averages and per-player totals.

    ``contexts`` is a single :class:`ContextData` for a two-player game, or
    a mapping from (chooser, tester) pairs to contexts.
    """
    pair_contexts = normalize_contexts(spec, contexts)
    return _averages(
        spec,
        (joint_distribution(*part_statistics(part, pair_contexts)).entries for part in spec.parts),
    )


def _born_profile(rep: QLRepresentation):
    psi = rep.psi
    born_a = np.array([born_probability(psi, v) for v in rep.a_basis.vectors])
    born_b = np.array([born_probability(psi, v) for v in rep.b_basis.vectors])
    # trans[alpha, beta] = |<e_beta^b, e_alpha^a>|^2, same modulus either way round
    return born_a, born_b, rep._born_tables[2]


def _born_weights(born_a, born_b, trans):
    """Chooser-first weights |<psi, e^chooser>|^2 |<e^chooser, e^tester>|^2
    of the two play orders: the a observable choosing, then the b one."""
    return born_a[:, None] * trans, born_b[:, None] * trans.T


def ql_average(rep: QLRepresentation, spec: GameSpec) -> GameAverages:
    """State-space form of the averages, term by term from squared inner
    products.  Agrees with :func:`total_averages` on the reconstructed data.
    """
    if len(spec.players) != 2:
        raise ValidationError("QL averages are defined for two-player games")
    weights = dict(zip(spec.players, _born_weights(*_born_profile(rep))))
    return _averages(spec, [weights[part.chooser] for part in spec.parts])


def zero_sum_symmetric_average(rep: QLRepresentation, tester_payoff_part1: PayoffMatrix) -> float:
    """Factored total for the tester of part 1 in a zero-sum game whose
    second part mirrors the first: each chooser-outcome row contributes the
    difference of the two squared state projections times its payoff row.
    """
    born_a, born_b, trans = _born_profile(rep)
    return float(((born_a - born_b) * _weighted(tester_payoff_part1, trans, axis=1)).sum())


def interference_average(rep: QLRepresentation, tester_payoff_part1: PayoffMatrix) -> float:
    """Same factored total, but with the second projection expanded through
    the basis-superposition coefficients and an explicit cosine cross term."""
    born_a, _, trans = _born_profile(rep)
    a_conj = rep.a_basis.vectors.conj()
    proj_a = a_conj @ rep.psi  # <psi, e^a_k>
    coeffs = rep.b_basis.vectors @ a_conj.T  # coeffs[x, k] = <e^b_x, e^a_k>
    z = coeffs.conj() * proj_a
    z0, z1 = z[:, 0], z[:, 1]
    cross = 2.0 * np.abs(z0) * np.abs(z1) * np.cos(np.angle(z0) - np.angle(z1))
    born_b_expanded = np.abs(z0) ** 2 + np.abs(z1) ** 2 + cross
    row_payoff = _weighted(tester_payoff_part1, trans, axis=1)
    return float(((born_a - born_b_expanded) * row_payoff).sum())


@dataclass(frozen=True)
class ThreePlayerReport:
    """Pairwise representations of a three-player game with the basis-map
    unitaries between consecutive state spaces and their identification
    discrepancies ``||U psi - psi'||``."""

    pairs: tuple[tuple[str, str], ...]
    representations: tuple[QLRepresentation, ...]
    unitaries: tuple[np.ndarray, np.ndarray]
    discrepancies: tuple[float, float]


def _cycle_order(keys) -> list[tuple[str, str]]:
    keys = [tuple(k) for k in keys]
    if len(keys) != 3:
        raise ValidationError(f"need exactly 3 pair contexts, got {len(keys)}")
    ordered = [keys[0]]
    remaining = keys[1:]
    for _ in range(2):
        nxt = [k for k in remaining if k[0] == ordered[-1][1]]
        if len(nxt) != 1:
            raise ValidationError(f"pair keys {keys} do not form a single cycle")
        ordered.append(nxt[0])
        remaining.remove(nxt[0])
    if ordered[-1][1] != ordered[0][0]:
        raise ValidationError(f"pair keys {keys} do not close into a cycle")
    return ordered


def _basis_map_unitary(source_vectors: np.ndarray, target_vectors: np.ndarray) -> np.ndarray:
    """Unitary ``sum_k |target_k><source_k|`` sending the k-th source basis
    vector to the k-th target one."""
    return target_vectors.T @ source_vectors.conj()


def three_player_representations(pair_contexts: PairContexts) -> ThreePlayerReport:
    """Build the three pairwise representations of a cyclic three-player
    game and measure how far the shared-observable basis maps carry one
    state onto the next.

    The unitary between consecutive spaces maps the shared observable's
    basis in the first space (where it is the tester's delta basis) onto
    its basis in the second (where it is the chooser's constructed basis);
    mapping the full two-vector family determines the unitary completely.
    The discrepancies are reported, not assumed zero.
    """
    contexts = {tuple(k): v for k, v in pair_contexts.items()}
    ordered = _cycle_order(contexts.keys())
    reps = [_named(f"pair {pair}", build_representation, contexts[pair]) for pair in ordered]
    unitaries = []
    discrepancies = []
    for rep_from, rep_to in ((reps[0], reps[1]), (reps[1], reps[2])):
        # shared observable: tester of rep_from == chooser of rep_to
        u = _basis_map_unitary(rep_from.b_basis.vectors, rep_to.a_basis.vectors)
        unitaries.append(u)
        discrepancies.append(float(np.linalg.norm(u @ rep_from.psi - rep_to.psi)))
    return ThreePlayerReport(
        pairs=tuple(ordered),
        representations=tuple(reps),
        unitaries=tuple(unitaries),
        discrepancies=tuple(discrepancies),
    )


def multidim_average(psi, a_basis, b_basis, payoff_part1, payoff_part2) -> float:
    """Two-part tester average in dimension n.

    Part 1: chooser outcome j weighted by ``|<psi, e_j^a>|^2``, answer i by
    ``|<e_i^b, e_j^a>|^2``.  Part 2 swaps the roles onto the b basis.
    Payoff matrices are chooser-first indexed and taken as given, so the
    sign convention is not checked.
    """
    born_a, born_b, trans = born_tables(psi, a_basis, b_basis)
    h1, h2 = (
        h if isinstance(h, PayoffMatrix) else PayoffMatrix(h)
        for h in (payoff_part1, payoff_part2)
    )
    w_a, w_b = _born_weights(born_a, born_b, trans)
    return float(_weighted(h1, w_a) + _weighted(h2, w_b))


def game_from_json(obj) -> GameSpec:
    obj = _mapping(obj, "game")
    players = _list(_field(obj, "players", "game"), "players", "names", str)
    parts = []
    for k, part in enumerate(_list(_field(obj, "parts", "game"), "parts", "game parts")):
        where = f"part {k}"
        part = _mapping(part, where)
        chooser, tester = (_name(part, x, where) for x in ("chooser", "tester"))
        payoffs = _mapping(_field(part, "payoffs", where), f"{where} payoffs")
        parts.append(GamePart(chooser, tester, {
            name: _named(f"{where} payoff {name!r}", PayoffMatrix, m) for name, m in payoffs.items()
        }))
    return GameSpec(players, parts, _flag(obj.get("zero_sum", False), "zero_sum"))
