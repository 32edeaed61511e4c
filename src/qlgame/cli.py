"""Command-line surface: data validation, amplitude reconstruction, payoff
averages, Bell scans, feasibility checks, simulations and frequency
estimation, with JSON/CSV output.

Exit status: 0 on success, 1 on a domain error (validation failure,
hyperbolic context, ...), 2 on usage or I/O errors, including input files
that are not UTF-8 or not JSON and a failed write to stdout or
``--output`` (a full disk, a closed pipe).  Every failure prints one
``error:`` line and no traceback; a payoff sign advisory prints one
``warning:`` line and leaves the exit status as it is.  Every result is
written as a sequence of text pieces: one JSON document, or the ``bell``
CSV line by line as it is computed.  Refusals come before any output, and
an ``--output`` file replaces the previous one only once it is complete.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import operator
import os
import stat
import sys
import uuid
import warnings
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import classicality, frequency, game, montecarlo
from .probability import (
    Distribution,
    JointTable,
    ValidationError,
    _document_alphabet,
    _field,
    _list,
    _mapping,
    _name,
    _named,
    check_reversibility,
    context_to_json,
    validate_context_data,
)
from .representation import build_representation, representation_to_json

CSV_COLUMNS = (
    "theta1", "theta2", "theta3",
    "cov_ab", "cov_bc", "cov_ca",
    "lhs", "rhs", "violated", "lp_feasible",
)


def _sig12(value):
    """Round floats to 12 significant digits for diff-stable output."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _sig12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig12(v) for v in value]
    return value


def _load_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8-sig"))


def _load_game(args):
    """The --game spec and its --context: one context or {"pairs": [{chooser, tester, context}]}."""
    spec = game.game_from_json(_load_json(args.game))
    obj = _load_json(args.context)
    if not (isinstance(obj, dict) and "pairs" in obj):
        return spec, validate_context_data(obj)
    pairs = {}
    for k, entry in enumerate(_list(obj["pairs"], "pairs", "pair contexts")):
        entry = _mapping(entry, f"pair {k}")
        key = tuple(_name(entry, x, f"pair {k}") for x in ("chooser", "tester"))
        name = f"pair ({key[0]}, {key[1]})"
        if key in pairs:
            raise ValidationError(f"{name} is given twice")
        pairs[key] = _named(name, validate_context_data, _field(entry, "context", f"pair {k}"))
    return spec, pairs


def _csv_lines(rows) -> Iterator[str]:
    """The ``bell`` CSV one line at a time: the header, then one line per value
    tuple in ``CSV_COLUMNS`` order, eight numbers to 12 digits and two flags."""
    yield ",".join(CSV_COLUMNS) + "\n"
    for *numbers, violated, feasible in rows:
        yield "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s,%s\n" % (
            *numbers, ("false", "true")[violated], ("false", "true")[feasible])


def _parse_thetas(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"expected three comma-separated angles, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"bad angle in {text!r}: {exc}") from exc


def _system_from_json(obj) -> classicality.PairwiseSystem:
    alphabet = _document_alphabet(_mapping(obj, "pairwise system"))
    marginals = (
        _named(key, Distribution, _field(obj, key, "pairwise system"), alphabet)
        for key in ("marginal_a", "marginal_b", "marginal_c")
    )
    joints = (
        _named(key, JointTable, tuple(key[-2:]), _field(obj, key, "pairwise system"), alphabet)
        for key in ("joint_ab", "joint_bc", "joint_ca")
    )
    return classicality.PairwiseSystem(*marginals, *joints)


def _render(result) -> Iterable[str]:
    """Text pieces: the ``bell`` CSV lines as given, any other result as one
    12-digit JSON document."""
    if isinstance(result, dict):
        return (json.dumps(_sig12(result), indent=2) + "\n",)
    return result


def _cmd_validate(args) -> dict:
    data = validate_context_data(_load_json(args.input))
    rev = check_reversibility(data)
    return {
        "valid": True,
        "r1_symmetric": data.r1_symmetric,
        "r2_positive": data.r2_positive,
        "reversibility": {
            "consistent": rev.consistent,
            "max_discrepancy": rev.max_discrepancy,
        },
        "context": context_to_json(data),
    }


def _cmd_qlra(args) -> dict:
    data = validate_context_data(_load_json(args.input))
    return representation_to_json(build_representation(data))


def _cmd_average(args) -> dict:
    spec, contexts = _load_game(args)
    averages = game.total_averages(spec, contexts)
    out = {
        "parts": list(averages.part_averages),
        "totals": averages.totals,
    }
    if args.ql:
        if isinstance(contexts, dict):
            raise ValidationError("--ql applies to two-player single-context games")
        ql = game.ql_average(build_representation(contexts), spec)
        out["ql_parts"] = list(ql.part_averages)
        out["ql_totals"] = ql.totals
    return out


def _cmd_bell(args) -> Iterator[str]:
    if (args.thetas is None) == (args.grid is None):
        raise ValidationError("pass exactly one of --thetas or --grid")
    if args.thetas is not None:
        thetas = _parse_thetas(args.thetas)
        report = classicality.bell_check(classicality.spin_system(*thetas))
        rows = [thetas + operator.attrgetter(*CSV_COLUMNS[3:])(report)]
    else:
        scan = map(operator.itemgetter(*CSV_COLUMNS), classicality.bell_scan(args.grid))
        rows = itertools.chain([next(scan)], scan)  # a bad step is refused before output
    return _csv_lines(rows)


def _cmd_feasibility(args) -> dict:
    if (args.input is None) == (args.thetas is None):
        raise ValidationError("pass exactly one of --input or --thetas")
    if args.thetas is not None:
        system = classicality.spin_system(*_parse_thetas(args.thetas))
    else:
        system = _system_from_json(_load_json(args.input))
    keys = list(map("".join, itertools.product(system.alphabet, repeat=3)))
    for key, count in collections.Counter(keys).items():
        if count > 1:
            raise ValidationError(
                f"outcome labels run together: witness key {key!r} names {count} atoms")
    result = classicality.joint_feasibility(system)
    out = {"feasible": result.feasible, "witness": None}
    if result.witness is not None:
        out["witness"] = dict(zip(keys, result.witness.ravel().tolist()))
    return out


def _cmd_simulate(args) -> dict:
    spec, contexts = _load_game(args)
    report = montecarlo.simulate_game(
        spec, contexts, trials=args.trials, seed=args.seed, partitions=args.partitions
    )
    return montecarlo.report_to_json(report)


def _cmd_estimate(args) -> dict:
    if not (math.isfinite(args.window) and 0.0 < args.window <= 1.0):
        raise ValidationError(f"--window must lie in (0, 1], got {args.window!r}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValidationError(f"--tol must be finite and nonnegative, got {args.tol!r}")
    seq = frequency.read_sequence(args.input)
    freqs = frequency.estimate_frequencies(seq)
    out = {
        "trials": len(seq),
        "frequencies": {
            label: float(p) for label, p in zip(freqs.alphabet, freqs.probs)
        },
        "stabilization": None,
    }
    if len(seq) >= 2.0 / args.window:
        report = frequency.stabilization_report(seq, args.window, args.tol)
        out["stabilization"] = {
            "window_fraction": args.window,
            "tol": args.tol,
            "max_tail_oscillation": report.max_tail_oscillation,
            "stabilized": report.stabilized,
        }
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlgame",
        description="Contextual-probability wine-game toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate context data JSON")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("qlra", help="reconstruct the complex amplitude from context data")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_qlra)

    p = sub.add_parser("average", help="analytic payoff averages for a game")
    p.add_argument("--game", required=True)
    p.add_argument("--context", required=True)
    p.add_argument("--ql", action="store_true", help="also report the state-space form")
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("bell", help="three-observable correlation inequality (CSV)")
    p.add_argument("--thetas", help="comma-separated angle triple")
    p.add_argument(
        "--grid",
        type=float,
        nargs="?",
        const=math.pi / 12.0,
        help="scan step in radians over [0, 2pi)^3 (default pi/12)",
    )
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("feasibility", help="joint-distribution feasibility for three observables")
    p.add_argument("--input", help="pairwise system JSON")
    p.add_argument("--thetas", help="comma-separated angle triple (uniform marginals)")
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("simulate", help="seeded Monte Carlo game simulation")
    p.add_argument("--game", required=True)
    p.add_argument("--context", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--partitions", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="frequency estimation from a label-per-line file")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=float, default=frequency.DEFAULT_WINDOW_FRACTION)
    p.add_argument("--tol", type=float, default=frequency.DEFAULT_STABILIZATION_TOL)
    p.set_defaults(func=_cmd_estimate)

    for name, sp in sub.choices.items():
        sp.add_argument("--output", help="write result here instead of stdout")
    return parser


def _write_output(path: Path, pieces: Iterable[str]) -> None:
    """Write the text ``pieces`` to ``path`` whole or not at all.

    The text goes to a new file in the target's directory, created with the
    mode ``open(path, "w")`` would give, and replaces the target only once it
    is complete; on any failure the new file is removed.  A target that
    exists and is not a regular file (a FIFO, ``/dev/stdout``) is written
    directly.
    """
    if path.exists() and not path.is_file():
        with open(path, "w") as out:
            out.writelines(pieces)
        return
    target = path.resolve()  # a symlink keeps pointing at the new file
    temp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp, "x") as out:
            if target.exists():
                os.fchmod(out.fileno(), stat.S_IMODE(target.stat().st_mode))
            out.writelines(pieces)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        # the payoff sign advisory is one stderr line and never an error
        warnings.simplefilter("always", game.PayoffConventionWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            pieces = _render(args.func(args))
            if args.output:
                _write_output(Path(args.output), pieces)
            else:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
        except (ValidationError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, ValidationError) else 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
