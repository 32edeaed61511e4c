"""Command-line surface: data validation, amplitude reconstruction, payoff
averages, Bell scans, feasibility checks, simulations and frequency
estimation, with JSON/CSV output.

Exit status: 0 on success, 1 on a domain error (validation failure,
hyperbolic context, ...), 2 on usage or I/O errors, including input files
that are not UTF-8 or not JSON and a failed write to stdout or
``--output``.  Every failure prints one ``error:`` line and no traceback.
Output files are only written after the computation succeeds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

from . import classicality, frequency, game, montecarlo
from .probability import (
    Distribution,
    JointTable,
    ValidationError,
    _named,
    check_reversibility,
    context_to_json,
    validate_context_data,
)
from .representation import (
    HyperbolicContextError,
    build_representation,
    representation_to_json,
)

DOMAIN_ERRORS = (ValidationError, HyperbolicContextError)

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
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_contexts(path: str):
    """Either a single context object or {"pairs": [{chooser, tester, context}]}."""
    obj = _load_json(path)
    if not (isinstance(obj, dict) and "pairs" in obj):
        return validate_context_data(obj)
    entries = obj["pairs"]
    if not isinstance(entries, list):
        raise ValidationError(
            f"pairs must be a list of pair contexts, got {type(entries).__name__}"
        )
    pairs = {}
    for entry in entries:
        try:
            key = (entry["chooser"], entry["tester"])
            pairs[key] = _named(
                f"pair ({key[0]}, {key[1]})", validate_context_data, entry["context"]
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed pair context entry: {exc}") from exc
    return pairs


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _parse_thetas(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"expected three comma-separated angles, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"bad angle in {text!r}: {exc}") from exc


def _system_from_json(obj) -> classicality.PairwiseSystem:
    try:
        return classicality.PairwiseSystem(
            marginal_a=_named("marginal_a", Distribution, obj["marginal_a"]),
            marginal_b=_named("marginal_b", Distribution, obj["marginal_b"]),
            marginal_c=_named("marginal_c", Distribution, obj["marginal_c"]),
            joint_ab=_named("joint_ab", JointTable, ("a", "b"), obj["joint_ab"]),
            joint_bc=_named("joint_bc", JointTable, ("b", "c"), obj["joint_bc"]),
            joint_ca=_named("joint_ca", JointTable, ("c", "a"), obj["joint_ca"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed pairwise system: {exc}") from exc


def _render(result) -> str:
    """Text (the ``bell`` CSV) as given, anything else as 12-digit JSON."""
    if isinstance(result, str):
        return result
    return json.dumps(_sig12(result), indent=2) + "\n"


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
    spec = game.game_from_json(_load_json(args.game))
    contexts = _load_contexts(args.context)
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


def _cmd_bell(args) -> str:
    if (args.thetas is None) == (args.grid is None):
        raise ValidationError("pass exactly one of --thetas or --grid")
    if args.thetas is not None:
        thetas = _parse_thetas(args.thetas)
        report = classicality.bell_check(classicality.spin_system(*thetas))
        fields = tuple(getattr(report, c) for c in CSV_COLUMNS[3:])
        rows = [dict(zip(CSV_COLUMNS, thetas + fields))]
    else:
        rows = classicality.bell_scan(args.grid)
    return _csv_text(rows)


def _cmd_feasibility(args) -> dict:
    if (args.input is None) == (args.thetas is None):
        raise ValidationError("pass exactly one of --input or --thetas")
    if args.thetas is not None:
        system = classicality.spin_system(*_parse_thetas(args.thetas))
    else:
        system = _system_from_json(_load_json(args.input))
    result = classicality.joint_feasibility(system)
    out = {"feasible": result.feasible, "witness": None}
    if result.witness is not None:
        out["witness"] = dict(zip(
            map("".join, itertools.product(system.alphabet, repeat=3)),
            result.witness.ravel().tolist(),
        ))
    return out


def _cmd_simulate(args) -> dict:
    spec = game.game_from_json(_load_json(args.game))
    contexts = _load_contexts(args.context)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = _render(args.func(args))
        if args.output:
            Path(args.output).write_text(payload)
        else:
            sys.stdout.write(payload)
            sys.stdout.flush()
    except (*DOMAIN_ERRORS, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DOMAIN_ERRORS) else 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
