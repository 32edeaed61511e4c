"""The four benchmark workloads: seeded inputs, the in-process job, its
output checks and the CLI script.

Inputs are drawn with numpy from the workload seed alone, and qlgame only
receives the generated values.  Each workload follows one computation of
the source paper:

- ``analytic``: amplitude reconstruction and payoff averages over a batch
  of contexts, many small calls;
- ``classicality``: the Bell grid and batches of pairwise systems, per
  point linear programs;
- ``simulate``: seeded game simulation, O(trials) sampling;
- ``sequence``: trial-level sampling and frequency estimation.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qlgame as ql
import oracles as orc
from oracles import ALPHABET

KEYS3 = (("a", "b"), ("b", "c"), ("c", "a"))
MATCH = [[1.0, -1.0], [-1.0, 1.0]]
MIRROR = [[-1.0, 1.0], [1.0, -1.0]]


@dataclass
class Step:
    """One ``python -m qlgame`` call: its arguments (``--output`` appended),
    the exit code it must give and a checker of the output text."""

    args: list[str]
    expect: int
    output: Path
    check: Callable[[str], list[str]] | None = None

    @property
    def argv(self) -> list[str]:
        return [*self.args, "--output", str(self.output)]


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def quiet_game(doc: dict):
    """Games whose payoffs break the natural sign convention warn; the
    generated payoffs are random, so the warning is expected."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ql.game_from_json(doc)


def symmetric_raw(p: float, q: float, r: float) -> dict:
    t = [[q, 1.0 - q], [1.0 - q, q]]
    return {"marginal_a": [p, 1.0 - p], "marginal_b": [r, 1.0 - r],
            "trans_b_given_a": t, "trans_a_given_b": t}


def mirrored_game(h: np.ndarray) -> dict:
    """Zero-sum two-part game: bob tests for ``h`` in part 1 and pays it
    back in part 2, where he chooses."""
    h = np.asarray(h, float).tolist()
    neg = (-np.asarray(h)).tolist()
    return {
        "players": ["alice", "bob"],
        "zero_sum": True,
        "parts": [
            {"chooser": "alice", "tester": "bob", "payoffs": {"bob": h, "alice": neg}},
            {"chooser": "bob", "tester": "alice", "payoffs": {"bob": neg, "alice": h}},
        ],
    }


def spin_game() -> dict:
    names = ("alice", "bob", "cecilia")
    parts = [
        {"chooser": names[k], "tester": names[(k + 1) % 3],
         "payoffs": {names[(k + 1) % 3]: MATCH, names[k]: MIRROR}}
        for k in range(3)
    ]
    return {"players": list(names), "zero_sum": True, "parts": parts}


def spin_raw(ti: float, tj: float) -> dict:
    c = math.cos((ti - tj) / 2.0) ** 2
    t = [[c, 1.0 - c], [1.0 - c, c]]
    return {"marginal_a": [0.5, 0.5], "marginal_b": [0.5, 0.5],
            "trans_b_given_a": t, "trans_a_given_b": t}


def spin_angles(rng: np.random.Generator) -> tuple[float, float, float]:
    """Three angles whose pairwise transitions stay strictly positive."""
    while True:
        t = rng.uniform(0.0, 2.0 * math.pi, 3)
        c = np.cos((t - np.roll(t, -1)) / 2.0) ** 2
        if np.all((c > 1e-6) & (c < 1.0 - 1e-6)):
            return tuple(float(x) for x in t)


def trig_triple(rng: np.random.Generator) -> tuple[float, float, float]:
    """p, q, r as the acceptance suite draws them: uniform on [0.02, 0.98],
    rejected until every |lambda| <= 1."""
    while True:
        p, q, r = (float(x) for x in rng.uniform(0.02, 0.98, 3))
        if orc.lambda_magnitude(p, q, r) <= 1.0:
            return p, q, r


def placed_triple(rng: np.random.Generator, scale: Callable[[], float]) -> tuple[float, float, float]:
    """p, q uniform and r = pred +- scale() * 2 sqrt(pq(1-p)(1-q)), so that
    |lambda| = scale(); redrawn until r stays in [0.02, 0.98]."""
    while True:
        p, q = (float(x) for x in rng.uniform(0.02, 0.98, 2))
        pred = p * q + (1.0 - p) * (1.0 - q)
        r = pred + rng.choice((-1.0, 1.0)) * scale() * 2.0 * math.sqrt(p * q * (1 - p) * (1 - q))
        if 0.02 <= r <= 0.98:
            return p, q, float(r)


def random_bases(rng: np.random.Generator, n: int):
    """A unit state and two orthonormal bases (rows) from complex Gaussians."""
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    bases = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        bases.append(q.T)
    return psi / np.linalg.norm(psi), bases[0], bases[1]


def born_tables(psi, a, b):
    """Part tables of the n-dimensional game: part 1 chooses on ``a``,
    part 2 on ``b``; ``overlap[i, j] = |<b_i, a_j>|^2``."""
    overlap = np.abs(b @ a.conj().T) ** 2
    born_a = np.abs(a.conj() @ psi) ** 2
    born_b = np.abs(b.conj() @ psi) ** 2
    return born_a[:, None] * overlap.T, born_b[:, None] * overlap


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path, full: bool = True):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.full = full
        self.rng = np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def job(self, ledger: orc.Ledger):
        raise NotImplementedError

    def check(self, out, ledger: orc.Ledger) -> None:
        raise NotImplementedError

    def cli_steps(self) -> list[Step]:
        raise NotImplementedError


class Analytic(Workload):
    name = "analytic"
    why = ("thousands of small reconstruction and average calls: per-call "
           "validation, Python overhead and CLI start-up dominate")
    CONTEXTS = 300
    HYPERBOLIC_SHARE = 0.1
    BOUNDARY_SHARE = 0.1
    TRIPLES = 20
    MULTIDIM = 20

    def __init__(self, seed, workdir, full=True):
        super().__init__(seed, workdir, full)
        rng = self.rng
        n = self.CONTEXTS if full else 2
        n_hyp = int(n * self.HYPERBOLIC_SHARE) if full else 1
        n_near = int(n * self.BOUNDARY_SHARE) if full else 0
        kinds = ["ordinary"] * (n - n_hyp - n_near) + ["hyperbolic"] * n_hyp + ["boundary"] * n_near
        self.kinds = [kinds[k] for k in rng.permutation(n)]
        self.contexts = []
        for kind in self.kinds:
            if kind == "ordinary":
                triple = trig_triple(rng)
            elif kind == "hyperbolic":
                triple = placed_triple(rng, lambda: rng.uniform(1.05, 2.0))
            else:
                triple = placed_triple(rng, lambda: 1.0 - 10.0 ** rng.uniform(-13.0, -6.0))
            self.contexts.append(symmetric_raw(*triple))
        self.h = rng.uniform(-2.0, 2.0, (2, 2))
        self.game = mirrored_game(self.h)
        self.triples = [
            [spin_raw(t[i], t[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
            for t in (spin_angles(rng) for _ in range(self.TRIPLES if full else 1))
        ]
        self.multidim = []
        for _ in range(self.MULTIDIM if full else 1):
            psi, a, b = random_bases(rng, 4)
            self.multidim.append((psi, a, b, rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4))))

    def job(self, ledger):
        spec = quiet_game(self.game)
        tester = spec.parts[0].payoffs["bob"]
        refusal = ql.HyperbolicContextError
        contexts = []
        for i, (kind, raw) in enumerate(zip(self.kinds, self.contexts)):
            with ledger.op(refusal if kind == "hyperbolic" else None):
                ctx = ql.validate_context_data(raw)
                report = ql.bayes_consistency(ctx)
                rep = ql.build_representation(ctx)
                back = ql.reconstruct_data(rep)
                doc = ql.representation_to_json(rep)
                prob = ql.total_averages(spec, ctx)
                qlf = ql.ql_average(rep, spec)
                factored = ql.zero_sum_symmetric_average(rep, tester)
                interference = ql.interference_average(rep, tester)
                contexts.append((i, report, rep, back, doc, prob, qlf, factored, interference))
        triples = []
        for k, raws in enumerate(self.triples):
            with ledger.op():
                pairs = {key: ql.validate_context_data(raw) for key, raw in zip(KEYS3, raws)}
                triples.append((k, ql.three_player_representations(pairs)))
        multidim = []
        for k, (psi, a, b, h1, h2) in enumerate(self.multidim):
            with ledger.op():
                value = ql.multidim_average(psi, ql.OrthonormalBasis(a), ql.OrthonormalBasis(b), h1, h2)
                multidim.append((k, value))
        return contexts, triples, multidim

    def check(self, out, ledger):
        contexts, triples, multidim = out
        for i, report, rep, back, doc, prob, qlf, factored, interference in contexts:
            raw = self.contexts[i]
            rebuilt = (back.marginal_a.probs, back.marginal_b.probs,
                       back.trans_b_given_a.rows, back.trans_a_given_b.rows)
            recon = doc["reconstructed"]
            ledger.judge(f"context {i}", [
                *orc.check_reversibility(raw, report.max_discrepancy),
                *orc.check_round_trip(raw, rep.psi, rep.a_basis.vectors, rep.b_basis.vectors),
                *orc.check_reconstruction(raw, rebuilt),
                *orc.check_reconstruction(raw, [recon[k] for k in orc.CONTEXT_KEYS]),
                *orc.check_antisymmetry(doc["lambda"]),
                *orc.check_averages(orc.two_player_totals(raw, self.h), prob.totals,
                                    qlf.totals, factored, interference),
            ])
        for k, report in triples:
            raws = dict(zip(KEYS3, self.triples[k]))
            problems = []
            for pair, rep in zip(report.pairs, report.representations):
                problems += orc.check_round_trip(raws[tuple(pair)], rep.psi,
                                                 rep.a_basis.vectors, rep.b_basis.vectors)
            for u in report.unitaries:
                if np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) > orc.ROUND_TRIP_TOL:
                    problems.append("basis map is not unitary")
            ledger.judge(f"triple {k}", problems)
        for k, value in multidim:
            want = orc.multidim_expected(*self.multidim[k])
            ledger.judge(f"multidim {k}", [] if abs(value - want) <= orc.AVERAGE_TOL
                         else [f"multidim average {value!r}, expected {want!r}"])

    def cli_steps(self):
        d = self.workdir
        game = write_json(d / "game.json", self.game)
        ordinary = [i for i, kind in enumerate(self.kinds) if kind == "ordinary"][:2]
        steps = []
        for n, i in enumerate(ordinary):
            raw = self.contexts[i]
            ctx = write_json(d / f"context{n}.json", raw)
            steps += [
                Step(["validate", "--input", ctx], 0, d / f"validate{n}.json", _validate_check(raw)),
                Step(["qlra", "--input", ctx], 0, d / f"qlra{n}.json", _qlra_check(raw)),
                Step(["average", "--game", game, "--context", ctx, "--ql"], 0,
                     d / f"average{n}.json", _average_check(orc.two_player_totals(raw, self.h))),
            ]
        hyp = self.contexts[self.kinds.index("hyperbolic")]
        steps.append(Step(["qlra", "--input", write_json(d / "hyperbolic.json", hyp)], 1,
                          d / "hyperbolic_out.json"))
        return steps


def _validate_check(raw):
    def check(text):
        doc = json.loads(text)
        problems = [f"{k} is {doc.get(k)!r}" for k in ("valid", "r1_symmetric", "r2_positive")
                    if doc.get(k) is not True]
        err = max(orc.worst(doc["context"][k], raw[k]) for k in orc.CONTEXT_KEYS)
        return problems + ([f"context echoed off by {err:.3g}"] if err > orc.CLI_TOL else [])
    return check


def _qlra_check(raw):
    def check(text):
        doc = json.loads(text)
        problems = [] if doc["classification"] == "trigonometric" else [doc["classification"]]
        problems += orc.check_round_trip(raw, _complex(doc["psi"]),
                                         [_complex(v) for v in doc["a_basis"]],
                                         [_complex(v) for v in doc["b_basis"]])
        problems += orc.check_reconstruction(raw, [doc["reconstructed"][k] for k in orc.CONTEXT_KEYS])
        return problems + orc.check_antisymmetry(doc["lambda"], orc.CLI_TOL)
    return check


def _complex(pairs) -> np.ndarray:
    return np.array([complex(x, y) for x, y in pairs])


def _average_check(expected):
    def check(text):
        doc = json.loads(text)
        problems = []
        for key in ("totals", "ql_totals"):
            for player, value in expected.items():
                if abs(doc[key][player] - value) > orc.AVERAGE_TOL:
                    problems.append(f"{key} {player} {doc[key][player]!r}, expected {value!r}")
        return problems
    return check


class Classicality(Workload):
    name = "classicality"
    why = ("per-point joint-feasibility linear programs over the Bell grid "
           "and batches of k = 2 and k = 3 pairwise systems")
    # pi/6 gives 12^3 = 1,728 grid points at the same per-point cost as the
    # pi/12 grid, so that one run holds enough passes to be steady.
    STEP = math.pi / 6.0
    ATOM_SYSTEMS = 100
    SPIN_SYSTEMS = 100
    K3_SYSTEMS = 50
    K3_ALPHABET = ("F", "I", "X")

    def __init__(self, seed, workdir, full=True):
        super().__init__(seed, workdir, full)
        rng = self.rng
        size = lambda n: n if full else 1
        self.step = self.STEP if full else math.pi
        self.atoms = [rng.dirichlet(np.ones(8)).reshape(2, 2, 2) for _ in range(size(self.ATOM_SYSTEMS))]
        self.spins = [spin_angles(rng) for _ in range(size(self.SPIN_SYSTEMS))]
        self.k3 = [rng.dirichlet(np.ones(27)).reshape(3, 3, 3) for _ in range(size(self.K3_SYSTEMS))]

    @staticmethod
    def system(x: np.ndarray, alphabet=ALPHABET):
        ma, mb, mc, jab, jbc, jca = orc.system_tables(x)
        dist = lambda p: ql.Distribution(p, alphabet)
        return ql.PairwiseSystem(
            marginal_a=dist(ma), marginal_b=dist(mb), marginal_c=dist(mc),
            joint_ab=ql.JointTable(("a", "b"), jab, alphabet),
            joint_bc=ql.JointTable(("b", "c"), jbc, alphabet),
            joint_ca=ql.JointTable(("c", "a"), jca, alphabet),
        )

    def job(self, ledger):
        rows = None
        with ledger.op():
            rows = list(ql.bell_scan(self.step))
        k2 = []
        for k, x in enumerate(self.atoms):
            with ledger.op():
                system = self.system(x)
                k2.append(("atoms", k, ql.joint_feasibility(system), ql.bell_check(system)))
        for k, angles in enumerate(self.spins):
            with ledger.op():
                system = ql.spin_system(*angles)
                k2.append(("spin", k, ql.joint_feasibility(system), ql.bell_check(system)))
        k3 = []
        for k, x in enumerate(self.k3):
            with ledger.op():
                k3.append((k, ql.joint_feasibility(self.system(x, self.K3_ALPHABET))))
        return rows, k2, k3

    def tables(self, kind: str, k: int):
        if kind == "atoms":
            return orc.system_tables(self.atoms[k])
        t = self.spins[k]
        u = np.array([0.5, 0.5])
        joints = [orc.part_table(u, spin_raw(t[i], t[j])["trans_b_given_a"])
                  for i, j in ((0, 1), (1, 2), (2, 0))]
        return (u, u, u, *joints)

    def check(self, out, ledger):
        rows, k2, k3 = out
        if rows is not None:
            ledger.judge("bell grid", orc.check_bell_rows(rows, self.step))
        for kind, k, feas, report in k2:
            tables = self.tables(kind, k)
            expect, covs = orc.k2_expectation(tables)
            if kind == "spin":
                t = self.spins[k]
                covs = (math.cos(t[0] - t[1]), math.cos(t[1] - t[2]), math.cos(t[2] - t[0]))
            got = (report.cov_ab, report.cov_bc, report.cov_ca)
            problems = orc.check_feasibility(tables, feas.feasible, feas.witness, expect)
            problems += orc.check_feasibility(tables, report.lp_feasible, report.witness, expect)
            if orc.worst(got, covs) > orc.COVARIANCE_TOL:
                problems.append(f"covariances {got}, expected {covs}")
            if report.violated and report.lp_feasible:
                problems.append("violated but feasible")
            ledger.judge(f"{kind} system {k}", problems)
        for k, feas in k3:
            tables = orc.system_tables(self.k3[k])
            ledger.judge(f"k3 system {k}", orc.check_feasibility(tables, feas.feasible, feas.witness, True))

    def cli_steps(self):
        d = self.workdir
        ma, mb, mc, jab, jbc, jca = orc.system_tables(self.atoms[0])
        system = {"marginal_a": ma.tolist(), "marginal_b": mb.tolist(), "marginal_c": mc.tolist(),
                  "joint_ab": jab.tolist(), "joint_bc": jbc.tolist(), "joint_ca": jca.tolist()}
        spin_expect = orc.k2_expectation(self.tables("spin", 0))[0]
        return [
            Step(["bell", "--grid", repr(self.STEP)], 0, d / "grid.csv",
                 lambda text: _grid_check(text, self.STEP)),
            Step(["feasibility", "--input", write_json(d / "system.json", system)], 0,
                 d / "feasibility0.json", _feasibility_check(self.tables("atoms", 0), True)),
            Step(["feasibility", "--thetas", ",".join(repr(t) for t in self.spins[0])], 0,
                 d / "feasibility1.json", _feasibility_check(self.tables("spin", 0), spin_expect)),
        ]


def _grid_check(text: str, step: float) -> list[str]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(_csv_value, line.split(",")))) for line in lines[1:]]
    return orc.check_bell_rows(rows, step, tol=orc.CLI_TOL)


def _csv_value(cell: str):
    return {"true": True, "false": False}[cell] if cell in ("true", "false") else float(cell)


def _feasibility_check(tables, expect):
    def check(text):
        doc = json.loads(text)
        witness = None
        if doc["witness"] is not None:
            idx = {label: k for k, label in enumerate(ALPHABET)}
            witness = np.zeros((2, 2, 2))
            for key, value in doc["witness"].items():
                witness[tuple(idx[c] for c in key)] = value
        return orc.check_feasibility(tables, doc["feasible"], witness, expect)
    return check


class Simulate(Workload):
    name = "simulate"
    why = ("O(trials) seeded sampling of whole games; the CLI simulates 1e7 "
           "trials, whose per-trial arrays set its peak memory")
    TRIALS = 2 * 10**6
    PARTITIONS = 4
    SIDE_TRIALS = 5 * 10**5
    CLI_TRIALS = 10**7

    def __init__(self, seed, workdir, full=True):
        super().__init__(seed, workdir, full)
        rng = self.rng
        self.trials = self.TRIALS if full else 1000
        self.side_trials = self.SIDE_TRIALS if full else 1000
        self.context = symmetric_raw(*(float(x) for x in rng.uniform(0.02, 0.98, 3)))
        self.h = rng.uniform(-2.0, 2.0, (2, 2))
        self.game = mirrored_game(self.h)
        t = spin_angles(rng)
        self.spin_contexts = [spin_raw(t[i], t[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        self.psi, self.a, self.b = random_bases(rng, 4)
        self.h1 = rng.uniform(-1, 1, (4, 4))
        self.h2 = rng.uniform(-1, 1, (4, 4))
        self.reference = None  # report documents of the first pass
        self.cli_reference = None  # CLI output of the first script

    def job(self, ledger):
        docs = []
        for partitions in (1, self.PARTITIONS):
            with ledger.op():
                spec = quiet_game(self.game)
                ctx = ql.validate_context_data(self.context)
                report = ql.simulate_game(spec, ctx, trials=self.trials, seed=self.seed,
                                          partitions=partitions)
                docs.append(ql.report_to_json(report))
        with ledger.op():
            names = ("alice", "bob", "cecilia")
            pairs = {(names[i], names[(i + 1) % 3]): ql.validate_context_data(raw)
                     for i, raw in enumerate(self.spin_contexts)}
            report = ql.simulate_game(quiet_game(spin_game()), pairs, trials=self.side_trials,
                                      seed=self.seed)
            docs.append(ql.report_to_json(report))
        with ledger.op():
            report = ql.simulate_multidim(self.psi, ql.OrthonormalBasis(self.a),
                                          ql.OrthonormalBasis(self.b), self.h1, self.h2,
                                          trials=self.side_trials, seed=self.seed)
            docs.append(ql.report_to_json(report))
        return docs

    def expectations(self):
        """(trials, part tables, per-part payoffs) for each job document."""
        pa, pb, tba, tab = orc.context_arrays(self.context)
        h = self.h
        two = ([orc.part_table(pa, tba), orc.part_table(pb, tab)],
               [{"bob": h, "alice": -h}, {"bob": -h, "alice": h}])
        names = ("alice", "bob", "cecilia")
        spin = ([orc.part_table([0.5, 0.5], raw["trans_b_given_a"]) for raw in self.spin_contexts],
                [{names[(k + 1) % 3]: np.array(MATCH), names[k]: np.array(MIRROR)} for k in range(3)])
        multi = (list(born_tables(self.psi, self.a, self.b)), [{"b": self.h1}, {"b": self.h2}])
        return [(self.trials, *two), (self.trials, *two),
                (self.side_trials, *spin), (self.side_trials, *multi)]

    def check(self, docs, ledger):
        if self.reference is None:
            self.reference = docs
        for k, (doc, (trials, tables, payoffs)) in enumerate(zip(docs, self.expectations())):
            problems = orc.check_simulation(doc, trials, tables, payoffs)
            if json.dumps(doc) != json.dumps(self.reference[k]):
                problems.append("same seed gave a different report")
            ledger.judge(f"simulation {k}", problems)

    def cli_steps(self):
        d = self.workdir
        _, tables, payoffs = self.expectations()[1]
        trials = self.CLI_TRIALS if self.full else self.trials

        def check(text):
            problems = orc.check_simulation(json.loads(text), trials, tables, payoffs)
            if self.cli_reference is None:
                self.cli_reference = text
            elif text != self.cli_reference:
                problems.append("same seed gave a different CLI output")
            return problems

        return [Step(["simulate", "--game", write_json(d / "game.json", self.game),
                      "--context", write_json(d / "context.json", self.context),
                      "--trials", str(trials), "--seed", str(self.seed),
                      "--partitions", str(self.PARTITIONS)], 0, d / "simulate.json", check)]


class Sequence(Workload):
    name = "sequence"
    why = ("trial-level sampling of one game part and frequency estimation "
           "on a 5e5-trial sequence, the only user of frequency and file parsing")
    TRIALS = 5 * 10**5
    WINDOW = 0.1
    CLI_WINDOWS = (0.1, 0.05)

    def __init__(self, seed, workdir, full=True):
        super().__init__(seed, workdir, full)
        rng = self.rng
        self.trials = self.TRIALS if full else 1000
        p = float(rng.uniform(0.2, 0.8))
        self.marginal = np.array([p, 1.0 - p])
        u, v = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        self.rows = np.array([[u, 1.0 - u], [v, 1.0 - v]])
        self.path = self.workdir / "sequence.txt"
        # The label file holds the tester's answers of this very sequence;
        # the job samples it again from the same streams and reads it back.
        _, _, tester = self.play(orc.Ledger())
        self.path.write_text("\n".join(tester) + "\n")

    def play(self, ledger):
        """Chooser draws, then each answer from the stream its outcome selects."""
        stream = "sequence:chooser"
        with ledger.op():
            chooser = ql.sample_outcomes(ql.GeneratorSpec(ql.Distribution(self.marginal), stream),
                                         self.trials, ql.stream_rng(self.seed, stream))
        answers = {}
        for k, label in enumerate(ALPHABET):
            stream = f"sequence:answer|{label}"
            with ledger.op():
                answers[label] = ql.sample_outcomes(
                    ql.GeneratorSpec(ql.Distribution(self.rows[k]), stream),
                    chooser.outcomes.count(label), ql.stream_rng(self.seed, stream))
        streams = {label: iter(seq.outcomes) for label, seq in answers.items()}
        tester = tuple(map(next, map(streams.__getitem__, chooser.outcomes)))
        return chooser.outcomes, {label: seq.outcomes for label, seq in answers.items()}, tester

    def job(self, ledger):
        chooser, answers, tester = self.play(ledger)
        seqs = {"chooser": ql.TrialSequence(chooser, "chooser"),
                "tester": ql.TrialSequence(tester, "tester")}
        out = {"chooser": chooser, "tester": tester, "answers": answers}
        for role, seq in seqs.items():
            with ledger.op():
                out[f"freq:{role}"] = ql.estimate_frequencies(seq)
            with ledger.op():
                out[f"stab:{role}"] = ql.stabilization_report(seq, self.WINDOW)
        pairs = tuple(zip(chooser, tester))
        for label in ALPHABET:
            with ledger.op():
                out[f"cond:{label}"] = ql.conditional_frequencies(pairs, label)
        with ledger.op():
            read = ql.read_sequence(self.path)
            out["read"] = (read.outcomes, ql.estimate_frequencies(read))
        return out

    def check(self, out, ledger):
        chooser, tester = out["chooser"], out["tester"]
        problems = [] if len(chooser) == self.trials else [f"{len(chooser)} chooser draws"]
        ledger.judge("chooser draws", problems + orc.check_draws(chooser, self.marginal))
        c = np.asarray(chooser)
        t = np.asarray(tester)
        for k, label in enumerate(ALPHABET):
            drawn = out["answers"][label]
            problems = [] if len(drawn) == int(np.sum(c == label)) else ["answer count"]
            ledger.judge(f"answers|{label}", problems + orc.check_draws(drawn, self.rows[k]))
        for role, labels in (("chooser", c), ("tester", t)):
            ledger.judge(f"frequencies {role}", orc.check_frequencies(out[f"freq:{role}"].probs, labels))
            stab = out[f"stab:{role}"]
            want = orc.tail_oscillation(labels, self.WINDOW)
            problems = orc.check_oscillation(stab.max_tail_oscillation, want)
            problems += orc.check_frequencies(stab.final_frequencies.probs, labels)
            if stab.stabilized != (stab.max_tail_oscillation <= 0.01):
                problems.append("stabilized flag contradicts the oscillation")
            ledger.judge(f"stabilization {role}", problems)
        for label in ALPHABET:
            ledger.judge(f"conditional|{label}",
                         orc.check_frequencies(out[f"cond:{label}"].probs, t[c == label]))
        outcomes, freq = out["read"]
        problems = [] if outcomes == tester else ["file read back differs from the sequence"]
        ledger.judge("read", problems + orc.check_frequencies(freq.probs, t))

    def cli_steps(self):
        labels = np.asarray(self.path.read_text().split())
        n = labels.size
        counts = orc.label_counts(labels)

        def checker(window):
            want_osc = orc.tail_oscillation(labels, window)

            def check(out):
                doc = json.loads(out)
                problems = [] if doc["trials"] == n else [f"trials {doc['trials']}, expected {n}"]
                for label, count in zip(ALPHABET, counts):
                    want = float(f"{count / n:.12g}")
                    if doc["frequencies"][label] != want:
                        problems.append(f"frequency {label} {doc['frequencies'][label]!r}, expected {want!r}")
                stab = doc["stabilization"]
                problems += orc.check_oscillation(stab["max_tail_oscillation"], want_osc)
                if stab["stabilized"] != (want_osc <= stab["tol"]):
                    problems.append("stabilized flag contradicts the oscillation")
                return problems

            return check

        return [Step(["estimate", "--input", str(self.path), "--window", repr(w)], 0,
                     self.workdir / f"estimate{k}.json", checker(w))
                for k, w in enumerate(self.CLI_WINDOWS)]


WORKLOADS = {w.name: w for w in (Analytic, Classicality, Simulate, Sequence)}
