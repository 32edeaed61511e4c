"""Tests of the benchmark itself: span arithmetic, patch restoration, the
checkers' ability to reject planted wrong outputs, failure accounting and
the stability of metric names across seeds.

Run from the repository root:  python3 -m pytest -q qlbench/tests
"""

import copy
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qlgame as ql  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a, as a suspended generator can
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("late", 9.0, 12.0, 0, 1),  # clipped to the parent's interval
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_ratios_on_hand_built_tree():
    scan = Span("classicality.bell_scan", 0.0, 4.0, -1, 1, items=2)
    spans = [
        scan,
        Span("classicality.bell_check", 0.0, 1.0, 0, 1),
        Span("classicality.joint_feasibility.k2", 0.2, 0.8, 1, 1),
        Span("classicality.bell_check", 1.0, 2.0, 0, 1),
        Span("classicality.joint_feasibility.k2", 1.2, 1.6, 3, 1),
        Span("classicality.joint_feasibility.k2", 5.0, 5.2, -1, 2),  # outside the scan
        Span("montecarlo.simulate_game", 6.0, 8.0, -1, 3, items=1000),
    ]
    m = tracing.layer_metrics(spans)
    assert m["classicality.lp_calls_per_point"] == 1.0
    assert m["classicality.joint_feasibility.k2.calls"] == 3
    assert m["classicality.joint_feasibility.k2.p50_us"] == pytest.approx(0.4e6)
    assert m["classicality.bell_check.self_s"] == pytest.approx(0.4 + 0.6)
    assert m["classicality.bell_scan.self_s"] == pytest.approx(2.0)
    assert m["montecarlo.trials_per_s"] == pytest.approx(500.0)
    assert m["hilbert.born_probability.calls"] == 0


def _qlgame_bindings():
    mods = {n: m for n, m in sys.modules.items() if n == "qlgame" or n.startswith("qlgame.")}
    bound = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()
             if k != "__warningregistry__"}  # added by the first warning a module issues
    for layer, names in tracing.LAYERS.items():
        for name in names:
            obj = getattr(sys.modules[f"qlgame.{layer}"], name)
            if inspect.isclass(obj):
                bound[(obj, "__post_init__")] = obj.__dict__["__post_init__"]
    return bound


@pytest.mark.parametrize("name", ["analytic", "classicality", "simulate", "sequence"])
def test_traced_run_restores_every_patched_attribute(name, tmp_path):
    before = _qlgame_bindings()
    workload = workloads.WORKLOADS[name](3, tmp_path, full=False)
    tracer = tracing.Tracer()
    ledger = oracles.Ledger(tracer)
    with tracer:
        # the wrappers sit on every module that bound the same object
        assert sys.modules["qlgame.game"].born_probability is not before[("qlgame.hilbert", "born_probability")]
        assert ql.build_representation is sys.modules["qlgame.representation"].build_representation
        out = workload.job(ledger)
    after = _qlgame_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    workload.check(out, ledger)
    assert ledger.correct, ledger.problems
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)


def test_cross_module_calls_are_seen():
    workload = workloads.Analytic(4, ".", full=False)
    tracer = tracing.Tracer()
    with tracer:
        workload.job(oracles.Ledger(tracer))
    m = tracing.layer_metrics(tracer.spans)
    represented = m["game.ql_average.calls"]
    assert represented >= 1
    # game binds hilbert.born_probability; 4 calls in each of 3 averages
    assert m["hilbert.born_probability.calls"] == 12 * represented
    assert m["representation.build_representation.refusals"] == 1


def test_bell_checker_rejects_flipped_lp_feasible():
    step = math.pi / 2
    rows = list(ql.bell_scan(step))
    assert oracles.check_bell_rows(rows, step) == []
    planted = copy.deepcopy(rows)
    planted[5]["lp_feasible"] = not planted[5]["lp_feasible"]
    assert oracles.check_bell_rows(planted, step)


def test_simulation_checker_rejects_count_off_by_one(tmp_path):
    workload = workloads.Simulate(5, tmp_path, full=False)
    docs = workload.job(oracles.Ledger())
    trials, tables, payoffs = workload.expectations()[0]
    assert oracles.check_simulation(docs[0], trials, tables, payoffs) == []
    planted = copy.deepcopy(docs[0])
    planted["parts"][0]["counts"][0][0] += 1
    assert oracles.check_simulation(planted, trials, tables, payoffs)


def test_frequency_checker_rejects_one_over_n():
    labels = ("F", "I", "I", "F", "I", "I", "I")
    probs = ql.estimate_frequencies(ql.TrialSequence(labels)).probs
    assert oracles.check_frequencies(probs, labels) == []
    planted = probs.copy()
    planted[0] += 1.0 / len(labels)
    assert oracles.check_frequencies(planted, labels)


def test_k2_sign_test_matches_known_verdicts():
    violating = ql.spin_system(0.0, 2.0 * math.pi / 3.0, math.pi / 3.0)
    tables = [violating.marginal_a.probs, violating.marginal_b.probs, violating.marginal_c.probs,
              violating.joint_ab.entries, violating.joint_bc.entries, violating.joint_ca.entries]
    assert oracles.k2_expectation(tables)[0] is False
    x = np.random.default_rng(0).dirichlet(np.ones(8)).reshape(2, 2, 2)
    assert oracles.k2_expectation(oracles.system_tables(x))[0] is True


def test_ledger_accounting():
    ledger = oracles.Ledger()
    with ledger.op(ql.HyperbolicContextError):
        raise ql.HyperbolicContextError("expected")
    with ledger.op():
        raise ql.PhaseConstraintError("valid input refused")
    with ledger.op():
        raise TypeError("crash")
    with ledger.op(ql.HyperbolicContextError):
        pass  # a refusal that did not happen
    assert (ledger.attempted, ledger.failed, ledger.refused) == (4, 3, 1)
    assert ledger.errors == {"PhaseConstraintError": 1, "TypeError": 1}
    assert len(ledger.problems) == 2 and not ledger.correct


def test_repeats_count_once():
    repeats = []
    for failures in (0, 2, 1):
        repeat = oracles.Ledger()
        for k in range(5):
            with repeat.op():
                if k < failures:
                    raise ql.PhaseConstraintError("valid input refused")
        repeats.append(repeat)
    repeats[0].judge("op 6", ["wrong result"])
    total = oracles.Ledger()
    total.merge_repeats(repeats)
    assert (total.attempted, total.failed) == (5, 2)
    assert total.errors == {"PhaseConstraintError": 2}
    assert total.problems == ["op 6: wrong result"] and not total.correct


def test_cli_contract_judge(tmp_path):
    out = tmp_path / "out.json"
    refusal = workloads.Step(["qlra", "--input", "x"], 1, out)
    ledger = oracles.Ledger()
    run.judge_step(refusal, 1, "error: hyperbolic context\n", ledger)
    assert ledger.correct and ledger.refused == 1
    out.write_text("{}")
    run.judge_step(refusal, 1, "Traceback (most recent call last):\nerror: x\n", ledger)
    assert len(ledger.problems) == 2  # traceback and the file left behind
    valid = workloads.Step(["validate"], 0, out, lambda text: [])
    ledger = oracles.Ledger()
    run.judge_step(valid, 1, "error: refused\n", ledger)
    assert ledger.failed == 1 and ledger.correct


def test_seeds_give_different_inputs():
    a1 = workloads.Analytic(1, ".", full=True)
    a2 = workloads.Analytic(2, ".", full=True)
    assert a1.contexts != a2.contexts
    c1 = workloads.Classicality(1, ".", full=True)
    c2 = workloads.Classicality(2, ".", full=True)
    assert not np.array_equal(c1.atoms[0], c2.atoms[0])
    s1, s2 = workloads.Simulate(1, ".", full=True), workloads.Simulate(2, ".", full=True)
    assert s1.context != s2.context
    again = workloads.Analytic(1, ".", full=True)
    assert again.contexts == a1.contexts and again.kinds == a1.kinds


def test_two_seeds_report_the_declared_metrics(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(workloads.Sequence, "TRIALS", 5000)
    monkeypatch.setattr(run, "FLOOR_RUNS", 1)
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    with run.Launcher() as launcher:
        for traced, declared in ((False, "end_to_end"), (True, "per_layer")):
            names = []
            for seed in (1, 2):
                result = run.run_workload("sequence", seed, 1, traced, launcher)
                assert result["correct"], result["problems"]
                names.append(result["units"])
            assert names[0] == names[1] == {m["name"]: m["unit"] for m in spec[declared]}
