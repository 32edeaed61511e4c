"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line per criterion (run with ``pytest -s tests/test_acceptance.py``)."""

import json
import math
import time
import warnings

import numpy as np
import pytest

import qlgame as ql
import helpers
from helpers import MATCH, MIRROR
from qlgame.montecarlo import report_to_json

VIOLATING_THETAS = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0)


@pytest.fixture(scope="module")
def thousand_contexts():
    rng = np.random.default_rng(20260809)
    return [helpers.random_trig_context(rng) for _ in range(1000)]


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_round_trip(thousand_contexts):
    start = time.perf_counter()
    for ctx in thousand_contexts:
        rep = ql.build_representation(ctx)
        assert abs(np.linalg.norm(rep.psi) - 1.0) <= 1e-10
        gram = rep.a_basis.vectors @ rep.a_basis.vectors.conj().T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10
        back = ql.reconstruct_data(rep)
        assert np.max(np.abs(back.marginal_a.probs - ctx.marginal_a.probs)) <= 1e-10
        assert np.max(np.abs(back.marginal_b.probs - ctx.marginal_b.probs)) <= 1e-10
        assert (
            np.max(np.abs(back.trans_b_given_a.rows - ctx.trans_b_given_a.rows))
            <= 1e-10
        )
        assert (
            np.max(np.abs(back.trans_a_given_b.rows - ctx.trans_a_given_b.rows))
            <= 1e-10
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"1000 random contexts round-trip at 1e-10 in {elapsed:.2f}s")


def test_criterion_2_lambda_antisymmetry(thousand_contexts):
    for ctx in thousand_contexts:
        lambdas = ql.interference_coefficients(ctx)
        assert abs(lambdas[0] + lambdas[1]) <= 1e-12
    _report(2, "lambda(F) = -lambda(I) at 1e-12 on the same 1000 contexts")


def test_criterion_3_kolmogorov_criterion():
    params = np.arange(1, 51) / 100.0  # 50 values, includes exactly 0.5
    for p in params:
        for q in params:
            report = ql.bayes_consistency(helpers.symmetric_context(p, q, p))
            uniform = p == 0.5
            assert report.consistent == uniform
            assert report.marginals_uniform == uniform
            assert report.theorem_check is True
    d1_report = ql.bayes_consistency(helpers.d1_context())
    assert not d1_report.consistent
    assert abs(d1_report.max_discrepancy - 0.125) <= 1e-12
    _report(3, "consistent iff uniform on the 50x50 grid; 1/3 case off by exactly 1/8")


def test_criterion_4_ql_probabilistic_equivalence():
    rng = np.random.default_rng(77)
    for trial in range(1000):
        ctx = helpers.random_trig_context(rng)
        rep = ql.build_representation(ctx)
        if trial % 2 == 0:
            spec = helpers.random_zero_sum_symmetric_spec(rng)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ql.PayoffConventionWarning)
                spec = ql.GameSpec(
                    ("alice", "bob"),
                    (
                        ql.GamePart(
                            "alice",
                            "bob",
                            {
                                "bob": ql.PayoffMatrix(rng.uniform(-2, 2, (2, 2))),
                                "alice": ql.PayoffMatrix(rng.uniform(-2, 2, (2, 2))),
                            },
                        ),
                        ql.GamePart(
                            "bob",
                            "alice",
                            {
                                "bob": ql.PayoffMatrix(rng.uniform(-2, 2, (2, 2))),
                                "alice": ql.PayoffMatrix(rng.uniform(-2, 2, (2, 2))),
                            },
                        ),
                    ),
                )
        ql_form = ql.ql_average(rep, spec)
        prob_original = ql.total_averages(spec, ctx)
        prob_reconstructed = ql.total_averages(spec, ql.reconstruct_data(rep))
        for player in spec.players:
            assert abs(ql_form.totals[player] - prob_original.totals[player]) <= 1e-10
            assert (
                abs(ql_form.totals[player] - prob_reconstructed.totals[player]) <= 1e-10
            )
        if spec.zero_sum:
            tester_payoff = spec.parts[0].payoffs["bob"]
            factored = ql.zero_sum_symmetric_average(rep, tester_payoff)
            interference = ql.interference_average(rep, tester_payoff)
            assert abs(factored - ql_form.totals["bob"]) <= 1e-12
            assert abs(interference - ql_form.totals["bob"]) <= 1e-10
    _report(4, "QL = probabilistic averages at 1e-10 on 1000 pairs incl. factored forms")


def test_criterion_5_bell_violation_and_grid():
    report = ql.bell_check(ql.spin_system(*VIOLATING_THETAS))
    assert abs(report.cov_ab - (-0.5)) <= 1e-12
    assert abs(report.cov_bc - 0.5) <= 1e-12
    assert abs(report.cov_ca - 0.5) <= 1e-12
    assert abs(report.lhs - 1.0) <= 1e-12
    assert abs(report.rhs - 0.5) <= 1e-12
    assert report.violated
    assert not report.lp_feasible

    start = time.perf_counter()
    step = math.pi / 12.0
    violated = infeasible = 0
    for row in ql.bell_scan(step):
        if row["violated"]:
            violated += 1
            assert not row["lp_feasible"]
        if not row["lp_feasible"]:
            infeasible += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert violated > 0

    for k in range(24):
        theta = k * step
        equal_case = ql.bell_check(ql.spin_system(theta, theta, theta))
        assert not equal_case.violated
        assert equal_case.lp_feasible
        assert abs(equal_case.witness[0, 0, 0] - 0.5) <= 1e-9
        assert abs(equal_case.witness[1, 1, 1] - 0.5) <= 1e-9
    _report(
        5,
        f"violating triple exact; grid {violated} violations all infeasible "
        f"({infeasible} infeasible total) in {elapsed:.2f}s",
    )


def test_criterion_6_monte_carlo_convergence(d1):
    start = time.perf_counter()
    spec = helpers.zero_sum_spec()
    for seed in (101, 202, 303, 404, 505):
        report = ql.simulate_game(spec, d1, trials=10**6, seed=seed)
        assert abs(report.empirical_averages.totals["bob"]) <= 0.005

    contexts = helpers.spin_pair_contexts(
        *VIOLATING_THETAS, names=("alice", "bob", "cecilia")
    )
    spin_report = ql.simulate_game(
        helpers.three_player_spin_spec(), contexts, trials=10**6, seed=606
    )
    covs = [ql.covariance(joint) for joint in spin_report.empirical_joints]
    for cov, expected in zip(covs, (-0.5, 0.5, 0.5)):
        assert abs(cov - expected) <= 0.005

    first = ql.simulate_game(spec, d1, trials=10**5, seed=707)
    second = ql.simulate_game(spec, d1, trials=10**5, seed=707)
    assert json.dumps(report_to_json(first)) == json.dumps(report_to_json(second))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        6,
        f"1e6-trial runs within 0.005 over 5 seeds + spin covariances; "
        f"bit-identical repeats; {elapsed:.2f}s",
    )


def test_criterion_7_multidim_consistency(d1):
    rng = np.random.default_rng(424242)
    a4 = helpers.random_orthonormal_basis(4, rng)
    b4 = helpers.random_orthonormal_basis(4, rng)
    psi4 = helpers.random_unit_vector(4, rng)
    h1 = rng.uniform(-1.0, 1.0, size=(4, 4))
    h2 = rng.uniform(-1.0, 1.0, size=(4, 4))
    analytic = ql.multidim_average(psi4, a4, b4, h1, h2)
    sim = ql.simulate_multidim(psi4, a4, b4, h1, h2, trials=10**6, seed=8080)
    assert abs(sim.empirical_averages.totals["b"] - analytic) <= 0.01

    rep = ql.build_representation(d1)
    spec = ql.GameSpec(
        ("alice", "bob"),
        (
            ql.GamePart("alice", "bob", {"bob": MATCH}),
            ql.GamePart("bob", "alice", {"bob": MIRROR}),
        ),
    )
    two_player = ql.ql_average(rep, spec).totals["bob"]
    reduction = ql.multidim_average(rep.psi, rep.a_basis, rep.b_basis, MATCH, MIRROR)
    assert abs(reduction - two_player) <= 1e-10
    _report(7, "n=4 simulation within 0.01 of the double sum; n=2 reduction at 1e-10")


def test_criterion_8_hyperbolic_detection():
    ctx = helpers.hyperbolic_context()
    lambdas = ql.interference_coefficients(ctx)
    assert abs(lambdas[0] - 4.0 / 3.0) <= 1e-12
    with pytest.raises(ql.HyperbolicContextError, match="hyperbolic context"):
        ql.build_representation(ctx)
    _report(8, "lambda = 4/3 detected at 1e-12 and representation refused")
