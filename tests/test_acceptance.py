"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

import bellcost as bc

from conftest import P_Q, S_Q

SQRT2 = math.sqrt(2.0)


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_01_headline_constants():
    checks = [
        abs(bc.i_R(S_Q) - 0.0463) <= 1e-3,
        abs(bc.i_C(S_Q).info - 0.0800) <= 1e-3,
        abs(bc.i_OS(S_Q) - 0.1275) <= 1e-3,
        abs(bc.i_R(4.0) - math.log2(4.0 / 3.0)) <= 1e-9,
        abs(bc.i_C(4.0).info - 1.0) <= 1e-9,
        abs(bc.i_OS(4.0) - 1.0) <= 1e-9,
        all(bc.i_SD(float(s)) == 2.0 for s in np.linspace(2.0, 4.0, 21)),
    ]
    report("1 headline constants", all(checks))


def test_criterion_02_root_solver_constants():
    ok = abs(bc.find_p0() - 0.218) <= 5e-4 and abs(bc.s0() - 3.620) <= 5e-3
    report("2 root-solver constants p0, S0", ok)


def test_criterion_03_branch_geometry():
    rep = bc.appendix_checks()
    checks = [
        rep.tangent_gap < 1e-4,
        abs(rep.slope_i1_at_s0 - rep.reference_slope) <= 5e-3,
        abs(rep.slope_i1_at_s0 - 1.059) <= 5e-3,
        rep.min_i1_second_derivative > 0.0,
        rep.min_i2_second_derivative > 0.0,
        rep.f_ratio_monotone,
    ]
    report("3 common tangent and convexity", all(checks))


def test_criterion_04_curve_ordering():
    interior = np.linspace(2.0, 4.0, 101)[1:-1]
    assert len(interior) == 99
    ok = True
    for s in map(float, interior):
        c = bc.i_C(s)
        ok &= bc.i_R(s) < c.info < bc.i_SD(s)
        ok &= c.info < bc.i_OS(s)
        z = bc.i_Z(s)
        ok &= z.info == c.info and z.branch == c.branch
    for s in map(float, np.linspace(bc.s0(), 4.0, 101)):
        ok &= bc.i_2(s) <= bc.i_1(s) + 1e-12
    report("4 strict curve ordering", ok)


def test_criterion_05_model_curve_agreement():
    rng = np.random.default_rng(808)
    ok = True
    for p in rng.uniform(0.0, 0.25, size=50):
        m = bc.table1_model(float(p))
        s = bc.chsh_value(m)
        ok &= abs(s - (4.0 - 8.0 * p)) < 1e-12
        ok &= abs(bc.mutual_information(m) - bc.i_R(s)) < 1e-9
    for p in rng.uniform(0.0, 0.5, size=50):
        m = bc.table2_model(float(p))
        s = bc.chsh_value(m)
        ok &= abs(s - (4.0 - 8.0 * p * p)) < 1e-12
        ok &= abs(bc.mutual_information(m) - bc.i_1(s)) < 1e-9
    for p in rng.uniform(0.0, bc.find_p0(), size=50):
        m = bc.table2_model(float(p), bc.Table2Branch.CONJUGATE)
        s = bc.chsh_value(m)
        pstar = bc.conjugate(float(p)).p_star
        ok &= abs(s - (4.0 - 8.0 * p * pstar)) < 1e-12
        ok &= abs(bc.mutual_information(m) - bc.i_2(s)) < 1e-9
    for p in rng.uniform(0.0, 0.5, size=50):
        m = bc.one_sided_model(float(p))
        s = bc.chsh_value(m)
        ok &= abs(s - (4.0 - 4.0 * p)) < 1e-12
        ok &= abs(bc.mutual_information(m) - bc.i_OS(s)) < 1e-9
    report("5 model-curve agreement", ok)


def test_criterion_06_flip_lift():
    rng = np.random.default_rng(606)
    ok = True
    factories = [
        lambda r: bc.table1_model(float(r.uniform(0.0, 0.25))),
        lambda r: bc.table2_model(float(r.uniform(0.0, 0.5))),
        lambda r: bc.one_sided_model(float(r.uniform(0.0, 0.5))),
    ]
    for factory in factories:
        for _ in range(10):
            m = factory(rng)
            lifted = bc.flip_lift(m)
            ok &= abs(bc.chsh_value(lifted) - bc.chsh_value(m)) < 1e-12
            ok &= abs(bc.mutual_information(lifted) - bc.mutual_information(m)) < 1e-12
            c = bc.correlations_of(lifted)
            ok &= bc.is_nonsignaling(c, tol=1e-12)
            for x, y in bc.SETTINGS:
                ok &= abs(c.alice_marginal(1, x, y) - 0.5) < 1e-12
                ok &= abs(c.bob_marginal(1, x, y) - 0.5) < 1e-12
    report("6 flip lift preserves S, I and restores non-signaling", ok)


def test_criterion_07_retrocausal_inherence():
    ok = all(
        not bc.is_factorized_per_lambda(bc.table1_model(float(p)))
        for p in np.linspace(0.0, 0.25, 26)[:-1]
    )
    ok &= bc.is_factorized_per_lambda(bc.table1_model(0.25))
    report("7 retrocausal inherence of the joint-conditional optimum", ok)


def test_criterion_08_biased_settings():
    grid = np.linspace(-0.8, 0.8, 9)
    ok = True

    # worst-case unbiasedness on the 9x9 grid, per base, at matched S
    causal_points = [
        (math.sqrt(P_Q), math.sqrt(P_Q)),  # same branch, S = 2*sqrt(2)
        (bc.i_2_pair(3.9).p, bc.i_2_pair(3.9).p_star),  # conjugate branch
    ]
    for ex in map(float, grid):
        for ey in map(float, grid):
            bias = bc.Bias(ex, ey)
            ok &= bc.biased_info(bc.CausalClass.RETROCAUSAL, bias, s=S_Q) <= bc.i_R(S_Q) + 1e-12
            for p, pt in causal_points:
                s = 4.0 - 8.0 * p * pt
                ok &= (
                    bc.biased_info(bc.CausalClass.CAUSAL, bias, p=p, ptilde=pt)
                    <= bc.i_C(s).info + 1e-12
                )
            ok &= bc.biased_info(bc.CausalClass.ONE_SIDED, bias, s=S_Q) <= bc.i_OS(S_Q) + 1e-12
            ok &= bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, bias) <= 2.0 + 1e-12

    # equality with the unbiased curves at zero bias
    zero = bc.Bias(0.0, 0.0)
    ok &= abs(bc.biased_info(bc.CausalClass.RETROCAUSAL, zero, s=S_Q) - bc.i_R(S_Q)) < 1e-12
    p = math.sqrt(P_Q)
    ok &= abs(bc.biased_info(bc.CausalClass.CAUSAL, zero, p=p, ptilde=p) - bc.i_C(S_Q).info) < 1e-12
    ok &= abs(bc.biased_info(bc.CausalClass.ONE_SIDED, zero, s=S_Q) - bc.i_OS(S_Q)) < 1e-12
    ok &= abs(bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, zero) - 2.0) < 1e-12

    # extreme-bias behaviour of the superdeterministic cost
    near_one = bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, bc.Bias(0.999, 0.999))
    ok &= near_one < 0.02
    axis = [0.0, 0.2, 0.4, 0.6, 0.8, 0.999]
    for sign in (1.0, -1.0):
        vals_x = [
            bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, bc.Bias(sign * e, 0.0))
            for e in axis
        ]
        vals_y = [
            bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, bc.Bias(0.0, sign * e))
            for e in axis
        ]
        ok &= all(b < a for a, b in zip(vals_x, vals_x[1:]))
        ok &= all(b < a for a, b in zip(vals_y, vals_y[1:]))

    # lemma identity on every lifted model over a bias grid
    lift_specs = [
        (bc.CausalClass.RETROCAUSAL, dict(p=P_Q), bc.table1_model(P_Q)),
        (bc.CausalClass.CAUSAL, dict(p=math.sqrt(P_Q)), bc.table2_model(math.sqrt(P_Q))),
        (bc.CausalClass.ONE_SIDED, dict(p=(4.0 - S_Q) / 4.0), bc.one_sided_model((4.0 - S_Q) / 4.0)),
    ]
    for base, params, base_model in lift_specs:
        i_base = bc.mutual_information(base_model)
        h_base = bc.shannon_entropy(base_model.weights)
        for ex in map(float, grid):
            for ey in map(float, grid):
                lifted = bc.biased_lift(base, bc.Bias(ex, ey), **params)
                lhs = bc.mutual_information(lifted)
                rhs = i_base + bc.shannon_entropy(lifted.weights) - h_base
                ok &= abs(lhs - rhs) < 1e-9

    report("8 biased settings never cost more", ok)


def test_criterion_09_brute_force_oracle(oracle_n40):
    retro = oracle_n40[bc.CausalClass.RETROCAUSAL]
    causal = oracle_n40[bc.CausalClass.CAUSAL]
    ok = (
        bc.i_R(S_Q) - 1e-9 <= retro.best_info <= bc.i_R(S_Q) + 0.01
        and bc.i_C(S_Q).info - 1e-9 <= causal.best_info <= bc.i_C(S_Q).info + 0.01
        and bc.chsh_value(retro.best_model) >= S_Q - 1e-9
        and bc.chsh_value(causal.best_model) >= S_Q - 1e-9
    )
    report("9 brute-force oracle brackets the curves at N=40", ok)


def test_criterion_09b_brute_force_oracle_at_n192():
    """The N = 192 grid lies within 1e-3 of the curves at S_Q (gaps 6.357e-4 retro, 8.574e-4 causal)."""
    ok = True
    for cls, curve in ((bc.CausalClass.RETROCAUSAL, bc.i_R(S_Q)), (bc.CausalClass.CAUSAL, bc.i_C(S_Q).info)):
        res = bc.brute_force_min_info(bc.SearchConfig(resolution=192, target_s=S_Q, causal_class=cls))
        ok &= curve - 1e-9 <= res.best_info <= curve + 1e-3
        ok &= bc.chsh_value(res.best_model) >= S_Q - 1e-9
    report("9b brute-force oracle within 1e-3 of the curves at N=192", ok)


def test_criterion_10_simulation(million_round_stats):
    model, runs = million_round_stats
    within = sum(1 for stats in runs if abs(stats.s_hat - S_Q) <= 5.0 * stats.s_standard_error)
    all_predicted = all(stats.prediction_accuracy == 1.0 for stats in runs)
    median_info = float(np.median([stats.info_hat for stats in runs]))
    ok = within >= 9 and all_predicted and abs(median_info - 0.080) <= 0.01
    report("10 million-round simulation statistics", ok)


def test_criterion_11_singlet_restriction():
    p = (1.0 - 1.0 / SQRT2) / 2.0
    m = bc.table1_model(p)
    ok = abs(bc.chsh_value(m) - S_Q) <= 1e-12
    ok &= abs(bc.mutual_information(m) - bc.i_R(S_Q)) <= 1e-9
    report("11 singlet-state restriction lands on the optimum", ok)
