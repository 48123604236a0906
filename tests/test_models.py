"""Model constructors, lifts, and their closed-form information values."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import bellcost as bc
from bellcost.models import LAMBDA_CLASSES

from conftest import P_Q, REF, S_Q

LOG2_3 = math.log2(3.0)


# ---------------------------------------------------------------------------
# response structure
# ---------------------------------------------------------------------------


def test_outcome_signs_validation():
    with pytest.raises(bc.DomainError):
        bc.OutcomeSigns(s=0)
    with pytest.raises(bc.DomainError):
        bc.OutcomeSigns(v=2)


def test_response_products_follow_class_pattern():
    for s in (-1, 1):
        for t in (-1, 1):
            for u in (-1, 1):
                for v in (-1, 1):
                    signs = bc.OutcomeSigns(s, t, u, v)
                    for mu, nu in LAMBDA_CLASSES:
                        a0, a1, b0, b1 = signs.responses_for(mu, nu)
                        a = (a0, a1)
                        b = (b0, b1)
                        for x in (0, 1):
                            for y in (0, 1):
                                want = (-1) ** (mu * x + nu * y + mu * nu)
                                assert a[x] * b[y] == want


# ---------------------------------------------------------------------------
# table-formula agreement
# ---------------------------------------------------------------------------


def test_table1_examples():
    flat = bc.table1_model(0.25)
    assert bc.chsh_value(flat) == pytest.approx(2.0, abs=1e-12)
    assert bc.mutual_information(flat) == pytest.approx(0.0, abs=1e-12)
    peak = bc.table1_model(0.0)
    assert bc.chsh_value(peak) == pytest.approx(4.0, abs=1e-12)
    assert bc.mutual_information(peak) == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)
    with pytest.raises(bc.DomainError):
        bc.table1_model(0.26)


def test_table2_examples():
    q = bc.table2_model(math.sqrt(P_Q))
    assert bc.chsh_value(q) == pytest.approx(S_Q, abs=1e-12)
    assert bc.mutual_information(q) == pytest.approx(REF["i_1_sq"], abs=1e-12)
    top = bc.table2_model(0.0, bc.Table2Branch.CONJUGATE)
    assert bc.chsh_value(top) == pytest.approx(4.0, abs=1e-12)
    assert bc.mutual_information(top) == pytest.approx(1.0, abs=1e-12)
    flat = bc.table2_model(0.5)
    assert bc.chsh_value(flat) == pytest.approx(2.0, abs=1e-12)
    assert bc.mutual_information(flat) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(bc.DomainError):
        bc.table2_model(0.3, bc.Table2Branch.CONJUGATE)  # p > p0
    with pytest.raises(bc.DomainError):
        bc.table2_model(0.6)


def test_one_sided_examples():
    q = bc.one_sided_model((4.0 - S_Q) / 4.0)
    assert bc.chsh_value(q) == pytest.approx(S_Q, abs=1e-12)
    assert bc.mutual_information(q) == pytest.approx(REF["i_OS_sq"], abs=1e-12)
    assert bc.chsh_value(bc.one_sided_model(0.5)) == pytest.approx(2.0, abs=1e-12)
    top = bc.one_sided_model(0.0)
    assert bc.chsh_value(top) == pytest.approx(4.0, abs=1e-12)
    assert bc.mutual_information(top) == pytest.approx(1.0, abs=1e-12)
    # the Y side is unbiased for every hidden state
    for st in q.states:
        assert st.dist.py0() == 0.5


def test_caption_formulas_random_draws():
    rng = np.random.default_rng(2024)
    for p in rng.uniform(0.0, 0.25, size=50):
        m = bc.table1_model(float(p))
        assert bc.chsh_value(m) == pytest.approx(4.0 - 8.0 * p, abs=1e-12)
        marg = bc.derived_marginal(m)
        assert all(abs(v - 0.25) < 1e-12 for v in marg.probs)
    for _ in range(50):
        p = float(rng.uniform(0.0, 0.5))
        pt = float(rng.uniform(0.0, 0.5))
        m = bc.causal_pair_model(p, pt)
        assert bc.chsh_value(m) == pytest.approx(4.0 - 8.0 * p * pt, abs=1e-12)
        want_info = 2.0 - bc.binary_entropy(p) - bc.binary_entropy(pt)
        assert bc.mutual_information(m) == pytest.approx(want_info, abs=1e-12)
    for p in rng.uniform(0.0, 0.5, size=50):
        m = bc.one_sided_model(float(p))
        assert bc.chsh_value(m) == pytest.approx(4.0 - 4.0 * p, abs=1e-12)
        want_info = 1.0 - bc.binary_entropy(float(p))
        assert bc.mutual_information(m) == pytest.approx(want_info, abs=1e-12)


def test_arbitrary_signs_leave_s_and_info_unchanged():
    rng = np.random.default_rng(5)
    for _ in range(8):
        signs = bc.OutcomeSigns(*(int(v) for v in rng.choice([-1, 1], size=4)))
        m = bc.table1_model(0.11, signs)
        assert bc.chsh_value(m) == pytest.approx(4.0 - 8.0 * 0.11, abs=1e-12)
        m2 = bc.causal_pair_model(0.21, 0.34, signs)
        assert bc.chsh_value(m2) == pytest.approx(4.0 - 8.0 * 0.21 * 0.34, abs=1e-12)


# ---------------------------------------------------------------------------
# superdeterministic construction
# ---------------------------------------------------------------------------


def test_superdeterministic_uniform_settings():
    c = bc.correlations_of(bc.flip_lift(bc.table1_model(P_Q)))
    m = bc.superdeterministic_model(c, bc.SettingDist.uniform())
    assert bc.mutual_information(m) == pytest.approx(2.0, abs=1e-12)
    assert bc.chsh_value(m) == pytest.approx(S_Q, abs=1e-12)
    # conditionals are point masses
    for st in m.states:
        assert all(v in (0.0, 1.0) for v in st.dist.probs)
    # recovered observables match the inputs
    back = bc.correlations_of(m)
    assert max(abs(a - b) for a, b in zip(back.table, c.table)) < 1e-12
    marg = bc.derived_marginal(m)
    assert all(abs(v - 0.25) < 1e-12 for v in marg.probs)


def test_superdeterministic_algebraic_maximum():
    c = bc.correlations_of(bc.table1_model(0.0))
    m = bc.superdeterministic_model(c, bc.SettingDist.uniform())
    assert bc.chsh_value(m) == pytest.approx(4.0, abs=1e-12)
    assert bc.mutual_information(m) == pytest.approx(2.0, abs=1e-12)


def test_superdeterministic_biased_settings():
    c = bc.correlations_of(bc.table1_model(0.1))
    settings = bc.Bias(0.9, 0.9).settings()
    m = bc.superdeterministic_model(c, settings)
    assert bc.mutual_information(m) == pytest.approx(REF["two_h_095"], abs=1e-12)
    marg = bc.derived_marginal(m)
    assert max(abs(a - b) for a, b in zip(marg.probs, settings.probs)) < 1e-12


def test_superdeterministic_rejects_vanishing_setting():
    c = bc.Correlations((0.25,) * 16)
    with pytest.raises(bc.DomainError):
        bc.superdeterministic_model(c, bc.SettingDist.factorized(1.0, 0.5))


# ---------------------------------------------------------------------------
# flip lift
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda: bc.table1_model(P_Q),
        lambda: bc.table1_model(0.0),
        lambda: bc.table2_model(0.3),
        lambda: bc.one_sided_model(0.2),
    ],
)
def test_flip_lift_preserves_observables(factory):
    m = factory()
    lifted = bc.flip_lift(m)
    assert len(lifted.states) == 2 * len(m.states)
    assert bc.chsh_value(lifted) == pytest.approx(bc.chsh_value(m), abs=1e-12)
    assert bc.mutual_information(lifted) == pytest.approx(
        bc.mutual_information(m), abs=1e-12
    )
    c = bc.correlations_of(lifted)
    assert bc.is_nonsignaling(c)
    for x, y in bc.SETTINGS:
        assert c.alice_marginal(1, x, y) == pytest.approx(0.5, abs=1e-12)
        assert c.bob_marginal(1, x, y) == pytest.approx(0.5, abs=1e-12)


def test_flip_lift_twice_and_factorization():
    m = bc.table2_model(0.3)
    twice = bc.flip_lift(bc.flip_lift(m))
    assert bc.chsh_value(twice) == pytest.approx(bc.chsh_value(m), abs=1e-12)
    assert bc.mutual_information(twice) == pytest.approx(
        bc.mutual_information(m), abs=1e-12
    )
    assert bc.is_factorized_per_lambda(twice)


# ---------------------------------------------------------------------------
# extreme bias example
# ---------------------------------------------------------------------------


def test_extreme_bias_example():
    for q in (0.05, 0.3, 0.9):
        m = bc.extreme_bias_example(q)
        assert bc.chsh_value(m) == pytest.approx(4.0, abs=1e-12)
        want = 2.0 * bc.binary_entropy(q)
        assert bc.mutual_information(m) == pytest.approx(want, abs=1e-12)
        marg = bc.derived_marginal(m)
        assert marg.px0() == pytest.approx(q, abs=1e-12)
        assert marg.py0() == pytest.approx(q, abs=1e-12)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(bc.DomainError):
            bc.extreme_bias_example(bad)


@pytest.mark.parametrize("q", [1e-300, 1.5e-162])
def test_extreme_bias_example_rejects_an_underflowing_weight(q):
    """q^2 underflows to 0 there, which would drop setting (0, 0); the error names q."""
    with pytest.raises(bc.DomainError, match=f"q={q!r}"):
        bc.extreme_bias_example(q)


def test_extreme_bias_example_builds_just_above_underflow():
    m = bc.extreme_bias_example(2e-162)  # q^2 is the least subnormal, not 0
    assert bc.chsh_value(m) == 4.0


# ---------------------------------------------------------------------------
# biased lifts
# ---------------------------------------------------------------------------

BASES = (
    (bc.CausalClass.RETROCAUSAL, dict(p=P_Q)),
    (bc.CausalClass.CAUSAL, dict(p=math.sqrt(P_Q))),
    (bc.CausalClass.ONE_SIDED, dict(p=(4.0 - S_Q) / 4.0)),
)


def test_zero_bias_is_identity_on_observables():
    for base, params in BASES:
        lifted = bc.biased_lift(base, bc.Bias(0.0, 0.0), **params)
        assert bc.chsh_value(lifted) == pytest.approx(S_Q, abs=1e-12)
        unbiased = {
            bc.CausalClass.RETROCAUSAL: REF["i_R_sq"],
            bc.CausalClass.CAUSAL: REF["i_1_sq"],
            bc.CausalClass.ONE_SIDED: REF["i_OS_sq"],
        }[base]
        assert bc.mutual_information(lifted) == pytest.approx(unbiased, abs=1e-12)


def test_biased_lift_preserves_s_and_matches_closed_form():
    rng = np.random.default_rng(31)
    for base, params in BASES:
        for _ in range(6):
            bias = bc.Bias(float(rng.uniform(-0.95, 0.95)), float(rng.uniform(-0.95, 0.95)))
            lifted = bc.biased_lift(base, bias, **params)
            assert bc.chsh_value(lifted) == pytest.approx(S_Q, abs=1e-11)
            if base is bc.CausalClass.CAUSAL:
                closed = bc.biased_info(base, bias, p=params["p"], ptilde=params["p"])
            else:
                closed = bc.biased_info(base, bias, s=S_Q)
            assert bc.mutual_information(lifted) == pytest.approx(closed, abs=1e-9)


def test_biased_lift_marginal_recovery():
    bias = bc.Bias(0.37, -0.52)
    for base, params in BASES:
        lifted = bc.biased_lift(base, bias, **params)
        marg = bc.derived_marginal(lifted)
        want = bias.settings()
        assert max(abs(a - b) for a, b in zip(marg.probs, want.probs)) < 1e-12


def test_biased_lift_structure_is_preserved():
    bias = bc.Bias(0.6, 0.4)
    causal = bc.biased_lift(bc.CausalClass.CAUSAL, bias, p=0.3, ptilde=0.41)
    assert bc.is_factorized_per_lambda(causal)
    one_sided = bc.biased_lift(bc.CausalClass.ONE_SIDED, bias, p=0.25)
    assert bc.is_factorized_per_lambda(one_sided)
    # one-sided lift: p(y|lambda) equals the global biased marginal for every state
    for st in one_sided.states:
        assert st.dist.py0() == pytest.approx(bias.py0(), abs=1e-12)
    retro = bc.biased_lift(bc.CausalClass.RETROCAUSAL, bias, p=0.1)
    assert not bc.is_factorized_per_lambda(retro)


def test_biased_lift_lemma_identity():
    grid = np.linspace(-0.8, 0.8, 5)
    factories = {
        bc.CausalClass.RETROCAUSAL: bc.table1_model,
        bc.CausalClass.CAUSAL: bc.table2_model,
        bc.CausalClass.ONE_SIDED: bc.one_sided_model,
    }
    for base, params in BASES:
        base_model = factories[base](params["p"])
        i_base = bc.mutual_information(base_model)
        h_base = bc.shannon_entropy(base_model.weights)
        for ex in grid:
            for ey in grid:
                lifted = bc.biased_lift(base, bc.Bias(float(ex), float(ey)), **params)
                lhs = bc.mutual_information(lifted)
                rhs = i_base + bc.shannon_entropy(lifted.weights) - h_base
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_biased_state_distributions_match_closed_forms():
    """Lifted state weights against the explicit expressions for p'(lambda)."""
    p = 0.1
    pt = 0.22
    ex, ey = 0.45, -0.3
    bias = bc.Bias(ex, ey)

    retro = bc.biased_lift(bc.CausalClass.RETROCAUSAL, bias, p=p)
    for st, (mu, nu) in zip(retro.states, LAMBDA_CLASSES):
        want = (1 - p) / 3.0 + (
            (1 - (-1) ** nu * ex) / 2.0 * (1 - (-1) ** mu * ey) / 2.0 * (4 * p - 1) / 3.0
        )
        assert st.weight == pytest.approx(want, abs=1e-12)

    causal = bc.biased_lift(bc.CausalClass.CAUSAL, bias, p=p, ptilde=pt)
    for st, (mu, nu) in zip(causal.states, LAMBDA_CLASSES):
        want = (
            (1 + (-1) ** nu * ex * (1 - 2 * p)) / 2.0
            * (1 + (-1) ** mu * ey * (1 - 2 * pt)) / 2.0
        )
        assert st.weight == pytest.approx(want, abs=1e-12)

    one_sided = bc.biased_lift(bc.CausalClass.ONE_SIDED, bias, p=p)
    for st, (mu, nu) in zip(one_sided.states, LAMBDA_CLASSES):
        want = (1 + (-1) ** nu * ex * (1 - 2 * p)) / 4.0
        assert st.weight == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("eps", [(math.nan, 0.0), (0.0, math.nan)])
def test_bias_rejects_nan(eps):
    with pytest.raises(bc.DomainError):
        bc.Bias(*eps)


def test_biased_lift_degenerate_bias_rejected():
    with pytest.raises(bc.DomainError):
        bc.biased_lift(bc.CausalClass.RETROCAUSAL, bc.Bias(1.0, 0.0), p=0.1)
    with pytest.raises(bc.DomainError):
        bc.biased_lift(bc.CausalClass.CAUSAL, bc.Bias(0.0, -1.0), p=0.1)


# ---------------------------------------------------------------------------
# biased closed forms
# ---------------------------------------------------------------------------


def test_biased_info_reduces_to_unbiased_curves():
    zero = bc.Bias(0.0, 0.0)
    for s in (2.2, S_Q, 3.4):
        assert bc.biased_info(bc.CausalClass.RETROCAUSAL, zero, s=s) == pytest.approx(
            bc.i_R(s), abs=1e-12
        )
        assert bc.biased_info(bc.CausalClass.ONE_SIDED, zero, s=s) == pytest.approx(
            bc.i_OS(s), abs=1e-12
        )
    p = math.sqrt(P_Q)
    assert bc.biased_info(bc.CausalClass.CAUSAL, zero, p=p, ptilde=p) == pytest.approx(
        bc.i_1(S_Q), abs=1e-12
    )
    assert bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, zero) == 2.0


def test_biased_info_frozen_values():
    strong = bc.biased_info(bc.CausalClass.RETROCAUSAL, bc.Bias(0.9, 0.9), s=S_Q)
    assert strong == pytest.approx(REF["i_Rp_sq_09"], abs=1e-12)
    lift = bc.biased_lift(bc.CausalClass.RETROCAUSAL, bc.Bias(0.9, 0.9), p=P_Q)
    assert bc.mutual_information(lift) == pytest.approx(strong, abs=1e-9)
    mild = bc.biased_info(bc.CausalClass.RETROCAUSAL, bc.Bias(0.5, 0.5), s=S_Q)
    assert mild == pytest.approx(REF["i_Rp_sq_05"], abs=1e-12)
    assert mild < bc.i_R(S_Q)


def test_biased_info_superdeterministic_limits():
    assert bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, bc.Bias(1.0, 1.0)) == 0.0
    assert bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, bc.Bias(-1.0, 1.0)) == 0.0
    small = bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, bc.Bias(0.999, 0.999))
    assert small < 0.02


@pytest.mark.parametrize("base", [bc.CausalClass.RETROCAUSAL, bc.CausalClass.ONE_SIDED])
@pytest.mark.parametrize("s", [4.0 + 1e-11, 4.0 + 1e-9, 2.0 - 1e-9])
def test_biased_info_clamps_edge_s(base, s):
    for bias in (bc.Bias(0.0, 0.0), bc.Bias(0.3, -0.6), bc.Bias(0.9, 0.9)):
        value = bc.biased_info(base, bias, s=s)
        assert value == bc.biased_info(base, bias, s=min(max(s, 2.0), 4.0))
        assert value >= 0.0


def test_biased_info_parameter_errors():
    with pytest.raises(bc.DomainError):
        bc.biased_info(bc.CausalClass.RETROCAUSAL, bc.Bias(0.2, 0.2))
    with pytest.raises(bc.DomainError):
        bc.biased_info(bc.CausalClass.CAUSAL, bc.Bias(0.2, 0.2), s=3.0)
    with pytest.raises(bc.DomainError):
        bc.biased_info(bc.CausalClass.RETROCAUSAL, bc.Bias(1.0, 0.0), s=3.0)


@pytest.mark.parametrize("base", [bc.CausalClass.CAUSAL, bc.CausalClass.ZIGZAG])
def test_causal_biased_info_takes_the_flip_probabilities_of_causal_pair_model(base):
    bias = bc.Bias(0.5, 0.0)
    for name, p, ptilde in (("p", 0.7, 0.1), ("ptilde", 0.1, 0.7), ("p", -0.01, 0.1)):
        with pytest.raises(bc.DomainError) as built:
            bc.causal_pair_model(p, ptilde)
        with pytest.raises(bc.DomainError) as info:
            bc.biased_info(base, bias, p=p, ptilde=ptilde)
        value = p if name == "p" else ptilde
        assert str(built.value) == f"causal_pair_model: {name}={value!r} outside [0, 1/2]"
        assert str(info.value) == f"biased_info: {name}={value!r} outside [0, 1/2]"
    assert bc.biased_info(base, bias, p=0.5, ptilde=0.0) == 1.0  # the edges of [0, 1/2] are in it


_BIAS = bc.Bias(0.1, 0.1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: bc.table1_model(0.3), "table1_model: p=0.3 outside [0, 1/4]"),
        (lambda: bc.causal_pair_model(0.1, 0.7), "causal_pair_model: ptilde=0.7 outside [0, 1/2]"),
        (lambda: bc.table2_model(0.7), "table2_model: p=0.7 outside [0, 1/2]"),
        (lambda: bc.one_sided_model(0.7), "one_sided_model: p=0.7 outside [0, 1/2]"),
        (lambda: bc.one_sided_model("0.7"), "one_sided_model: p='0.7' is not a real number"),
        (lambda: bc.biased_lift(bc.CausalClass.RETROCAUSAL, _BIAS, 0.3), "biased_lift: p=0.3 outside [0, 1/4]"),
        (lambda: bc.biased_lift(bc.CausalClass.CAUSAL, _BIAS, 0.7), "biased_lift: p=0.7 outside [0, 1/2]"),
        (lambda: bc.biased_lift(bc.CausalClass.ZIGZAG, _BIAS, 0.1, 0.7), "biased_lift: ptilde=0.7 outside [0, 1/2]"),
        (lambda: bc.biased_lift(bc.CausalClass.ONE_SIDED, _BIAS, 0.7), "biased_lift: p=0.7 outside [0, 1/2]"),
        (lambda: bc.biased_lift(bc.CausalClass.ONE_SIDED, _BIAS, "0.7"), "biased_lift: p='0.7' is not a real number"),
    ],
    ids=["table1", "causal-pair", "table2", "one-sided", "one-sided-not-real", "lift-retro", "lift-causal",
         "lift-zigzag", "lift-one-sided", "lift-one-sided-not-real"],
)
def test_builder_errors_name_the_function_called(build, message):
    # the one-sided and Table 2 builders and the lifts build through shared helpers, yet each error
    # names the function the caller called, not a helper or another builder
    with pytest.raises(bc.DomainError) as err:
        build()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# non-real arguments
# ---------------------------------------------------------------------------

C = bc.CausalClass

_SIGNALING_TABLE = bc.correlations_of(bc.table1_model(0.1))

# every public entry point that takes a probability, CHSH value, bias or tolerance, one argument at a time
REAL_ARGUMENT_ENTRY_POINTS = {
    "binary_entropy": bc.binary_entropy,
    "shannon_entropy": lambda v: bc.shannon_entropy([v, 0.75]),
    "is_nonsignaling.tol": lambda v: bc.is_nonsignaling(_SIGNALING_TABLE, v),
    "f_of_p": bc.f_of_p,
    "f_slope": bc.curves.f_slope,
    "conjugate": bc.conjugate,
    "ConjugatePair.p": lambda v: bc.ConjugatePair(v, 0.5),  # f(0) = f(1/2) = 0
    "ConjugatePair.p_star": lambda v: bc.ConjugatePair(0.0, v),
    **{f"curve_point.{c.value}": functools.partial(bc.curve_point, c) for c in C},
    "CurvePoint.s": lambda v: bc.CurvePoint(v, 0.1),
    "CurvePoint.info": lambda v: bc.CurvePoint(3.0, v),
    "SearchConfig.target_s": lambda v: bc.SearchConfig(16, v, C.RETROCAUSAL),
    "SearchConfig.tolerance": lambda v: bc.SearchConfig(16, 2.5, C.RETROCAUSAL, v),
    "Bias.eps_x": lambda v: bc.Bias(v, 0.0),
    "Bias.eps_y": lambda v: bc.Bias(0.0, v),
    "table1_model": bc.table1_model,
    "table2_model": bc.table2_model,
    "table2_model.conjugate": lambda v: bc.table2_model(v, bc.Table2Branch.CONJUGATE),
    "causal_pair_model.p": lambda v: bc.causal_pair_model(v, 0.1),
    "causal_pair_model.ptilde": lambda v: bc.causal_pair_model(0.1, v),
    "one_sided_model": bc.one_sided_model,
    "extreme_bias_example": bc.extreme_bias_example,
    "biased_lift.p": lambda v: bc.biased_lift(C.CAUSAL, bc.Bias(0.2, 0.1), v),
    "biased_lift.ptilde": lambda v: bc.biased_lift(C.CAUSAL, bc.Bias(0.2, 0.1), 0.1, v),
    "biased_info.retro_p": lambda v: bc.biased_info(C.RETROCAUSAL, bc.Bias(0.2, 0.1), p=v),
    "biased_info.causal_p": lambda v: bc.biased_info(C.CAUSAL, bc.Bias(0.2, 0.1), p=v, ptilde=0.1),
    "biased_info.causal_ptilde": lambda v: bc.biased_info(C.CAUSAL, bc.Bias(0.2, 0.1), p=0.1, ptilde=v),
    "biased_info.one_sided_p": lambda v: bc.biased_info(C.ONE_SIDED, bc.Bias(0.2, 0.1), p=v),
}


NON_REAL = ["0.1", None, True, False, [0.1], 0.1 + 0j]


@pytest.mark.parametrize(
    "entry, value",
    [
        (entry, value)
        for entry in sorted(REAL_ARGUMENT_ENTRY_POINTS)
        for value in NON_REAL
        if not (entry == "biased_lift.ptilde" and value is None)  # None is its default: ptilde = p
    ],
    ids=repr,
)
def test_entry_points_reject_a_non_real_argument(entry, value):
    with pytest.raises(bc.DomainError):
        REAL_ARGUMENT_ENTRY_POINTS[entry](value)


def _bits(result):
    """A result as its type and bits: a model by its CHSH value, information and label."""
    if isinstance(result, bc.Model):
        return "model", _bits(bc.chsh_value(result)), _bits(bc.mutual_information(result)), result.label
    if dataclasses.is_dataclass(result):
        return type(result), tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, float):
        return type(result), result.hex()
    return type(result), repr(result)


def _reading(fn, value):
    """What fn(value) gives: ("value", its bits), or ("error", the error's type and message)."""
    try:
        return "value", _bits(fn(value))
    except bc.DomainError as exc:
        return "error", type(exc), str(exc)


_NUMPY_ARGUMENTS = [
    kind(v)
    for v in (0, 0.1, 0.25, 0.3, 0.5, 3, 3.7)
    for kind in (np.float64, np.float32, np.int64, int)
    if kind in (np.float64, np.float32) or v == int(v)
]


@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENT_ENTRY_POINTS))
def test_entry_points_take_numpy_scalars_and_ints(entry):
    # each gives the bits and type of the call with float(value), in its result or its error, so no
    # computation runs in the argument's own precision; np.float32 once kept f_of_p, the causal
    # models and a Bias in single precision
    fn = REAL_ARGUMENT_ENTRY_POINTS[entry]
    readings = [(_reading(fn, value), _reading(fn, float(value))) for value in _NUMPY_ARGUMENTS]
    for value, (got, expected) in zip(_NUMPY_ARGUMENTS, readings):
        assert got == expected, repr(value)
    assert any(got[0] == "value" for got, _ in readings)  # at least one argument lies in the domain


@pytest.mark.parametrize("p", [0.05, 0.15, 0.2])
def test_a_float32_p_reads_as_its_float_on_the_conjugate_branch(p):
    # f(p) in single precision once left the pair's residual above 1e-10, so both raised DomainError
    p32 = np.float32(p)
    assert bc.conjugate(p32) == bc.conjugate(float(p32))
    assert bc.table2_model(p32, bc.Table2Branch.CONJUGATE) == bc.table2_model(float(p32), bc.Table2Branch.CONJUGATE)
