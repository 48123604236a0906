"""Bit pins of the exact evaluators on the explicit models at fixed parameters.

Each entry holds float.hex() of chsh_value, mutual_information, the four
correlators and the four derived-marginal probabilities, in that order, as
the evaluators summed them when every call re-derived the marginal from the
states.  Keeping the marginal on the model must not move a single bit.
"""

import pytest

import bellcost as bc

C = bc.CausalClass

MODELS = {
    "table1": lambda: bc.table1_model(0.1),
    "table2_same": lambda: bc.table2_model(0.1),
    "table2_conjugate": lambda: bc.table2_model(0.1, bc.Table2Branch.CONJUGATE),
    "one_sided": lambda: bc.one_sided_model(0.2),
    "superdeterministic": lambda: bc.superdeterministic_model(
        bc.correlations_of(bc.flip_lift(bc.table1_model(0.1))), bc.SettingDist.factorized(0.6, 0.3)
    ),
    "flip_table1": lambda: bc.flip_lift(bc.table1_model(0.1)),
    "flip_table2_conjugate": lambda: bc.flip_lift(bc.table2_model(0.1, bc.Table2Branch.CONJUGATE)),
    "biased_retro": lambda: bc.biased_lift(C.RETROCAUSAL, bc.Bias(0.5, -0.3), 0.1),
    "biased_causal": lambda: bc.biased_lift(C.CAUSAL, bc.Bias(-0.2, 0.7), 0.15, 0.3),
    "biased_one_sided": lambda: bc.biased_lift(C.ONE_SIDED, bc.Bias(0.4, 0.4), 0.2),
}

PINS = {
    "table1": (
        "0x1.999999999999ap+1",
        "0x1.ac303382e3950p-4",
        ("0x1.999999999999ap-1", "0x1.999999999999ap-1", "0x1.999999999999ap-1", "-0x1.999999999999ap-1"),
        ("0x1.fffffffffffffp-3", "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    ),
    "table2_same": (
        "0x1.f5c28f5c28f5cp+1",
        "0x1.0fdfcf3f21c1ap+0",
        ("0x1.f5c28f5c28f5cp-1", "0x1.f5c28f5c28f5cp-1", "0x1.f5c28f5c28f5cp-1", "-0x1.f5c28f5c28f5cp-1"),
        ("0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    ),
    "table2_conjugate": (
        "0x1.dc814383ab5acp+1",
        "0x1.3330ad82fdca8p-1",
        ("0x1.dc814383ab5abp-1", "0x1.dc814383ab5acp-1", "0x1.dc814383ab5acp-1", "-0x1.dc814383ab5acp-1"),
        ("0x1.0000000000001p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    ),
    "one_sided": (
        "0x1.999999999999ap+1",
        "0x1.1cbee1a994ae0p-2",
        ("0x1.999999999999ap-1", "0x1.999999999999ap-1", "0x1.999999999999ap-1", "-0x1.999999999999ap-1"),
        ("0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    ),
    "superdeterministic": (
        "0x1.999999999999ap+1",
        "0x1.da2c7f9fac3dcp+0",
        ("0x1.999999999999ap-1", "0x1.999999999999ap-1", "0x1.999999999999ap-1", "-0x1.9999999999999p-1"),
        ("0x1.70a3d70a3d709p-3", "0x1.ae147ae147ae0p-2", "0x1.eb851eb851eb7p-4", "0x1.1eb851eb851eap-2"),
    ),
    "flip_table1": (
        "0x1.999999999999ap+1",
        "0x1.ac303382e3960p-4",
        ("0x1.9999999999999p-1", "0x1.9999999999999p-1", "0x1.999999999999ap-1", "-0x1.999999999999ap-1"),
        ("0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    ),
    "flip_table2_conjugate": (
        "0x1.dc814383ab5acp+1",
        "0x1.3330ad82fdca8p-1",
        ("0x1.dc814383ab5acp-1", "0x1.dc814383ab5acp-1", "0x1.dc814383ab5acp-1", "-0x1.dc814383ab5acp-1"),
        ("0x1.0000000000000p-2", "0x1.ffffffffffffep-3", "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    ),
    "biased_retro": (
        "0x1.999999999999ap+1",
        "0x1.8010c1cbf36b0p-4",
        ("0x1.999999999999ap-1", "0x1.9999999999999p-1", "0x1.9999999999999p-1", "-0x1.999999999999ap-1"),
        ("0x1.0cccccccccccdp-2", "0x1.f333333333334p-2", "0x1.6666666666666p-4", "0x1.4cccccccccccdp-3"),
    ),
    "biased_causal": (
        "0x1.d1eb851eb851ep+1",
        "0x1.bfdd2407ba4c4p-2",
        ("0x1.d1eb851eb8520p-1", "0x1.d1eb851eb851ep-1", "0x1.d1eb851eb851fp-1", "-0x1.d1eb851eb851ep-1"),
        ("0x1.5c28f5c28f5c3p-2", "0x1.eb851eb851eb9p-5", "0x1.051eb851eb852p-1", "0x1.70a3d70a3d70cp-4"),
    ),
    "biased_one_sided": (
        "0x1.999999999999ap+1",
        "0x1.e38fb2e068270p-3",
        ("0x1.999999999999ap-1", "0x1.9999999999999p-1", "0x1.999999999999bp-1", "-0x1.999999999999ap-1"),
        ("0x1.f5c28f5c28f5bp-2", "0x1.ae147ae147ae4p-3", "0x1.ae147ae147ae2p-3", "0x1.70a3d70a3d70cp-4"),
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_evaluator_bits_are_pinned(name):
    m = MODELS[name]()
    s_hex, info_hex, corr_hex, marg_hex = PINS[name]
    assert bc.chsh_value(m).hex() == s_hex
    assert bc.mutual_information(m).hex() == info_hex
    assert tuple(c.hex() for c in bc.correlators(m)) == corr_hex
    assert tuple(p.hex() for p in bc.derived_marginal(m).probs) == marg_hex
