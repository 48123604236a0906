"""Core types, entropies, exact evaluators, and serialization."""

import dataclasses
import importlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bellcost as bc
from bellcost import curves, oracle
from bellcost.core import setting_index

from conftest import P_Q, REF, S_Q, random_model

LOG2_3 = math.log2(3.0)


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("module", ["core", "curves", "models", "oracle", "simulate"])
def test_every_public_name_resolves_on_the_package(module):
    """Each name in a module's __all__ is the same object on bellcost itself."""
    mod = importlib.import_module(f"bellcost.{module}")
    assert [name for name in mod.__all__ if getattr(bc, name, None) is not getattr(mod, name)] == []


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------


def test_binary_entropy_degenerate_and_max():
    assert bc.binary_entropy(0.0) == 0.0
    assert bc.binary_entropy(1.0) == 0.0
    assert bc.binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


def test_binary_entropy_quantum_point():
    assert bc.binary_entropy(P_Q) == pytest.approx(REF["h_pq"], abs=1e-14)


def test_binary_entropy_against_high_precision_reference():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for p in (P_Q, 0.1, 0.218, 0.49, 0.9):
            want = float(-mp.mpf(p) * mp.log(p, 2) - (1 - mp.mpf(p)) * mp.log(1 - mp.mpf(p), 2))
            assert bc.binary_entropy(p) == pytest.approx(want, abs=1e-14)


def test_binary_entropy_symmetry_and_domain():
    for p in (0.1, 0.25, 0.4):
        assert bc.binary_entropy(p) == pytest.approx(bc.binary_entropy(1.0 - p), abs=1e-15)
    with pytest.raises(bc.DomainError):
        bc.binary_entropy(-0.01)
    with pytest.raises(bc.DomainError):
        bc.binary_entropy(1.01)


def test_shannon_entropy_values():
    assert bc.shannon_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0
    assert bc.shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-15)
    rest = (1.0 - P_Q) / 3.0
    got = bc.shannon_entropy([P_Q, rest, rest, rest])
    assert got == pytest.approx(REF["h_pq"] + (1.0 - P_Q) * LOG2_3, abs=1e-12)
    assert got == pytest.approx(REF["footnote_entropy"], abs=1e-12)


def test_shannon_entropy_errors():
    with pytest.raises(bc.DomainError):
        bc.shannon_entropy([0.5, -0.1, 0.6])
    with pytest.raises(bc.DomainError):
        bc.shannon_entropy([0.5, 0.4])
    nonreal = (["a", 1.0], [None, 1.0], [1 + 0j])
    for bad in ([math.nan, 1.0], [0.5, 0.5, math.nan], [math.inf, 0.0], [1.0, -math.inf], *nonreal):
        with pytest.raises(bc.DomainError):
            bc.shannon_entropy(bad)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_setting_dist_validation():
    with pytest.raises(bc.InvalidModel):
        bc.SettingDist.joint([0.5, 0.5, 0.2, -0.2])
    with pytest.raises(bc.InvalidModel):
        bc.SettingDist.joint([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(bc.InvalidModel):
        bc.SettingDist((0.3, 0.3, 0.2, 0.2), (0.5, 0.5))
    u = bc.SettingDist.uniform()
    assert u.prob(1, 0) == 0.25 and u.marginals is None


def test_setting_dist_factorized():
    d = bc.SettingDist.factorized(0.7, 0.2)
    assert d.marginals == (0.7, 0.2)
    assert d.prob(0, 0) == pytest.approx(0.14, abs=1e-15)
    assert d.px0() == 0.7 and d.py0() == 0.2
    j = bc.SettingDist.joint(d.probs)
    assert j.px0() == pytest.approx(0.7, abs=1e-12)


def test_hidden_state_validation():
    d = bc.SettingDist.uniform()
    with pytest.raises(bc.InvalidModel):
        bc.HiddenState(0.5, d, (1, 1, 1, 2))
    with pytest.raises(bc.InvalidModel):
        bc.HiddenState(0.5, d, (1, 1, 1, 0))
    with pytest.raises(bc.InvalidModel):
        bc.HiddenState(1.5, d, (1, 1, 1, 1))
    st_ = bc.HiddenState(0.5, d, (1, -1, 1, -1))
    assert st_.a(1) == -1 and st_.b(0) == 1


@pytest.mark.parametrize("bad", [-1, 2, 0.5, math.nan, None, "0", [0]], ids=repr)
def test_a_response_at_a_setting_other_than_0_or_1_is_a_domain_error(bad):
    st_ = bc.HiddenState(1.0, bc.SettingDist.uniform(), (1, -1, 1, -1))
    with pytest.raises(bc.DomainError, match="setting x = .* is not 0 or 1"):
        st_.a(bad)
    with pytest.raises(bc.DomainError, match="setting y = .* is not 0 or 1"):
        st_.b(bad)


def test_a_setting_equal_to_0_or_1_reads_as_that_int():
    st_ = bc.HiddenState(1.0, bc.SettingDist.joint([0.1, 0.2, 0.3, 0.4]), (1, -1, 1, -1))
    for one in (1, 1.0, True, np.int64(1), np.float64(1.0)):
        assert setting_index(one, one) == 3 and type(setting_index(one, 0)) is int
        assert st_.a(one) == -1 and st_.b(one) == -1 and st_.dist.prob(one, 0) == 0.3


@pytest.mark.parametrize("x, y", [(-1, 1), (-1, 0), (2, 0), (0, -1), (1, 2), (0.5, 0), (None, 1), (0, "1"), ([1], 0)])
def test_a_setting_other_than_0_or_1_is_a_domain_error(x, y):
    """A negative setting used to index from the end, and 2 past it: each raises DomainError instead."""
    m = bc.table1_model(0.2)
    table = bc.correlations_of(m)
    lookups = [
        lambda: setting_index(x, y),
        lambda: bc.posterior_weights(m, x, y),
        lambda: table.correlator(x, y),
        lambda: table.prob(1, 1, x, y),
        lambda: m.states[0].dist.prob(x, y),
    ]
    for lookup in lookups:
        with pytest.raises(bc.DomainError, match="is not 0 or 1"):
            lookup()


_UNIFORM = bc.SettingDist.uniform()

# (name, valid values, constructor from the values): every value the model types validate
_VALIDATED = [
    ("joint", [0.25] * 4, bc.SettingDist.joint),
    ("joint-edge", [0.5, 0.5, 0.0, 0.0], bc.SettingDist.joint),
    ("factorized", [0.5, 0.5], lambda v: bc.SettingDist.factorized(*v)),
    ("marginals", [0.5, 0.5], lambda v: bc.SettingDist((0.25,) * 4, tuple(v))),
    ("weight", [0.5], lambda v: bc.HiddenState(v[0], _UNIFORM, (1, 1, 1, 1))),
    ("responses", [1, -1, 1, -1], lambda v: bc.HiddenState(0.5, _UNIFORM, tuple(v))),
    ("correlations", [0.25] * 16, lambda v: bc.Correlations(tuple(v))),
]
_POSITIONS = [
    (f"{name}[{pos}]", values, build, pos) for name, values, build in _VALIDATED for pos in range(len(values))
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("values, build, pos", [c[1:] for c in _POSITIONS], ids=[c[0] for c in _POSITIONS])
def test_validators_reject_nan_and_infinities_in_every_position(values, build, pos, bad):
    """A min()/max() range check skips a NaN that is not first; every entry must be checked."""
    build(values)
    values = list(values)
    values[pos] = bad
    with pytest.raises(bc.InvalidModel):
        build(values)


_REAL_POSITIONS = [c for c in _POSITIONS if not c[0].startswith("responses")]


@pytest.mark.parametrize("bad", [None, "0.25", "x", [0.25], True, 0.25 + 0j], ids=repr)
@pytest.mark.parametrize(
    "values, build, pos", [c[1:] for c in _REAL_POSITIONS], ids=[c[0] for c in _REAL_POSITIONS]
)
def test_validators_reject_a_non_real_entry_in_every_position(values, build, pos, bad):
    """A weight or probability that is not a real number is an InvalidModel, not a TypeError."""
    values = list(values)
    values[pos] = np.float64(values[pos])  # a numpy scalar is read as a float
    build(values)
    values[pos] = bad
    with pytest.raises(bc.InvalidModel, match="is not a real number"):
        build(values)


def test_responses_equal_to_signs_are_stored_as_ints():
    for raw in ((1.0, -1, True, np.int64(-1)), [1.0, -1, True, np.int64(-1)], (1 + 0j, -1.0, 1, -1)):
        st_ = bc.HiddenState(0.5, _UNIFORM, raw)
        assert st_.responses == (1, -1, 1, -1)
        assert all(type(r) is int for r in st_.responses)
    for raw in ((1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, [1]), (1, 1, 1, "1"), (1, 1, 1, 0.5)):
        with pytest.raises(bc.InvalidModel):
            bc.HiddenState(0.5, _UNIFORM, raw)


def test_model_weight_validation():
    d = bc.SettingDist.uniform()
    s = bc.HiddenState(0.6, d, (1, 1, 1, 1))
    with pytest.raises(bc.InvalidModel):
        bc.Model((s, s))  # weights sum to 1.2


# ---------------------------------------------------------------------------
# evaluators on the explicit models
# ---------------------------------------------------------------------------


def test_chsh_value_boundary_and_quantum():
    assert bc.chsh_value(bc.table1_model(0.25)) == pytest.approx(2.0, abs=1e-12)
    assert bc.chsh_value(bc.table1_model(P_Q)) == pytest.approx(S_Q, abs=1e-12)
    m = bc.causal_pair_model(0.1, 0.1)
    assert bc.chsh_value(m) == pytest.approx(3.92, abs=1e-12)


def test_chsh_permutations():
    m = bc.table1_model(0.1)
    assert bc.chsh_value(m, (1, 1, 1, -1)) == bc.chsh_value(m)
    # flipping A1's outcome sign swaps which correlators carry the minus
    assert abs(bc.chsh_value(m, (1, -1, 1, 1))) <= 4.0
    with pytest.raises(bc.DomainError):
        bc.chsh_value(m, (1, 1, 1, 1))
    with pytest.raises(bc.DomainError):
        bc.chsh_value(m, (1, 1, -1, 2))


def test_chsh_undefined_on_vanishing_setting():
    dist = bc.SettingDist.joint([0.5, 0.5, 0.0, 0.0])
    m = bc.Model((bc.HiddenState(1.0, dist, (1, 1, 1, 1)),))
    with pytest.raises(bc.UndefinedCorrelator):
        bc.chsh_value(m)
    with pytest.raises(bc.UndefinedCorrelator):
        bc.correlations_of(m)


def test_mutual_information_measurement_independent_is_zero():
    dist = bc.SettingDist.joint([0.4, 0.3, 0.2, 0.1])
    states = (
        bc.HiddenState(0.5, dist, (1, 1, 1, 1)),
        bc.HiddenState(0.5, dist, (-1, 1, -1, 1)),
    )
    assert bc.mutual_information(bc.Model(states)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_optimal_models():
    assert bc.mutual_information(bc.table1_model(P_Q)) == pytest.approx(REF["i_R_sq"], abs=1e-12)
    m2 = bc.table2_model(math.sqrt(P_Q))
    assert bc.mutual_information(m2) == pytest.approx(REF["i_1_sq"], abs=1e-12)


def test_derived_marginal():
    for p in (0.0, 0.1, 0.25):
        marg = bc.derived_marginal(bc.table1_model(p))
        assert all(v == pytest.approx(0.25, abs=1e-12) for v in marg.probs)
    marg2 = bc.derived_marginal(bc.table2_model(0.3))
    assert all(v == pytest.approx(0.25, abs=1e-12) for v in marg2.probs)
    dist = bc.SettingDist.joint([0.4, 0.3, 0.2, 0.1])
    single = bc.Model((bc.HiddenState(1.0, dist, (1, 1, 1, 1)),))
    assert bc.derived_marginal(single).probs == dist.probs


def _left_to_right_marginal(m):
    probs = [0.0] * 4
    for st_ in m.states:
        for k in range(4):
            probs[k] += st_.weight * st_.dist.probs[k]
    return probs


@pytest.mark.parametrize("seed", range(20))
def test_stored_marginal_is_the_left_to_right_sum(seed):
    m = random_model(np.random.default_rng(3100 + seed))
    marg = bc.derived_marginal(m)
    assert [p.hex() for p in marg.probs] == [p.hex() for p in _left_to_right_marginal(m)]
    assert marg == bc.SettingDist.joint(_left_to_right_marginal(m))
    assert bc.derived_marginal(m) is marg  # kept on the model, not summed again


def test_stored_marginal_is_not_part_of_the_model_value():
    m = bc.flip_lift(bc.table2_model(0.1, bc.Table2Branch.CONJUGATE))
    twin = bc.Model(m.states, m.label)
    assert m == twin and hash(m) == hash(twin)
    assert repr(m) == f"Model(states={m.states!r}, label={m.label!r})"
    assert set(bc.model_to_dict(m)) == {"schema", "label", "states"}
    assert bc.model_from_json(bc.model_to_json(m)) == m
    back = pickle.loads(pickle.dumps(m))
    assert back == m and repr(back) == repr(m) and bc.model_to_dict(back) == bc.model_to_dict(m)
    assert bc.derived_marginal(back) == bc.derived_marginal(m)
    assert bc.chsh_value(back) == bc.chsh_value(m)
    assert bc.mutual_information(back) == bc.mutual_information(m)


def test_replace_recomputes_the_stored_marginal():
    m = bc.table1_model(0.1)
    other = bc.biased_lift(bc.CausalClass.RETROCAUSAL, bc.Bias(0.5, -0.3), 0.1)
    moved = dataclasses.replace(m, states=other.states)
    assert bc.derived_marginal(moved) == bc.derived_marginal(other) != bc.derived_marginal(m)
    assert bc.mutual_information(moved) == bc.mutual_information(other)
    renamed = dataclasses.replace(m, label="renamed")
    assert bc.derived_marginal(renamed) == bc.derived_marginal(m)
    bad = bc.HiddenState(-1e-12, bc.SettingDist.joint([1.0 + 1e-12, -1e-12, 0.0, 0.0]), (1, 1, 1, 1))
    good = bc.HiddenState(1.0 + 1e-12, bc.SettingDist.joint([0.0, 1.0, 0.0, 0.0]), (1, 1, 1, 1))
    with pytest.raises(bc.InvalidModel, match="derived marginal is not a distribution"):
        dataclasses.replace(m, states=(good, bad))


_KEPT_FACTORIES = {
    "table1": lambda: bc.table1_model(0.1),
    "table2_conjugate": lambda: bc.table2_model(0.1, bc.Table2Branch.CONJUGATE),
    "superdeterministic": lambda: bc.superdeterministic_model(
        bc.correlations_of(bc.flip_lift(bc.table1_model(0.1))), bc.SettingDist.factorized(0.6, 0.3)
    ),
    "biased_causal": lambda: bc.biased_lift(bc.CausalClass.CAUSAL, bc.Bias(-0.2, 0.7), 0.15, 0.3),
}


def _evaluator_bits(m):
    return (
        bc.chsh_value(m).hex(),
        bc.mutual_information(m).hex(),
        [c.hex() for c in bc.correlators(m)],
        [p.hex() for p in bc.correlations_of(m).table],
        [st_.dist.entropy().hex() for st_ in m.states],
        bc.derived_marginal(m).entropy().hex(),
    )


@pytest.mark.parametrize("name", sorted(_KEPT_FACTORIES))
def test_kept_entropies_and_correlators_are_not_part_of_any_value(name):
    fresh, filled = _KEPT_FACTORIES[name](), _KEPT_FACTORIES[name]()
    bits = _evaluator_bits(filled)  # fills the kept entropies and correlators
    assert bits == _evaluator_bits(_KEPT_FACTORIES[name]())
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
    assert bc.model_to_json(filled) == bc.model_to_json(fresh)
    for a, b in zip(filled.states, fresh.states):
        assert a.dist == b.dist and hash(a.dist) == hash(b.dist) and repr(a.dist) == repr(b.dist)
        assert dataclasses.replace(a.dist) == b.dist
    renamed = dataclasses.replace(filled, label="renamed")
    assert renamed == dataclasses.replace(fresh, label="renamed")
    assert repr(renamed) == repr(dataclasses.replace(fresh, label="renamed"))
    moved = dataclasses.replace(filled, states=bc.table1_model(0.2).states)  # computes its own
    assert bc.correlators(moved) == bc.correlators(bc.table1_model(0.2))
    assert bc.correlations_of(moved) == bc.correlations_of(bc.table1_model(0.2))
    assert bc.correlators(filled) is bc.correlators(filled)  # kept, not computed again
    # a lift of a model whose values are kept has the bits of a lift of a fresh one
    assert _evaluator_bits(bc.flip_lift(filled)) == _evaluator_bits(bc.flip_lift(fresh))
    assert bc.model_to_json(bc.flip_lift(filled)) == bc.model_to_json(bc.flip_lift(fresh))


def test_kept_entropy_survives_pickle_and_is_the_computed_one():
    dist = bc.SettingDist.joint([0.4, 0.3, 0.2, 0.1])
    h = dist.entropy()
    assert dist.entropy() is h  # kept, not computed again
    assert h == bc.shannon_entropy(dist.probs)
    back = pickle.loads(pickle.dumps(dist))
    assert back == dist and back.entropy() == h


def test_is_factorized_per_lambda():
    assert bc.is_factorized_per_lambda(bc.table2_model(0.17))
    assert bc.is_factorized_per_lambda(bc.table1_model(0.25))
    assert not bc.is_factorized_per_lambda(bc.table1_model(0.13))


def test_correlations_single_state_all_plus():
    m = bc.Model((bc.HiddenState(1.0, bc.SettingDist.uniform(), (1, 1, 1, 1)),))
    c = bc.correlations_of(m)
    for x, y in bc.SETTINGS:
        assert c.prob(1, 1, x, y) == pytest.approx(1.0, abs=1e-15)


def test_correlations_table1_quantum_point():
    c = bc.correlations_of(bc.table1_model(P_Q))
    for x, y in bc.SETTINGS:
        want = (-1) ** (x * y) * (1.0 - 2.0 * P_Q)
        assert c.correlator(x, y) == pytest.approx(want, abs=1e-12)


def test_nonsignaling_checks():
    raw = bc.correlations_of(bc.table1_model(0.1))
    assert not bc.is_nonsignaling(raw)
    lifted = bc.correlations_of(bc.flip_lift(bc.table1_model(0.1)))
    assert bc.is_nonsignaling(lifted)
    white = bc.Correlations((0.25,) * 16)
    assert bc.is_nonsignaling(white)


def _nonsignaling_by_marginals(c, tol):
    for a in (1, -1):
        for x in (0, 1):
            if abs(c.alice_marginal(a, x, 0) - c.alice_marginal(a, x, 1)) > tol:
                return False
    for b in (1, -1):
        for y in (0, 1):
            if abs(c.bob_marginal(b, 0, y) - c.bob_marginal(b, 1, y)) > tol:
                return False
    return True


def test_nonsignaling_reads_the_marginals_of_the_table():
    rng = np.random.default_rng(2203)
    verdicts = set()
    for _ in range(400):
        rows = rng.random((4, 4))
        if rng.random() < 0.5:  # rows whose marginals agree except for one side, or on both
            rows[1] = rows[0][[1, 0, 3, 2]] if rng.random() < 0.5 else rows[0]
            rows[3] = rows[2]
        c = bc.Correlations(tuple((rows / rows.sum(axis=1, keepdims=True)).ravel().tolist()))
        for tol in (1e-12, 0.05, 0.3):
            verdict = bc.is_nonsignaling(c, tol)
            assert verdict == _nonsignaling_by_marginals(c, tol)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _signaling_table():
    return bc.correlations_of(bc.table1_model(0.1))


def test_tolerance_must_be_a_finite_real_at_least_zero():
    c = _signaling_table()
    for tol in (math.nan, math.inf, -math.inf, -1e-9, -1, 10**400, np.float64("nan"), True, "1e-9", None):
        with pytest.raises(bc.DomainError):
            bc.is_nonsignaling(c, tol)


def test_tolerance_of_any_real_type_gives_the_float_verdict():
    c = _signaling_table()
    for tol in (0, 1, np.float32(0.25), np.float64(1e-12)):
        assert bc.is_nonsignaling(c, tol) == bc.is_nonsignaling(c, float(tol)), tol


# ---------------------------------------------------------------------------
# property tests on random models
# ---------------------------------------------------------------------------

model_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(model_seeds)
@settings(max_examples=60, deadline=None)
def test_random_model_ranges(seed):
    m = random_model(np.random.default_rng(seed))
    s = bc.chsh_value(m)
    info = bc.mutual_information(m)
    h_xy = bc.derived_marginal(m).entropy()
    assert math.isfinite(s) and math.isfinite(info)
    assert abs(s) <= 4.0 + 1e-9
    assert -1e-12 <= info <= h_xy + 1e-9
    assert h_xy <= 2.0 + 1e-12
    h_lam = bc.shannon_entropy(m.weights)
    assert info <= h_lam + 1e-9


@given(model_seeds)
@settings(max_examples=40, deadline=None)
def test_bayes_consistency(seed):
    m = random_model(np.random.default_rng(seed))
    marg = bc.derived_marginal(m)
    for x, y in bc.SETTINGS:
        post = bc.posterior_weights(m, x, y)
        for st_, q in zip(m.states, post):
            assert st_.weight * st_.dist.prob(x, y) == pytest.approx(
                marg.prob(x, y) * q, abs=1e-12
            )


@given(model_seeds, model_seeds)
@settings(max_examples=40, deadline=None)
def test_relabeling_invariance(seed, perm_seed):
    m = random_model(np.random.default_rng(seed))
    order = np.random.default_rng(perm_seed).permutation(len(m.states))
    shuffled = bc.Model(tuple(m.states[i] for i in order), label=m.label)
    assert bc.chsh_value(shuffled) == pytest.approx(bc.chsh_value(m), abs=1e-12)
    assert bc.mutual_information(shuffled) == pytest.approx(
        bc.mutual_information(m), abs=1e-12
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_model_json_roundtrip(tmp_path):
    m = bc.flip_lift(bc.table2_model(0.3127))
    doc = bc.model_to_json(m)
    back = bc.model_from_json(doc)
    assert back.label == m.label
    for a, b in zip(back.states, m.states):
        assert a.weight == b.weight
        assert a.dist.probs == b.dist.probs
        assert a.dist.marginals == b.dist.marginals
        assert a.responses == b.responses
    path = tmp_path / "model.json"
    bc.save_model(m, str(path))
    again = bc.load_model(str(path))
    assert bc.chsh_value(again) == bc.chsh_value(m)
    assert bc.mutual_information(again) == bc.mutual_information(m)


def test_load_model_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe" + bc.model_to_json(bc.table1_model(0.2)).encode("utf-16-le"))
    with pytest.raises(bc.InvalidModel, match="not UTF-8"):
        bc.load_model(str(path))


def test_model_json_schema_field():
    doc = json.loads(bc.model_to_json(bc.table1_model(0.2)))
    assert doc["schema"] == "bellcost-model/1"
    assert doc["states"][0]["dist"]["type"] == "joint"
    doc["schema"] = "other/9"
    with pytest.raises(bc.InvalidModel):
        bc.model_from_dict(doc)


@pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000])
def test_model_json_nested_too_deeply_is_an_invalid_model(tmp_path, text):
    with pytest.raises(bc.InvalidModel, match="nested too deeply"):
        bc.model_from_json(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(bc.InvalidModel, match="nested too deeply"):
        bc.load_model(str(path))


@pytest.mark.parametrize("text", ["{", "", "[1,"], ids=["open-brace", "empty", "open-list"])
def test_model_json_that_does_not_parse_is_an_invalid_model(tmp_path, text):
    with pytest.raises(bc.InvalidModel, match="^model JSON does not parse: "):
        bc.model_from_json(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(bc.InvalidModel, match="^model JSON does not parse: "):
        bc.load_model(str(path))


def test_model_weight_beyond_float_range_is_an_invalid_model():
    doc = json.loads(bc.model_to_json(bc.table1_model(0.2)))
    doc["states"][0]["weight"] = 10**400
    with pytest.raises(bc.InvalidModel, match="weight inf"):
        bc.model_from_dict(doc)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_model_json_rejects_non_finite_literals(literal):
    text = bc.model_to_json(bc.table1_model(0.2)).replace('"weight": 0.25', f'"weight": {literal}', 1)
    assert literal in text
    with pytest.raises(bc.InvalidModel, match="non-finite literal"):
        bc.model_from_json(text)


def test_model_from_dict_rejects_malformed_documents():
    with pytest.raises(bc.InvalidModel):
        bc.model_from_dict({"schema": "bellcost-model/1", "states": [{"weight": 1.0}]})
    with pytest.raises(bc.InvalidModel):
        bc.model_from_dict(
            {
                "schema": "bellcost-model/1",
                "states": [{"weight": 1.0, "dist": {"type": "spline", "values": []}, "responses": [1, 1, 1, 1]}],
            }
        )


# ---------------------------------------------------------------------------
# the allocation guard at each entry point that sizes arrays by a caller's count
# ---------------------------------------------------------------------------

_SIZE_ERRORS = [
    MemoryError(),
    ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum possible size."),
    ValueError("Maximum allowed dimension exceeded"),
    ValueError("Maximum allowed size exceeded"),
]

#: The count each entry point is called with; its allocation of that many rows or points fails.
_COUNT = 12345


def _failing_entry_point(entry, exc, tmp_path, monkeypatch):
    """A call of the entry point whose allocation raises exc, and the request its DomainError names."""

    def fail(*args, **kwargs):
        raise exc

    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if isinstance(shape, tuple) and shape[-1] == _COUNT:
            raise exc
        return real_empty(shape, *args, **kwargs)

    if entry == "curve_sweep":
        monkeypatch.setattr(curves, "_binary_entropies", fail)
        return lambda: bc.curve_sweep(bc.CausalClass.RETROCAUSAL, 2, 4, _COUNT), f"n = {_COUNT} points"
    if entry == "brute_force_min_info":
        monkeypatch.setattr(oracle, "_retro_options", fail)
        cfg = bc.SearchConfig(resolution=8, target_s=S_Q, causal_class=bc.CausalClass.RETROCAUSAL)
        return lambda: bc.brute_force_min_info(cfg), "the N = 8 grid"
    monkeypatch.setattr(np, "empty", empty)
    if entry == "sample_rounds":
        model = bc.table1_model(0.2)
        return lambda: bc.sample_rounds(model, _COUNT, 0, bc.SampleOrder.SETTINGS_FIRST), f"n = {_COUNT} rounds"
    path = tmp_path / "rounds.csv"
    # a header and blank lines whose byte count bounds the log at _COUNT rounds of 16 bytes
    path.write_bytes(b"round,lambda,x,y,a,b,pred_a,pred_b\n" + b"\n" * (16 * _COUNT - 1))
    return lambda: bc.rounds_from_csv(str(path)), f"up to {_COUNT} rounds"


_ENTRY_POINTS = ["curve_sweep", "sample_rounds", "rounds_from_csv", "brute_force_min_info"]


@pytest.mark.parametrize("exc", _SIZE_ERRORS, ids=["memory", "too-big", "max-dimension", "max-size"])
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_a_size_error_is_a_domain_error_naming_the_request(entry, exc, tmp_path, monkeypatch):
    call, request = _failing_entry_point(entry, exc, tmp_path, monkeypatch)
    with pytest.raises(bc.DomainError) as err:
        call()
    assert str(err.value).startswith(f"{entry}: ")
    assert str(err.value).endswith(f"{request} does not fit in memory")


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_any_other_value_error_passes_through_the_guard(entry, tmp_path, monkeypatch):
    exc = ValueError("not a size error")
    call, _ = _failing_entry_point(entry, exc, tmp_path, monkeypatch)
    with pytest.raises(ValueError) as err:
        call()
    assert err.value is exc


# ---------------------------------------------------------------------------
# an int beyond the float range, or too long for Python to turn into text
# ---------------------------------------------------------------------------

_CAUSAL, _RETRO, _ONE_SIDED = bc.CausalClass.CAUSAL, bc.CausalClass.RETROCAUSAL, bc.CausalClass.ONE_SIDED

#: Every argument that once let a huge int escape as ValueError or OverflowError, by site.
_HUGE_INT_SITES = {
    "sample_rounds-n": lambda v: bc.sample_rounds(bc.table1_model(0.1), v, 0, bc.SampleOrder.SETTINGS_FIRST),
    "sample_rounds-seed": lambda v: bc.sample_rounds(bc.table1_model(0.1), 10, v, bc.SampleOrder.SETTINGS_FIRST),
    "Bias-eps_x": lambda v: bc.Bias(v, 0.0),
    "Bias-eps_y": lambda v: bc.Bias(0.0, v),
    "causal_pair_model-p": lambda v: bc.causal_pair_model(v, 0.1),
    "causal_pair_model-ptilde": lambda v: bc.causal_pair_model(0.1, v),
    "one_sided_model": bc.one_sided_model,
    "table2_model-same": bc.table2_model,
    "table2_model-conjugate": lambda v: bc.table2_model(v, bc.Table2Branch.CONJUGATE),
    "biased_info-retro": lambda v: bc.biased_info(_RETRO, bc.Bias(0.1, 0.1), p=v),
    "biased_info-causal": lambda v: bc.biased_info(_CAUSAL, bc.Bias(0.1, 0.1), p=v, ptilde=0.1),
    "biased_info-onesided": lambda v: bc.biased_info(_ONE_SIDED, bc.Bias(0.1, 0.1), p=v),
    "biased_lift": lambda v: bc.biased_lift(_CAUSAL, bc.Bias(0.1, 0.1), p=v),
    "is_nonsignaling-tol": lambda v: bc.is_nonsignaling(bc.correlations_of(bc.table1_model(0.1)), v),
    # a negative N fails in SearchConfig, and a positive one at the search's first allocation
    "brute_force_min_info-retro": lambda v: bc.brute_force_min_info(bc.SearchConfig(v, 2.5, _RETRO)),
    "brute_force_min_info-causal": lambda v: bc.brute_force_min_info(bc.SearchConfig(v, 2.5, _CAUSAL)),
    "brute_force_min_info-onesided": lambda v: bc.brute_force_min_info(bc.SearchConfig(v, 2.5, _ONE_SIDED)),
    "SearchConfig-target_s": lambda v: bc.SearchConfig(16, v, _RETRO),
    "SearchConfig-tolerance": lambda v: bc.SearchConfig(16, 2.5, _RETRO, v),
    "curve_sweep-n": lambda v: bc.curve_sweep(_CAUSAL, 2.0, 4.0, v),
    "CurvePoint-s": lambda v: bc.CurvePoint(v, 0.0),
    "CurvePoint-info": lambda v: bc.CurvePoint(3.0, -abs(v)),  # any info >= 0 is one
    "ConjugatePair-p": lambda v: bc.ConjugatePair(v, 0.3),
    "ConjugatePair-p_star": lambda v: bc.ConjugatePair(0.1, v),
    "f_of_p": bc.f_of_p,
    "f_slope": curves.f_slope,
    "conjugate": bc.conjugate,
    "binary_entropy": bc.binary_entropy,
    "shannon_entropy": lambda v: bc.shannon_entropy([v, 0.0]),
    "posterior_weights-x": lambda v: bc.posterior_weights(bc.table1_model(0.1), v, 0),
}


@pytest.mark.parametrize("value", [10**5000, -(10**5000), 10**400, -(10**400)], ids=["1e5000", "-1e5000", "1e400", "-1e400"])
@pytest.mark.parametrize("site", sorted(_HUGE_INT_SITES))
def test_a_huge_int_is_a_domain_error_with_a_short_message(site, value):
    # 10**5000 is past the 4 300 digits Python turns into text, and 10**400 past the float range
    with pytest.raises(bc.DomainError) as err:
        _HUGE_INT_SITES[site](value)
    assert len(str(err.value)) < 100, str(err.value)
