"""Seeded sampling, the two causal orders, and the plug-in estimators."""

import dataclasses
import hashlib
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

import bellcost as bc
from bellcost import simulate

from conftest import P_Q, S_Q

SOURCE = bc.SampleOrder.SOURCE_FIRST
SETTINGS_FIRST = bc.SampleOrder.SETTINGS_FIRST


def quantum_causal_model():
    return bc.table2_model(math.sqrt(P_Q))


def test_round_stream_is_deterministic():
    m = quantum_causal_model()
    a = bc.sample_rounds(m, 2000, seed=42, order=SOURCE)
    b = bc.sample_rounds(m, 2000, seed=42, order=SOURCE)
    assert a == b
    c = bc.sample_rounds(m, 2000, seed=43, order=SOURCE)
    assert a != c


def test_predictions_match_outcomes_everywhere():
    m = quantum_causal_model()
    for order in (SOURCE, SETTINGS_FIRST):
        rounds = bc.sample_rounds(m, 5000, seed=3, order=order)
        assert np.array_equal(rounds.predicted_a, rounds.a) and np.array_equal(rounds.predicted_b, rounds.b)
        stats = bc.empirical_stats(rounds)
        assert stats.prediction_accuracy == 1.0


def test_source_first_requires_factorized_conditionals():
    with pytest.raises(bc.OrderUnavailable):
        bc.sample_rounds(bc.table1_model(0.1), 10, seed=0, order=SOURCE)
    # the p = 1/4 member is measurement independent, hence factorized
    rounds = bc.sample_rounds(bc.table1_model(0.25), 10, seed=0, order=SOURCE)
    assert len(rounds) == 10


def test_sample_rounds_argument_validation():
    with pytest.raises(bc.DomainError):
        bc.sample_rounds(quantum_causal_model(), 0, seed=0, order=SOURCE)
    for seed in (-1, 2**128, 1.5, "7", True, None):
        with pytest.raises(bc.DomainError):
            bc.sample_rounds(quantum_causal_model(), 10, seed=seed, order=SOURCE)
    # the largest 128-bit Philox key and numpy integers are valid seeds
    assert len(bc.sample_rounds(quantum_causal_model(), 10, seed=2**128 - 1, order=SOURCE)) == 10
    assert bc.sample_rounds(quantum_causal_model(), 10, seed=np.int64(3), order=SOURCE) == (
        bc.sample_rounds(quantum_causal_model(), 10, seed=3, order=SOURCE)
    )


@pytest.mark.parametrize("n", [0, -3, 2.5, 3.0, True, "10", None])
def test_sample_rounds_rejects_n_that_is_not_a_positive_integer(n):
    with pytest.raises(bc.DomainError):
        bc.sample_rounds(quantum_causal_model(), n, seed=0, order=SOURCE)


# 35.5 PiB, beyond any address space, and more bytes than an array can index:
# both fail at once, before anything is allocated
@pytest.mark.parametrize("n", [10**15, 2**63])
def test_sample_rounds_rejects_a_log_too_large_to_allocate(n):
    with pytest.raises(bc.DomainError, match=f"n = {n} "):
        bc.sample_rounds(quantum_causal_model(), n, seed=0, order=SOURCE)


def test_sample_rounds_accepts_numpy_integer_n():
    assert bc.sample_rounds(quantum_causal_model(), np.int64(10), seed=0, order=SOURCE) == (
        bc.sample_rounds(quantum_causal_model(), 10, seed=0, order=SOURCE)
    )


def test_uniform_settings_empirically():
    m = bc.table1_model(0.25)
    for order in (SOURCE, SETTINGS_FIRST):
        rounds = bc.sample_rounds(m, 40000, seed=5, order=order)
        counts = np.bincount(2 * rounds.x + rounds.y, minlength=4)
        freq = counts / len(rounds)
        assert np.max(np.abs(freq - 0.25)) < 0.02


def test_orders_induce_the_same_joint_law():
    m = quantum_causal_model()
    n = 10**5
    h = []
    for order, seed in ((SOURCE, 11), (SETTINGS_FIRST, 22)):
        rounds = bc.sample_rounds(m, n, seed=seed, order=order)
        h.append(np.bincount(4 * rounds.lambda_index + 2 * rounds.x + rounds.y, minlength=16))
    h1, h2 = h
    mask = (h1 + h2) > 0
    stat = float((((h1 - h2) ** 2) / (h1 + h2))[mask].sum())
    dof = int(mask.sum()) - 1
    assert stat < chi2.ppf(0.999, dof)


def test_empirical_stats_against_exact_values():
    m = quantum_causal_model()
    rounds = bc.sample_rounds(m, 200_000, seed=17, order=SOURCE)
    stats = bc.empirical_stats(rounds)
    se = bc.chsh_standard_error(rounds)
    assert abs(stats.s_hat - S_Q) < 5.0 * se
    assert abs(stats.info_hat - bc.mutual_information(m)) < 0.01


def test_plugin_information_converges():
    m = quantum_causal_model()
    exact = bc.mutual_information(m)
    medians = []
    for n in (10**3, 10**4, 10**5, 10**6):
        errs = []
        for seed in range(5):
            stats = bc.empirical_stats(bc.sample_rounds(m, n, seed, SOURCE))
            errs.append(abs(stats.info_hat - exact))
        medians.append(float(np.median(errs)))
    assert all(b < a for a, b in zip(medians, medians[1:])), medians


def test_missing_setting_detected():
    rounds = bc.RoundLog(*np.array([[0, 0, 0, 1, 1, 1, 1]] * 5).T)
    with pytest.raises(bc.MissingSetting):
        bc.empirical_stats(rounds)
    with pytest.raises(bc.MissingSetting):
        bc.chsh_standard_error(rounds)
    with pytest.raises(bc.DomainError):
        bc.empirical_stats(bc.RoundLog(*np.zeros((7, 0), dtype=np.int64)))
    with pytest.raises(bc.DomainError):
        bc.chsh_standard_error(bc.RoundLog(*np.zeros((7, 0), dtype=np.int64)))


def test_round_csv_roundtrip(tmp_path):
    m = quantum_causal_model()
    rounds = bc.sample_rounds(m, 500, seed=9, order=SETTINGS_FIRST)
    path = tmp_path / "rounds.csv"
    text = bc.rounds_to_csv(rounds, str(path))
    assert text.splitlines()[0] == "round,lambda,x,y,a,b,pred_a,pred_b"
    back = bc.rounds_from_csv(str(path))
    assert back == rounds
    # a log with no rounds is a header-only file
    empty = bc.RoundLog(*np.zeros((7, 0), dtype=np.int64))
    assert bc.rounds_to_csv(empty, str(path)) == "round,lambda,x,y,a,b,pred_a,pred_b\n"
    assert bc.rounds_from_csv(str(path)) == empty


def test_info_estimate_vanishes_without_dependence():
    m = bc.table1_model(0.25)
    stats = bc.empirical_stats(bc.sample_rounds(m, 100_000, seed=4, order=SETTINGS_FIRST))
    assert stats.info_hat < 0.001


# sha256 of the round CSV and hex s_hat, info_hat, SE for n=2000, seed=42:
# pins the Philox stream, the CSV schema and the estimator bits
GOLDEN = {
    SOURCE: (
        "2c30352b8a657bbf03a305339ff4f3858f78e133f84f2356304f102e2ac8c1ad",
        "0x1.5e1e8806a6405p+1",
        "0x1.0b344d28ae102p-4",
        "0x1.0b3b9c0f8a018p-4",
    ),
    SETTINGS_FIRST: (
        "00807d78c252ab95ad48fa6931d985b6a75c907b83988704540c3d045d2a6488",
        "0x1.69d066ba90502p+1",
        "0x1.6d803df8756c5p-4",
        "0x1.0395c381101d7p-4",
    ),
}


@pytest.mark.parametrize("order", [SOURCE, SETTINGS_FIRST])
def test_golden_round_log(order):
    rounds = bc.sample_rounds(quantum_causal_model(), 2000, seed=42, order=order)
    stats = bc.empirical_stats(rounds)
    digest = hashlib.sha256(bc.rounds_to_csv(rounds).encode()).hexdigest()
    se = bc.chsh_standard_error(rounds)
    assert (digest, stats.s_hat.hex(), stats.info_hat.hex(), se.hex()) == GOLDEN[order]
    assert stats.s_standard_error.hex() == GOLDEN[order][3]


def _flip_superdeterministic():
    """The 32-state flip lift of the superdeterministic model of flip_lift(table1_model(0.1))'s correlations."""
    corr = bc.correlations_of(bc.flip_lift(bc.table1_model(0.1)))
    return bc.flip_lift(bc.superdeterministic_model(corr, bc.SettingDist.uniform()))


def _many_states():
    """200 equally weighted states: more cumulative weights than an int8 count holds."""
    dist = bc.SettingDist.factorized(0.3, 0.55)
    return bc.Model(
        tuple(
            bc.HiddenState(1 / 200, dist, tuple(1 - 2 * (i >> bit & 1) for bit in range(4))) for i in range(200)
        )
    )


# sha256 of the round CSV of n=2000, seed=7 for models of 8, 32 and 200 states, where the sampler
# counts the cumulative weights each uniform passes; table1 has joint conditionals, so its 8-state
# source-first pin is the factorized table2's
SAMPLER_MODELS = {
    "flip-table1": lambda: bc.flip_lift(bc.table1_model(0.1)),
    "flip-table2": lambda: bc.flip_lift(bc.table2_model(0.1)),
    "flip-superdeterministic": _flip_superdeterministic,
    "many-states": _many_states,
}
SAMPLER_GOLDEN = {
    ("flip-table1", SETTINGS_FIRST): "e82fcd8e88f057f03c56b8fdfa51f4a89adf7697715eedb4941915403d0dc894",
    ("flip-table2", SOURCE): "753954f41e4a35d7bc9c4839d6399c8097c0f03c901e5f3eb17490a9492ce823",
    ("flip-table2", SETTINGS_FIRST): "8529af578a9966d123c2f182f0881c4567b966d17354f1e8af49c175df5d4b15",
    ("flip-superdeterministic", SOURCE): "1a25ee471b4765d320ffdd49741693445035a1873ee9f96249a3ba0c4827a0ca",
    ("flip-superdeterministic", SETTINGS_FIRST): "e34b6dd43f6b77bb82a87c34092e17bac14e112f355cbef85414a50451395c5c",
    ("many-states", SOURCE): "5a5dde7084caa1ffc96403d8e84027074398696abf042dbac8bb6781c158050c",
    ("many-states", SETTINGS_FIRST): "bbec681ec24ff87eb892f123c5ed9a1cc51c282b14906561e4caad6e1fb55cf3",
}


@pytest.mark.parametrize("name, order", list(SAMPLER_GOLDEN), ids=lambda v: getattr(v, "value", v))
def test_golden_round_logs_of_many_state_models(name, order):
    m = SAMPLER_MODELS[name]()
    rounds = bc.sample_rounds(m, 2000, seed=7, order=order)
    assert hashlib.sha256(bc.rounds_to_csv(rounds).encode()).hexdigest() == SAMPLER_GOLDEN[name, order]


# sha256 of the round CSV of n=5000, seed=3 for a model whose zero-weight states repeat a
# cumulative weight, and whose settings with y = 1 are never drawn
ZERO_WEIGHT_GOLDEN = {
    SOURCE: "08b39f5a5fb7cbf95736ab0b9727fa4263b60408317af16416f4e29cbd51c15c",
    SETTINGS_FIRST: "3821f698d0e57464bc94b6f2e726a2a5c99a9d2b4383c1910bae68332a9a3856",
}


@pytest.mark.parametrize("order", list(ZERO_WEIGHT_GOLDEN), ids=lambda v: v.value)
def test_zero_weight_states_and_settings_are_never_drawn(order):
    dist = bc.SettingDist.factorized(0.6, 1.0)
    states = tuple(
        bc.HiddenState(w, dist, (1, -1, 1 - 2 * (i % 2), 1)) for i, w in enumerate([0.25, 0.0, 0.0, 0.5, 0.25, 0.0])
    )
    rounds = bc.sample_rounds(bc.Model(states), 5000, seed=3, order=order)
    assert set(rounds.lambda_index.tolist()) == {0, 3, 4}
    assert not rounds.y.any()
    assert hashlib.sha256(bc.rounds_to_csv(rounds).encode()).hexdigest() == ZERO_WEIGHT_GOLDEN[order]


def test_stats_are_python_floats():
    stats = bc.empirical_stats(bc.sample_rounds(quantum_causal_model(), 2000, seed=42, order=SOURCE))
    assert [type(value) for value in dataclasses.astuple(stats)] == [float] * 4


def test_round_csv_matches_row_formatting(tmp_path):
    # multi-digit hidden states and a round count crossing several digit widths
    rng = np.random.default_rng(0)
    n = 1234
    columns = [rng.choice([0, 9, 10, 12345, 2**62], size=n)]
    columns += [rng.integers(0, 2, size=n) for _ in range(2)]
    columns += [rng.choice([-1, 1], size=n) for _ in range(4)]
    rounds = bc.RoundLog(*columns)
    expected = "round,lambda,x,y,a,b,pred_a,pred_b\n" + "".join(
        ",".join(map(str, (i, *row))) + "\n" for i, row in enumerate(zip(*(col.tolist() for col in columns)))
    )
    path = tmp_path / "rounds.csv"
    assert bc.rounds_to_csv(rounds, str(path)) == expected
    assert path.read_bytes() == expected.encode()
    assert bc.rounds_from_csv(str(path)) == rounds


def test_round_csv_renders_every_digit_count():
    # one lambda per digit count, with the widest int64 last: each place, the last one
    # included, must render as str() does
    lam = [0] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)] + [2**63 - 1]
    n = len(lam)
    k = np.arange(n)
    a, b = 1 - 2 * (k % 3 == 0), 1 - 2 * (k % 5 == 0)
    columns = [np.array(lam), k % 2, k // 2 % 2, a, b, a, b]
    rows = zip(range(n), *(col.tolist() for col in columns))
    lines = bc.rounds_to_csv(bc.RoundLog(*columns)).splitlines()
    assert lines[0] == "round,lambda,x,y,a,b,pred_a,pred_b"
    assert lines[1:] == [",".join(map(str, row)) for row in rows]
    assert lines[-1].split(",")[1] == "9223372036854775807"


def _digits_value(digits: int):
    """Integers in [0, 2**63) with exactly the given number of decimal digits."""
    return st.integers(10 ** (digits - 1) if digits > 1 else 0, min(10**digits - 1, 2**63 - 1))


_rounds = st.lists(
    st.tuples(
        st.integers(1, 19).flatmap(_digits_value),
        st.integers(0, 1),
        st.integers(0, 1),
        *[st.sampled_from([-1, 1])] * 4,
    ),
    max_size=40,
)


@given(_rounds, st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_round_csv_bytes_match_row_formatting(rows, block):
    columns = np.array(rows, np.int64).reshape(-1, 7).T
    rounds = bc.RoundLog(*columns)
    expected = "round,lambda,x,y,a,b,pred_a,pred_b\n" + "".join(
        ",".join(map(str, (i, *row))) + "\n" for i, row in enumerate(rows)
    )
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(simulate, "_BLOCK", block)
        path = os.path.join(tmp, "rounds.csv")
        assert bc.rounds_to_csv(rounds, path) == expected
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode()
        assert bc.rounds_from_csv(path) == rounds


def test_round_csv_write_to_a_missing_directory_names_the_path(tmp_path):
    rounds = bc.sample_rounds(quantum_causal_model(), 20, seed=1, order=SOURCE)
    path = str(tmp_path / "missing" / "rounds.csv")
    with pytest.raises(FileNotFoundError) as err:
        bc.rounds_to_csv(rounds, path)
    assert err.value.filename == path


def test_failed_round_csv_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "rounds.csv"
    path.write_bytes(b"old contents\n")
    rounds = bc.sample_rounds(quantum_causal_model(), 20, seed=1, order=SOURCE)
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    render = simulate._csv_rows
    calls = []

    def fail_on_second_block(rows, columns):
        calls.append(rows)
        if len(calls) == 2:
            raise RuntimeError("render failed")
        return render(rows, columns)

    monkeypatch.setattr(simulate, "_csv_rows", fail_on_second_block)
    with pytest.raises(RuntimeError, match="render failed"):
        bc.rounds_to_csv(rounds, str(path))
    assert path.read_bytes() == b"old contents\n"
    assert sorted(os.listdir(tmp_path)) == ["rounds.csv"]  # no .tmp-*~ file is left


_HEADER = "round,lambda,x,y,a,b,pred_a,pred_b\n"
_GOOD_ROWS = "0,0,0,0,1,1,1,1\n1,1,0,1,-1,1,-1,1\n2,2,1,0,1,-1,1,-1\n3,3,1,1,-1,-1,-1,-1\n"


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty file
        _HEADER + _GOOD_ROWS + "4,0,0,0,1,1,1\n",  # short row
        _HEADER + _GOOD_ROWS + "4,0,2,0,1,1,1,1\n",  # x = 2
        _HEADER + _GOOD_ROWS + "4,0,0,0,0,1,1,1\n",  # a = 0
        _HEADER + _GOOD_ROWS + "4,-1,0,0,1,1,1,1\n",  # lambda = -1
        _HEADER + _GOOD_ROWS + "5,0,0,0,1,1,1,1\n",  # gap in the round column
    ],
    ids=["empty", "short-row", "x=2", "a=0", "lambda=-1", "round-gap"],
)
def test_malformed_round_log_rejected(tmp_path, text):
    path = tmp_path / "rounds.csv"
    path.write_text(_HEADER + _GOOD_ROWS)
    assert len(bc.rounds_from_csv(str(path))) == 4
    path.write_text(text)
    with pytest.raises(bc.DomainError):
        bc.rounds_from_csv(str(path))


def test_round_log_columns_validated():
    good = np.zeros((7, 3), dtype=np.int64)
    good[3:] = 1
    assert len(bc.RoundLog(*good)) == 3
    with pytest.raises(bc.DomainError):
        bc.RoundLog(*good[:, :2][:6], good[6])  # unequal lengths
    with pytest.raises(bc.DomainError):
        bc.RoundLog(*good.astype(float))  # not integers
    with pytest.raises(bc.DomainError):
        bc.RoundLog(*good[:, :, None])  # not 1-D


def test_round_log_names_the_column_and_round_at_fault():
    # an array may be passed as two columns, as sample_rounds passes a and b again as the predictions
    lam, x, y, a, b = np.array([[0, 1], [0, 1], [1, 0], [1, -1], [-1, 1]])
    assert bc.RoundLog(lam, x, y, a, b, a, b) == bc.RoundLog(lam, x, y, a, b, a.copy(), b.copy())
    with pytest.raises(bc.DomainError, match="round 0: a is not an outcome"):
        bc.RoundLog(lam, x, y, x, b, x, b)  # x holds settings, not outcomes
    with pytest.raises(bc.DomainError, match="round 1: x is not a setting"):
        bc.RoundLog(lam, a, y, a, b, a, b)
    with pytest.raises(bc.DomainError, match="round 0: y is not a setting"):
        bc.RoundLog(lam, x, np.array([2, 0]), a, b, a, b)
    with pytest.raises(bc.DomainError, match="round 1: y is not a setting"):
        bc.RoundLog(lam, x, np.array([0, -1]), a, b, a, b)
    with pytest.raises(bc.DomainError, match="round 0: predicted_b is not an outcome"):
        bc.RoundLog(lam, x, y, a, b, a, np.array([3, 1]))


def _valid_columns(n: int) -> dict:
    k = np.arange(n, dtype=np.int64)
    a, b = 1 - 2 * (k % 2), 1 - 2 * (k // 4 % 2)
    return dict(zip(simulate._COLUMNS, (k % 3, k % 2, k // 2 % 2, a, b, a.copy(), b.copy())))


@pytest.mark.parametrize("name, value", [("x", 257), ("y", 2**40 + 1), ("a", 255), ("predicted_b", -257)])
def test_narrowing_never_wraps_into_a_setting_or_outcome(tmp_path, monkeypatch, name, value):
    """Each value wraps to a valid int8 (257 -> 1, 255 -> -1, ...); it is refused before it is narrowed."""
    n, row = 3000, 2500
    columns = _valid_columns(n)
    lines = bc.rounds_to_csv(bc.RoundLog(**columns)).splitlines()
    columns[name][row] = value
    message = f"^round {row}: {name} is not "
    with pytest.raises(bc.DomainError, match=message):
        bc.RoundLog(**columns)
    # the same value read back, in chunks small enough that it lies in a later one
    fields = lines[1 + row].split(",")
    fields[1 + simulate._COLUMNS.index(name)] = str(value)
    lines[1 + row] = ",".join(fields)
    path = tmp_path / "rounds.csv"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(simulate, "_CHUNK", 4096)
    assert sum(len(line) + 1 for line in lines[: 1 + row]) > 4 * simulate._CHUNK
    with pytest.raises(bc.DomainError, match=message):
        bc.rounds_from_csv(str(path))


def _held_bytes(rounds: bc.RoundLog) -> int:
    """Bytes of a log's columns, each distinct array counted once."""
    distinct = {id(col): col for col in (getattr(rounds, name) for name in simulate._COLUMNS)}
    return sum(col.nbytes for col in distinct.values())


@pytest.mark.parametrize("order", [SOURCE, SETTINGS_FIRST])
def test_round_log_columns_are_narrow(tmp_path, order):
    """int64 lambda and int8 for the rest: 12 bytes a sampled round, 14 a round read back."""
    n = 10**4
    model = bc.flip_lift(bc.table2_model(0.2) if order is SOURCE else bc.table1_model(0.1))
    rounds = bc.sample_rounds(model, n, seed=11, order=order)
    path = str(tmp_path / "rounds.csv")
    bc.rounds_to_csv(rounds, path)
    back = bc.rounds_from_csv(path)
    for log in (rounds, back):
        columns = [getattr(log, name) for name in simulate._COLUMNS]
        assert [col.dtype for col in columns] == [np.dtype(np.int64)] + [np.dtype(np.int8)] * 6
        assert not any(col.flags.writeable for col in columns)
    assert rounds.predicted_a is rounds.a and rounds.predicted_b is rounds.b
    assert _held_bytes(rounds) == 12 * n
    assert _held_bytes(back) == 14 * n
    assert back == rounds


@pytest.mark.parametrize("block", [1, 7, 2000])
@pytest.mark.parametrize("order", [SOURCE, SETTINGS_FIRST])
def test_golden_round_log_is_independent_of_block_size(tmp_path, monkeypatch, order, block):
    monkeypatch.setattr(simulate, "_BLOCK", block)
    rounds = bc.sample_rounds(quantum_causal_model(), 2000, seed=42, order=order)
    stats = bc.empirical_stats(rounds)
    path = tmp_path / "rounds.csv"
    digest = hashlib.sha256(bc.rounds_to_csv(rounds, str(path)).encode()).hexdigest()
    se = bc.chsh_standard_error(rounds)
    assert (digest, stats.s_hat.hex(), stats.info_hat.hex(), se.hex()) == GOLDEN[order]
    assert stats.s_standard_error.hex() == GOLDEN[order][3]
    assert bc.rounds_from_csv(str(path)) == rounds


@pytest.mark.parametrize(
    "block, n", [(7, 6), (7, 7), (7, 8), (7, 3 * 7 + 7), (1 << 16, (1 << 16) + 1)]
)
@pytest.mark.parametrize("order", [SOURCE, SETTINGS_FIRST])
def test_round_pipeline_is_independent_of_block_boundaries(tmp_path, monkeypatch, order, block, n):
    path = tmp_path / "rounds.csv"
    runs = []
    for size in (block, n):  # blocks of `block` rounds, then all n rounds in one block
        monkeypatch.setattr(simulate, "_BLOCK", size)
        rounds = bc.sample_rounds(quantum_causal_model(), n, seed=n, order=order)
        text = bc.rounds_to_csv(rounds, str(path))
        runs.append((rounds, text, path.read_bytes(), bc.rounds_from_csv(str(path))))
    (rounds, text, data, back), reference = runs
    assert (rounds, text, data, back) == reference
    assert back == rounds and data == text.encode()


def test_stats_of_large_hidden_state_indices(tmp_path):
    # as a count-table row index, 2**62 overflowed and 10**11 asked for terabytes
    rounds = bc.sample_rounds(quantum_causal_model(), 3000, seed=8, order=SETTINGS_FIRST)
    assert set(rounds.lambda_index.tolist()) == {0, 1, 2, 3}
    relabel = np.array([0, 12345, 10**11, 2**62])  # increasing, so the states keep their order
    big = bc.RoundLog(
        relabel[rounds.lambda_index], rounds.x, rounds.y, rounds.a, rounds.b,
        rounds.predicted_a, rounds.predicted_b,
    )
    path = tmp_path / "rounds.csv"
    bc.rounds_to_csv(big, str(path))
    back = bc.rounds_from_csv(str(path))
    assert back == big
    assert bc.empirical_stats(back) == bc.empirical_stats(rounds)
    assert bc.chsh_standard_error(back).hex() == bc.chsh_standard_error(rounds).hex()
    # states 0..3 rank as themselves, 2**62 by a sort, and states with a gap by the counting table
    gap = bc.RoundLog(
        np.array([2, 3, 5, 7])[rounds.lambda_index], rounds.x, rounds.y, rounds.a, rounds.b,
        rounds.predicted_a, rounds.predicted_b,
    )
    assert bc.empirical_stats(gap) == bc.empirical_stats(rounds)
    assert bc.chsh_standard_error(gap).hex() == bc.chsh_standard_error(rounds).hex()


def test_block_counts_merge_states_that_appear_late(monkeypatch):
    # blocks of 7 rounds; states 0, 5 and 2**62 first occur in later blocks, and 2**62 takes
    # the sorted (np.unique) ranking while the other blocks take the counting table
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    rng = np.random.default_rng(20)
    n = 70
    lam = rng.choice([1, 2, 3], size=n)
    lam[[16, 30, 31, 50, 69]] = [5, 2**62, 0, 0, 2**62]
    x, y = rng.integers(0, 2, size=(2, n))
    a, b = rng.choice([-1, 1], size=(2, n))
    pred_a = np.where(rng.random(n) < 0.9, a, -a)
    rounds = bc.RoundLog(lam, x, y, a, b, pred_a, b)
    tally = simulate._tally(rounds)
    states, rank = np.unique(lam, return_inverse=True)
    sidx = 2 * x + y
    joint = np.bincount(4 * rank + sidx, minlength=4 * len(states)).reshape(-1, 4)
    assert np.array_equal(tally.states, states) and states.tolist() == [0, 1, 2, 3, 5, 2**62]
    assert np.array_equal(tally.joint, joint)
    assert np.array_equal(tally.agree, np.bincount(sidx[a == b], minlength=4))
    assert tally.hits == np.count_nonzero(pred_a == a)
    monkeypatch.setattr(simulate, "_BLOCK", n)
    assert bc.empirical_stats(rounds) == simulate._tally(rounds).stats() == tally.stats()


@pytest.mark.parametrize(
    "text",
    [
        (_HEADER + _GOOD_ROWS).replace("\n", "\r\n"),
        (_HEADER + _GOOD_ROWS).replace("\n", "\r"),
        (_HEADER + _GOOD_ROWS)[:-1],
        _HEADER + "\n" + _GOOD_ROWS.replace("\n", "\n\r\n", 2) + "\n\n",
    ],
    ids=["crlf", "cr", "no-final-newline", "blank-lines"],
)
@pytest.mark.parametrize("block", [2, 1 << 16])
def test_round_log_reader_accepts_line_ending_forms(tmp_path, monkeypatch, text, block):
    path = tmp_path / "rounds.csv"
    path.write_bytes((_HEADER + _GOOD_ROWS).encode())
    expected = bc.rounds_from_csv(str(path))
    monkeypatch.setattr(simulate, "_BLOCK", block)
    path.write_bytes(text.encode())
    assert bc.rounds_from_csv(str(path)) == expected


# a bad row after a blank line, with the file line each error names
_BAD_ROWS = [
    ("7,0,0,0,1,1,1", "line 10: '7,0,0,0,1,1,1' is not a round of 8 integer fields"),
    ("7,0,0,0,1,1,1,x", "line 10: '7,0,0,0,1,1,1,x' is not a round of 8 integer fields"),
    ("8,0,0,0,1,1,1,1", "line 10: round column holds 8, not 7"),
]


def _log_with_bad_row(path, bad):
    rows = [f"{i},0,0,0,1,1,1,1" for i in range(10)]
    rows[7] = bad
    rows.insert(7, "")  # a blank line before the bad row, at file lines 9 and 10
    path.write_text(_HEADER + "\n".join(rows) + "\n")


@pytest.mark.parametrize("bad, message", _BAD_ROWS, ids=["short-row", "not-an-integer", "round-gap"])
def test_bad_row_in_a_later_block_names_its_file_line(tmp_path, monkeypatch, bad, message):
    # a read of 48 bytes holds three 16-byte rows, so the third chunk is round 6, the blank line and the bad row
    monkeypatch.setattr(simulate, "_CHUNK", 48)
    path = tmp_path / "rounds.csv"
    _log_with_bad_row(path, bad)
    with open(path, "rb") as fh:
        fh.readline()
        chunks = list(simulate._chunks(fh))
    assert [c.count(b"\n") - 1 for c in chunks[:2]] == [3, 3]
    assert chunks[2].startswith(b"\n6,0,0,0,1,1,1,1\n\n%s\n" % bad.encode())
    with pytest.raises(bc.DomainError) as err:
        bc.rounds_from_csv(str(path))
    assert str(err.value) == message


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "bad",
    [
        "4,0,0,0,+1,1,1,1",
        "4, 0,0,0,1,1,1,1",
        "4,0 ,0,0,1,1,1,1",
        "4,0,0,0,1,1,1,1\t",
        f"4,{2**63},0,0,1,1,1,1",
        f"4,{-(2**63)},0,0,1,1,1,1",
        "4," + "0" * 20 + ",0,0,1,1,1,1",
    ],
    ids=["plus", "leading-space", "trailing-space", "tab", "2**63", "-2**63", "20-digits"],
)
def test_round_log_reader_rejects_fields_outside_the_grammar(tmp_path, bad, end):
    # np.loadtxt reads all but 2**63 as integers; the tokenizer takes -?[0-9]{1,19} below 2**63
    path = tmp_path / "rounds.csv"
    path.write_bytes((_HEADER + _GOOD_ROWS + "\n" + bad + "\n").replace("\n", end).encode())
    with pytest.raises(bc.DomainError) as err:
        bc.rounds_from_csv(str(path))
    assert str(err.value) == f"line 7: {bad!r} is not a round of 8 integer fields"


def test_round_log_reader_takes_19_digit_fields_as_plain_rows(tmp_path, monkeypatch):
    k = np.arange(6)
    lam = np.array([2**63 - 1, 10**18, 0, 9 * 10**18 - 1, 9 * 10**18, 7])
    a, b = 1 - 2 * (k % 2), 1 - 2 * (k // 3)
    rounds = bc.RoundLog(lam, k % 2, k // 2 % 2, a, b, a, b)
    path = tmp_path / "rounds.csv"
    bc.rounds_to_csv(rounds, str(path))
    monkeypatch.setattr(simulate, "_normalized_rows", None)  # the plain form is parsed in one pass
    assert bc.rounds_from_csv(str(path)) == rounds


def _random_fields(rng, rows):
    """rows x 8 plain-form fields: signs, -0, leading zeros and 1 to 19 digits."""
    fields = []
    for _ in range(rows * 8):
        digits = int(rng.choice([1, 1, 1, 2, 3, 7, 18]))
        field = "".join(rng.choice(list("0123456789"), size=digits))
        fields.append(("-" if rng.random() < 0.3 else "") + field)
    fields[:7] = ["-0", "007", "9" * 18, "-" + "9" * 18, str(2**63 - 1), str(1 - 2**63), "0" + "9" * 18]
    return [fields[i : i + 8] for i in range(0, len(fields), 8)]


def _chunk(rows) -> bytes:
    return b"\n" + "".join(",".join(row) + "\n" for row in rows).encode()


def _loadtxt_fields(buf):
    """The (8, rows) fields np.loadtxt reads from a chunk's lines, or None if it reads no table of 8."""
    lines = io.StringIO(buf[1:].decode("utf-8", "replace"), newline="").readlines()
    try:
        table = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return table.T if table.shape[1] == 8 else None


def _mutated(kind, rows, rng) -> bytes:
    """A chunk of the rows with one defect of the given kind."""
    rows = [list(row) for row in rows]
    i, j = int(rng.integers(len(rows))), int(rng.integers(7))  # field j has a successor in its row
    fields = {
        "empty-field": "",
        "bare-minus": "-",
        "inner-minus": "1-2",
        "plus": "+1",
        "space": " " + rows[i][j],
        "digits-19": "9" * 19,  # beyond int64
        "int64-max+1": str(2**63),
        "int64-min": str(-(2**63)),  # in int64, but a magnitude of 2**63
        "digits-20": "0" + str(2**63 - 1),
        "high-byte": rows[i][j] + "\xe9",
        "split-row": rows[i][j] + "\n" + rows[i][j + 1],
    }
    if kind in fields:
        rows[i][j] = fields[kind]
        if kind == "split-row":
            del rows[i][j + 1]
    elif kind == "shifted-row" and i + 1 < len(rows):  # rows of 7 and 9 fields
        rows[i + 1].insert(0, rows[i].pop())
    lines = [",".join(row) + "\n" for row in rows]
    if kind == "cr":
        lines[i] = lines[i][:-1] + "\r\n"
    elif kind == "blank-line":
        lines.insert(i, "\n")
    elif kind == "blank-lines-8":
        lines.insert(i, "\n" * 8)
    elif kind == "no-last-lf":
        lines[-1] = lines[-1][:-1]
    elif kind == "trailing-field":
        lines.append("9")
    return b"\n" + "".join(lines).encode()


def test_plain_rows_match_loadtxt():
    rng = np.random.default_rng(19)
    for rows in [1, 2, 3, 8, 50] * 20:
        buf = _chunk(_random_fields(rng, rows))
        fields = simulate._plain_rows(buf)
        assert fields is not None and fields.shape == (8, rows)
        assert np.array_equal(fields, _loadtxt_fields(buf)), buf


@pytest.mark.parametrize(
    "kind",
    [
        "empty-field", "bare-minus", "inner-minus", "plus", "space", "cr", "blank-line",
        "blank-lines-8", "digits-19", "int64-max+1", "int64-min", "digits-20", "high-byte",
        "no-last-lf", "split-row", "shifted-row", "trailing-field",
    ],
)
def test_plain_rows_reject_or_match_loadtxt_on_mutated_chunks(kind):
    rng = np.random.default_rng(1900)
    for rows in [1, 2, 3, 8, 50] * 20:
        buf = _mutated(kind, _random_fields(rng, rows), rng)
        fields = simulate._plain_rows(buf)
        assert fields is None or np.array_equal(fields, _loadtxt_fields(buf)), buf


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_round_log_reader_is_independent_of_chunk_size(tmp_path, monkeypatch, chunk):
    rng = np.random.default_rng(chunk)
    n = 300
    lam = rng.choice([0, 9, 10, 12345, 10**18 - 1, 2**62], size=n)
    rest = [rng.integers(0, 2, size=n) for _ in range(2)] + [rng.choice([-1, 1], size=n) for _ in range(4)]
    path = tmp_path / "rounds.csv"
    # a blank line and a CRLF send their chunks through the normalizing pass
    text = bc.rounds_to_csv(bc.RoundLog(lam, *rest)).encode()
    path.write_bytes(text.replace(b"\n17,", b"\n\n17,").replace(b"\n200,", b"\r\n200,"))
    default = bc.rounds_from_csv(str(path))
    assert default == bc.RoundLog(lam, *rest)
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    assert bc.rounds_from_csv(str(path)) == default
    for bad, message in _BAD_ROWS:
        _log_with_bad_row(path, bad)
        with pytest.raises(bc.DomainError) as err:
            bc.rounds_from_csv(str(path))
        assert str(err.value) == message
    path.write_bytes(text.replace(b"\n", b"\r").replace(b"\r", b"\n", 1))  # CRs after an LF header
    assert bc.rounds_from_csv(str(path)) == default
    plain = bc.RoundLog(np.minimum(lam, 10**18 - 1), *rest)
    monkeypatch.setattr(simulate, "_BLOCK", 3)  # the write spans 100 blocks, each with its own column widths
    bc.rounds_to_csv(plain, str(path))
    assert bc.rounds_from_csv(str(path)) == plain


def test_chunks_with_a_cr_skip_the_plain_pass(tmp_path, monkeypatch):
    # _chunks hands on CRLF and CR lines as LF-ended ones, so the rows rounds_to_csv writes take the
    # canonical tokenizer whatever their endings, and no chunk is offered to the plain one
    k = np.arange(40)
    rounds = bc.RoundLog(k % 3, k % 2, k // 2 % 2, 1 - 2 * (k % 2), 1 - 2 * (k // 4 % 2), *([np.ones(40, np.int64)] * 2))
    text = bc.rounds_to_csv(rounds).encode()
    path = tmp_path / "rounds.csv"
    # LF rows, then CRLF rows, then CR rows
    path.write_bytes(text[:300] + text[300:600].replace(b"\n", b"\r\n") + text[600:].replace(b"\n", b"\r"))
    parsed = []  # (tokenizer, chunk, rows it parsed) per call of either tokenizer
    canonical_rows, plain_rows = simulate._canonical_rows, simulate._plain_rows

    def canonical_spy(buf, n, lam, narrow):
        rows = canonical_rows(buf, n, lam, narrow)
        parsed.append(("canonical", buf, rows or 0))
        return rows

    def plain_spy(buf):
        fields = plain_rows(buf)
        parsed.append(("plain", buf, 0 if fields is None else fields.shape[1]))
        return fields

    monkeypatch.setattr(simulate, "_canonical_rows", canonical_spy)
    monkeypatch.setattr(simulate, "_plain_rows", plain_spy)
    monkeypatch.setattr(simulate, "_CHUNK", 64)
    assert bc.rounds_from_csv(str(path)) == rounds
    assert not any(b"\r" in buf for _, buf, _ in parsed)
    assert sum(rows for name, _, rows in parsed if name == "canonical") == len(rounds)
    # and no line was offered to the plain tokenizer, parsed or not
    assert sum(buf.count(b"\n") - 1 for name, buf, _ in parsed if name == "plain") == 0


def test_cr_ended_lines_are_cut_into_chunks(monkeypatch):
    # a body of CR-ended lines holds no LF to cut at, yet must not be read whole
    monkeypatch.setattr(simulate, "_CHUNK", 64)
    body = b"".join(b"%d,0,0,0,1,1,1,1\r" % i for i in range(1000))
    chunks = list(simulate._chunks(io.BytesIO(body)))
    assert max(map(len, chunks)) <= 1 + 64 + 20  # the sentinel, one read and the rest of a line
    assert b"".join(c[1:] for c in chunks) == body.replace(b"\r", b"\n")  # each line LF-ended


@given(
    lines=st.lists(st.tuples(st.sampled_from([b"", b"7", b"12,0,1,0,-1,1,1,-1"]), st.sampled_from([b"\n", b"\r\n", b"\r"])),
                   max_size=60),
    final_end=st.booleans(),
    chunk=st.one_of(st.integers(1, 64), st.integers(1, 1 << 17)),
)
@settings(max_examples=300, deadline=None)
def test_chunks_hand_on_the_lines_of_any_ending_lf_ended(lines, final_end, chunk):
    # LF, CRLF and CR endings, blank lines and a missing final ending, read in any size
    body = b"".join(line + end for line, end in lines)
    if lines and not final_end:
        body = body[: -len(lines[-1][1])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK", chunk)
        chunks = list(simulate._chunks(io.BytesIO(body)))
    for c in chunks:
        assert c.startswith(b"\n") and c.endswith(b"\n") and b"\r" not in c and len(c) > 1
    # bytes.splitlines splits at LF, CRLF and CR alone, as the grammar does
    assert b"".join(c[1:] for c in chunks) == b"".join(line + b"\n" for line in body.splitlines())


@pytest.mark.parametrize(
    "data",
    [b"round,lambda,x,y,a,b,pred_a,pred_\xff\n", _HEADER.encode() + b"0,0,0,0,1,1,1,\xff\n"],
    ids=["header", "row"],
)
def test_undecodable_round_log_rejected(tmp_path, data):
    path = tmp_path / "rounds.csv"
    path.write_bytes(data)
    with pytest.raises(bc.DomainError):
        bc.rounds_from_csv(str(path))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("header", [_HEADER[:-1] + ",", _HEADER[:-1] + " ", _HEADER[:-8], ""])
def test_round_log_header_names_the_header_line(tmp_path, header, end):
    path = tmp_path / "rounds.csv"
    path.write_bytes((header + "\n" + _GOOD_ROWS).replace("\n", end).encode())
    with pytest.raises(bc.DomainError) as err:
        bc.rounds_from_csv(str(path))
    assert str(err.value) == f"unexpected round-log header {header.split(',')!r}"


@pytest.mark.parametrize("rows", [2**62, 2**45], ids=["beyond-intp", "beyond-memory"])
def test_oversized_round_log_raises_domain_error(tmp_path, monkeypatch, rows):
    # columns for 2**62 rounds overflow an array's byte count, and for 2**45 rounds a 47-bit
    # address space, so either request fails before anything is allocated
    path = tmp_path / "rounds.csv"
    path.write_text(_HEADER + _GOOD_ROWS)
    monkeypatch.setattr(simulate, "_row_bound", lambda _: rows)
    with pytest.raises(bc.DomainError, match=f"up to {rows} rounds does not fit in memory"):
        bc.rounds_from_csv(str(path))


def test_round_log_bound_holds_the_shortest_rows(tmp_path):
    # ten 15-byte rows, CR-ended, the last with no ending: the byte count bounds the log at exactly ten
    rows = [b"%d,0,0,0,1,1,1,1" % i for i in range(10)]
    path = tmp_path / "rounds.csv"
    path.write_bytes(b"\r".join([_HEADER[:-1].encode(), *rows]))
    with open(path, "rb") as fh:
        assert simulate._row_bound(fh) == 10
    zero, one = np.zeros(10, np.int64), np.ones(10, np.int64)
    assert bc.rounds_from_csv(str(path)) == bc.RoundLog(zero, zero, zero, one, one, one, one)


_FIELD = re.compile(rb"-?[0-9]{1,19}")


def _grammar_log(data: bytes):
    """The log the README's round CSV grammar reads from data, in plain Python, or None if data is not one."""
    lines = data.splitlines()  # bytes split at LF, CRLF and CR alone
    if not lines or lines[0] != _HEADER[:-1].encode():
        return None
    rows = []
    for line in lines[1:]:
        if not line:
            continue  # a blank line
        fields = line.split(b",")
        if len(fields) != 8 or not all(_FIELD.fullmatch(field) for field in fields):
            return None
        values = [int(field) for field in fields]
        if any(abs(v) >= 2**63 for v in values):
            return None
        index, lam, x, y, *outcomes = values
        if index != len(rows) or lam < 0 or {x, y} - {0, 1} or set(outcomes) - {-1, 1}:
            return None
        rows.append(values[1:])
    return bc.RoundLog(*np.array(rows, np.int64).reshape(-1, 7).T)


def _read_or_none(path):
    try:
        return bc.rounds_from_csv(str(path))
    except bc.DomainError:
        return None


def _assert_reads_as_the_grammar(path, data):
    path.write_bytes(data)
    expected, got = _grammar_log(data), _read_or_none(path)
    assert (got is None) == (expected is None), data
    assert got is None or got == expected, data


def _canonical_log(lam):
    k = np.arange(len(lam))
    return bc.RoundLog(np.array(lam, np.int64), k % 2, k // 2 % 2, 1 - 2 * (k // 3 % 2), 1 - 2 * (k // 5 % 2),
                       1 - 2 * (k // 7 % 2), np.ones(len(lam), np.int64))


_CANONICAL = bc.rounds_to_csv(_canonical_log([0, 7, 10**18 - 1, 12, 3, 0, 1, 99, 5, 2, 4, 6])).encode()


@pytest.mark.parametrize(
    "old, new",
    [
        (b"\n10,", b"\n010,"),  # a round with a leading zero
        (b"\n4,3,", b"\n4,03,"),  # a lambda with a leading zero
        (b"\n5,0,1,0,-1,-1,1,1\n", b"\n5,0,1,0,-1,-0,1,1\n"),  # an outcome -0
        (b"\n5,0,", b"\n5,-0,"),  # a lambda -0
        (b"\n2,999999999999999999,", b"\n2,9223372036854775807,"),  # a 19-digit lambda
        (b"\n2,999999999999999999,", b"\n2,9223372036854775808,"),  # a 19-digit lambda past int64
        (b"\n4,3,", b"\n43,"),  # a round and lambda run together
        (b"\n4,3,", b"\n45,3,"),  # a digit where the round's comma should be
        (b"\n4,3,0,0,", b"\n4,3,2,0,"),  # x = 2
        # a separator or `-` traded for a digit, and one in lambda to make up the count
        (b"\n4,3,0,0,", b"\n4,3,,000,"),
        (b"\n4,3,0,0,-1,1,1,1\n", b"\n4,3,,,,0,0,1111111\n"),
        (b"\n4,3,0,0,-1,", b"\n4,-3,0,0,51,"),
        (b"\n4,", b"\n\n4,"),  # a blank line
        (b"\n11,", b"\n11,\n"),  # a row split in two
    ],
    ids=["round-leading-zero", "lambda-leading-zero", "outcome-minus-zero", "lambda-minus-zero",
         "lambda-19-digits", "lambda-2**63", "round-and-lambda-joined", "round-extra-digit", "x=2", "setting-comma-moved",
         "outcome-commas-moved", "minus-moved", "blank-line", "split-row"],
)
def test_only_the_plain_path_reads_a_log_that_is_not_canonical(tmp_path, old, new):
    data = _CANONICAL[: len(_HEADER) - 1] + _CANONICAL[len(_HEADER) - 1 :].replace(old, new)
    assert data != _CANONICAL
    lam, narrow = np.zeros(20, np.int64), np.zeros((6, 20), np.int8)
    assert simulate._canonical_rows(b"\n" + data[len(_HEADER) :], 0, lam, narrow) is None
    assert not lam.any() and not narrow.any()  # a chunk that is not canonical stores nothing
    _assert_reads_as_the_grammar(tmp_path / "rounds.csv", data)


@pytest.mark.parametrize(
    "data",
    [_CANONICAL[:-1], _CANONICAL.replace(b"\n", b"\r\n"), _CANONICAL.replace(b"\n", b"\r")],
    ids=["no-final-lf", "crlf", "cr"],
)
def test_a_canonical_log_with_other_line_endings_skips_the_plain_pass(tmp_path, monkeypatch, data):
    # _chunks hands on these lines LF-ended, so the canonical tokenizer reads every row
    assert _grammar_log(data) == _grammar_log(_CANONICAL)

    def no_plain_pass(buf):
        raise AssertionError("a chunk of a canonical log was offered to the plain tokenizer")

    monkeypatch.setattr(simulate, "_plain_rows", no_plain_pass)
    _assert_reads_as_the_grammar(tmp_path / "rounds.csv", data)


@pytest.mark.parametrize("first", [0, 5, 95, 881, 99_990, 10**17 - 7], ids=lambda n: f"from-{n}")
def test_canonical_rows_match_the_plain_tokenizer(first):
    # rounds that cross one or more powers of ten, up to 18 digits; from 881 the last round is 1000
    rounds = _canonical_log([0, 7, 10**18 - 1, 12, 3, 0, 1, 99, 5, 2, 4, 6] * 10)
    text = bc.rounds_to_csv(rounds).encode()[len(_HEADER) - 1 :]
    lines = text[1:].split(b"\n")[:-1]
    buf = b"\n" + b"".join(b"%d%s\n" % (first + i, line[line.index(b",") :]) for i, line in enumerate(lines))
    lam, narrow = np.zeros(len(rounds) + 3, np.int64), np.zeros((6, len(rounds) + 3), np.int8)
    assert simulate._canonical_rows(buf, first, lam, narrow) == len(rounds)
    fields = simulate._plain_rows(buf)
    assert np.array_equal(fields[0], np.arange(first, first + len(rounds)))
    assert np.array_equal(lam[: len(rounds)], fields[1]) and np.array_equal(narrow[:, : len(rounds)], fields[2:])
    assert not lam[len(rounds) :].any()
    # the rounds must run from first, and the columns must hold every row
    assert simulate._canonical_rows(buf, first + 1, lam, narrow) is None
    assert simulate._canonical_rows(buf, first, lam[: len(rounds) - 1], narrow[:, : len(rounds) - 1]) is None


_EDIT_BYTES = st.one_of(st.sampled_from(b"0123456789,-\n\r +"), st.integers(0, 255))


@given(
    lam=st.lists(st.one_of(st.integers(0, 12), st.sampled_from([10**17, 10**18 - 1, 10**18, 2**63 - 1])),
                 min_size=1, max_size=30),
    edits=st.lists(st.tuples(st.floats(0, 1), st.sampled_from("idr"), _EDIT_BYTES), max_size=3),
    end=st.sampled_from([b"\n", b"\r\n", b"\r"]),
    final_end=st.booleans(),
    chunk=st.one_of(st.integers(1, 64), st.sampled_from([1 << 10, 1 << 17])),
)
@settings(max_examples=300, deadline=None)
def test_round_log_reader_matches_the_grammar_on_edited_logs(tmp_path_factory, lam, edits, end, final_end, chunk):
    # a canonical log with up to 3 byte edits (insert, delete, replace), each line ending and any
    # chunk size: rounds_from_csv gives the grammar's log, or DomainError where the grammar has none
    data = bytearray(bc.rounds_to_csv(_canonical_log(lam)).encode().replace(b"\n", end))
    if not final_end:
        del data[-len(end) :]
    for where, op, byte in edits:
        i = min(int(where * len(data)), len(data) - 1)
        if op == "i":
            data[i:i] = bytes([byte])
        elif op == "d":
            del data[i]
        else:
            data[i] = byte
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK", chunk)
        _assert_reads_as_the_grammar(tmp_path_factory.mktemp("log") / "rounds.csv", bytes(data))
