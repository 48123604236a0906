"""Seeded sampling, the two causal orders, and the plug-in estimators."""

import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chi2

import bellcost as bc

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
        assert all(r.predicted_a == r.a and r.predicted_b == r.b for r in rounds)
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


def test_uniform_settings_empirically():
    m = bc.table1_model(0.25)
    for order in (SOURCE, SETTINGS_FIRST):
        rounds = bc.sample_rounds(m, 40000, seed=5, order=order)
        counts = np.zeros(4)
        for r in rounds:
            counts[2 * r.x + r.y] += 1
        freq = counts / len(rounds)
        assert np.max(np.abs(freq - 0.25)) < 0.02


def test_orders_induce_the_same_joint_law():
    m = quantum_causal_model()
    n = 10**5
    h = []
    for order, seed in ((SOURCE, 11), (SETTINGS_FIRST, 22)):
        counts = np.zeros((4, 2, 2))
        for r in bc.sample_rounds(m, n, seed=seed, order=order):
            counts[r.lambda_index, r.x, r.y] += 1
        h.append(counts.ravel())
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


def test_round_csv_matches_row_formatting(tmp_path):
    # multi-digit hidden states and a round count crossing several digit widths
    rng = np.random.default_rng(0)
    n = 1234
    columns = [rng.choice([0, 9, 10, 12345, 2**62], size=n)]
    columns += [rng.integers(0, 2, size=n) for _ in range(2)]
    columns += [rng.choice([-1, 1], size=n) for _ in range(4)]
    rounds = bc.RoundLog(*columns)
    expected = "round,lambda,x,y,a,b,pred_a,pred_b\n" + "".join(
        f"{i},{r.lambda_index},{r.x},{r.y},{r.a},{r.b},{r.predicted_a},{r.predicted_b}\n"
        for i, r in enumerate(rounds)
    )
    path = tmp_path / "rounds.csv"
    assert bc.rounds_to_csv(rounds, str(path)) == expected
    assert path.read_bytes() == expected.encode()
    assert bc.rounds_from_csv(str(path)) == rounds


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
