"""Shared fixtures: frozen reference constants and session-scoped heavy computations.

Reference values were computed once with 50-digit mpmath evaluations of the
closed forms (see test_curves for in-test cross-checks of a few of them).
"""

import math

import numpy as np
import pytest

import bellcost as bc

SQRT2 = math.sqrt(2.0)
S_Q = 2.0 * SQRT2
P_Q = (4.0 - S_Q) / 8.0  # == (1 - 1/sqrt(2)) / 2

# 50-digit reference values (mpmath), truncated to double precision.
REF = {
    "p0": 0.21781170571980009878,
    "s0": 3.6204644868114496075,
    "slope": 1.0585028302878016421,  # h'(p0) / (8 p0)
    "h_pq": 0.60087603669285610084,
    "i_R_sq": 0.046273846853406930009,
    "i_1_sq": 0.080169560659826032138,
    "i_OS_sq": 0.12757066014353192651,
    "i_R_4": 0.41503749927884381855,  # log2(4/3)
    "footnote_entropy": 1.95372615314659307,  # h(pq) + (1-pq) log2 3
    "f_0218": 0.40173922301163285101,
    "conj_01": 0.3466314801076930621,
    "i_2_38": 0.69166744551154024439,
    "i_1_38": 0.7404435807578816366,
    "two_h_095": 0.57279391423191225753,
    "i_Rp_sq_09": 0.011811891635806784587,  # biased retro closed form at eps=(0.9, 0.9)
    "i_Rp_sq_05": 0.038268150713678856692,  # ... at eps=(0.5, 0.5)
}


def random_model(rng: np.random.Generator, n_states: int | None = None) -> bc.Model:
    """A random valid model with strictly positive conditionals."""
    if n_states is None:
        n_states = int(rng.integers(1, 6))
    weights = rng.dirichlet(np.full(n_states, 2.0))
    states = []
    for w in weights:
        probs = rng.dirichlet(np.full(4, 2.0)) * 0.96 + 0.01
        responses = tuple(int(v) for v in rng.choice([-1, 1], size=4))
        states.append(bc.HiddenState(float(w), bc.SettingDist.joint(probs.tolist()), responses))
    return bc.Model(tuple(states), label="random")


def random_uniform_marginal_model(rng: np.random.Generator) -> bc.Model:
    """A random equal-weight 4-state model whose derived marginal is exactly uniform."""
    while True:
        d = rng.dirichlet(np.full(4, 6.0), size=3)
        last = 1.0 - d.sum(axis=0)
        if last.min() <= 0.0:
            continue
        states = []
        for row in (*d, last):
            responses = tuple(int(v) for v in rng.choice([-1, 1], size=4))
            states.append(bc.HiddenState(0.25, bc.SettingDist.joint(row.tolist()), responses))
        return bc.Model(tuple(states), label="random-uniform")


@pytest.fixture(scope="session")
def oracle_n40():
    """The acceptance-scale N=40 searches at the Tsirelson target, run once."""
    out = {}
    for cls in (bc.CausalClass.RETROCAUSAL, bc.CausalClass.CAUSAL):
        cfg = bc.SearchConfig(resolution=40, target_s=S_Q, causal_class=cls)
        out[cls] = bc.brute_force_min_info(cfg)
    return out


# grids whose first large array exceeds the address space, so each search
# fails at allocation without touching memory: (class, N, target S)
OVERSIZED_GRIDS = [
    (bc.CausalClass.RETROCAUSAL, 10**15, 4.0),
    (bc.CausalClass.CAUSAL, 10**7, S_Q),
    (bc.CausalClass.ONE_SIDED, 10**15, S_Q),
    (bc.CausalClass.CAUSAL, 10**9, S_Q),
    (bc.CausalClass.ONE_SIDED, 10**9, S_Q),
    (bc.CausalClass.RETROCAUSAL, 10**9, S_Q),
    (bc.CausalClass.ONE_SIDED, 10**18, 4.0),  # a small budget, 10**9 units: a (5 * 10**8 + 1)**2 table
]


@pytest.fixture(scope="session")
def million_round_stats():
    """Ten seeded million-round runs of the quantum-point causal model, run once."""
    model = bc.table2_model(math.sqrt(P_Q))
    runs = [
        bc.empirical_stats(bc.sample_rounds(model, 10**6, seed, bc.SampleOrder.SOURCE_FIRST))
        for seed in range(10)
    ]
    return model, runs
