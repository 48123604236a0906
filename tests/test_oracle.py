"""Brute-force grid searches and the CHSH bound-chain audit."""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bellcost as bc

from conftest import OVERSIZED_GRIDS, S_Q, random_uniform_marginal_model

RETRO = bc.CausalClass.RETROCAUSAL
CAUSAL = bc.CausalClass.CAUSAL
ONE_SIDED = bc.CausalClass.ONE_SIDED
CURVES = {RETRO: bc.i_R, CAUSAL: lambda s: bc.i_C(s).info, ONE_SIDED: bc.i_OS}


def run(n, target, cls, tol=1e-9):
    return bc.brute_force_min_info(
        bc.SearchConfig(resolution=n, target_s=target, causal_class=cls, tolerance=tol)
    )


# ---------------------------------------------------------------------------
# config validation and dispatch
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(bc.DomainError):
        bc.SearchConfig(resolution=3, target_s=2.5, causal_class=RETRO)
    with pytest.raises(bc.DomainError):
        bc.SearchConfig(resolution=8, target_s=2.5, causal_class=RETRO, tolerance=0.0)
    with pytest.raises(bc.DomainError):
        run(8, 2.5, bc.CausalClass.SUPERDETERMINISTIC)
    with pytest.raises(bc.DomainError):
        run(8, 2.5, bc.CausalClass.ZIGZAG)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(target_s=math.nan),
        dict(target_s=math.inf),
        dict(target_s=-math.inf),
        dict(target_s=2.5, tolerance=math.nan),
        dict(target_s=2.5, tolerance=math.inf),
        dict(target_s=True),
        dict(target_s="2.5"),
        dict(target_s=2.5, resolution=8.0),
        dict(target_s=2.5, resolution=True),
        dict(target_s=2.5, resolution="8"),
    ],
)
def test_config_rejects_non_finite_and_non_int(kwargs):
    kwargs = {"resolution": 8, "causal_class": RETRO, **kwargs}
    with pytest.raises(bc.DomainError):
        bc.SearchConfig(**kwargs)


def test_config_accepts_numpy_scalars():
    cfg = bc.SearchConfig(resolution=np.int64(8), target_s=np.float64(2.5), causal_class=RETRO)
    assert bc.brute_force_min_info(cfg).best_info == run(8, 2.5, RETRO).best_info


def test_extreme_finite_config_values_stay_in_domain():
    for cls in (RETRO, CAUSAL, ONE_SIDED):
        with pytest.raises(bc.NoFeasibleModel):
            run(6, 1e308, cls)
        # a slack beyond every grid budget lifts the CHSH constraint altogether
        assert run(6, -1e308, cls).best_info == run(6, -10.0, cls).best_info
        assert run(6, 3.0, cls, tol=1e308).best_info == run(6, -10.0, cls).best_info


def test_infeasible_target():
    with pytest.raises(bc.NoFeasibleModel):
        run(8, 4.5, RETRO)
    with pytest.raises(bc.NoFeasibleModel):
        run(8, 4.5, CAUSAL)
    with pytest.raises(bc.NoFeasibleModel):
        run(8, 4.5, ONE_SIDED)


# ---------------------------------------------------------------------------
# small-grid searches
# ---------------------------------------------------------------------------


def test_no_violation_costs_nothing():
    res = run(8, 2.0, RETRO)
    assert res.best_info <= 1e-12
    assert bc.chsh_value(res.best_model) >= 2.0 - 1e-9


def test_witness_is_feasible_and_consistent():
    for cls in (RETRO, CAUSAL, ONE_SIDED):
        res = run(12, S_Q, cls)
        m = res.best_model
        marg = bc.derived_marginal(m)
        assert all(abs(v - 0.25) < 1e-12 for v in marg.probs)
        assert bc.chsh_value(m) >= S_Q - 1e-9
        assert res.best_info == pytest.approx(bc.mutual_information(m), abs=1e-12)
        assert all(st.weight == 0.25 for st in m.states)
        if cls is ONE_SIDED:
            assert all(st.dist.py0() == 0.5 for st in m.states)
        if cls in (CAUSAL, ONE_SIDED):
            assert bc.is_factorized_per_lambda(m)


def test_never_below_curve_at_achieved_s():
    for cls, curve in CURVES.items():
        for n in (8, 16):
            for target in (2.4, S_Q, 3.5):
                res = run(n, target, cls)
                achieved = bc.chsh_value(res.best_model)
                assert res.best_info >= curve(achieved) - 1e-9
                assert res.best_info >= curve(target) - 1e-9


def test_algebraic_maximum_reachable():
    res = run(8, 4.0, RETRO)
    assert bc.chsh_value(res.best_model) == pytest.approx(4.0, abs=1e-12)
    assert res.best_info >= math.log2(4.0 / 3.0) - 1e-9


def test_snapped_analytic_models_are_feasible_points():
    # causal family at on-grid parameters: the search can never do worse
    n = 10
    p = 0.3  # = 3/10
    snapped = bc.table2_model(p)
    target = bc.chsh_value(snapped)
    res = run(n, target, CAUSAL)
    assert res.best_info <= bc.mutual_information(snapped) + 1e-12
    # retro family at p = 1/4 is exactly on every grid divisible by 4
    flat = bc.table1_model(0.25)
    res = run(8, 2.0, RETRO)
    assert res.best_info <= bc.mutual_information(flat) + 1e-12


def test_search_is_deterministic():
    a = run(12, S_Q, RETRO)
    b = run(12, S_Q, RETRO)
    assert a.best_info == b.best_info
    assert a.best_model == b.best_model


def _naive_retro_best(n, target, tol=1e-9):
    """Full four-way enumeration over the joint grid (exact uniform marginal)."""
    from bellcost._geometry import SPECIAL
    from bellcost.oracle import _compositions4, _row_entropies, _special_budget

    budget = _special_budget(
        bc.SearchConfig(resolution=n, target_s=target, causal_class=RETRO, tolerance=tol), n
    )
    K = _compositions4(n)
    H = _row_entropies(K, n)
    ax = (
        (slice(None), None, None, None),
        (None, slice(None), None, None),
        (None, None, slice(None), None),
        (None, None, None, slice(None)),
    )
    ok = np.ones((len(K),) * 4, dtype=bool)
    for c in range(4):
        col = K[:, c]
        total = col[ax[0]] + col[ax[1]] + col[ax[2]] + col[ax[3]]
        ok &= total == n
    q = sum(K[:, SPECIAL[k]][ax[k]] for k in range(4))
    ok &= q <= budget
    value = sum(H[ax[k]] for k in range(4))
    if not ok.any():
        return None
    return 2.0 - float(value[ok].max()) / 4.0


def _naive_causal_best(n, target, tol=1e-9):
    """Full four-way enumeration over the factorized grid (exact uniform marginal)."""
    from bellcost.models import LAMBDA_CLASSES

    budget = int(np.floor(n * n * (4.0 - target + tol) / 2.0 + 1e-12))
    rng = np.arange(n + 1)
    a = np.stack(np.meshgrid(rng, rng, indexing="ij"), axis=-1).reshape(-1, 2)  # (A, B) pairs
    h = np.array([bc.binary_entropy(k / n) for k in range(n + 1)])
    raw = []
    for mu, nu in LAMBDA_CLASSES:
        i = (n - a[:, 0]) if nu == 0 else a[:, 0]
        j = (n - a[:, 1]) if mu == 0 else a[:, 1]
        raw.append((i, j))
    ax = (
        (slice(None), None, None, None),
        (None, slice(None), None, None),
        (None, None, slice(None), None),
        (None, None, None, slice(None)),
    )
    si = sum(raw[k][0][ax[k]] for k in range(4))
    sj = sum(raw[k][1][ax[k]] for k in range(4))
    sij = sum((raw[k][0] * raw[k][1])[ax[k]] for k in range(4))
    q = sum((a[:, 0] * a[:, 1])[ax[k]] for k in range(4))
    ok = (si == 2 * n) & (sj == 2 * n) & (sij == n * n) & (q <= budget)
    if not ok.any():
        return None
    value = sum((h[a[:, 0]] + h[a[:, 1]])[ax[k]] for k in range(4))
    return 2.0 - float(value[ok].max()) / 4.0


def test_matches_naive_enumeration_on_small_grids():
    for n in (4, 5):
        for target in (2.0, 2.5, 3.0):
            naive = _naive_retro_best(n, target)
            mitm = run(n, target, RETRO).best_info
            assert naive == pytest.approx(mitm, abs=1e-12), (n, target)
    for n in (4, 5, 6):
        for target in (2.0, 2.5, 3.0):
            naive = _naive_causal_best(n, target)
            mitm = run(n, target, CAUSAL).best_info
            assert naive == pytest.approx(mitm, abs=1e-12), (n, target)


def test_gap_shrinkage(oracle_n40):
    for cls, curve in ((RETRO, bc.i_R(S_Q)), (CAUSAL, bc.i_C(S_Q).info)):
        gaps = []
        for n in (8, 16, 24):
            gaps.append(run(n, S_Q, cls).best_info - curve)
        gaps.append(oracle_n40[cls].best_info - curve)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])), (cls, gaps)
        assert all(g >= -1e-9 for g in gaps)


# ---------------------------------------------------------------------------
# golden witnesses and reference kernels
# ---------------------------------------------------------------------------

# best_info.hex() and the sha256 of the sorted-key JSON of the witness model
GOLDEN = [
    (RETRO, 8, 2.0, "0x0.0p+0", "4e0ff4da1942cc6e74b467c8d913813a680bc5af033154173571f55ada51d3e1"),
    (RETRO, 16, S_Q, "0x1.016e860887a40p-4", "119d85898f320bbe35f2ac1bf48d7fce70721a58fc1fa8a9b5d7ba4390382051"),
    (RETRO, 24, S_Q, "0x1.a116f426cdb60p-5", "c4f63c623e2d6a92ba050c40b7273dbf37cc4f39764b9058f1421a25e304c5f1"),
    (RETRO, 24, 3.5, "0x1.7ab85b3a38750p-3", "b33f64597e4ce64a13878d58c267b5af3121dbad8e342f34336f3fbf51340889"),
    (RETRO, 40, S_Q, "0x1.9ef2b65d72da0p-5", "18298b0e5eff3861201fb609e6a6aaeb3091b1b7b04d753acbb59be06fbb4dd6"),
    # high targets, where the rest table prunes hardest
    (RETRO, 24, 3.6, "0x1.deec68a8a2838p-3", "440318583b67cb2f7830a8e3e1c0f670b7dbe2312988672fa0bfc982fb293af7"),
    (RETRO, 24, 3.9, "0x1.7c8af961add4cp-2", "521fd3a823da2db0b81f4b79879bcd9b6b11c18bdc83ab9c9f503a1c8cf8e430"),
    (RETRO, 40, 3.9, "0x1.6763b4da98f00p-2", "0022cc475b3762def3867ae6104c1701cb82ca7dd6e4a014b2bdcdb32c63005f"),
    # the witness is a half's first pair within 1e-9 of its group's best, not the best itself
    (RETRO, 18, 2.5, "0x1.cd2a1abcb91c0p-6", "48492b4d19343d8a26267854afac5357de766caeb2f3237e84817849663f7756"),
    (RETRO, 23, 3.9, "0x1.7b6ef55533e5cp-2", "b276a851bd08813f858278d907ad52b47aee75e4d39eb8acd93a9f0ec0b82fe5"),
    (CAUSAL, 16, S_Q, "0x1.7546d267e6a90p-4", "369e661eb29922df139808e1fc4be35b47ba3335dc4a38d18281a9f0e23a9e2a"),
    # ties broken by the left-to-right order of the four entropy terms
    (CAUSAL, 16, 3.3, "0x1.0dcf35e30aba4p-2", "b84ad5d75e17de607816c7dbda9c396436de292df11ae17a53d98add69cf07b4"),
    (CAUSAL, 24, S_Q, "0x1.7546d267e6a90p-4", "05bffdef2eeff2025f2b0693ef556994dd7db027641c1352385d8cdeeb9c5dd4"),
    (CAUSAL, 24, 3.6, "0x1.ea9ca07af50d0p-2", "0e1d7b41b09f5217cc7d27d04102ae0abbbb3608b0917da409f974723d217c24"),
    (CAUSAL, 24, 3.9, "0x1.c007b6cc6e95cp-1", "afbb0758a012b6eec183de087e59398b506174dd474094be9bc397af3112a1b1"),
    (CAUSAL, 40, S_Q, "0x1.53735f0435940p-4", "f3db3ed0d14143c9e3089e0ab4302d4f383b824c62a7c74a7054286e7f4411c6"),
    (CAUSAL, 40, 3.9, "0x1.a9a5463e37c26p-1", "30df8bd19ac4907e8bc1879be6cbe3bc8db1b9377f9c5f2387c74965244e626c"),
    (ONE_SIDED, 16, S_Q, "0x1.2bb542cb251c0p-3", "eb34e9610e0bc9df50b9d1973eb543ac7a7c5cff4440b8aa9e4bc3ae0d5b68f3"),
    (ONE_SIDED, 24, 3.5, "0x1.d363d7b4c1d38p-2", "dc5ea2ecd1ecef3878b15dde067ec7c76195d31b641e9d29f6a1bcb3b3184805"),
    (ONE_SIDED, 40, S_Q, "0x1.14a5109abe748p-3", "18f26d7226dd5afeccc91f172680615337d0d34442b2fcb5fd999e98855e9448"),
    (ONE_SIDED, 40, 3.9, "0x1.a9a5463e37c26p-1", "2727f6057ff540c4c29b162eeb5dab63828857aa2b38b46853895292843ec8ff"),
]


@pytest.mark.parametrize("cls, n, target, info_hex, model_sha", GOLDEN)
def test_golden_witnesses(cls, n, target, info_hex, model_sha, request):
    if cls in (RETRO, CAUSAL) and n == 40 and target == S_Q:
        res = request.getfixturevalue("oracle_n40")[cls]
    else:
        res = run(n, target, cls)
    assert res.best_info.hex() == info_hex
    doc = json.dumps(bc.model_to_dict(res.best_model), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == model_sha


def _class_grid(cls, n):
    """One state's grid options as (special masses, entropies)."""
    if cls is RETRO:
        from bellcost.oracle import _retro_options

        options, entropies, _ = _retro_options(n)
        return options[:, 0], entropies
    a, b = np.divmod(np.arange((n + 1) ** 2), n + 1)
    h = np.array([bc.binary_entropy(k / n) for k in range(n + 1)])
    return a * b, h[a] + h[b]


@pytest.mark.parametrize("cls", [RETRO, CAUSAL])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_entropy_ceiling_bounds_every_k_tuple(cls, n):
    """C_k(m) is at least the best entropy sum of k grid states with special masses summing to <= m."""
    from bellcost.oracle import _entropy_hull, _rest

    masses, entropies = _class_grid(cls, n)
    top = 4 * n if cls is RETRO else 4 * n * n
    hull = _entropy_hull(masses, entropies)
    # _rest(hull, top, k, top + 1)[m] is C_k(top - m), so reversed it is C_k(m) for m = 0..top
    ceiling = {k: _rest(hull, top, k, top + 1)[::-1] for k in (1, 2, 3)}
    # best entropy at each exact mass; a k-tuple's best sum only depends on its masses
    exact = np.full(int(masses.max()) + 1, -np.inf)
    for q, h in zip(masses.tolist(), entropies.tolist()):
        exact[q] = max(exact[q], h)
    m = np.arange(len(exact))
    sums, mass = exact, m
    for k in (1, 2, 3):
        if k > 1:
            sums = (sums[..., None] + exact).reshape(-1)
            mass = (mass[..., None] + m).reshape(-1)
        best = np.full(top + 1, -np.inf)
        np.maximum.at(best, mass, sums)  # three states hold at most 3N (retro) or 3N^2 (causal)
        best = np.maximum.accumulate(best)
        assert np.all(best <= ceiling[k] + 1e-12), (cls, n, k)
    # the hull touches psi, the best single-state entropy with mass <= x, at its vertices
    xs, _ = hull
    psi = np.maximum.accumulate(exact)
    vertices = xs.astype(int)
    assert np.array_equal(ceiling[1][vertices], psi[vertices]), (cls, n)
    assert vertices[0] == 0 and vertices[-1] == np.argmax(psi), (cls, n)


def _pairwise_retro_half(n, sp_first, sp_second, budget):
    """F[q, c0, c1, c2] for q = 0..budget by a direct double loop over ordered option pairs."""
    from bellcost.oracle import _compositions4, _row_entropies

    K = _compositions4(n)
    H = _row_entropies(K, n)
    table = np.full((budget + 1, n + 1, n + 1, n + 1), -np.inf)
    for i in range(len(K)):
        for j in range(len(K)):
            c = K[i] + K[j]
            q = K[i][sp_first] + K[j][sp_second]
            if c.max() <= n and q <= budget:
                table[q, c[0], c[1], c[2]] = max(table[q, c[0], c[1], c[2]], H[i] + H[j])
    return table


def _reach(options, entropies, n, budget, floor):
    """The per-cell reach masks the search computes at this floor."""
    from bellcost.oracle import _MARGIN, _rest, _retro_options

    return entropies + _rest(_retro_options(n)[2], budget, 3, n + 1).take(options.T) >= floor - _MARGIN


def _half(options, entropies, sp_first, sp_second, n, budget, floor=-math.inf):
    """_retro_pairs with the per-cell reach masks the search computes for it."""
    from bellcost.oracle import _retro_pairs

    reach = _reach(options, entropies, n, budget, floor)
    return _retro_pairs(options, entropies, reach, sp_first, sp_second, n, budget)


def _pairwise_kept_half(options, entropies, reach, sp_first, sp_second, n, budget):
    """F[q, c0, c1, c2], q = 0..min(budget, 2n), by a loop over the pairs of reach-kept options.

    The first option is one reach[sp_first] keeps and the second one
    reach[sp_second] keeps; cells whose fourth sum exceeds n stay -inf.
    """
    table = np.full((min(budget, 2 * n) + 1, n + 1, n + 1, n + 1), -np.inf)
    second, h_second = options[reach[sp_second]], entropies[reach[sp_second]]
    for u, h_u in zip(options[reach[sp_first]], entropies[reach[sp_first]]):
        c = u + second
        q = u[sp_first] + second[:, sp_second]
        fits = (c.max(axis=1) <= n) & (q <= budget)
        np.maximum.at(table, (q[fits], *c[fits, :3].T), h_u + h_second[fits])
    return table


def _scatter_half(rows, n, budget):
    """A _retro_pairs half as a dense F[q, c0, c1, c2], q = 0..min(budget, 2n).

    Each cell holds the best value of its rows, -inf where no row is.
    """
    _, _, cells, q, value = rows
    table = np.full((min(budget, 2 * n) + 1, (n + 1) ** 3), -np.inf)
    np.maximum.at(table, (q, cells), value)
    return table.reshape(-1, n + 1, n + 1, n + 1)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_retro_half_matches_pairwise_loop(n):
    from bellcost._geometry import SPECIAL
    from bellcost.oracle import _compositions4, _row_entropies

    K = _compositions4(n)
    H = _row_entropies(K, n)
    for sp_first, sp_second in ((SPECIAL[0], SPECIAL[1]), (SPECIAL[2], SPECIAL[3])):
        for budget in (0, 1, n, 4 * n):
            want = _pairwise_retro_half(n, sp_first, sp_second, budget)
            if budget > 2 * n:  # one half's special mass never exceeds 2n, so the cap loses nothing
                assert not np.isfinite(want[2 * n + 1 :]).any(), (n, sp_first)
            rows = _half(K, H, sp_first, sp_second, n, budget)
            got = _scatter_half(rows, n, budget)
            assert np.array_equal(got, want[: 2 * n + 1]), (n, sp_first, budget)  # -inf cells included
            # each row is its own pair, in lexicographic (first, second) order, which the witness tie rule reads
            first, second, cells, q, value = rows
            assert np.all(np.diff(first * len(K) + second) > 0), (n, sp_first, budget)
            c = K[first] + K[second]
            assert np.array_equal(cells, (c[:, 0] * (n + 1) + c[:, 1]) * (n + 1) + c[:, 2])
            assert np.array_equal(q, K[first, sp_first] + K[second, sp_second])
            assert np.array_equal(value, H[first] + H[second])


@pytest.mark.parametrize("n", [4, 5, 8])
def test_pruned_retro_half_is_exact_above_the_floor(n):
    """Cells whose best pair plus the rest C_2 of the spare budget reaches the floor are exact."""
    from bellcost._geometry import SPECIAL
    from bellcost.oracle import _compositions4, _rest, _retro_options, _row_entropies

    K = _compositions4(n)
    H = _row_entropies(K, n)
    for sp_first, sp_second in ((SPECIAL[0], SPECIAL[1]), (SPECIAL[2], SPECIAL[3])):
        for budget in (1, n, 4 * n):
            want = _pairwise_retro_half(n, sp_first, sp_second, budget)[: 2 * n + 1]
            rest = _rest(_retro_options(n)[2], budget, 2, len(want))
            for floor in (5.0, 6.5, 7.5, 7.9, float(want.max()) + 4.0):
                kept = H >= floor - 6.0
                for options, entropies in ((K, H), (K[kept], H[kept])):
                    rows = _half(options, entropies, sp_first, sp_second, n, budget, floor)
                    got = _scatter_half(rows, n, budget)
                    assert got.shape == want.shape, (n, budget, floor)
                    above = want + rest[:, None, None, None] >= floor
                    assert np.array_equal(got[above], want[above]), (n, budget, floor)
                    assert np.all(got <= want), (n, budget, floor)
                    # and every cell is exact over the pairs of options kept in their roles
                    reach = _reach(options, entropies, n, budget, floor)
                    kept_pairs = _pairwise_kept_half(options, entropies, reach, sp_first, sp_second, n, budget)
                    assert np.array_equal(got, kept_pairs), (n, sp_first, budget, floor)


@pytest.mark.parametrize("n", [24, 40, 64])
@pytest.mark.parametrize("target", [S_Q, 2.0, -10.0])
def test_retro_search_holds_under_one_cell_grid(target, n):
    """One search's traced peak stays under one (n+1)^3 float64 grid, whatever the budget."""
    import tracemalloc

    from bellcost.oracle import _retro_options

    cfg = bc.SearchConfig(resolution=n, target_s=target, causal_class=RETRO)
    grid_bytes = (n + 1) ** 3 * 8
    _retro_options(n)  # cached across searches, so not part of one search's peak
    tracemalloc.start()
    try:
        bc.brute_force_min_info(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= grid_bytes, (target, n, peak / grid_bytes)


def _double_loop_join(key_a, q_a, value_a, key_b, q_b, value_b, budget):
    """_pair_join's tie rule by brute force over every (A row, B row) pair."""
    best, best_a = -math.inf, None
    for i in range(len(key_a)):
        partners = [j for j in range(len(key_b)) if key_b[j] == key_a[i] and q_a[i] + q_b[j] <= budget]
        for j in partners:
            if value_a[i] + value_b[j] > best:
                best, best_a = value_a[i] + value_b[j], i
    partners = [j for j in range(len(key_b)) if key_b[j] == key_a[best_a] and q_a[best_a] + q_b[j] <= budget]
    top = max(value_b[j] for j in partners)
    # among the best partners, the least q, then the first row
    best_b = min((q_b[j], j) for j in partners if value_b[j] == top)[1]
    return best_a, best_b


@pytest.mark.parametrize("seed", range(20))
def test_pair_join_matches_double_loop(seed):
    from bellcost.oracle import _pair_join

    rng = np.random.default_rng(seed)
    levels = np.array([0.5, 1.25, 2.0, 3.0])  # few values, so ties are forced
    m_a, m_b = rng.integers(1, 25, size=2)
    key_a, key_b = rng.integers(0, 4, size=m_a), rng.integers(0, 4, size=m_b)
    q_a, q_b = rng.integers(0, 5, size=m_a), rng.integers(0, 5, size=m_b)
    value_a, value_b = levels[rng.integers(0, 4, size=m_a)], levels[rng.integers(0, 4, size=m_b)]
    # at budget 4 an A row with q = 4 can only take a B row with q = 0, so some rows have no partner
    for budget in (4, 6, 8):
        fits = [(key_b == key_a[i]) & (q_a[i] + q_b <= budget) for i in range(m_a)]
        if not np.any(fits):
            continue
        got = _pair_join(key_a, q_a, value_a, key_b, q_b, value_b, budget)
        want = _double_loop_join(key_a, q_a, value_a, key_b, q_b, value_b, budget)
        assert got == want, (seed, budget)


@pytest.mark.parametrize("n", [0, 1, 4, 7])
def test_compositions4_matches_product_enumeration(n):
    from bellcost.oracle import _compositions4

    want = [row for row in itertools.product(range(n + 1), repeat=4) if sum(row) == n]
    want = np.array(want, dtype=np.int64)
    got = _compositions4(n)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def _set_floor(monkeypatch, floor):
    """Make the retrocausal and causal searches prune at floor instead of their incumbent's sum."""
    import bellcost.oracle as oracle_mod

    for hook in ("_retro_incumbent", "_causal_incumbent"):
        monkeypatch.setattr(oracle_mod, hook, lambda n, budget: (floor, None))


def _lower_retro_floor(monkeypatch, by):
    """Make the retrocausal search prune at its incumbent's entropy sum less by."""
    import bellcost.oracle as oracle_mod

    incumbent = oracle_mod._retro_incumbent
    monkeypatch.setattr(oracle_mod, "_retro_incumbent", lambda n, budget: (incumbent(n, budget)[0] - by, None))


@pytest.mark.parametrize("cls, n, target, info_hex, model_sha", GOLDEN)
def test_golden_witnesses_do_not_depend_on_the_floor(cls, n, target, info_hex, model_sha, monkeypatch):
    """Unpruned where the size rule allows it, else (retro, N >= 17) pruned 0.1 under the incumbent.

    An unpruned retro half pairs every option of the grid with every other,
    more than _MAX_PAIRS pairs from N = 17 on, so those rows keep tens to
    hundreds of options per role instead of the default search's few.
    """
    from bellcost.oracle import _MAX_PAIRS

    wide = cls is RETRO and math.comb(n + 3, 3) ** 2 > _MAX_PAIRS
    if wide:
        default = run(n, target, cls)
        _lower_retro_floor(monkeypatch, 0.1)
    else:
        _set_floor(monkeypatch, -math.inf)
    res = run(n, target, cls)
    assert res.best_info.hex() == info_hex
    doc = json.dumps(bc.model_to_dict(res.best_model), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == model_sha
    if wide:
        assert res.states_searched > default.states_searched
    elif cls is not ONE_SIDED:
        assert res.states_searched == res.states_total


def test_unpruned_retro_search_at_n24_meets_the_size_rule(monkeypatch):
    """At floor -inf and N = 24 each half would pair 2 925 x 2 925 options; the search refuses."""
    from bellcost.oracle import _MAX_PAIRS

    assert math.comb(27, 3) ** 2 > _MAX_PAIRS >= math.comb(19, 3) ** 2  # N = 16 still runs unpruned
    _set_floor(monkeypatch, -math.inf)
    with pytest.raises(bc.DomainError, match="2925 x 2925 grid options"):
        run(24, S_Q, RETRO)


# the cases test_matches_naive_enumeration_on_small_grids checks against full enumeration
SMALL_GRIDS = [(RETRO, n, t) for n in (4, 5) for t in (2.0, 2.5, 3.0)]
SMALL_GRIDS += [(CAUSAL, n, t) for n in (4, 5, 6) for t in (2.0, 2.5, 3.0)]


@pytest.mark.parametrize("cls, n, target", SMALL_GRIDS)
def test_small_grids_do_not_depend_on_the_floor(cls, n, target, monkeypatch):
    want = run(n, target, cls)
    _set_floor(monkeypatch, -math.inf)
    got = run(n, target, cls)
    assert got.best_info.hex() == want.best_info.hex()
    assert got.best_model == want.best_model


def test_floor_at_the_optimum_keeps_it(monkeypatch):
    """A floor just under the optimum must keep it and its first-hit witness.

    At S = 2 every state of the optimum is uniform (2 bits), so it sits on
    both pruning thresholds, F - 6 per state and F - 4 per pair.
    """
    cases = [(cls, n, t) for cls in (RETRO, CAUSAL) for n in (4, 5, 6, 8) for t in (2.0, 2.5, S_Q)]
    want = {case: run(case[1], case[2], case[0]) for case in cases}
    for cls, n, target in cases:
        _set_floor(monkeypatch, 4.0 * (2.0 - (want[cls, n, target].best_info + 1e-9)))
        got = run(n, target, cls)
        assert got.best_info.hex() == want[cls, n, target].best_info.hex(), (cls, n, target)
        assert got.best_model == want[cls, n, target].best_model, (cls, n, target)


@pytest.mark.parametrize("cls", [RETRO, CAUSAL])
def test_incumbent_is_a_feasible_point_under_the_optimum(cls):
    """The pruning floor is the entropy sum of an exactly uniform model that reaches the target."""
    from bellcost._geometry import class_model
    from bellcost.oracle import _causal_incumbent, _retro_incumbent, _special_budget

    remainders = set()
    for n in range(4, 17):
        for target in np.linspace(1.9, 4.0, 15):
            cfg = bc.SearchConfig(resolution=n, target_s=float(target), causal_class=cls)
            budget = _special_budget(cfg, n if cls is RETRO else n * n)
            remainders.add(budget % 4)
            floor, rows = (_retro_incumbent if cls is RETRO else _causal_incumbent)(n, budget)
            if cls is RETRO:
                dists = [bc.SettingDist.joint((row / n).tolist()) for row in rows]
            else:
                dists = [bc.SettingDist.factorized(i / n, j / n) for i, j in rows.tolist()]
            m = class_model(dists, "incumbent")
            assert all(abs(p - 0.25) <= 1e-12 for p in bc.derived_marginal(m).probs), (n, target)
            assert bc.chsh_value(m) >= cfg.target_s - cfg.tolerance, (n, target)
            entropies = [-sum(p * math.log2(p) for p in st.dist.probs if p > 0) for st in m.states]
            assert sum(entropies) == pytest.approx(floor, abs=1e-9), (n, target)
            assert floor <= 4.0 * (2.0 - bc.brute_force_min_info(cfg).best_info) + 1e-9, (n, target)
    assert remainders == {0, 1, 2, 3}
    if cls is RETRO:  # construction only: every budget, odd ones through the exchange
        from bellcost._geometry import SPECIAL

        for n in range(4, 25):
            for budget in range(4 * n + 1):
                floor, rows = _retro_incumbent(n, budget)
                assert rows.min() >= 0, (n, budget)
                assert (rows.sum(axis=1) == n).all() and (rows.sum(axis=0) == n).all(), (n, budget)
                assert sum(int(rows[i, c]) for i, c in enumerate(SPECIAL)) <= budget, (n, budget)
                entropies = [-sum(k / n * math.log2(k / n) for k in row if k > 0) for row in rows.tolist()]
                assert sum(entropies) == pytest.approx(floor, abs=1e-12), (n, budget)


@pytest.mark.parametrize("n", [16, 24])
def test_retro_floor_prunes_at_every_budget(n):
    """The incumbent keeps the retro search small at every special budget below 2N, odd ones included."""
    from bellcost.oracle import _special_budget

    for budget in range(2 * n):
        cfg = bc.SearchConfig(resolution=n, target_s=4.0 - (2 * budget + 1) / n, causal_class=RETRO)
        assert _special_budget(cfg, n) == budget
        assert bc.brute_force_min_info(cfg).states_searched <= 64, (n, budget)


def _full_one_sided_witness(n, target, tol=1e-9):
    """First lexicographic argmax over the full (N+1)^4 one-sided grid."""
    budget = math.floor(n * (4.0 - target + tol) + 1e-12)
    h = np.array([bc.binary_entropy(k / n) for k in range(n + 1)])
    rng = np.arange(n + 1)
    a1, a2, a3, a4 = np.meshgrid(rng, rng, rng, rng, indexing="ij")
    feasible = (a1 + a2 == a3 + a4) & (a1 + a2 + a3 + a4 <= budget)
    value = np.where(feasible, h[a1] + h[a2] + h[a3] + h[a4], -np.inf)
    return tuple(int(a) for a in np.unravel_index(int(value.argmax()), value.shape))


@pytest.mark.parametrize("n", [4, 7, 12])
@pytest.mark.parametrize("target", [2.0, 2.5, S_Q, 3.5, 4.0])
def test_one_sided_witness_matches_full_grid(n, target):
    from bellcost.models import LAMBDA_CLASSES

    res = run(n, target, ONE_SIDED)
    got = []
    for st, (mu, nu) in zip(res.best_model.states, LAMBDA_CLASSES):
        a = round(st.dist.px0() * n)
        got.append(n - a if nu == 0 else a)
    assert tuple(got) == _full_one_sided_witness(n, target)


def _dense_one_sided(cfg):
    """Reference one-sided search: argmax over a dense (N+1)^3 scan of (a1, a2, a3)."""
    from bellcost._geometry import LAMBDA_CLASSES, flip_marginals
    from bellcost.oracle import _floor_budget, _grid_entropies, _grid_result

    n = cfg.resolution
    budget = _floor_budget(cfg, n * (4.0 - cfg.target_s + cfg.tolerance), 4 * n)
    h_grid = _grid_entropies(n)
    rng = np.arange(n + 1, dtype=np.int64)
    a1, a2, a3 = np.meshgrid(rng, rng, rng, indexing="ij")
    a4 = a1 + a2 - a3
    feasible = (a4 >= 0) & (a4 <= n) & (2 * (a1 + a2) <= budget)
    value = h_grid[a1] + h_grid[a2] + h_grid[a3] + h_grid[np.clip(a4, 0, n)]
    value = np.where(feasible, value, -np.inf)
    best = np.unravel_index(int(value.argmax()), value.shape)
    best = (*best, a4[best])
    dists = [
        bc.SettingDist.factorized(flip_marginals(mu, nu, int(a), 0, n)[0] / n, 0.5)
        for (mu, nu), a in zip(LAMBDA_CLASSES, best)
    ]
    return _grid_result(cfg, "oracle-onesided", dists, n + 1, n + 1)


def _one_sided_outcome(cfg, search):
    """(a1..a4, best_info.hex(), states) of a one-sided search, or its NoFeasibleModel type and text."""
    from bellcost.models import LAMBDA_CLASSES

    try:
        res = search(cfg)
    except bc.NoFeasibleModel as exc:
        return type(exc), str(exc)
    n = cfg.resolution
    witness = []
    for state, (mu, nu) in zip(res.best_model.states, LAMBDA_CLASSES):
        a = round(state.dist.px0() * n)
        witness.append(n - a if nu == 0 else a)
    return tuple(witness), res.best_info.hex(), res.states_searched, res.states_total


@pytest.mark.parametrize("n", [*range(4, 41), 64])
def test_one_sided_search_matches_dense_scan(n):
    for target in (-10.0, 1.5, 2.0, 2.5, S_Q, 3.3, 3.6, 3.9, 4.0, 4.1):
        for tol in (1e-9, 0.3):
            cfg = bc.SearchConfig(resolution=n, target_s=target, causal_class=ONE_SIDED, tolerance=tol)
            want = _one_sided_outcome(cfg, _dense_one_sided)
            assert _one_sided_outcome(cfg, bc.brute_force_min_info) == want, (target, tol)


def test_one_sided_search_memory_is_quadratic():
    """At N = 256 the search holds a few split tables of (2N+1)(N+1) cells, not an (N+1)^3 scan."""
    n = 256
    tracemalloc.start()
    try:
        run(n, S_Q, ONE_SIDED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * n + 1) * (n + 1) * 8


def test_grid_entropies_are_binary_entropy_bit_for_bit():
    """The cached grid h(k/N) is one array pass with math.log, each entry binary_entropy(k / N) exactly."""
    from bellcost.oracle import _grid_entropies

    for n in range(1, 401):
        want = [bc.binary_entropy(k / n).hex() for k in range(n + 1)]
        assert [h.hex() for h in _grid_entropies(n).tolist()] == want, n


def test_one_sided_search_reads_a_cached_entropy_prefix():
    """The one-sided search reads h(j/N), j <= k, from a per-(N, k) cache, each entry binary_entropy(j / N)."""
    from bellcost.oracle import _grid_entropies

    run(40, S_Q, ONE_SIDED)
    hits = _grid_entropies.cache_info().hits
    run(40, S_Q, ONE_SIDED)
    assert _grid_entropies.cache_info().hits == hits + 1
    for n, k in ((40, 0), (40, 11), (40, 40), (10**9, 3)):
        want = [bc.binary_entropy(j / n).hex() for j in range(k + 1)]
        assert [h.hex() for h in _grid_entropies(n, k).tolist()] == want, (n, k)
        assert not _grid_entropies(n, k).flags.writeable


@pytest.mark.parametrize("cls, n, target", OVERSIZED_GRIDS)
def test_oversized_grid_is_a_domain_error(cls, n, target):
    with pytest.raises(bc.DomainError, match=f"N = {n} grid does not fit in memory"):
        run(n, target, cls)


@settings(max_examples=300, deadline=None)
@given(
    cls=st.sampled_from([RETRO, CAUSAL, ONE_SIDED]),
    n=st.integers(4, 10),
    target=st.floats(1.0, 5.0),
)
def test_search_returns_certified_witness_or_raises(cls, n, target):
    try:
        res = run(n, target, cls)
    except bc.NoFeasibleModel:
        return
    m = res.best_model
    assert math.isfinite(res.best_info) and res.best_info >= -1e-12
    achieved = bc.chsh_value(m)
    assert achieved >= target - 1e-9
    assert all(abs(v - 0.25) <= 1e-12 for v in bc.derived_marginal(m).probs)
    if achieved >= 2.0:
        assert res.best_info >= CURVES[cls](achieved) - 1e-9
    if cls is ONE_SIDED:  # no pruning floor, so no incumbent
        assert res.incumbent_info is None
    else:
        assert res.incumbent_info >= res.best_info - 1e-12


# ---------------------------------------------------------------------------
# bound chain
# ---------------------------------------------------------------------------


def test_bound_chain_table1_saturates_general_bound():
    m = bc.table1_model(0.1)
    rep = bc.verify_bound_chain(m)
    assert rep.classes == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert rep.marginal_uniform
    assert rep.general_saturated and rep.p_min_saturated
    assert rep.s_value == pytest.approx(rep.general_bound, abs=1e-12)
    assert rep.s_value == pytest.approx(rep.p_min_bound, abs=1e-12)
    assert rep.causal_bound is None
    assert rep.s_within_general and rep.s_within_p_min


def test_bound_chain_table2_saturates_causal_bound():
    for p, pt in ((0.3, 0.3), (0.1, 0.44), (0.5, 0.2)):
        rep = bc.verify_bound_chain(bc.causal_pair_model(p, pt))
        assert rep.causal_bound is not None
        assert rep.causal_saturated
        assert rep.s_value == pytest.approx(rep.causal_bound, abs=1e-12)
        assert rep.s_within_causal


def test_bound_chain_random_uniform_marginal_models():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        m = random_uniform_marginal_model(rng)
        rep = bc.verify_bound_chain(m)
        assert rep.marginal_uniform
        assert rep.s_within_general
        assert rep.s_within_p_min
        if rep.causal_bound is not None:
            assert rep.s_within_causal


def test_bound_chain_classifies_mixed_responses():
    st0 = bc.HiddenState(0.5, bc.SettingDist.uniform(), (1, 1, -1, 1))  # mu=0, nu=1
    st1 = bc.HiddenState(0.5, bc.SettingDist.uniform(), (-1, 1, 1, 1))  # mu=1, nu=0
    rep = bc.verify_bound_chain(bc.Model((st0, st1)))
    assert rep.classes == ((0, 1), (1, 0))
