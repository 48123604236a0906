"""Curve values, root solvers, orderings, and the branch-geometry checks."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bellcost as bc
from bellcost import curves
from bellcost.curves import _i_2_solve

from conftest import REF, S_Q


def grid(lo, hi, n):
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# f and its maximizer
# ---------------------------------------------------------------------------


def test_f_of_p_values():
    assert bc.f_of_p(0.5) == pytest.approx(0.0, abs=1e-15)
    assert bc.f_of_p(0.0) == 0.0
    assert bc.f_of_p(0.218) == pytest.approx(REF["f_0218"], abs=1e-14)
    with pytest.raises(bc.DomainError):
        bc.f_of_p(0.51)
    with pytest.raises(bc.DomainError):
        bc.f_of_p(-0.01)


def test_f_and_its_slope_below_the_least_normal_float():
    # (1 - p) / p overflows below sys.float_info.min, so these once read inf
    p = 1e-320
    assert bc.f_of_p(p) == pytest.approx(1.063005e-317, rel=1e-6)
    assert bc.f_of_p(p) == pytest.approx(-p * math.log2(p), rel=1e-12)
    assert curves.f_slope(p) == pytest.approx(1061.574311, rel=1e-9)
    assert curves.f_slope(p) == pytest.approx(-math.log2(p) - 1.0 / math.log(2.0), rel=1e-12)
    assert math.isfinite(bc.f_of_p(5e-324)) and math.isfinite(curves.f_slope(5e-324))
    pair = bc.conjugate(p)
    assert pair.p == p and pair.p_star == pytest.approx(0.5, abs=1e-12)
    # from the least normal float up, f and its slope keep the quotient's formula, bit for bit
    for q in (sys.float_info.min, 1e-300, 0.1, 0.25):
        assert bc.f_of_p(q) == q * math.log((1.0 - q) / q) / math.log(2.0)
        assert curves.f_slope(q) == math.log((1.0 - q) / q) / math.log(2.0) - 1.0 / ((1.0 - q) * math.log(2.0))


def test_find_p0():
    p0 = bc.find_p0()
    assert p0 == pytest.approx(0.218, abs=5e-4)
    assert p0 == pytest.approx(REF["p0"], abs=1e-12)
    f0 = bc.f_of_p(p0)
    assert all(f0 >= bc.f_of_p(p) for p in grid(0.0, 0.5, 1000))


def test_s0():
    assert bc.s0() == pytest.approx(3.620, abs=5e-3)
    assert bc.s0() == pytest.approx(REF["s0"], abs=1e-11)


def test_find_p0_against_high_precision_reference():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        deriv = lambda p: mp.log((1 - p) / p, 2) - 1 / ((1 - p) * mp.log(2))
        root = float(mp.findroot(deriv, mp.mpf("0.218")))
        assert bc.find_p0() == pytest.approx(root, abs=1e-12)


# ---------------------------------------------------------------------------
# conjugate pairs
# ---------------------------------------------------------------------------


def test_conjugate_endpoints():
    p0 = bc.find_p0()
    at_max = bc.conjugate(p0)
    assert at_max.p == pytest.approx(p0, abs=1e-12)
    assert at_max.p_star == pytest.approx(p0, abs=1e-12)
    at_zero = bc.conjugate(0.0)
    assert at_zero.p_star == 0.5


def test_conjugate_residuals():
    pair = bc.conjugate(0.1)
    assert pair.p_star == pytest.approx(REF["conj_01"], abs=1e-12)
    rng = np.random.default_rng(7)
    for p in rng.uniform(0.0, bc.find_p0(), size=50):
        pair = bc.conjugate(float(p))
        assert abs(bc.f_of_p(pair.p) - bc.f_of_p(pair.p_star)) < 1e-10
        assert pair.p <= bc.find_p0() + 1e-12 <= pair.p_star + 2e-12


@pytest.mark.parametrize("info", [math.nan, math.inf, 10**400])
def test_a_curve_point_needs_a_finite_info(info):
    with pytest.raises(bc.DomainError, match="negative or not finite"):
        bc.CurvePoint(3.0, info)


@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["plus", "minus"])
def test_an_int_beyond_float_range_is_a_domain_error(value):
    for fn in (bc.i_R, bc.i_1, bc.i_2, bc.i_C, bc.i_OS, bc.i_Z, bc.i_SD, bc.i_1_curvature):
        with pytest.raises(bc.DomainError):
            fn(value)
    for cls in bc.CausalClass:
        with pytest.raises(bc.DomainError):
            bc.curve_point(cls, value)
        with pytest.raises(bc.DomainError):
            bc.curve_sweep(cls, value, 3.0, 5)
        with pytest.raises(bc.DomainError):
            bc.curve_sweep(cls, 2.0, value, 5)
    for build in (bc.table1_model, bc.extreme_bias_example):
        with pytest.raises(bc.DomainError):
            build(value)
    with pytest.raises(bc.DomainError):
        bc.biased_info(bc.CausalClass.RETROCAUSAL, bc.Bias(0.0, 0.0), s=value)


def test_conjugate_domain():
    with pytest.raises(bc.DomainError):
        bc.conjugate(bc.find_p0() + 1e-6)
    with pytest.raises(bc.DomainError):
        bc.conjugate(-0.01)


# ---------------------------------------------------------------------------
# the curves
# ---------------------------------------------------------------------------


def test_i_R_values():
    assert bc.i_R(2.0) == pytest.approx(0.0, abs=1e-12)
    assert bc.i_R(S_Q) == pytest.approx(REF["i_R_sq"], abs=1e-12)
    assert bc.i_R(4.0) == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)
    with pytest.raises(bc.DomainError):
        bc.i_R(1.99)
    with pytest.raises(bc.DomainError):
        bc.i_R(4.01)


def test_i_1_values():
    assert bc.i_1(2.0) == pytest.approx(0.0, abs=1e-12)
    assert bc.i_1(S_Q) == pytest.approx(REF["i_1_sq"], abs=1e-12)
    assert bc.i_1(4.0) == pytest.approx(2.0, abs=1e-12)


def test_i_2_values():
    assert bc.i_2(4.0) == 1.0
    assert bc.i_2(bc.s0()) == pytest.approx(bc.i_1(bc.s0()), abs=1e-12)
    assert bc.i_2(bc.s0() + 1e-10) == pytest.approx(bc.i_1(bc.s0()), abs=1e-9)
    got = bc.i_2(3.8)
    assert got == pytest.approx(REF["i_2_38"], abs=1e-11)
    assert got <= bc.i_1(3.8)
    pair = bc.i_2_pair(3.8)
    assert abs(4.0 - 8.0 * pair.p * pair.p_star - 3.8) < 1e-10
    with pytest.raises(bc.DomainError):
        bc.i_2(bc.s0() - 1e-6)


def test_i_2_inversion_residuals():
    for s in grid(bc.s0() + 1e-6, 4.0 - 1e-9, 40):
        pair = bc.i_2_pair(float(s))
        assert abs(4.0 - 8.0 * pair.p * pair.p_star - s) < 1e-9


def test_i_2_pair_matches_a_bisection_through_f_of_p():
    """i_2_pair inlines f_of_p in its residual; the bits must be those of calling it."""
    from bellcost.curves import _bisect, find_p0

    def reference(s):
        target = (4.0 - s) / 8.0
        p_star = _bisect(lambda q: bc.f_of_p(target / q) - bc.f_of_p(q), find_p0(), 0.5, increasing=True)
        return target / p_star, p_star

    s0 = bc.s0()
    for s in [s0 + 1e-12, 4.0 - 1e-12, *(s0 + (4.0 - s0) * k / 2000 for k in range(1, 2000))]:
        pair = bc.i_2_pair(s)
        assert (pair.p, pair.p_star) == reference(s), s


def _assert_pairs_match_scalar(s_values):
    p, p_star = _i_2_solve(s_values)[:2]
    for s, a, b in zip(s_values, p.tolist(), p_star.tolist()):
        pair = bc.i_2_pair(s)
        assert (a, b) == (pair.p, pair.p_star), s


def test_i_2_pairs_match_i_2_pair_bit_for_bit():
    """The array bisection reproduces the scalar one exactly: grid, both edges, and random points."""
    s0 = bc.s0()
    edges = [s0 + 10.0**-k for k in range(1, 16)] + [4.0 - 10.0**-k for k in range(1, 16)]
    grid2001 = [s0 + 1e-12, 4.0 - 1e-12, *(s0 + (4.0 - s0) * k / 2000 for k in range(1, 2000))]
    uniform = np.random.default_rng(20240517).uniform(s0, 4.0, 20_000).tolist()
    for values in (edges, grid2001, uniform):
        _assert_pairs_match_scalar(values)
    p, p_star = _i_2_solve([])[:2]
    assert p.shape == p_star.shape == (0,)
    assert curves._i_2_solve([])[2:] == (0, 0)


def test_i_2_batch_solves_points_near_s0_apart():
    """s within 1e-8 of S0 fail the convexity certificate; the far points of the same call keep theirs."""
    s0 = bc.s0()
    far = np.linspace(s0 + 1e-4, 4.0 - 1e-4, 2050)
    near = s0 + np.linspace(1e-10, 1e-8, 50)
    s_values = np.random.default_rng(30).permutation(np.concatenate((far, near)))
    _assert_pairs_match_scalar(s_values.tolist())
    assert _i_2_solve(far)[3] == 0
    exact, uncertified = _i_2_solve(s_values)[2:]
    assert uncertified <= 100
    assert exact == _i_2_solve(far)[2] + _i_2_solve(near)[2]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=bc.s0(), max_value=4.0, exclude_min=True, exclude_max=True),
        min_size=1,
        max_size=40,
    )
)
def test_i_2_pairs_property(s_values):
    _assert_pairs_match_scalar(s_values)


def test_i_2_pairs_rejects_points_off_the_open_branch():
    for bad in ([2.0], [3.0, 3.9], [3.9, 4.0], [bc.s0()], [math.nan]):
        with pytest.raises(bc.DomainError):
            _i_2_solve(bad)[:2]


def _seeded_branch_points(rng, n):
    """n values of s in (S0, 4): uniform, within 1e-12 of S0, and within 1e-15 of 4."""
    s0 = bc.s0()
    s = np.concatenate(
        [
            rng.uniform(s0, 4.0, n - n // 5),
            s0 + rng.uniform(0.0, 1e-12, n // 10),
            4.0 - rng.integers(1, 3, n // 10) * 2.0**-51,  # the two floats below 4 within 1e-15 of it
        ]
    )
    s = s[(s > s0) & (s < 4.0)]
    assert s.size >= n - 10
    return s


def test_i_2_residual_error_is_within_a_tenth_of_its_bound():
    """|g^ - g| <= E/10 for the float residual g^ that decides i_2_pair's bisection."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2311)
    s = _seeded_branch_points(rng, 10_100)
    target = (4.0 - s) / 8.0
    _, p_star = _i_2_solve(s)[:2]
    p0 = bc.find_p0()
    # half of the points anywhere on [p0, 1/2], half next to the root, where the signs are decided
    q = np.where(
        rng.random(s.size) < 0.5,
        rng.uniform(p0, 0.5, s.size),
        p_star + rng.normal(0.0, 1e-13, s.size),
    )
    q = np.clip(q, p0, 0.5)
    g_hat = curves._residuals(target / q, q, curves._exact_log)
    with mp.workdps(40):
        f = lambda p: p * mp.log((1 - p) / p) / mp.log(2)
        worst = max(
            abs(f(mp.mpf(t) / mp.mpf(x)) - f(mp.mpf(x)) - mp.mpf(g))
            for t, x, g in zip(target.tolist(), q.tolist(), g_hat.tolist())
        )
    assert worst <= curves._RESIDUAL_ERROR / 10.0


def test_i_2_residual_is_convex_where_the_bracket_lives():
    """g'' = (q-r)(1-qr)/(q^2 (1-q)^2 (1-r)^2 ln 2) + 2 f'(r) r/q^2 >= 0 for r = t/q, q in [p0, 1/2]."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2312)
    s = _seeded_branch_points(rng, 2_000)
    p0 = bc.find_p0()
    q = np.concatenate([np.full(200, p0), np.full(200, 0.5), rng.uniform(p0, 0.5, s.size - 400)])
    with mp.workdps(40):
        ln2 = mp.log(2)
        f_slope = lambda p: mp.log((1 - p) / p) / ln2 - 1 / ((1 - p) * ln2)
        for sv, qv in zip(s.tolist(), q.tolist()):
            x = mp.mpf(qv)
            r = mp.mpf((4.0 - sv) / 8.0) / x
            curvature = (x - r) * (1 - x * r) / (x**2 * (1 - x) ** 2 * (1 - r) ** 2 * ln2)
            curvature += 2 * f_slope(r) * r / x**2
            assert curvature >= 0, (sv, qv)


def _appendix_i_2_grid():
    n = curves._APPENDIX_GRID_POINTS + 2
    s0 = bc.s0()
    grid2 = s0 + (4.0 - s0) * np.arange(1, n - 1) / (n - 1)
    return np.concatenate((grid2, grid2 + 1e-4, grid2 - 1e-4))


def test_appendix_i_2_grid_makes_few_exact_residuals(monkeypatch):
    """The certified bracket leaves at most 8 math.log residuals per pair (16 logarithms)."""
    s = _appendix_i_2_grid()
    logs = []
    exact_log = curves._exact_log
    monkeypatch.setattr(curves, "_exact_log", lambda x: logs.append(x.size) or exact_log(x))
    _, _, exact, uncertified = curves._i_2_solve(s)
    assert sum(logs) <= 16 * s.size
    assert exact <= 8 * s.size
    assert uncertified == 0


def test_i_2_solve_certifies_nothing_where_convexity_is_unproven():
    """Within ~1e-8 of S0, g^(p0) is not below -2E: both sides fall back and every midpoint is evaluated."""
    s0 = bc.s0()
    s = [s0 + 1e-15, s0 + 1e-12, s0 + 1e-9]
    _assert_pairs_match_scalar(s)
    assert curves._i_2_solve(s)[3] == 2 * len(s)


def test_i_2_solve_certifies_convexity_at_the_least_s():
    """One g^(p0) at the least s stands for the call: two s share it, one residual fewer than two calls."""
    exact = [curves._i_2_solve(s)[2] for s in ([3.7, 3.9], [3.7], [3.9])]
    assert exact[0] == exact[1] + exact[2] - 1


@pytest.mark.parametrize("offset, residuals", [(1e-6, 24), (1e-5, 21)])
def test_i_2_solve_certifies_both_sides_just_above_the_unproven_band(offset, residuals):
    """Newton runs until its step is below 1e-12 relative, so the roots near S0 are placed well enough."""
    s = [bc.s0() + offset]
    _assert_pairs_match_scalar(s)
    assert curves._i_2_solve(s)[2:] == (residuals, 0)


def test_i_2_pairs_ignore_the_approximate_roots(monkeypatch):
    """Wrong np.log roots and slopes cost exact residuals, never bits: certificates are checked."""
    s = np.concatenate([_appendix_i_2_grid()[::7], np.random.default_rng(2313).uniform(bc.s0(), 4.0, 300)])
    *want, cheapest, _ = curves._i_2_solve(s)
    rng = np.random.default_rng(2314)
    fakes = [
        lambda t, p0: (np.full_like(t, p0), np.full_like(t, math.nan)),  # no slope: both sides fall back
        lambda t, p0: (np.full_like(t, 0.5), np.full_like(t, 1e-30)),  # a huge width
        lambda t, p0: (rng.uniform(p0, 0.5, t.size), rng.uniform(-1.0, 3.0, t.size)),  # anywhere
    ]
    for fake in fakes:
        monkeypatch.setattr(curves, "_approximate_roots", fake)
        p, p_star, exact, _ = curves._i_2_solve(s)
        assert np.array_equal(p, want[0]) and np.array_equal(p_star, want[1])
        assert exact > cheapest


def test_i_2_against_high_precision_reference():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        h = lambda p: -(p * mp.log(p, 2) + (1 - p) * mp.log(1 - p, 2))
        f = lambda p: p * mp.log((1 - p) / p, 2)
        deriv = lambda p: mp.log((1 - p) / p, 2) - 1 / ((1 - p) * mp.log(2))
        p0 = mp.findroot(deriv, mp.mpf("0.218"))

        def reference(s):
            target = (4 - mp.mpf(s)) / 8
            lo, hi = p0, mp.mpf(1) / 2
            for _ in range(200):  # bisection to far below double precision
                mid = (lo + hi) / 2
                if f(target / mid) < f(mid):
                    lo = mid
                else:
                    hi = mid
            p_star = (lo + hi) / 2
            return float(2 - h(target / p_star) - h(p_star))

        near_s0 = [bc.s0() + d for d in (1e-12, 1e-10, 1e-8, 1e-6, 1e-3)]
        for s in near_s0 + [3.7, 3.8, 3.9, 3.99, 4.0 - 1e-7]:
            assert bc.i_2(s) == pytest.approx(reference(s), abs=1e-14), s


@pytest.mark.parametrize(
    "func",
    [
        bc.i_R,
        bc.i_1,
        bc.i_2,
        bc.i_2_pair,
        bc.i_OS,
        bc.i_SD,
        bc.i_1_curvature,
        bc.f_of_p,
        bc.conjugate,
        bc.binary_entropy,
    ],
)
def test_curve_entry_points_reject_nan(func):
    with pytest.raises(bc.DomainError):
        func(math.nan)


def test_i_C_branches():
    pt = bc.i_C(S_Q)
    assert pt.branch is bc.Branch.I1
    assert pt.info == pytest.approx(REF["i_1_sq"], abs=1e-12)
    top = bc.i_C(4.0)
    assert top.branch is bc.Branch.I2 and top.info == 1.0
    base = bc.i_C(2.0)
    assert base.branch is bc.Branch.I1 and base.info == pytest.approx(0.0, abs=1e-12)


def test_i_OS_values():
    assert bc.i_OS(2.0) == pytest.approx(0.0, abs=1e-12)
    assert bc.i_OS(S_Q) == pytest.approx(REF["i_OS_sq"], abs=1e-12)
    assert bc.i_OS(4.0) == pytest.approx(1.0, abs=1e-12)


def test_i_Z_and_i_SD():
    for s in grid(2.0, 4.0, 21):
        assert bc.i_Z(float(s)) == bc.i_C(float(s))
        assert bc.i_SD(float(s)) == 2.0


def test_strict_ordering_on_open_interval():
    interior = grid(2.0, 4.0, 103)[1:-1]
    assert len(interior) == 101
    for s in interior:
        s = float(s)
        r, c, os_ = bc.i_R(s), bc.i_C(s).info, bc.i_OS(s)
        assert r < c < os_ < 2.0
    for f in (bc.i_R, lambda s: bc.i_C(s).info, bc.i_OS):
        assert f(2.0) == pytest.approx(0.0, abs=1e-12)


def test_branch_dominance():
    for s in grid(bc.s0(), 4.0, 60):
        s = float(s)
        assert bc.i_2(s) <= bc.i_1(s) + 1e-12
    # equality only at the branch point
    assert bc.i_1(bc.s0() + 0.01) - bc.i_2(bc.s0() + 0.01) > 1e-7


def test_monotonicity():
    for f in (bc.i_R, lambda s: bc.i_C(s).info, bc.i_OS):
        vals = [f(float(s)) for s in grid(2.0, 4.0, 201)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_consistency_with_models():
    rng = np.random.default_rng(11)
    for p in rng.uniform(0.0, 0.25, size=50):
        m = bc.table1_model(float(p))
        assert bc.i_R(bc.chsh_value(m)) == pytest.approx(
            bc.mutual_information(m), abs=1e-9
        )
    for p in rng.uniform(0.0, 0.5, size=25):
        m = bc.table2_model(float(p))
        assert bc.i_1(bc.chsh_value(m)) == pytest.approx(
            bc.mutual_information(m), abs=1e-9
        )
    for p in rng.uniform(0.0, bc.find_p0(), size=25):
        m = bc.table2_model(float(p), bc.Table2Branch.CONJUGATE)
        assert bc.i_2(bc.chsh_value(m)) == pytest.approx(
            bc.mutual_information(m), abs=1e-9
        )


# ---------------------------------------------------------------------------
# sweeps and CSV
# ---------------------------------------------------------------------------


def test_curve_sweep_degenerate():
    pts = bc.curve_sweep(bc.CausalClass.RETROCAUSAL, 2.0, 2.0, 2)
    assert len(pts) == 2
    assert pts[0] == pts[1]
    assert pts[0].info == pytest.approx(0.0, abs=1e-12)


def test_curve_sweep_causal_monotone_with_branch_switch():
    pts = bc.curve_sweep(bc.CausalClass.CAUSAL, 2.0, 4.0, 201)
    infos = [p.info for p in pts]
    assert all(b >= a for a, b in zip(infos, infos[1:]))
    branches = [p.branch for p in pts]
    switch = branches.index(bc.Branch.I2)
    assert all(b is bc.Branch.I1 for b in branches[:switch])
    assert all(b is bc.Branch.I2 for b in branches[switch:])
    assert pts[switch - 1].s <= bc.s0() <= pts[switch].s


# (s_min, s_max, n) whose last grid point, s_min + (s_max - s_min) * (n - 1) / (n - 1), rounds past s_max
_OVERSHOOT = (2.497493534960194, 3.861499418058824, 196)


def _sweep_grids():
    """Seeded (s_min, s_max, n) draws, plus both ends at 2 and at 4, n = 2, ranges either side of S0."""
    rng = np.random.default_rng(2202)
    grids = [
        (2.0, 2.0, 2), (4.0, 4.0, 2), (2.0, 4.0, 2), (2.0, 4.0, 201),
        (2.0, bc.s0(), 9), (bc.s0(), 4.0, 9), (3.0, 3.9, 2), _OVERSHOOT,
    ]
    for _ in range(60):
        lo, hi = sorted(rng.uniform(2.0, 4.0, size=2).tolist())
        grids.append((lo, hi, int(rng.integers(2, 120))))
    return grids


def test_overshooting_grid_rounds_past_its_end():
    s_min, s_max, n = _OVERSHOOT
    assert s_min + (s_max - s_min) * (n - 1) / (n - 1) > s_max


@pytest.mark.parametrize("cls", list(bc.CausalClass))
def test_curve_sweep_is_curve_point_bit_for_bit(cls):
    crossed = False
    for s_min, s_max, n in _sweep_grids():
        points = bc.curve_sweep(cls, s_min, s_max, n)
        assert len(points) == n
        for k, pt in enumerate(points):
            ref = bc.curve_point(cls, s_min + (s_max - s_min) * k / (n - 1))
            assert (pt.s.hex(), pt.info.hex(), pt.branch) == (ref.s.hex(), ref.info.hex(), ref.branch)
        crossed |= s_min < bc.s0() < s_max
    assert crossed


def test_zigzag_sweep_is_the_causal_sweep():
    for s_min, s_max, n in _sweep_grids():
        zigzag = bc.curve_sweep(bc.CausalClass.ZIGZAG, s_min, s_max, n)
        assert zigzag == bc.curve_sweep(bc.CausalClass.CAUSAL, s_min, s_max, n)


def test_curve_sweep_errors():
    with pytest.raises(bc.DomainError):
        bc.curve_sweep(bc.CausalClass.CAUSAL, 2.0, 4.0, 1)
    with pytest.raises(bc.DomainError):
        bc.curve_sweep(bc.CausalClass.CAUSAL, 3.0, 2.5, 10)
    with pytest.raises(bc.DomainError):
        bc.curve_sweep(bc.CausalClass.CAUSAL, 1.0, 3.0, 10)


@pytest.mark.parametrize("n", [10**14, 2**63 - 1, 2**63, 10**19, 2**64 - 1])
def test_oversized_curve_sweep_is_a_domain_error(n):
    """The grid of 10**14 points exceeds a 47-bit address space and the larger ones an array's byte
    count or dimension, so each fails at the sweep's first allocation; the error names n instead.
    numpy's arange of 2**63 - 1 or 2**63 points is empty, so the sweep must not size its grid by it."""
    with pytest.raises(bc.DomainError, match=f"n = {n} points does not fit in memory"):
        bc.curve_sweep(bc.CausalClass.RETROCAUSAL, 2, 4, n)


@pytest.mark.parametrize("cls", [bc.CausalClass.CAUSAL, bc.CausalClass.RETROCAUSAL, bc.CausalClass.ONE_SIDED])
def test_curve_sweep_memory_error_after_the_grid_is_a_domain_error(cls, monkeypatch):
    """A MemoryError past the grid, here from the entropies of the info values, names n too."""

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(curves, "_binary_entropies", exhausted)
    with pytest.raises(bc.DomainError, match="n = 11 points does not fit in memory"):
        bc.curve_sweep(cls, 2, 4, 11)


def test_curve_sweep_passes_other_value_errors_through(monkeypatch):
    def broken(*args):
        raise ValueError("not a size error")

    monkeypatch.setattr(curves, "_binary_entropies", broken)
    with pytest.raises(ValueError, match="not a size error"):
        bc.curve_sweep(bc.CausalClass.RETROCAUSAL, 2, 4, 11)


@pytest.mark.parametrize("n", [2.5, 10.0, True, "10", None])
def test_curve_sweep_rejects_a_non_integer_count(n):
    with pytest.raises(bc.DomainError, match="integer n"):
        bc.curve_sweep(bc.CausalClass.CAUSAL, 2, 4, n)


@pytest.mark.parametrize("cls", list(bc.CausalClass))
@pytest.mark.parametrize("s", ["3", None, 3 + 0j, b"3", [3.0], np.array([3.0]), True])
def test_curve_point_rejects_a_non_real_s(cls, s):
    with pytest.raises(bc.DomainError):
        bc.curve_point(cls, s)


def test_sweep_csv_format(tmp_path):
    pts = bc.curve_sweep(bc.CausalClass.CAUSAL, 2.5, 3.5, 5)
    path = tmp_path / "sweep.csv"
    text = bc.sweep_to_csv(pts, bc.CausalClass.CAUSAL, str(path))
    assert path.read_text() == text
    lines = text.split("\n")
    assert lines[0] == "S,I,branch,class"
    assert lines[-1] == ""
    row = lines[1].split(",")
    assert row[2] == "I1" and row[3] == "causal"
    assert float(row[0]) == 2.5
    # 12 significant digits
    assert row[1] == f"{bc.i_C(2.5).info:.12g}"
    assert "\r" not in text


# ---------------------------------------------------------------------------
# appendix geometry report
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def report():
    return bc.appendix_checks()


def test_common_tangent(report):
    assert report.tangent_gap < 1e-4
    assert report.slope_i1_at_s0 == pytest.approx(report.reference_slope, abs=5e-3)
    assert report.slope_i1_at_s0 == pytest.approx(1.059, abs=5e-3)
    assert report.reference_slope == pytest.approx(REF["slope"], abs=1e-9)


def test_branch_convexity(report):
    assert report.min_i1_second_derivative > 0.0
    assert report.min_i2_second_derivative > 0.0


def test_numerical_curvature_matches_closed_form():
    h = 1e-4
    for s in grid(2.01, 3.99, 40):
        s = float(s)
        numerical = (bc.i_1(s + h) - 2.0 * bc.i_1(s) + bc.i_1(s - h)) / (h * h)
        symbolic = bc.i_1_curvature(s)
        assert numerical == pytest.approx(symbolic, rel=1e-4)
    with pytest.raises(bc.DomainError):
        bc.i_1_curvature(4.0)


def test_f_ratio_monotone(report):
    assert report.f_ratio_monotone


def test_appendix_report_counts_its_i_2_solve(report):
    """The report says how its 1 200 pairs were solved: math.log residuals and failed certificates."""
    assert report.i2_pairs == 3 * curves._APPENDIX_GRID_POINTS
    assert 3 * report.i2_pairs < report.i2_exact_residuals <= 8 * report.i2_pairs
    assert report.i2_uncertified_sides == 0


def test_appendix_report_bits(report):
    """Each i_2 pair is solved once for the curvature and the ratio checks, with the same bits."""
    assert report.slope_i1_at_s0.hex() == "0x1.0efa0a9fb6040p+0"
    assert report.slope_i2_at_s0.hex() == "0x1.0efa0a9eaf908p+0"
    assert report.reference_slope.hex() == "0x1.0efa0a9ecf3f2p+0"
    assert report.min_i1_second_derivative.hex() == "0x1.72b7696c56800p-3"
    assert report.min_i2_second_derivative.hex() == "0x1.65fc7c53eeb00p-1"
    assert report.f_ratio_monotone is True
