"""Curve values, root solvers, orderings, and the branch-geometry checks."""

import math
import sys

import numpy as np
import pytest

import bellcost as bc
from bellcost import curves

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


def _appendix_i_2_grid():
    n = curves._APPENDIX_GRID_POINTS + 2
    s0 = bc.s0()
    return s0 + (4.0 - s0) * np.arange(1, n - 1) / (n - 1)


def test_i_2_pairs_match_i_2_pair_on_the_appendix_grid():
    """The array bisection on np.log lands within 1e-15 of scalar i_2_pair at every grid point."""
    s = _appendix_i_2_grid()
    p, p_star, steps = curves._i_2_pairs(s)
    assert p.shape == p_star.shape == s.shape
    for value, a, b in zip(s.tolist(), p.tolist(), p_star.tolist()):
        pair = bc.i_2_pair(value)
        assert abs(a - pair.p) <= 1e-15 and abs(b - pair.p_star) <= 1e-15, value
    # the bracket [p0, 1/2] halves until it is no wider than 1e-15
    assert steps == math.ceil(math.log2((0.5 - bc.find_p0()) / 1e-15))


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


def test_i_2_closed_forms_match_numerical_derivatives():
    """i_2' and i_2'' in closed form against central differences of scalar i_2."""
    h = 1e-4
    s = grid(bc.s0() + 0.01, 3.99, 40)
    slope, curvature = curves._i_2_derivatives(s)[:2]
    for value, d1, d2 in zip(s.tolist(), slope.tolist(), curvature.tolist()):
        up, mid, down = bc.i_2(value + h), bc.i_2(value), bc.i_2(value - h)
        assert (up - down) / (2.0 * h) == pytest.approx(d1, rel=1e-4), value
        assert (up - 2.0 * mid + down) / (h * h) == pytest.approx(d2, rel=1e-4), value


def test_i_2_slope_meets_the_reference_slope_at_s0(report):
    """i_2' = f(p)/(4 - S) tends to h'(p0)/(8 p0) as S -> S0 from above, as fast as S does."""
    offsets = 10.0 ** -np.arange(3.0, 10.0)
    slope = curves._i_2_derivatives(bc.s0() + offsets)[0]
    gaps = np.abs(slope - report.reference_slope)
    assert np.all(gaps <= offsets + 1e-12)
    assert gaps[-1] < 1e-8


def test_i_2_curvature_against_high_precision_reference():
    """i_2'' in closed form against a 50-digit second derivative of i_2 itself."""
    mp = pytest.importorskip("mpmath")
    points = [bc.s0() + 0.01, 3.8, 3.95]
    curvature = curves._i_2_derivatives(np.array(points))[1]
    with mp.workdps(50):
        h = lambda p: -(p * mp.log(p, 2) + (1 - p) * mp.log(1 - p, 2))
        f = lambda p: p * mp.log((1 - p) / p, 2)

        def i_2(s):
            target = (4 - s) / 8
            p_star = mp.findroot(lambda q: f(target / q) - f(q), mp.mpf(bc.i_2_pair(float(s)).p_star))
            return 2 - h(target / p_star) - h(p_star)

        for s, got in zip(points, curvature.tolist()):
            assert got == pytest.approx(float(mp.diff(i_2, mp.mpf(s), 2)), rel=1e-12), s


def test_appendix_report_counts_its_i_2_bisection(report):
    """The report says how its i_2 pairs were solved: bisection steps and the largest residual."""
    assert report.i2_bisection_steps == curves._i_2_pairs(_appendix_i_2_grid())[2]
    assert 40 <= report.i2_bisection_steps <= 60
    assert 0.0 <= report.i2_max_residual <= 1e-14


def test_appendix_report_bits(report):
    """The slopes at S0, the i_1 grid and the closed-form i_2 grid give the same bits every run."""
    assert report.slope_i1_at_s0.hex() == "0x1.0efa0a9fb6040p+0"
    assert report.slope_i2_at_s0.hex() == "0x1.0efa0a9eaf908p+0"
    assert report.reference_slope.hex() == "0x1.0efa0a9ecf3f2p+0"
    assert report.min_i1_second_derivative.hex() == "0x1.72b7696c56800p-3"
    assert report.min_i2_second_derivative.hex() == "0x1.65fc7c564bd53p-1"
    assert report.f_ratio_monotone is True
