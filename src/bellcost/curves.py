"""Minimal mutual-information curves for CHSH violations under causal-structure constraints.

One curve per causal class, each giving the least setting/source mutual
information (bits) compatible with a CHSH value S in [2, 4] and uniform
settings:

* retrocausal:        i_R(s) = 2 - h((4-s)/8) - ((4+s)/8) log2 3
* causal (= zigzag):  i_C(s) = i_1(s) below the branch point S0, i_2(s) above
* one-sided:          i_OS(s) = 1 - h(s/4)
* superdeterministic: i_SD(s) = 2 exactly

The i_2 branch is parameterized by conjugate probability pairs (p, p*) with
equal values of f(p) = p log2((1-p)/p) and 4 - 8 p p* = s.  Every solver here
is plain bisection on an analytic bracket holding a single sign change; the
i_2 inversion bisects g(p*) = f((4-s)/(8 p*)) - f(p*) on [p0, 1/2].

curve_sweep evaluates its grid in one array pass: the closed forms in
curve_point's order of operations, every logarithm by math.log, and the scalar
i_2 solve only at the causal points above S0, so each point is that of
curve_point at the same grid value, bit for bit.

appendix_checks takes i_2's slope f(p)/(4-s) and its curvature in closed
form, at pairs that one array bisection on np.log solves for its whole grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum, unique
from functools import lru_cache

import numpy as np

from ._util import atomic_write_text
from .core import (
    CausalClass, DomainError, _LOG2, _LOG2_3, _allocation_guard, _binary_entropies,
    _quote, _real, _require_int, binary_entropy,
)

__all__ = [
    "Branch",
    "CurvePoint",
    "ConjugatePair",
    "AppendixReport",
    "f_of_p",
    "f_slope",
    "find_p0",
    "s0",
    "conjugate",
    "i_R",
    "i_1",
    "i_2",
    "i_2_pair",
    "i_C",
    "i_OS",
    "i_Z",
    "i_SD",
    "i_1_curvature",
    "curve_point",
    "curve_sweep",
    "sweep_to_csv",
    "appendix_checks",
]

_EDGE_TOL = 1e-12

#: The least normal float.  Below it (1 - p) / p overflows to inf, so f and
#: its slope take log(1 - p) - log(p) there.
_TINY = sys.float_info.min

#: Interior points of each second-derivative grid in appendix_checks.
_APPENDIX_GRID_POINTS = 400


@unique
class Branch(Enum):
    I1 = "I1"
    I2 = "I2"


#: A branch's CSV token: its value, or empty for a curve without branches.
_BRANCH_TOKEN = {None: "", **{branch: branch.value for branch in Branch}}

#: The causal branch of a point, indexed by whether it lies above S0.
_BRANCH_OF_UPPER = (Branch.I1, Branch.I2)


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """A point (s, info) on a minimal-information curve, stored as floats, with the causal branch tag."""

    s: float
    info: float
    branch: Branch | None = None

    def __post_init__(self) -> None:
        s, info = self.s, self.info
        if type(s) is not float:  # curve_sweep builds its points from floats
            s = _real(s, "CurvePoint s")
            object.__setattr__(self, "s", s)
        if type(info) is not float:
            info = _real(info, "CurvePoint info")
            object.__setattr__(self, "info", info)
        if not 2.0 - 1e-9 <= s <= 4.0 + 1e-9:
            raise DomainError(f"CurvePoint s={_quote(s)} outside [2, 4]")
        if not -1e-12 <= info < math.inf:  # a NaN fails this test too
            raise DomainError(f"CurvePoint info={_quote(info)} negative or not finite")


@dataclass(frozen=True)
class ConjugatePair:
    """Probabilities p <= p0 <= p_star with f(p) = f(p_star), stored as floats."""

    p: float
    p_star: float

    def __post_init__(self) -> None:
        p = _real(self.p, "conjugate p")
        p_star = _real(self.p_star, "conjugate p_star")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p_star", p_star)
        p0 = find_p0()
        if not -_EDGE_TOL <= p <= p0 + 1e-9:
            raise DomainError(f"conjugate p={_quote(p)} outside [0, p0]")
        if not p0 - 1e-9 <= p_star <= 0.5 + _EDGE_TOL:
            raise DomainError(f"conjugate p_star={_quote(p_star)} outside [p0, 1/2]")
        if abs(f_of_p(p) - f_of_p(p_star)) > 1e-10:
            raise DomainError("conjugate pair residual |f(p) - f(p*)| exceeds 1e-10")


def f_of_p(p: float) -> float:
    """f(p) = p log2((1-p)/p) on [0, 1/2], with f(0) = 0 by continuity."""
    if type(p) is not float:
        p = _real(p, "f_of_p: p")
    if not -_EDGE_TOL <= p <= 0.5 + _EDGE_TOL:
        raise DomainError(f"f_of_p: p={_quote(p)} outside [0, 1/2]")
    if p <= 0.0:
        return 0.0
    if p < _TINY:
        return p * (math.log(1.0 - p) - math.log(p)) / _LOG2
    return p * math.log((1.0 - p) / p) / _LOG2


def _h_slope(p: float) -> float:
    """h'(p) = log2((1-p)/p), for p in (0, 1)."""
    if p < _TINY:
        return (math.log(1.0 - p) - math.log(p)) / _LOG2
    return math.log((1.0 - p) / p) / _LOG2


def f_slope(p: float) -> float:
    """df/dp = log2((1-p)/p) - 1/((1-p) ln 2), for p in (0, 1/2]."""
    p = _real(p, "f_slope: p")
    if not 0.0 < p <= 0.5 + _EDGE_TOL:
        raise DomainError(f"f_slope: p={_quote(p)} outside (0, 1/2]")
    return _h_slope(p) - 1.0 / ((1.0 - p) * _LOG2)


def _bisect(func, lo: float, hi: float, increasing: bool) -> float:
    """Root of func on [lo, hi] by plain bisection, to a bracket of 1e-15.

    func must change sign once on the bracket: from negative to positive if
    increasing, from positive to negative otherwise.
    """
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        v = func(mid)
        if (v < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=1)
def find_p0() -> float:
    """The maximizer p0 of f(p) on (0, 1/2): unique root of f_slope, near 0.218."""
    lo, hi = 0.01, 0.49
    if not (f_slope(lo) > 0.0 > f_slope(hi)):
        raise RuntimeError("f_slope bracket lost its sign change")  # pragma: no cover
    return _bisect(f_slope, lo, hi, increasing=False)


@lru_cache(maxsize=1)
def s0() -> float:
    """Branch point S0 = 4 - 8 p0^2 of the causal curve, near 3.620."""
    p0 = find_p0()
    return 4.0 - 8.0 * p0 * p0


def conjugate(p: float) -> ConjugatePair:
    """The pair (p, p*) with f(p*) = f(p) and p* on the decreasing branch [p0, 1/2]."""
    p = _real(p, "conjugate: p")
    p0 = find_p0()
    if not -_EDGE_TOL <= p <= p0 + _EDGE_TOL:
        raise DomainError(f"conjugate: p={_quote(p)} outside [0, p0]")
    p = min(max(p, 0.0), p0)
    if p == 0.0:
        return ConjugatePair(0.0, 0.5)
    if p >= p0:
        return ConjugatePair(p0, p0)
    target = f_of_p(p)
    # f decreases from f(p0) to 0 on [p0, 1/2]
    p_star = _bisect(lambda q: f_of_p(q) - target, p0, 0.5, increasing=False)
    return ConjugatePair(p, p_star)


def _check_s(s: float, lo: float = 2.0) -> float:
    if type(s) is not float:
        s = _real(s, "CHSH value s")
    if not lo - 1e-9 <= s <= 4.0 + 1e-9:
        raise DomainError(f"CHSH value s={s!r} outside [{lo}, 4]")
    return min(max(s, lo), 4.0)


def i_R(s: float) -> float:
    """Retrocausal minimum: 2 - h((4-s)/8) - ((4+s)/8) log2 3."""
    s = _check_s(s)
    value = 2.0 - binary_entropy((4.0 - s) / 8.0) - (4.0 + s) / 8.0 * _LOG2_3
    return max(0.0, value)  # the closed form leaves -2e-16 at s = 2


def i_1(s: float) -> float:
    """Equal-pair causal branch: 2 - 2 h(sqrt((4-s)/8))."""
    s = _check_s(s)
    return 2.0 - 2.0 * binary_entropy(math.sqrt((4.0 - s) / 8.0))


def i_2_pair(s: float) -> ConjugatePair:
    """The conjugate pair with 4 - 8 p p* = s, for s in [S0, 4].

    Strictly between the endpoints, with target = (4-s)/8, bisects
    g(p*) = f(target/p*) - f(p*) on [p0, 1/2]: g <= 0 at p0, g > 0 at 1/2, and
    the sign changes once because p p*(p) is monotone on [0, p0].  The product
    constraint holds by construction.
    """
    s = _check_s(s, lo=s0())
    p0 = find_p0()
    if s == 4.0:
        return ConjugatePair(0.0, 0.5)
    if s == s0():
        return ConjugatePair(p0, p0)
    target = (4.0 - s) / 8.0

    def residual(q: float) -> float:
        # f(target/q) - f(q) with f_of_p's arithmetic inlined: both arguments lie in (0, p0]
        # and [p0, 1/2), so its range checks and p <= 0 case never apply
        r = target / q
        return r * math.log((1.0 - r) / r) / _LOG2 - q * math.log((1.0 - q) / q) / _LOG2

    p_star = _bisect(residual, p0, 0.5, increasing=True)
    return ConjugatePair(target / p_star, p_star)


def _i_2_pairs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Arrays (p, p_star) of i_2_pair(s) for s strictly inside (S0, 4), and the bisection steps taken.

    One array bisection with i_2_pair's bracket [p0, 1/2], midpoints and
    1e-15 stopping width, but np.log in place of math.log, so a pair may miss
    i_2_pair's by a rounding of the residual near the root (within 1e-15).
    """
    target = (4.0 - s) / 8.0
    lo = np.full_like(target, find_p0())
    hi = np.full_like(target, 0.5)
    for steps in range(200):
        live = hi - lo > 1e-15
        if not live.any():
            break
        q = 0.5 * (lo + hi)
        r = target / q
        below = r * np.log((1.0 - r) / r) < q * np.log((1.0 - q) / q)  # f(r) < f(q): the root lies above q
        np.copyto(lo, q, where=live & below)
        np.copyto(hi, q, where=live & ~below)
    p_star = 0.5 * (lo + hi)
    return target / p_star, p_star, steps


def _i_2_derivatives(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, float]:
    """i_2' and i_2'' at each s strictly inside (S0, 4) in closed form, from the pairs of _i_2_pairs.

    With f(p) = p log2((1-p)/p), the pair (p, p*) and the constraints
    4 - 8 p p* = s and f(p) = f(p*):

        i_2'  = f(p) / (4 - s)
        i_2'' = (f'(p) p' (4 - s) + f(p)) / (4 - s)^2,  p' = -1 / (8 (p* + p f'(p) / f'(p*)))

    Also returns the bisection steps and the largest |f(p) - f(p*)| of the pairs.
    """
    p, p_star, steps = _i_2_pairs(s)
    log_p = np.log((1.0 - p) / p)
    log_q = np.log((1.0 - p_star) / p_star)
    f_p = p * log_p / _LOG2
    residual = float(np.max(np.abs(f_p - p_star * log_q / _LOG2)))
    slope_p = (log_p - 1.0 / (1.0 - p)) / _LOG2
    slope_q = (log_q - 1.0 / (1.0 - p_star)) / _LOG2
    dp = -1.0 / (8.0 * (p_star + p * slope_p / slope_q))
    gap = 4.0 - s
    return f_p / gap, (slope_p * dp * gap + f_p) / (gap * gap), steps, residual


def i_2(s: float) -> float:
    """Conjugate-pair causal branch on [S0, 4]: 2 - h(p) - h(p*)."""
    pair = i_2_pair(s)
    return 2.0 - binary_entropy(pair.p) - binary_entropy(pair.p_star)


def i_C(s: float) -> CurvePoint:
    """Causal minimum: i_1 below S0, i_2 above, with the branch tag."""
    s = _check_s(s)
    if s <= s0():
        return CurvePoint(s, i_1(s), Branch.I1)
    return CurvePoint(s, i_2(s), Branch.I2)


def i_OS(s: float) -> float:
    """One-sided minimum: 1 - h(s/4)."""
    s = _check_s(s)
    return 1.0 - binary_entropy(s / 4.0)


def i_Z(s: float) -> CurvePoint:
    """Zigzag minimum; information-equivalent to the causal curve."""
    return i_C(s)


def i_SD(s: float) -> float:
    """Superdeterministic cost: the full settings entropy, 2 bits."""
    _check_s(s)
    return 2.0


def curve_point(causal_class: CausalClass, s: float) -> CurvePoint:
    """Evaluate the minimal-information curve of a causal class at s."""
    if causal_class is CausalClass.CAUSAL or causal_class is CausalClass.ZIGZAG:
        return i_C(s)
    if causal_class is CausalClass.RETROCAUSAL:
        return CurvePoint(_check_s(s), i_R(s))
    if causal_class is CausalClass.ONE_SIDED:
        return CurvePoint(_check_s(s), i_OS(s))
    if causal_class is CausalClass.SUPERDETERMINISTIC:
        return CurvePoint(_check_s(s), i_SD(s))
    raise DomainError(f"unknown causal class {causal_class!r}")  # pragma: no cover


def curve_sweep(
    causal_class: CausalClass, s_min: float, s_max: float, n: int
) -> list[CurvePoint]:
    """n evenly spaced curve points on [s_min, s_max], each that of curve_point bit for bit.

    The grid and the closed forms (i_R, i_1, i_OS, i_SD) are evaluated as
    arrays in curve_point's order of operations, with math.log; the causal
    points above S0 take the scalar i_2 solve.  A sweep whose arrays or
    points cannot be allocated, n = 2**63 - 1 and beyond included, raises DomainError.
    """
    _require_int(n, 2, "curve_sweep needs an integer n >= 2, not {}")
    s_min = _check_s(s_min)
    s_max = _check_s(s_max)
    if s_min > s_max:
        raise DomainError("curve_sweep needs s_min <= s_max")
    with _allocation_guard(f"curve_sweep: a sweep of n = {_quote(int(n))} points"):
        # np.indices, not np.arange: numpy's arange of 2**63 - 1 or more points is empty, not too big;
        # each grid value passes _check_s, which clamps one that rounds past 4
        s = np.minimum(np.maximum(s_min + (s_max - s_min) * np.indices((n,))[0] / (n - 1), 2.0), 4.0)
        if causal_class is CausalClass.CAUSAL or causal_class is CausalClass.ZIGZAG:
            upper = s > s0()
            info = 2.0 - 2.0 * _binary_entropies(np.sqrt((4.0 - s) / 8.0))
            info[upper] = [i_2(v) for v in s[upper].tolist()]
            branches = map(_BRANCH_OF_UPPER.__getitem__, upper.tolist())
            return list(map(CurvePoint, s.tolist(), info.tolist(), branches))
        if causal_class is CausalClass.RETROCAUSAL:
            info = np.maximum(0.0, 2.0 - _binary_entropies((4.0 - s) / 8.0) - (4.0 + s) / 8.0 * _LOG2_3)
        elif causal_class is CausalClass.ONE_SIDED:
            info = 1.0 - _binary_entropies(s / 4.0)
        elif causal_class is CausalClass.SUPERDETERMINISTIC:
            info = np.full(n, 2.0)
        else:  # pragma: no cover
            raise DomainError(f"unknown causal class {causal_class!r}")
        return list(map(CurvePoint, s.tolist(), info.tolist()))


def sweep_to_csv(
    points: list[CurvePoint], causal_class: CausalClass, path: str | None = None
) -> str:
    """Render a sweep as CSV (header S,I,branch,class; 12 significant digits; LF)."""
    row = "%.12g,%.12g,%s," + causal_class.value + "\n"  # %.12g renders as fmt12 does
    fields = []
    for pt in points:
        fields += (pt.s, pt.info, _BRANCH_TOKEN[pt.branch])
    text = "S,I,branch,class\n" + row * len(points) % tuple(fields)
    if path is not None:
        atomic_write_text(path, text)
    return text


@dataclass(frozen=True)
class AppendixReport:
    """Numerical checks of the causal-curve branch geometry around S0.

    The slopes at S0 are finite differences; the i_1 curvature is a central
    difference and the i_2 curvature and f(p)/(4-S) ratio (= i_2') are closed
    forms, each on an interior grid of _APPENDIX_GRID_POINTS points.
    """

    slope_i1_at_s0: float
    slope_i2_at_s0: float
    reference_slope: float  # h'(p0) / (8 p0)
    min_i1_second_derivative: float
    min_i2_second_derivative: float
    f_ratio_monotone: bool  # i_2' = f(p)/(4-S) strictly increases along the i_2 grid
    i2_bisection_steps: int  # steps of the array bisection that solved the i_2 grid's pairs
    i2_max_residual: float  # largest |f(p) - f(p*)| of those pairs

    @property
    def tangent_gap(self) -> float:
        return abs(self.slope_i1_at_s0 - self.slope_i2_at_s0)


def i_1_curvature(s: float) -> float:
    """Closed-form second derivative of i_1, the cross-check for the numerical one.

    With p = sqrt((4-s)/8):  i_1''(s) = [log2((1-p)/p) + 1/((1-p) ln 2)] / (128 p^3).
    Defined on [2, 4); the expression diverges as s -> 4.
    """
    s = _check_s(s)
    p = math.sqrt((4.0 - s) / 8.0)
    if p <= 0.0:
        raise DomainError("i_1_curvature is undefined at s = 4")
    return (_h_slope(p) + 1.0 / ((1.0 - p) * _LOG2)) / (128.0 * p**3)


def appendix_checks() -> AppendixReport:
    """Verify that i_1 and i_2 share a tangent at S0 and are convex.

    Slopes at S0 are finite differences with step 1e-5 (central for i_1; i_2
    lives on [S0, 4], so its slope at S0 uses the second-order one-sided
    stencil).  i_1's second derivative is a central difference with step
    1e-4 on an interior grid of _APPENDIX_GRID_POINTS points, evaluated as
    arrays in the scalar order of operations with math.log.  On the i_2
    grid, the pairs are solved by one array bisection (_i_2_pairs) and i_2'
    and i_2'' are taken in closed form (_i_2_derivatives); the report
    counts the bisection's steps and its largest pair residual.
    """
    branch_point = s0()
    p0 = find_p0()
    h = 1e-5
    slope1 = (i_1(branch_point + h) - i_1(branch_point - h)) / (2.0 * h)
    slope2 = (
        -3.0 * i_2(branch_point) + 4.0 * i_2(branch_point + h) - i_2(branch_point + 2.0 * h)
    ) / (2.0 * h)
    reference = _h_slope(p0) / (8.0 * p0)

    h2 = 1e-4
    n = _APPENDIX_GRID_POINTS + 2
    k = np.arange(1, n - 1)
    # every s and s +/- h2 lies inside (2, 4), where _check_s returns s as it is
    grid1 = 2.0 + (4.0 - 2.0) * k / (n - 1)
    s1 = np.concatenate((grid1 + h2, grid1, grid1 - h2))
    up, mid, down = np.split(2.0 - 2.0 * _binary_entropies(np.sqrt((4.0 - s1) / 8.0)), 3)
    min_dd1 = float(np.min((up - 2.0 * mid + down) / (h2 * h2)))

    grid2 = branch_point + (4.0 - branch_point) * k / (n - 1)
    slope, curvature, steps, residual = _i_2_derivatives(grid2)

    return AppendixReport(
        slope_i1_at_s0=slope1,
        slope_i2_at_s0=slope2,
        reference_slope=reference,
        min_i1_second_derivative=min_dd1,
        min_i2_second_derivative=float(np.min(curvature)),
        f_ratio_monotone=bool(np.all(slope[1:] > slope[:-1])),
        i2_bisection_steps=steps,
        i2_max_residual=residual,
    )
