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
    CausalClass, DomainError, _LOG2, _LOG2_3, _allocation_guard, _as_float, _binary_entropies,
    _exact_log, _quote, _require_int, _require_real, binary_entropy,
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

#: E = 2**-48 = 32 ulp(1/2): a bound on the rounding error of i_2_pair's residual (see _i_2_solve).
_RESIDUAL_ERROR = 2.0**-48

#: _i_2_solve solves the s below S0 + this apart: its convexity certificate fails up to ~6e-8 above S0.
_UNCERTIFIED_NEAR_S0 = 1e-7


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
    """A point (s, info) on a minimal-information curve, with the causal branch tag."""

    s: float
    info: float
    branch: Branch | None = None

    def __post_init__(self) -> None:
        if not 2.0 - 1e-9 <= self.s <= 4.0 + 1e-9:
            raise DomainError(f"CurvePoint s={_quote(self.s)} outside [2, 4]")
        if self.info < -1e-12:
            raise DomainError(f"CurvePoint info={_quote(self.info)} negative")


@dataclass(frozen=True)
class ConjugatePair:
    """Probabilities p <= p0 <= p_star with f(p) = f(p_star)."""

    p: float
    p_star: float

    def __post_init__(self) -> None:
        _require_real(self.p, "conjugate p")
        _require_real(self.p_star, "conjugate p_star")
        p0 = find_p0()
        if not -_EDGE_TOL <= self.p <= p0 + 1e-9:
            raise DomainError(f"conjugate p={_quote(self.p)} outside [0, p0]")
        if not p0 - 1e-9 <= self.p_star <= 0.5 + _EDGE_TOL:
            raise DomainError(f"conjugate p_star={_quote(self.p_star)} outside [p0, 1/2]")
        if abs(f_of_p(self.p) - f_of_p(self.p_star)) > 1e-10:
            raise DomainError("conjugate pair residual |f(p) - f(p*)| exceeds 1e-10")


def f_of_p(p: float) -> float:
    """f(p) = p log2((1-p)/p) on [0, 1/2], with f(0) = 0 by continuity."""
    if type(p) is not float:
        _require_real(p, "f_of_p: p")
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
    _require_real(p, "f_slope: p")
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
    _require_real(p, "conjugate: p")
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
        _require_real(s, "CHSH value s")
        s = _as_float(s)  # a numpy scalar would keep the curves in its own precision
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


def _residuals(r: np.ndarray, q: np.ndarray, log) -> np.ndarray:
    """i_2_pair's residual f(r) - f(q), elementwise, in the scalar path's order of operations."""
    return r * log((1.0 - r) / r) / _LOG2 - q * log((1.0 - q) / q) / _LOG2


def _approximate_roots(target: np.ndarray, p0: float) -> tuple[np.ndarray, np.ndarray]:
    """Approximate roots of the i_2 residual g on [p0, 1/2] and the slopes g' there, by np.log.

    Six bisection steps, then Newton steps from the right end of the bracket,
    kept inside it, until no element moves by more than 1e-12 of its value
    (at most 20 steps).  g is convex and g(1/2) > 0, so Newton from the right
    descends to the root.  The values only place the certificates of
    _i_2_solve, which are checked with math.log; they decide no bit.
    """
    lo = np.full_like(target, p0)
    hi = np.full_like(target, 0.5)
    for _ in range(6):
        q = 0.5 * (lo + hi)
        below = _residuals(target / q, q, np.log) < 0.0
        lo = np.where(below, q, lo)
        hi = np.where(below, hi, q)
    q = hi
    for _ in range(20):
        r = target / q
        log_r = np.log((1.0 - r) / r)
        log_q = np.log((1.0 - q) / q)
        # g and g' times ln 2, with g'(q) = -f'(r) r/q - f'(q) and f'(p) ln 2 = ln((1-p)/p) - 1/(1-p)
        g = r * log_r - q * log_q
        slope = (1.0 / (1.0 - r) - log_r) * r / q + 1.0 / (1.0 - q) - log_q
        last = q
        q = np.fmin(np.fmax(q - g / slope, lo), hi)
        if np.all(np.abs(q - last) <= 1e-12 * q):
            break
    return q, slope / _LOG2


def _i_2_solve(s_values) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Arrays (p, p_star) of i_2_pair(s) for many s strictly inside (S0, 4), bit for bit.

    Also returns the number of residuals evaluated with math.log and the
    number of uncertified bracket sides (two per s).

    The result of i_2_pair's bisection is fixed by the sign of its float
    residual g^(q) at each midpoint q.  This replays that bisection on every
    element at once: the same bracket [p0, 1/2], the same 0.5*(lo + hi)
    midpoints, the same 1e-15 stopping width and 200-step limit.  A midpoint
    is decided without g^ only where a certificate proves g^'s sign:

    * g(q) = f(t/q) - f(q), with t = (4-s)/8 and r = t/q, is the exact
      residual of the float inputs.  Where r <= p0 <= q and r < q,
      g'' = (q-r)(1-qr) / (q^2 (1-q)^2 (1-r)^2 ln 2) + 2 f'(r) r / q^2 >= 0,
      since f' >= 0 on [0, p0].  f(p0) = max f, so g(p0) <= 0.
    * E = _RESIDUAL_ERROR bounds |g^ - g|.  With u = 2**-53, each term
      p log((1-p)/p) / ln 2 takes two roundings inside the log (2u), libm's
      log (<= 1 ulp <= 2u |log|), a product, a division and the rounded ln 2
      (3.5u relative).  As f(p) <= f(p0) < 0.41 and p <= 1/2, a term is off
      by <= 5.5u f(p) + 2u p / ln 2 <= 3.7u.  Rounding r = t/q moves f(r) by
      <= r |f'(r)| u < 0.81u, and the final subtraction by < 0.41u: in all
      |g^ - g| < 8.7u, and E = 32u.  Against 40-digit arithmetic the largest
      error seen is ~1.8u.
    * If g^(p0) < -2E, then g(p0) < -E: r(p0) = t/p0 lies a margin below the
      maximizer of f, so r <= r(p0) < p0 <= q for every q >= p0, and g is
      convex on [p0, 1/2].  If also g^(a) < -2E, then g < -E on [p0, a], so
      every midpoint q <= a has g^(q) < 0 and sets lo.  If g^(b) > 2E, convexity
      and g(p0) < 0 give g(q) >= g(b) > E for q >= b, so every midpoint q >= b
      has g^(q) > 0 and sets hi.
    * One g^(p0), at the least s of the call, certifies every s.  4 - s and
      /8 are exact and a rounded division is monotone, so a larger s has a
      t and an r(p0) no larger; f increases on [0, p0], so its g(p0) is no
      larger either, and below -E.  That certificate fails within ~6e-8 of
      S0, where no side is certified, so the s below S0 +
      _UNCERTIFIED_NEAR_S0 are solved as a call of their own and leave the
      others certified.

    The np.log roots x^ of _approximate_roots place a and b about 2.25 E/g'
    either side of x^, where |g| ~ 2.25 E.  Only a midpoint strictly between a
    and b evaluates g^, with math.log.  A side whose check fails falls back to
    a = p0 or b = 1/2, where the same loop evaluates g^ at every midpoint on
    that side.  All brackets start as [p0, 1/2] and halve in step, so while
    every one is wider than 1e-15 each element takes its step with np.where,
    the same lo and hi the masked step writes; only the last stragglers take
    the masked step.  The pairs pass ConjugatePair's range and
    |f(p) - f(p*)| <= 1e-10 checks.
    """
    s = np.asarray(s_values, dtype=float)
    if not np.all((s > s0()) & (s < 4.0)):
        raise DomainError("_i_2_solve needs every s strictly inside (S0, 4)")
    if s.size == 0:
        return s.copy(), s.copy(), 0, 0
    near = s < s0() + _UNCERTIFIED_NEAR_S0
    if near.any() and not near.all():
        p, p_star = np.empty_like(s), np.empty_like(s)
        exact = uncertified = 0
        for part in (near, ~near):
            p[part], p_star[part], part_exact, part_uncertified = _i_2_solve(s[part])
            exact += part_exact
            uncertified += part_uncertified
        return p, p_star, exact, uncertified
    p0 = find_p0()
    target = (4.0 - s) / 8.0
    root, slope = _approximate_roots(target, p0)
    width = 2.25 * _RESIDUAL_ERROR / np.fmax(slope, _RESIDUAL_ERROR)
    a = np.fmax(root - width, p0)
    b = np.fmin(root + width, 0.5)
    bound = 2.0 * _RESIDUAL_ERROR
    r0 = float(target.max()) / p0
    convex = r0 * math.log((1.0 - r0) / r0) / _LOG2 - f_of_p(p0) < -bound  # g^(p0), by _residuals' steps
    ends = np.concatenate((a, b))
    g_ends = _residuals(np.concatenate((target, target)) / ends, ends, _exact_log)
    left = convex & (g_ends[: s.size] < -bound)
    right = convex & (g_ends[s.size :] > bound)
    a = np.where(left, a, p0)
    b = np.where(right, b, 0.5)
    exact = 1 + 2 * s.size
    lo = np.full_like(target, p0)
    hi = np.full_like(target, 0.5)
    for _ in range(200):
        live = hi - lo > 1e-15
        every = live.all()
        if not every and not live.any():
            break
        q = 0.5 * (lo + hi)
        below = q <= a
        undecided = (a < q) & (q < b)
        near = np.flatnonzero(undecided if every else undecided & live)
        if near.size:
            qn = q[near]
            below[near] = _residuals(target[near] / qn, qn, _exact_log) < 0.0
            exact += near.size
        if every:
            lo = np.where(below, q, lo)
            hi = np.where(below, hi, q)
        else:
            np.copyto(lo, q, where=live & below)
            np.copyto(hi, q, where=live & ~below)
    p_star = 0.5 * (lo + hi)
    p = target / p_star
    in_range = (p > 0.0) & (p <= p0 + 1e-9) & (p_star >= p0 - 1e-9)
    if not np.all(in_range & (np.abs(_residuals(p, p_star, np.log)) <= 1e-10)):
        raise DomainError("_i_2_solve: a pair fails ConjugatePair's range or residual check")  # pragma: no cover
    return p, p_star, exact, int(np.count_nonzero(~left) + np.count_nonzero(~right))


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
    """Numerical checks of the causal-curve branch geometry around S0."""

    slope_i1_at_s0: float
    slope_i2_at_s0: float
    reference_slope: float  # h'(p0) / (8 p0)
    min_i1_second_derivative: float
    min_i2_second_derivative: float
    f_ratio_monotone: bool
    i2_pairs: int  # i_2 pairs solved for the i_2 grid
    i2_exact_residuals: int  # residuals of those solves evaluated with math.log
    i2_uncertified_sides: int  # bracket sides (two per pair) whose certificate failed

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
    """Finite-difference verification that i_1 and i_2 share a tangent at S0 and are convex.

    Slopes use step 1e-5 (central for i_1; i_2 lives on [S0, 4], so its slope
    at S0 uses the second-order one-sided stencil).  Second derivatives use
    central differences with step 1e-4 on interior grids of
    _APPENDIX_GRID_POINTS points.  Both grids, the pair informations and the
    f(p)/(4-S) ratios are evaluated as arrays in the scalar order of
    operations, with math.log.  The i_2 grid's pairs at s, s + 1e-4 and
    s - 1e-4 are solved together by _i_2_solve, which replays i_2_pair's
    bisection from a certified bracket, so each pair has the bits of
    i_2_pair(s); the report counts its pairs, its math.log residuals and its
    uncertified bracket sides.
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
    m = grid2.size
    p, p_star, exact, uncertified = _i_2_solve(np.concatenate((grid2, grid2 + h2, grid2 - h2)))
    h_p, h_p_star = np.split(_binary_entropies(np.concatenate((p, p_star))), 2)
    info = 2.0 - h_p - h_p_star
    min_dd2 = float(np.min((info[m : 2 * m] - 2.0 * info[:m] + info[2 * m :]) / (h2 * h2)))

    a = p[:m]
    ratios = a * _exact_log((1.0 - a) / a) / _LOG2 / (4.0 - grid2)
    monotone = bool(np.all(ratios[1:] > ratios[:-1]))

    return AppendixReport(
        slope_i1_at_s0=slope1,
        slope_i2_at_s0=slope2,
        reference_slope=reference,
        min_i1_second_derivative=min_dd1,
        min_i2_second_derivative=min_dd2,
        f_ratio_monotone=monotone,
        i2_pairs=p.size,
        i2_exact_residuals=exact,
        i2_uncertified_sides=uncertified,
    )
