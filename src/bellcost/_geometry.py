"""The four deterministic response classes and the CHSH geometry they share.

A state of class (mu, nu) has A_x B_y = (-1)^(mu x + nu y + mu nu) up to one
overall outcome sign, so it disagrees with the CHSH signs (-1)^(xy) at one
setting cell, its special cell (x, y) = (1-nu, 1-mu), and adds at most
4 (1 - 2 p_special) to S.  Every optimum (retrocausal, causal, one-sided) and
the bound chain S <= 4 - 8 p_min rest on this; the models, the grid oracle
and the bound chain audit all read it from here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (
    SETTINGS,
    DomainError,
    HiddenState,
    Model,
    _DEFAULT_PERMUTATION,
    chsh_value,
    derived_marginal,
    is_factorized_per_lambda,
)

#: Slack of verify_bound_chain's uniformity, bound and saturation tests.
_CHAIN_TOL = 1e-9

#: (mu, nu) classes in table row order.
LAMBDA_CLASSES: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (0, 1), (1, 1))
#: Each class's row in LAMBDA_CLASSES.
_CLASS_INDEX = {cls: k for k, cls in enumerate(LAMBDA_CLASSES)}


def class_sign(mu: int, nu: int, x: int, y: int) -> int:
    """A_x B_y of the (mu, nu) class with its overall outcome sign +1: (-1)^(mu x + nu y + mu nu)."""
    return (-1) ** (mu * x + nu * y + mu * nu)


@functools.cache
def special_cell(mu: int, nu: int) -> int:
    """Flat index of the one setting cell where the (mu, nu) class disagrees with the CHSH signs."""
    (cell,) = (k for k, (x, y) in enumerate(SETTINGS) if class_sign(mu, nu, x, y) != _DEFAULT_PERMUTATION[k])
    return cell


#: Special cell per LAMBDA_CLASSES row: (x, y) = (1-nu, 1-mu), flat (3, 2, 1, 0).
SPECIAL: tuple[int, ...] = tuple(special_cell(mu, nu) for mu, nu in LAMBDA_CLASSES)


@dataclass(frozen=True)
class OutcomeSigns:
    """Free sign parameters (s, t, u, v) of the four response rows; any +/-1 works."""

    s: int = 1
    t: int = 1
    u: int = 1
    v: int = 1

    def __post_init__(self) -> None:
        for name in ("s", "t", "u", "v"):
            if getattr(self, name) not in (-1, 1):
                raise DomainError(f"outcome sign {name} must be +1 or -1")

    def responses_for(self, mu: int, nu: int) -> tuple[int, int, int, int]:
        """(A0, A1, B0, B1) for the (mu, nu) row, with A0 its sign parameter and A_x B_y = class_sign."""
        k = _CLASS_INDEX.get((mu, nu))
        if k is None:
            raise DomainError(f"(mu, nu) must be one of {LAMBDA_CLASSES}, not {(mu, nu)!r}")
        a0 = (self.s, self.t, self.u, self.v)[k]
        b0 = a0 * class_sign(mu, nu, 0, 0)
        b1 = a0 * class_sign(mu, nu, 0, 1)
        a1 = b0 * class_sign(mu, nu, 1, 0)
        return (a0, a1, b0, b1)


def state_class(st: HiddenState) -> tuple[int, int]:
    """The (mu, nu) class of a state's responses: mu flags A_1 != A_0, nu flags B_1 != B_0."""
    a0, a1, b0, b1 = st.responses
    return int(a1 != a0), int(b1 != b0)


def flip_marginals(mu: int, nu: int, a, b, whole=1.0):
    """(P(x=0), P(y=0)) * whole of a (mu, nu) state with masses a, b on its special side.

    a and b are the masses of the special cell's x = 1-nu and y = 1-mu, so the
    x side flips when nu = 0 and the y side when mu = 0.  The map is its own
    inverse, and it takes floats and integer arrays alike.
    """
    return (whole - a if nu == 0 else a), (whole - b if mu == 0 else b)


#: The signs class_model uses when given none.
_DEFAULT_SIGNS = OutcomeSigns()


def class_model(dists, label: str, signs: OutcomeSigns | None = None, weights=(0.25,) * 4) -> Model:
    """One state per LAMBDA_CLASSES row, with the signs' responses; equal weights by default."""
    if signs is None:
        signs = _DEFAULT_SIGNS
    states = tuple(
        HiddenState(w, dist, signs.responses_for(mu, nu))
        for (mu, nu), dist, w in zip(LAMBDA_CLASSES, dists, weights, strict=True)
    )
    return Model(states, label=label)


# ---------------------------------------------------------------------------
# bound chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundChainReport:
    """Per-model audit of the CHSH upper bounds and their saturation conditions.

    The inequalities are guaranteed for models whose derived setting
    distribution is uniform (marginal_uniform); the causal fields are None
    when the per-state conditionals do not factorize.
    """

    classes: tuple[tuple[int, int], ...]
    s_value: float
    marginal_uniform: bool
    general_bound: float
    general_saturated: bool
    p_min: float
    p_min_bound: float
    p_min_saturated: bool
    causal_bound: float | None
    causal_saturated: bool | None
    s_within_general: bool
    s_within_p_min: bool
    s_within_causal: bool | None


def verify_bound_chain(m: Model) -> BoundChainReport:
    """Classify each state, evaluate the CHSH bound chain, and test saturation within _CHAIN_TOL."""
    classes = tuple(state_class(st) for st in m.states)
    s_value = chsh_value(m)
    uniform = all(abs(p - 0.25) <= _CHAIN_TOL for p in derived_marginal(m).probs)
    factorized = is_factorized_per_lambda(m)
    p_min = min(min(st.dist.probs) for st in m.states if st.weight > 0.0)
    general = causal = 0.0
    general_sat = p_min_sat = causal_sat = True
    for st, (mu, nu) in zip(m.states, classes):
        if st.weight <= 0.0:
            continue
        special = st.dist.probs[special_cell(mu, nu)]
        gap = 1.0 - 2.0 * special
        general += 4.0 * st.weight * abs(gap)
        # a state reaches 4 |gap| only if its overall outcome sign, A_0 B_0 / class_sign(0, 0), is the gap's
        a0, _, b0, _ = st.responses
        if abs(gap) > _CHAIN_TOL and a0 * b0 != class_sign(mu, nu, 0, 0) * (1 if gap > 0 else -1):
            general_sat = False
        if min(abs(special - p_min), abs(special - (1.0 - p_min))) > _CHAIN_TOL:
            p_min_sat = False
        if factorized:
            px0, py0 = st.dist.px0(), st.dist.py0()
            pmin_x, pmin_y = min(px0, 1.0 - px0), min(py0, 1.0 - py0)
            causal += st.weight * (4.0 - 8.0 * pmin_x * pmin_y)
            p_xbar, p_ybar = flip_marginals(mu, nu, px0, py0)  # special-side masses
            if abs(p_xbar - pmin_x) > _CHAIN_TOL or abs(p_ybar - pmin_y) > _CHAIN_TOL:
                causal_sat = False
    p_min_bound = 4.0 - 8.0 * p_min

    return BoundChainReport(
        classes=classes,
        s_value=s_value,
        marginal_uniform=uniform,
        general_bound=general,
        general_saturated=general_sat,
        p_min=p_min,
        p_min_bound=p_min_bound,
        p_min_saturated=p_min_sat and general_sat,
        causal_bound=causal if factorized else None,
        causal_saturated=(causal_sat and general_sat) if factorized else None,
        s_within_general=s_value <= general + _CHAIN_TOL,
        s_within_p_min=s_value <= p_min_bound + _CHAIN_TOL,
        s_within_causal=(s_value <= causal + _CHAIN_TOL) if factorized else None,
    )
