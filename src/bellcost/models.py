"""Constructors for the explicit optimal models and their lifts.

The four-state families all share the (mu, nu) response classes of
_geometry and differ only in the per-state setting conditionals:

* retrocausal optimum: joint conditionals {p at one special cell, (1-p)/3 elsewhere}
* causal optimum: factorized conditionals with per-axis flip probabilities (p, ptilde)
* one-sided optimum: the causal family at ptilde = 1/2
* superdeterministic: one point-mass state per outcome/setting combination

Lifts: outcome flipping (restores non-signaling without changing S or the
information cost) and setting-bias lifts that keep the lambda-posterior of a
base model while re-weighting the settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

from ._geometry import LAMBDA_CLASSES, SPECIAL, OutcomeSigns, class_model, flip_marginals
from .core import (
    CausalClass,
    Correlations,
    DomainError,
    HiddenState,
    Model,
    SETTINGS,
    SettingDist,
    _LOG2_3,
    _quote,
    _real,
    binary_entropy,
    posterior_weights,
    setting_index,
    shannon_entropy,
)
from .curves import _check_s, conjugate, find_p0

__all__ = [
    "LAMBDA_CLASSES",
    "OutcomeSigns",
    "Bias",
    "Table2Branch",
    "table1_model",
    "table2_model",
    "causal_pair_model",
    "one_sided_model",
    "superdeterministic_model",
    "flip_lift",
    "extreme_bias_example",
    "biased_lift",
    "biased_info",
]


@dataclass(frozen=True)
class Bias:
    """Setting biases eps = P(0) - P(1) per side, stored as floats; P(x=0) = (1 + eps_x)/2."""

    eps_x: float = 0.0
    eps_y: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eps_x", "eps_y"):
            eps = _real(getattr(self, name), name)
            object.__setattr__(self, name, eps)
            if not abs(eps) <= 1.0 + 1e-12:
                raise DomainError(f"{name}={_quote(eps)} outside [-1, 1]")

    def px0(self) -> float:
        return (1.0 + self.eps_x) / 2.0

    def py0(self) -> float:
        return (1.0 + self.eps_y) / 2.0

    def settings(self) -> SettingDist:
        return SettingDist.factorized(self.px0(), self.py0())


@unique
class Table2Branch(Enum):
    SAME = "same"
    CONJUGATE = "conjugate"


def table1_model(p: float, signs: OutcomeSigns | None = None) -> Model:
    """Retrocausal optimum: four equal-weight states, joint conditionals.

    State (mu, nu) puts probability p on the setting (1-nu, 1-mu) and
    (1-p)/3 on the other three.  CHSH value 4 - 8p for p in [0, 1/4].
    """
    return _retro_optimal(p, signs, "table1_model")


def _retro_optimal(p: float, signs: OutcomeSigns | None, caller: str) -> Model:
    """table1_model(p, signs), with errors that name caller, the function the user called."""
    p = _real(p, f"{caller}: p")
    if not -1e-12 <= p <= 0.25 + 1e-12:
        raise DomainError(f"{caller}: p={p!r} outside [0, 1/4]")
    p = min(max(p, 0.0), 0.25)
    rest = (1.0 - p) / 3.0
    dists = [SettingDist.joint([p if k == special else rest for k in range(4)]) for special in SPECIAL]
    return class_model(dists, f"retro-optimal(p={p!r})", signs)


def _flip_probability(v: float, what: str) -> float:
    """A flip probability of the causal family, clamped to [0, 1/2]; one outside it raises DomainError."""
    v = _real(v, what)
    if not -1e-12 <= v <= 0.5 + 1e-12:
        raise DomainError(f"{what}={_quote(v)} outside [0, 1/2]")
    return min(max(v, 0.0), 0.5)


def causal_pair_model(
    p: float, ptilde: float, signs: OutcomeSigns | None = None, label: str | None = None
) -> Model:
    """Causal family: factorized conditionals with flip probabilities (p, ptilde).

    State (mu, nu) has P(x=0) = 1-p for nu=0 (else p) and P(y=0) = 1-ptilde
    for mu=0 (else ptilde).  CHSH value 4 - 8 p ptilde.
    """
    return _causal_pair(p, ptilde, signs, label, "causal_pair_model")


def _causal_pair(
    p: float, ptilde: float, signs: OutcomeSigns | None, label: str | None, caller: str
) -> Model:
    """causal_pair_model(p, ptilde, signs, label), with errors that name caller."""
    p = _flip_probability(p, f"{caller}: p")
    ptilde = _flip_probability(ptilde, f"{caller}: ptilde")
    dists = [SettingDist.factorized(*flip_marginals(mu, nu, p, ptilde)) for mu, nu in LAMBDA_CLASSES]
    return class_model(dists, label or f"causal-pair(p={p!r}, ptilde={ptilde!r})", signs)


def table2_model(
    p: float,
    branch: Table2Branch = Table2Branch.SAME,
    signs: OutcomeSigns | None = None,
) -> Model:
    """Causal optimum: ptilde = p on the Same branch, ptilde = p* on the Conjugate branch."""
    p = _real(p, "table2_model: p")
    if branch is Table2Branch.SAME:
        ptilde = p
    elif branch is Table2Branch.CONJUGATE:
        if p > find_p0() + 1e-12:
            raise DomainError("table2_model: Conjugate branch needs p <= p0")
        ptilde = conjugate(p).p_star
    else:  # pragma: no cover
        raise DomainError(f"unknown branch {branch!r}")
    label = f"causal-optimal(p={p!r}, branch={branch.value})"
    return _causal_pair(p, ptilde, signs, label, "table2_model")


def one_sided_model(p: float, signs: OutcomeSigns | None = None) -> Model:
    """One-sided optimum: the causal family with an unbiased Y side (ptilde = 1/2)."""
    return _one_sided(p, signs, "one_sided_model")


def _one_sided(p: float, signs: OutcomeSigns | None, caller: str) -> Model:
    """one_sided_model(p, signs), with errors that name caller."""
    p = _real(p, f"{caller}: p")
    return _causal_pair(p, 0.5, signs, f"one-sided(p={p!r})", caller)


#: The point mass at each joint setting, in setting_index order.
_POINT_MASSES = tuple(SettingDist.joint([1.0 if k == j else 0.0 for k in range(4)]) for j in range(4))


def superdeterministic_model(c: Correlations, settings: SettingDist) -> Model:
    """Point-mass model reproducing arbitrary correlations and setting statistics.

    One state per (alpha, beta, xi, zeta) with nonzero weight
    p(a=alpha, b=beta | x=xi, y=zeta) * p(x=xi, y=zeta); its setting
    conditional is the point mass at (xi, zeta) and its responses return
    (alpha, beta) at every setting.  Mutual information equals H(X, Y).
    """
    for x, y in SETTINGS:
        if settings.prob(x, y) <= 0.0:
            raise DomainError("superdeterministic_model needs strictly positive settings")
    states = []
    for xi, zeta in SETTINGS:
        k = setting_index(xi, zeta)
        for alpha in (1, -1):
            for beta in (1, -1):
                w = c.prob(alpha, beta, xi, zeta) * settings.prob(xi, zeta)
                if w == 0.0:
                    continue
                states.append(HiddenState(w, _POINT_MASSES[k], (alpha, alpha, beta, beta)))
    return Model(tuple(states), label="superdeterministic")


def flip_lift(m: Model) -> Model:
    """Equal mixture of m with its outcome-flipped twin.

    Doubles the state space, halving each weight; preserves every correlator
    (hence S) and the setting/source mutual information, and forces
    p(a|x) = p(b|y) = 1/2, making the correlations non-signaling.
    """
    states = []
    for st in m.states:
        a0, a1, b0, b1 = st.responses
        states.append(HiddenState(st.weight / 2.0, st.dist, st.responses))
        states.append(HiddenState(st.weight / 2.0, st.dist, (-a0, -a1, -b0, -b1)))
    return Model(tuple(states), label=f"flip({m.label})")


def extreme_bias_example(q: float, signs: OutcomeSigns | None = None) -> Model:
    """Causal family at p = ptilde = 0 with weights {q^2, q(1-q), q(1-q), (1-q)^2}.

    Deterministic settings per state give S = 4 with I = H(X,Y) = 2h(q),
    arbitrarily small as q approaches 0 or 1.  Needs 0 < q < 1 so that all
    settings occur, and q^2 must not underflow to 0 (q below about 1.5e-162).
    """
    q = _real(q, "extreme_bias_example: q")
    if not 0.0 < q < 1.0:
        raise DomainError(f"extreme_bias_example: q={q!r} outside (0, 1)")
    dists = [SettingDist.factorized(*flip_marginals(mu, nu, 0.0, 0.0)) for mu, nu in LAMBDA_CLASSES]
    weights = (q * q, q * (1 - q), q * (1 - q), (1 - q) ** 2)
    if 0.0 in weights:
        raise DomainError(f"extreme_bias_example: q={q!r} leaves a state weight that underflows to 0")
    return class_model(dists, f"extreme-bias(q={q!r})", signs, weights)


# ---------------------------------------------------------------------------
# biased-setting lifts
# ---------------------------------------------------------------------------

_LIFT_BASES = (CausalClass.RETROCAUSAL, CausalClass.CAUSAL, CausalClass.ZIGZAG, CausalClass.ONE_SIDED)


def _base_model(
    base: CausalClass, p: float, ptilde: float | None, signs: OutcomeSigns | None
) -> Model:
    if base is CausalClass.RETROCAUSAL:
        if ptilde is not None:
            raise DomainError("retrocausal base takes no ptilde")
        return _retro_optimal(p, signs, "biased_lift")
    if base in (CausalClass.CAUSAL, CausalClass.ZIGZAG):
        return _causal_pair(p, p if ptilde is None else ptilde, signs, None, "biased_lift")
    if base is CausalClass.ONE_SIDED:
        if ptilde is not None:
            raise DomainError("one-sided base takes no ptilde")
        return _one_sided(p, signs, "biased_lift")
    raise DomainError(f"no bias lift for base {base!r}")


def _check_lift_bias(bias: Bias) -> None:
    if max(abs(bias.eps_x), abs(bias.eps_y)) >= 1.0:
        raise DomainError("bias lift needs |eps| < 1 so that every setting occurs")


def biased_lift(
    base: CausalClass,
    bias: Bias,
    p: float,
    ptilde: float | None = None,
    signs: OutcomeSigns | None = None,
) -> Model:
    """Re-weight a base optimal model to factorized biased settings.

    Keeps the base lambda-posterior p(lambda|x,y) (for the one-sided base:
    p(lambda|x), which keeps the lift one-sided) and the base responses, and
    recomputes p(lambda) and p(x,y|lambda) from the new setting distribution
    by explicit Bayes summation.  S is unchanged; the information cost never
    exceeds the unbiased curve value.
    """
    if base not in _LIFT_BASES:
        raise DomainError(f"biased_lift base must be one of {_LIFT_BASES}")
    _check_lift_bias(bias)
    base_m = _base_model(base, p, ptilde, signs)
    if base is CausalClass.ONE_SIDED:
        # posterior given x only: p(lam|x) = p(lam) p(x|lam) / p(x), with p(x) = 1/2
        post = []
        for x, y in SETTINGS:
            px_given = [
                st.weight * (st.dist.px0() if x == 0 else 1.0 - st.dist.px0()) / 0.5
                for st in base_m.states
            ]
            post.append(tuple(px_given))
    else:
        post = [posterior_weights(base_m, x, y) for x, y in SETTINGS]

    settings = bias.settings().probs
    n = len(base_m.states)
    weights = [0.0] * n
    for pxy, post_xy in zip(settings, post):
        for lam in range(n):
            weights[lam] += pxy * post_xy[lam]
    states = []
    for lam, st in enumerate(base_m.states):
        if weights[lam] <= 0.0:
            raise DomainError("bias lift produced a zero-weight state")  # pragma: no cover
        probs = [pxy * post_xy[lam] / weights[lam] for pxy, post_xy in zip(settings, post)]
        states.append(HiddenState(weights[lam], SettingDist.joint(probs), st.responses))
    label = f"biased({base.value}, eps=({bias.eps_x!r},{bias.eps_y!r}), {base_m.label})"
    return Model(tuple(states), label=label)


def biased_info(
    base: CausalClass,
    bias: Bias,
    s: float | None = None,
    p: float | None = None,
    ptilde: float | None = None,
) -> float:
    """Closed-form information cost of the biased lifts.

    This is the cost of the lift, an achievable cost at that bias and so an
    upper bound on the class's minimum there, not the minimum itself.  At
    eps = (0.5, 0.5) and S_Q the retrocausal lift costs 0.038268 bits, while
    a Blahut-Arimoto primal/dual pair puts the retrocausal minimum at
    0.021930 bits.

    retrocausal:  four-outcome entropy expression in (s, eps_x, eps_y)
    causal:       h((1+eps_x(1-2p))/2) - h(p) + h((1+eps_y(1-2pt))/2) - h(pt)
    one-sided:    h((1+eps_x(s/2-1))/2) - h(s/4)   (independent of eps_y)
    superdet:     h((1+eps_x)/2) + h((1+eps_y)/2)

    For the retrocausal/causal/one-sided bases the biases must satisfy
    |eps| < 1; the superdeterministic expression is defined on the closed
    square and vanishes in the extreme-bias corners.
    """
    ex, ey = bias.eps_x, bias.eps_y
    if base is CausalClass.SUPERDETERMINISTIC:
        return binary_entropy((1.0 + ex) / 2.0) + binary_entropy((1.0 + ey) / 2.0)
    _check_lift_bias(bias)
    if base is CausalClass.RETROCAUSAL:
        if s is None:
            if p is None:
                raise DomainError("retrocausal biased_info needs s or p")
            s = 4.0 - 8.0 * _real(p, "biased_info: p")
        s = _check_s(s)
        outcomes = [
            (4.0 + s) / 24.0 + (1 + sx * ex) / 2.0 * (1 + sy * ey) / 2.0 * (2.0 - s) / 6.0
            for sx in (1.0, -1.0)
            for sy in (1.0, -1.0)
        ]
        value = (
            shannon_entropy(outcomes)
            - binary_entropy((4.0 - s) / 8.0)
            - (4.0 + s) / 8.0 * _LOG2_3
        )
        return max(0.0, value)  # the closed form leaves -2e-16 at s = 2
    if base in (CausalClass.CAUSAL, CausalClass.ZIGZAG):
        if p is None or ptilde is None:
            raise DomainError("causal biased_info needs p and ptilde")
        p = _flip_probability(p, "biased_info: p")
        ptilde = _flip_probability(ptilde, "biased_info: ptilde")
        return (
            binary_entropy((1.0 + ex * (1.0 - 2.0 * p)) / 2.0)
            - binary_entropy(p)
            + binary_entropy((1.0 + ey * (1.0 - 2.0 * ptilde)) / 2.0)
            - binary_entropy(ptilde)
        )
    if base is CausalClass.ONE_SIDED:
        if s is None:
            if p is None:
                raise DomainError("one-sided biased_info needs s or p")
            s = 4.0 - 4.0 * _real(p, "biased_info: p")
        s = _check_s(s)
        return binary_entropy((1.0 + ex * (s / 2.0 - 1.0)) / 2.0) - binary_entropy(s / 4.0)
    raise DomainError(f"no biased_info for base {base!r}")
