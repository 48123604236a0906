"""Probability and entropy primitives for separable hidden-variable models of the CHSH scenario.

A model is a finite mixture of hidden states.  Each state carries a weight,
a distribution over the four joint measurement settings (x, y) in {0,1}^2,
and deterministic +/-1 response functions (A0, A1, B0, B1).  This module
provides the model data types, exact evaluators for the CHSH parameter and
the setting/source mutual information, structural checks (per-state
factorizability, non-signaling), and JSON serialization.

Conventions: settings are bits, outcomes are -1/+1, entropies are in bits,
and 0*log2(0) == 0 throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum, unique
from typing import Iterable, Sequence

from ._util import atomic_write_text

__all__ = [
    "SUM_TOL",
    "STRUCT_TOL",
    "MODEL_SCHEMA",
    "BellcostError",
    "DomainError",
    "InvalidModel",
    "UndefinedCorrelator",
    "OrderUnavailable",
    "MissingSetting",
    "NoFeasibleModel",
    "CausalClass",
    "SettingDist",
    "HiddenState",
    "Model",
    "Correlations",
    "SETTINGS",
    "setting_index",
    "binary_entropy",
    "shannon_entropy",
    "chsh_value",
    "correlators",
    "mutual_information",
    "derived_marginal",
    "posterior_weights",
    "is_factorized_per_lambda",
    "correlations_of",
    "is_nonsignaling",
    "model_to_dict",
    "model_from_dict",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

#: Normalization tolerance (sums of probabilities).
SUM_TOL = 1e-9
#: Structural-equality tolerance (factorization, exact products).
STRUCT_TOL = 1e-12

MODEL_SCHEMA = "bellcost-model/1"

_LOG2 = math.log(2.0)
_LOG2_3 = math.log(3.0) / _LOG2

#: Joint settings (x, y) in lexicographic order.
SETTINGS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


def setting_index(x: int, y: int) -> int:
    """Flat index of the joint setting (x, y): 2*x + y."""
    return 2 * x + y


class BellcostError(Exception):
    """Base class for all library errors."""


class DomainError(BellcostError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class InvalidModel(BellcostError, ValueError):
    """A model or distribution violates its construction invariants."""


class UndefinedCorrelator(BellcostError):
    """The derived setting distribution vanishes somewhere, so a correlator is undefined."""


class OrderUnavailable(BellcostError):
    """Source-first sampling requested for a model whose conditionals do not factorize."""


class MissingSetting(BellcostError):
    """A joint setting never occurs in a round log, so the CHSH estimate is undefined."""


class NoFeasibleModel(BellcostError):
    """The brute-force grid admits no model meeting the feasibility constraints."""


@unique
class CausalClass(Enum):
    """Causal structure of the measurement dependence.

    Zigzag is information-equivalent to Causal and is treated as such by
    every curve query.
    """

    RETROCAUSAL = "retro"
    CAUSAL = "causal"
    ZIGZAG = "zigzag"
    ONE_SIDED = "onesided"
    SUPERDETERMINISTIC = "superdet"


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) = -p log2 p - (1-p) log2 (1-p), in bits."""
    if not -STRUCT_TOL <= p <= 1.0 + STRUCT_TOL:
        raise DomainError(f"binary_entropy: p={p!r} outside [0, 1]")
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p)) / _LOG2


def shannon_entropy(dist: Sequence[float]) -> float:
    """Entropy in bits of a probability vector (entries >= 0, summing to 1)."""
    total = 0.0
    acc = 0.0
    for p in dist:
        if p < -STRUCT_TOL:
            raise DomainError(f"shannon_entropy: negative entry {p!r}")
        total += p
        if p > 0.0:
            acc -= p * math.log(p)
    if abs(total - 1.0) > SUM_TOL:
        raise DomainError(f"shannon_entropy: entries sum to {total!r}, not 1")
    return acc / _LOG2


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SettingDist:
    """Distribution over the four joint settings, optionally in factorized form.

    probs holds (p00, p01, p10, p11) in setting_index order.  A factorized
    instance additionally records (P(x=0), P(y=0)) and its joint entries are
    the exact products of those marginals.
    """

    probs: tuple[float, float, float, float]
    kind: str = "joint"
    marginals: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) != 4:
            raise InvalidModel("SettingDist needs exactly 4 probabilities")
        for p in probs:
            if not -STRUCT_TOL <= p <= 1.0 + STRUCT_TOL:
                raise InvalidModel(f"setting probability {p!r} outside [0, 1]")
        if abs(sum(probs) - 1.0) > SUM_TOL:
            raise InvalidModel(f"setting probabilities sum to {sum(probs)!r}, not 1")
        if self.kind == "factorized":
            if self.marginals is None:
                raise InvalidModel("factorized SettingDist requires marginals")
            px0, py0 = (float(v) for v in self.marginals)
            object.__setattr__(self, "marginals", (px0, py0))
            for v in (px0, py0):
                if not -STRUCT_TOL <= v <= 1.0 + STRUCT_TOL:
                    raise InvalidModel(f"setting marginal {v!r} outside [0, 1]")
            expected = (px0 * py0, px0 * (1 - py0), (1 - px0) * py0, (1 - px0) * (1 - py0))
            for got, want in zip(probs, expected):
                if abs(got - want) > STRUCT_TOL:
                    raise InvalidModel("factorized entries do not match marginal products")
        elif self.kind == "joint":
            if self.marginals is not None:
                raise InvalidModel("joint SettingDist must not carry marginals")
        else:
            raise InvalidModel(f"unknown SettingDist kind {self.kind!r}")

    @classmethod
    def joint(cls, probs: Iterable[float]) -> "SettingDist":
        return cls(tuple(probs), "joint", None)

    @classmethod
    def factorized(cls, px0: float, py0: float) -> "SettingDist":
        px0 = float(px0)
        py0 = float(py0)
        probs = (px0 * py0, px0 * (1 - py0), (1 - px0) * py0, (1 - px0) * (1 - py0))
        return cls(probs, "factorized", (px0, py0))

    @classmethod
    def uniform(cls) -> "SettingDist":
        return cls((0.25, 0.25, 0.25, 0.25), "joint", None)

    def prob(self, x: int, y: int) -> float:
        return self.probs[setting_index(x, y)]

    def px0(self) -> float:
        """P(x=0)."""
        if self.marginals is not None:
            return self.marginals[0]
        return self.probs[0] + self.probs[1]

    def py0(self) -> float:
        """P(y=0)."""
        if self.marginals is not None:
            return self.marginals[1]
        return self.probs[0] + self.probs[2]

    def entropy(self) -> float:
        return shannon_entropy(self.probs)


def _check_sign(value: float, what: str) -> int:
    if value not in (-1, 1):
        raise InvalidModel(f"{what} must be exactly +1 or -1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class HiddenState:
    """One hidden-variable value: weight, setting conditional, deterministic responses."""

    weight: float
    dist: SettingDist
    responses: tuple[int, int, int, int]  # (A0, A1, B0, B1)

    def __post_init__(self) -> None:
        w = float(self.weight)
        object.__setattr__(self, "weight", w)
        if not -STRUCT_TOL <= w <= 1.0 + STRUCT_TOL:
            raise InvalidModel(f"state weight {w!r} outside [0, 1]")
        if len(self.responses) != 4:
            raise InvalidModel("responses must be (A0, A1, B0, B1)")
        resp = tuple(_check_sign(r, "response") for r in self.responses)
        object.__setattr__(self, "responses", resp)

    def a(self, x: int) -> int:
        """Alice's response A_x."""
        return self.responses[x]

    def b(self, y: int) -> int:
        """Bob's response B_y."""
        return self.responses[2 + y]


@dataclass(frozen=True)
class Model:
    """A finite separable hidden-variable model with deterministic outcomes."""

    states: tuple[HiddenState, ...]
    label: str = ""

    def __post_init__(self) -> None:
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise InvalidModel("model needs at least one hidden state")
        total = sum(s.weight for s in states)
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidModel(f"state weights sum to {total!r}, not 1")
        derived_marginal(self)  # raises InvalidModel if the mixture is not a distribution

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(s.weight for s in self.states)


@dataclass(frozen=True)
class Correlations:
    """Conditional outcome table p(a, b | x, y) for a, b in {-1,+1}, x, y in {0,1}.

    Flat storage: index = setting_index(x, y) * 4 + 2*[a == -1] + [b == -1].
    """

    table: tuple[float, ...]

    def __post_init__(self) -> None:
        table = tuple(float(v) for v in self.table)
        object.__setattr__(self, "table", table)
        if len(table) != 16:
            raise InvalidModel("correlations table needs 16 entries")
        for v in table:
            if not -STRUCT_TOL <= v <= 1.0 + STRUCT_TOL:
                raise InvalidModel(f"correlation probability {v!r} outside [0, 1]")
        for x, y in SETTINGS:
            s = sum(table[setting_index(x, y) * 4 + k] for k in range(4))
            if abs(s - 1.0) > SUM_TOL:
                raise InvalidModel(f"p(a,b|{x},{y}) sums to {s!r}, not 1")

    def prob(self, a: int, b: int, x: int, y: int) -> float:
        return self.table[setting_index(x, y) * 4 + 2 * (a == -1) + (b == -1)]

    def alice_marginal(self, a: int, x: int, y: int) -> float:
        """p(a | x, y)."""
        return self.prob(a, 1, x, y) + self.prob(a, -1, x, y)

    def bob_marginal(self, b: int, x: int, y: int) -> float:
        """p(b | x, y)."""
        return self.prob(1, b, x, y) + self.prob(-1, b, x, y)

    def correlator(self, x: int, y: int) -> float:
        """<AB>_{xy} = sum_ab a*b*p(a,b|x,y)."""
        base = setting_index(x, y) * 4
        t = self.table
        return t[base] - t[base + 1] - t[base + 2] + t[base + 3]


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def derived_marginal(m: Model) -> SettingDist:
    """Mixture setting distribution p(x,y) = sum_lambda p(lambda) p(x,y|lambda)."""
    probs = [0.0, 0.0, 0.0, 0.0]
    for st in m.states:
        w = st.weight
        for k in range(4):
            probs[k] += w * st.dist.probs[k]
    try:
        return SettingDist.joint(probs)
    except InvalidModel as exc:
        raise InvalidModel(f"derived marginal is not a distribution: {exc}") from exc


def posterior_weights(m: Model, x: int, y: int) -> tuple[float, ...]:
    """Retrocausal view p(lambda | x, y) = p(lambda) p(x,y|lambda) / p(x,y)."""
    marg = derived_marginal(m).prob(x, y)
    if marg <= 0.0:
        raise UndefinedCorrelator(f"setting ({x},{y}) has zero probability")
    return tuple(st.weight * st.dist.prob(x, y) / marg for st in m.states)


def correlators(m: Model) -> tuple[float, float, float, float]:
    """The four correlators <AB>_{xy}, in setting_index order."""
    marg = derived_marginal(m)
    out = []
    for x, y in SETTINGS:
        pxy = marg.prob(x, y)
        if pxy <= 0.0:
            raise UndefinedCorrelator(f"setting ({x},{y}) has zero probability")
        acc = 0.0
        for st in m.states:
            acc += st.weight * st.dist.prob(x, y) * st.a(x) * st.b(y)
        out.append(acc / pxy)
    return tuple(out)


_DEFAULT_PERMUTATION = (1, 1, 1, -1)


def chsh_value(m: Model, permutation: tuple[int, int, int, int] | None = None) -> float:
    """CHSH parameter S = <AB>_00 + <AB>_01 + <AB>_10 - <AB>_11.

    `permutation` selects one of the eight sign-swapped CHSH combinations as a
    tuple of four signs (product must be -1); the default is the standard one.
    """
    if permutation is None:
        permutation = _DEFAULT_PERMUTATION
    signs = tuple(permutation)
    if len(signs) != 4 or any(s not in (-1, 1) for s in signs) or math.prod(signs) != -1:
        raise DomainError("CHSH permutation must be four signs with product -1")
    corr = correlators(m)
    return sum(s * c for s, c in zip(signs, corr))


def mutual_information(m: Model) -> float:
    """I(X,Y : Lambda) = H(X,Y) - sum_lambda p(lambda) H_lambda(X,Y), in bits."""
    h_marg = derived_marginal(m).entropy()
    cond = 0.0
    for st in m.states:
        if st.weight > 0.0:
            cond += st.weight * st.dist.entropy()
    return h_marg - cond


def is_factorized_per_lambda(m: Model, tol: float = STRUCT_TOL) -> bool:
    """True iff every p(x,y|lambda) factorizes: |p00*p11 - p01*p10| <= tol per state."""
    for st in m.states:
        p = st.dist.probs
        if abs(p[0] * p[3] - p[1] * p[2]) > tol:
            return False
    return True


def correlations_of(m: Model) -> Correlations:
    """Observable table p(a,b|x,y) = sum_lambda p(lambda|x,y) [a=A_x][b=B_y]."""
    marg = derived_marginal(m)
    table = [0.0] * 16
    for x, y in SETTINGS:
        pxy = marg.prob(x, y)
        if pxy <= 0.0:
            raise UndefinedCorrelator(f"setting ({x},{y}) has zero probability")
        base = setting_index(x, y) * 4
        for st in m.states:
            k = base + 2 * (st.a(x) == -1) + (st.b(y) == -1)
            table[k] += st.weight * st.dist.prob(x, y) / pxy
    return Correlations(tuple(table))


def is_nonsignaling(c: Correlations, tol: float = SUM_TOL) -> bool:
    """True iff p(a|x,y) is independent of y and p(b|x,y) independent of x, within tol."""
    for a in (1, -1):
        for x in (0, 1):
            if abs(c.alice_marginal(a, x, 0) - c.alice_marginal(a, x, 1)) > tol:
                return False
    for b in (1, -1):
        for y in (0, 1):
            if abs(c.bob_marginal(b, 0, y) - c.bob_marginal(b, 1, y)) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# serialization (schema "bellcost-model/1")
# ---------------------------------------------------------------------------


def model_to_dict(m: Model) -> dict:
    states = []
    for st in m.states:
        if st.dist.kind == "factorized":
            dist = {"type": "factorized", "values": list(st.dist.marginals)}
        else:
            dist = {"type": "joint", "values": list(st.dist.probs)}
        states.append({"weight": st.weight, "dist": dist, "responses": list(st.responses)})
    return {"schema": MODEL_SCHEMA, "label": m.label, "states": states}


def model_from_dict(doc: dict) -> Model:
    if not isinstance(doc, dict) or doc.get("schema") != MODEL_SCHEMA:
        raise InvalidModel(f"unsupported model schema {doc.get('schema') if isinstance(doc, dict) else doc!r}")
    states = []
    try:
        for raw in doc["states"]:
            dist_doc = raw["dist"]
            if dist_doc["type"] == "factorized":
                dist = SettingDist.factorized(*dist_doc["values"])
            elif dist_doc["type"] == "joint":
                dist = SettingDist.joint(dist_doc["values"])
            else:
                raise InvalidModel(f"unknown dist type {dist_doc['type']!r}")
            states.append(HiddenState(raw["weight"], dist, tuple(raw["responses"])))
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidModel(f"malformed model document: {exc!r}") from exc
    return Model(tuple(states), doc.get("label", ""))


def model_to_json(m: Model) -> str:
    return json.dumps(model_to_dict(m), indent=2)


def _reject_constant(name: str) -> float:
    raise InvalidModel(f"model JSON holds the non-finite literal {name}")


def model_from_json(text: str) -> Model:
    return model_from_dict(json.loads(text, parse_constant=_reject_constant))


def save_model(m: Model, path: str) -> None:
    atomic_write_text(path, model_to_json(m) + "\n")


def load_model(path: str) -> Model:
    with open(path, "r") as fh:
        return model_from_json(fh.read())
