"""Probability and entropy primitives for separable hidden-variable models of the CHSH scenario.

A model is a finite mixture of hidden states.  Each state carries a weight,
a distribution over the four joint measurement settings (x, y) in {0,1}^2,
and deterministic +/-1 response functions (A0, A1, B0, B1).  This module
provides the model data types, exact evaluators for the CHSH parameter and
the setting/source mutual information, structural checks (per-state
factorizability, non-signaling), and JSON serialization.

A model's setting marginal p(x, y) is computed and validated once, at
construction, and kept on the model.  The evaluators read it, and the
states' probabilities and responses, directly: each value was checked when
the object holding it was built, so they neither sum nor check it again.
The objects are immutable, so what is derived from one is computed once and
kept on it: a SettingDist's entropy and a Model's correlators.

Conventions: settings are bits, outcomes are -1/+1, entropies are in bits,
and 0*log2(0) == 0 throughout.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from enum import Enum, unique
from typing import Iterable, Iterator, Sequence

import numpy as np

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


#: The int value of each setting, keyed by itself, so that a value equal to one, such as 1.0, finds it.
_BITS = {0: 0, 1: 1}


def _bit(value, what: str) -> int:
    """A setting as the int 0 or 1; any other value raises DomainError."""
    try:
        return _BITS[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise DomainError(f"setting {what} = {_quote(value)} is not 0 or 1") from None


def setting_index(x: int, y: int) -> int:
    """Flat index of the joint setting (x, y): 2*x + y; a setting other than 0 or 1 raises DomainError."""
    return 2 * _bit(x, "x") + _bit(y, "y")


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


def _quote(value) -> str:
    """value as an error quotes it: abridged by reprlib, and an int wider than 64 bits by its width.

    Python turns no int of over 4 300 digits into text.
    """
    if isinstance(value, int) and value.bit_length() > 64:
        return f"<a {'negative ' if value < 0 else ''}{value.bit_length()}-bit int>"
    return reprlib.repr(value)


def _real(value, what: str, error: type[BellcostError] = DomainError) -> float:
    """value as the Python float it equals; a bool or anything but a real number raises error.

    An int beyond the float range reads as +-inf.  A float is returned before
    the numbers.Real check, which costs ~1 us per call; the hottest callers
    test type(value) is float themselves, to skip the call.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what}={_quote(value)} is not a real number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require_int(value, lo: int, message: str) -> None:
    """Raise DomainError(message), value quoted at its {}, unless value is an integer (not a bool) >= lo."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise DomainError(message.format(_quote(value)))


@contextlib.contextmanager
def _allocation_guard(request: str) -> Iterator[None]:
    """Turn an allocation the block cannot make into DomainError(f"{request} does not fit in memory").

    A MemoryError, or numpy's ValueError for an array with more bytes or
    elements than it can index ("array is too big", "Maximum allowed ..."),
    becomes that DomainError; any other ValueError passes through.
    """
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(("array is too big", "Maximum allowed")):
            raise
        raise DomainError(f"{request} does not fit in memory") from None


def _reals(values, what: str) -> tuple[float, ...]:
    """values as a tuple of floats, each read by _real (InvalidModel); a tuple of floats is returned as it is."""
    reals = tuple(values)
    for v in reals:
        if type(v) is not float:
            return tuple(_real(v, what, InvalidModel) for v in reals)
    return reals


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) = -p log2 p - (1-p) log2 (1-p), in bits."""
    if type(p) is not float:
        p = _real(p, "binary_entropy: p")
    if not -STRUCT_TOL <= p <= 1.0 + STRUCT_TOL:
        raise DomainError(f"binary_entropy: p={_quote(p)} outside [0, 1]")
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p)) / _LOG2


def _exact_log(x: np.ndarray) -> np.ndarray:
    """math.log of each element: the bits of the scalar path, which np.log may miss by an ulp."""
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


def _binary_entropies(p: np.ndarray) -> np.ndarray:
    """binary_entropy of each element of p in [0, 1], bit for bit: its arithmetic, with math.log."""
    h = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    h[inner] = -(q * _exact_log(q) + (1.0 - q) * _exact_log(1.0 - q)) / _LOG2
    return h


def shannon_entropy(dist: Sequence[float]) -> float:
    """Entropy in bits of a probability vector (entries >= 0, summing to 1)."""
    total = 0.0
    acc = 0.0
    for p in dist:
        if type(p) is not float:
            p = _real(p, "shannon_entropy: entry")
        if not p >= -STRUCT_TOL:  # a NaN fails this test too
            raise DomainError(f"shannon_entropy: negative or NaN entry {_quote(p)}")
        total += p
        if p > 0.0:
            acc -= p * math.log(p)
    if not abs(total - 1.0) <= SUM_TOL:
        raise DomainError(f"shannon_entropy: entries sum to {total!r}, not 1")
    return acc / _LOG2


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SettingDist:
    """Distribution over the four joint settings, optionally in factorized form.

    probs holds (p00, p01, p10, p11) in setting_index order.  A factorized
    instance additionally records (P(x=0), P(y=0)) in marginals, and its
    joint entries are the exact products of those marginals.
    """

    probs: tuple[float, float, float, float]
    marginals: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        probs = _reals(self.probs, "setting probability")
        object.__setattr__(self, "probs", probs)
        if len(probs) != 4:
            raise InvalidModel("SettingDist needs exactly 4 probabilities")
        p00, p01, p10, p11 = probs
        lo, hi = -STRUCT_TOL, 1.0 + STRUCT_TOL
        if not (lo <= p00 <= hi and lo <= p01 <= hi and lo <= p10 <= hi and lo <= p11 <= hi):
            bad = next(p for p in probs if not lo <= p <= hi)
            raise InvalidModel(f"setting probability {bad!r} outside [0, 1]")
        total = sum(probs)
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidModel(f"setting probabilities sum to {total!r}, not 1")
        if self.marginals is not None:
            px0, py0 = _reals(self.marginals, "setting marginal")
            object.__setattr__(self, "marginals", (px0, py0))
            if not (lo <= px0 <= hi and lo <= py0 <= hi):
                bad = px0 if not lo <= px0 <= hi else py0
                raise InvalidModel(f"setting marginal {bad!r} outside [0, 1]")
            px1, py1 = 1 - px0, 1 - py0
            if (
                abs(p00 - px0 * py0) > STRUCT_TOL
                or abs(p01 - px0 * py1) > STRUCT_TOL
                or abs(p10 - px1 * py0) > STRUCT_TOL
                or abs(p11 - px1 * py1) > STRUCT_TOL
            ):
                raise InvalidModel("factorized entries do not match marginal products")

    @classmethod
    def joint(cls, probs: Iterable[float]) -> "SettingDist":
        return cls(tuple(probs))

    @classmethod
    def factorized(cls, px0: float, py0: float) -> "SettingDist":
        px0 = _real(px0, "setting marginal", InvalidModel)
        py0 = _real(py0, "setting marginal", InvalidModel)
        probs = (px0 * py0, px0 * (1 - py0), (1 - px0) * py0, (1 - px0) * (1 - py0))
        return cls(probs, (px0, py0))

    @classmethod
    def uniform(cls) -> "SettingDist":
        return cls((0.25, 0.25, 0.25, 0.25))

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
        """H(X, Y) in bits, computed on the first call and kept (outside ==, repr and JSON)."""
        h = getattr(self, "_entropy", None)
        if h is None:
            h = shannon_entropy(self.probs)
            object.__setattr__(self, "_entropy", h)
        return h


def _check_sign(value: float, what: str) -> int:
    """value as the int +1 or -1 it equals; anything else raises InvalidModel."""
    if value not in (-1, 1):
        raise InvalidModel(f"{what} must be exactly +1 or -1, got {_quote(value)}")
    return 1 if value == 1 else -1


#: The 16 response rows (A0, A1, B0, B1), each keyed by itself, so that a tuple
#: equal to one, such as (1.0, -1, 1, True), finds its int form in one lookup.
_SIGN_ROWS = {row: row for row in itertools.product((1, -1), repeat=4)}


def _sign_row(values) -> tuple[int, int, int, int]:
    """Four responses as ints +/-1, each read as _check_sign reads it."""
    if type(values) is tuple:
        try:
            row = _SIGN_ROWS.get(values)
        except TypeError:  # an unhashable entry, which _check_sign rejects
            row = None
        if row is not None:
            return row
    if len(values) != 4:
        raise InvalidModel("responses must be (A0, A1, B0, B1)")
    return tuple(_check_sign(r, "response") for r in values)


@dataclass(frozen=True)
class HiddenState:
    """One hidden-variable value: weight, setting conditional, deterministic responses."""

    weight: float
    dist: SettingDist
    responses: tuple[int, int, int, int]  # (A0, A1, B0, B1)

    def __post_init__(self) -> None:
        w = _real(self.weight, "state weight", InvalidModel)
        object.__setattr__(self, "weight", w)
        if not -STRUCT_TOL <= w <= 1.0 + STRUCT_TOL:
            raise InvalidModel(f"state weight {w!r} outside [0, 1]")
        object.__setattr__(self, "responses", _sign_row(self.responses))

    def a(self, x: int) -> int:
        """Alice's response A_x; a setting other than 0 or 1 raises DomainError."""
        return self.responses[_bit(x, "x")]

    def b(self, y: int) -> int:
        """Bob's response B_y; a setting other than 0 or 1 raises DomainError."""
        return self.responses[2 + _bit(y, "y")]


@dataclass(frozen=True)
class Model:
    """A finite separable hidden-variable model with deterministic outcomes.

    Construction also computes the setting marginal p(x, y), raising
    InvalidModel if it is not a distribution, and keeps it for
    derived_marginal and the evaluators; correlators keeps what it computes
    on the model the first time.  Both are functions of the states, so they
    take no part in ==, hash, repr or the JSON form, and
    dataclasses.replace computes them afresh.
    """

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
        object.__setattr__(self, "_marginal", _mixture(states))

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
        table = _reals(self.table, "correlation probability")
        object.__setattr__(self, "table", table)
        if len(table) != 16:
            raise InvalidModel("correlations table needs 16 entries")
        for v in table:
            if not -STRUCT_TOL <= v <= 1.0 + STRUCT_TOL:
                raise InvalidModel(f"correlation probability {v!r} outside [0, 1]")
        for k, (x, y) in enumerate(SETTINGS):
            s = sum(table[4 * k : 4 * k + 4])
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


def _mixture(states: tuple[HiddenState, ...]) -> SettingDist:
    """p(x,y) = sum_lambda p(lambda) p(x,y|lambda), each entry summed state by state."""
    p00 = p01 = p10 = p11 = 0.0
    for st in states:
        w = st.weight
        q00, q01, q10, q11 = st.dist.probs
        p00 += w * q00
        p01 += w * q01
        p10 += w * q10
        p11 += w * q11
    try:
        return SettingDist((p00, p01, p10, p11))
    except InvalidModel as exc:
        raise InvalidModel(f"derived marginal is not a distribution: {exc}") from exc


def derived_marginal(m: Model) -> SettingDist:
    """Mixture setting distribution p(x,y) = sum_lambda p(lambda) p(x,y|lambda).

    The model computes it once, when it is built; this returns that value.
    """
    return m._marginal


def posterior_weights(m: Model, x: int, y: int) -> tuple[float, ...]:
    """Retrocausal view p(lambda | x, y) = p(lambda) p(x,y|lambda) / p(x,y)."""
    k = setting_index(x, y)
    marg = m._marginal.probs[k]
    if marg <= 0.0:
        raise UndefinedCorrelator(f"setting ({x},{y}) has zero probability")
    return tuple(st.weight * st.dist.probs[k] / marg for st in m.states)


def correlators(m: Model) -> tuple[float, float, float, float]:
    """The four correlators <AB>_{xy}, in setting_index order, computed once per model."""
    kept = getattr(m, "_correlators", None)
    if kept is not None:
        return kept
    marg = m._marginal.probs
    out = []
    for k, (x, y) in enumerate(SETTINGS):
        pxy = marg[k]
        if pxy <= 0.0:
            raise UndefinedCorrelator(f"setting ({x},{y}) has zero probability")
        acc = 0.0
        for st in m.states:
            r = st.responses
            acc += st.weight * st.dist.probs[k] * r[x] * r[2 + y]
        out.append(acc / pxy)
    out = tuple(out)
    object.__setattr__(m, "_correlators", out)
    return out


_DEFAULT_PERMUTATION = (1, 1, 1, -1)


def chsh_value(m: Model, permutation: tuple[int, int, int, int] | None = None) -> float:
    """CHSH parameter S = <AB>_00 + <AB>_01 + <AB>_10 - <AB>_11.

    `permutation` selects one of the eight sign-swapped CHSH combinations as a
    tuple of four signs (product must be -1); the default is the standard one.
    """
    if permutation is None:
        signs = _DEFAULT_PERMUTATION
    else:
        signs = tuple(permutation)
        if len(signs) != 4 or any(s not in (-1, 1) for s in signs) or math.prod(signs) != -1:
            raise DomainError("CHSH permutation must be four signs with product -1")
    return sum(map(operator.mul, signs, correlators(m)))


def mutual_information(m: Model) -> float:
    """I(X,Y : Lambda) = H(X,Y) - sum_lambda p(lambda) H_lambda(X,Y), in bits."""
    cond = 0.0
    for st in m.states:
        if st.weight > 0.0:
            cond += st.weight * st.dist.entropy()
    return m._marginal.entropy() - cond


def is_factorized_per_lambda(m: Model) -> bool:
    """True iff every p(x,y|lambda) factorizes: |p00*p11 - p01*p10| <= STRUCT_TOL per state."""
    for st in m.states:
        p = st.dist.probs
        if abs(p[0] * p[3] - p[1] * p[2]) > STRUCT_TOL:
            return False
    return True


def correlations_of(m: Model) -> Correlations:
    """Observable table p(a,b|x,y) = sum_lambda p(lambda|x,y) [a=A_x][b=B_y]."""
    marg = m._marginal.probs
    table = [0.0] * 16
    for k, (x, y) in enumerate(SETTINGS):
        pxy = marg[k]
        if pxy <= 0.0:
            raise UndefinedCorrelator(f"setting ({x},{y}) has zero probability")
        for st in m.states:
            r = st.responses
            table[4 * k + 2 * (r[x] == -1) + (r[2 + y] == -1)] += st.weight * st.dist.probs[k] / pxy
    return Correlations(tuple(table))


def is_nonsignaling(c: Correlations, tol: float = SUM_TOL) -> bool:
    """True iff p(a|x,y) is independent of y and p(b|x,y) independent of x, within tol.

    The marginals are summed from the table as alice_marginal and bob_marginal sum them.
    """
    tol = _real(tol, "is_nonsignaling: tol")
    if not 0.0 <= tol < math.inf:  # a NaN fails this test too
        raise DomainError(f"is_nonsignaling: tol={_quote(tol)} is not a finite number >= 0")
    t = c.table
    for k in (0, 8):  # the rows of (x, 0) and (x, 1) start at 8x and 8x + 4
        j = k + 4
        for a in (0, 2):  # a = +1, -1
            if abs((t[k + a] + t[k + a + 1]) - (t[j + a] + t[j + a + 1])) > tol:
                return False
    for k in (0, 4):  # the rows of (0, y) and (1, y) start at 4y and 4y + 8
        j = k + 8
        for b in (0, 1):  # b = +1, -1
            if abs((t[k + b] + t[k + b + 2]) - (t[j + b] + t[j + b + 2])) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# serialization (schema "bellcost-model/1")
# ---------------------------------------------------------------------------


def model_to_dict(m: Model) -> dict:
    states = []
    for st in m.states:
        if st.dist.marginals is not None:
            dist = {"type": "factorized", "values": list(st.dist.marginals)}
        else:
            dist = {"type": "joint", "values": list(st.dist.probs)}
        states.append({"weight": st.weight, "dist": dist, "responses": list(st.responses)})
    return {"schema": MODEL_SCHEMA, "label": m.label, "states": states}


def model_from_dict(doc: dict) -> Model:
    """A model from its JSON document; errors quote a bad value as _quote does."""
    if not isinstance(doc, dict):
        raise InvalidModel(f"model document must be a JSON object, not {type(doc).__name__} {_quote(doc)}")
    if doc.get("schema") != MODEL_SCHEMA:
        raise InvalidModel(f"unsupported model schema {_quote(doc.get('schema'))}")
    states = []
    try:
        for raw in doc["states"]:
            dist_doc = raw["dist"]
            if dist_doc["type"] == "factorized":
                dist = SettingDist.factorized(*dist_doc["values"])
            elif dist_doc["type"] == "joint":
                dist = SettingDist.joint(dist_doc["values"])
            else:
                raise InvalidModel(f"unknown dist type {_quote(dist_doc['type'])}")
            states.append(HiddenState(raw["weight"], dist, tuple(raw["responses"])))
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidModel(f"malformed model document: {exc!r}") from exc
    return Model(tuple(states), doc.get("label", ""))


def model_to_json(m: Model) -> str:
    return json.dumps(model_to_dict(m), indent=2)


def _reject_constant(name: str) -> float:
    raise InvalidModel(f"model JSON holds the non-finite literal {name}")


def model_from_json(text: str) -> Model:
    """A model from its JSON form; text that is not JSON, or nested too deeply to parse, raises InvalidModel."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except RecursionError:
        raise InvalidModel("model JSON is nested too deeply to parse") from None
    except json.JSONDecodeError as exc:
        raise InvalidModel(f"model JSON does not parse: {exc}") from None
    return model_from_dict(doc)


def save_model(m: Model, path: str) -> None:
    atomic_write_text(path, model_to_json(m) + "\n")


def load_model(path: str) -> Model:
    """Read a model saved by save_model; a file that is not UTF-8 raises InvalidModel."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidModel(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return model_from_json(text)
