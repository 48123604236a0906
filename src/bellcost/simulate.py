"""Seeded Monte-Carlo rounds from a model, with an adversary that predicts every outcome.

Two sampling orders realize the two causal stories: source-first draws the
hidden state and then the settings from its factorized conditionals, while
settings-first draws the settings and then the hidden state from its
posterior.  Both induce the same joint law on (lambda, x, y, a, b).

The round stream comes from numpy's Philox counter-based generator (algorithm
identifier recorded in RNG_ALGORITHM), so identical (model, n, seed, order)
always reproduce the same rounds.  A round log is held as columns
(RoundLog), and every statistic is computed from counts over those columns.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, fields
from enum import Enum, unique

import numpy as np

from ._util import atomic_write_text
from .core import (
    DomainError,
    MissingSetting,
    Model,
    OrderUnavailable,
    SETTINGS,
    derived_marginal,
    is_factorized_per_lambda,
    posterior_weights,
    setting_index,
)

__all__ = [
    "RNG_ALGORITHM",
    "SampleOrder",
    "RoundRecord",
    "RoundLog",
    "EmpiricalStats",
    "sample_rounds",
    "empirical_stats",
    "chsh_standard_error",
    "rounds_to_csv",
    "rounds_from_csv",
]

#: Identifier of the pseudo-random stream backing sample_rounds.
RNG_ALGORITHM = "numpy-philox4x64"

_LOG2 = math.log(2.0)

_CSV_HEADER = ["round", "lambda", "x", "y", "a", "b", "pred_a", "pred_b"]

#: Philox keys are 128-bit.
_SEED_LIMIT = 2**128


@unique
class SampleOrder(Enum):
    SOURCE_FIRST = "source-first"
    SETTINGS_FIRST = "settings-first"


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One experiment round, including the adversary's outcome predictions."""

    lambda_index: int
    x: int
    y: int
    a: int
    b: int
    predicted_a: int
    predicted_b: int


_COLUMNS = tuple(f.name for f in fields(RoundRecord))


@dataclass(frozen=True, eq=False)
class RoundLog:
    """Experiment rounds as seven equal-length, read-only int64 columns.

    Construction validates every round: lambda >= 0, settings x, y in {0, 1},
    outcomes and predictions in {-1, +1}; anything else raises DomainError.
    Iterating yields one RoundRecord per round, and two logs are equal when
    their columns are.
    """

    lambda_index: np.ndarray
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    predicted_a: np.ndarray
    predicted_b: np.ndarray

    def __post_init__(self) -> None:
        for name in _COLUMNS:
            col = np.asarray(getattr(self, name))
            if col.ndim != 1 or col.dtype.kind not in "iu":
                raise DomainError(f"round-log column {name} must be a 1-D integer array")
            col = col.astype(np.int64, copy=False).view()
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        n = len(self.lambda_index)
        if any(len(col) != n for col in self._columns()):
            raise DomainError("round-log columns differ in length")
        _check_column("lambda_index", self.lambda_index >= 0, "a hidden-state index >= 0")
        for name in ("x", "y"):
            col = getattr(self, name)
            _check_column(name, (col == 0) | (col == 1), "a setting 0 or 1")
        for name in ("a", "b", "predicted_a", "predicted_b"):
            _check_column(name, np.abs(getattr(self, name)) == 1, "an outcome -1 or +1")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.lambda_index)

    def __iter__(self):
        return itertools.starmap(RoundRecord, zip(*(col.tolist() for col in self._columns())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundLog):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))


def _check_column(name: str, ok: np.ndarray, expected: str) -> None:
    if not ok.all():
        row = int(np.argmin(ok))
        raise DomainError(f"round {row}: {name} is not {expected}")


@dataclass(frozen=True)
class EmpiricalStats:
    s_hat: float
    info_hat: float
    prediction_accuracy: float


def _generator(seed: int) -> np.random.Generator:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise DomainError(f"seed must be an integer, not {seed!r}")
    if not 0 <= seed < _SEED_LIMIT:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def sample_rounds(m: Model, n: int, seed: int, order: SampleOrder) -> RoundLog:
    """Draw n rounds from the model under the given sampling order.

    Source-first needs per-state factorized conditionals (it samples
    x ~ p(x|lambda) and y ~ p(y|lambda) independently) and raises
    OrderUnavailable otherwise.  Outcomes are set deterministically from the
    response functions, and the adversary's predictions with them.  The seed
    is an integer in [0, 2**128).
    """
    if n < 1:
        raise DomainError("sample_rounds needs n >= 1")
    rng = _generator(seed)
    n_states = len(m.states)

    if order is SampleOrder.SOURCE_FIRST:
        if not is_factorized_per_lambda(m):
            raise OrderUnavailable(
                "source-first sampling needs p(x,y|lambda) = p(x|lambda) p(y|lambda)"
            )
        u = rng.random((n, 3))
        cum_w = np.cumsum([st.weight for st in m.states])
        lam = np.searchsorted(cum_w, u[:, 0], side="right")
        lam = np.minimum(lam, n_states - 1)
        px0 = np.array([st.dist.px0() for st in m.states])
        py0 = np.array([st.dist.py0() for st in m.states])
        xs = (u[:, 1] >= px0[lam]).astype(np.int64)
        ys = (u[:, 2] >= py0[lam]).astype(np.int64)
    elif order is SampleOrder.SETTINGS_FIRST:
        u = rng.random((n, 2))
        marg = derived_marginal(m)
        cum_s = np.cumsum(marg.probs)
        sidx = np.searchsorted(cum_s, u[:, 0], side="right")
        sidx = np.minimum(sidx, 3)
        cum_post = np.zeros((4, n_states))
        for k, (x, y) in enumerate(SETTINGS):
            if marg.prob(x, y) > 0.0:
                cum_post[k] = np.cumsum(posterior_weights(m, x, y))
            else:
                cum_post[k] = 1.0  # never drawn
        lam = (u[:, 1, None] > cum_post[sidx]).sum(axis=1)
        lam = np.minimum(lam, n_states - 1)
        xs = sidx // 2
        ys = sidx % 2
    else:  # pragma: no cover
        raise DomainError(f"unknown sample order {order!r}")

    resp_a = np.array([[st.a(0), st.a(1)] for st in m.states])
    resp_b = np.array([[st.b(0), st.b(1)] for st in m.states])
    avals = resp_a[lam, xs]
    bvals = resp_b[lam, ys]
    return RoundLog(lam, xs, ys, avals, bvals, avals, bvals)


def _counts(rounds: RoundLog) -> tuple[np.ndarray, np.ndarray]:
    """Round counts per (lambda, setting), and per setting the rounds with a == b."""
    sidx = 2 * rounds.x + rounds.y
    n_lam = int(rounds.lambda_index.max(initial=-1)) + 1
    joint = np.bincount(4 * rounds.lambda_index + sidx, minlength=4 * n_lam)
    agree = np.bincount(sidx[rounds.a == rounds.b], minlength=4)
    return joint.reshape(n_lam, 4), agree


def _correlators(joint: np.ndarray, agree: np.ndarray) -> list[tuple[float, int]]:
    """(empirical <ab>, round count) per setting, in SETTINGS order."""
    out = []
    for x, y in SETTINGS:
        k = setting_index(x, y)
        cnt = int(joint[:, k].sum())
        if cnt == 0:
            raise MissingSetting(f"setting ({x},{y}) never occurs in the round log")
        out.append(((2 * int(agree[k]) - cnt) / cnt, cnt))
    return out


def empirical_stats(rounds: RoundLog) -> EmpiricalStats:
    """Plug-in estimates of S, the setting/source information, and the prediction rate."""
    n = len(rounds)
    if n == 0:
        raise DomainError("empirical_stats needs at least one round")
    counts, agree = _counts(rounds)

    s_hat = 0.0
    for (x, y), (corr, _) in zip(SETTINGS, _correlators(counts, agree)):
        s_hat += corr if (x, y) != (1, 1) else -corr

    joint = counts / n
    p_lam = joint.sum(axis=1)
    p_set = joint.sum(axis=0)
    info = 0.0
    for i in range(joint.shape[0]):
        for k in range(4):
            pij = joint[i, k]
            if pij > 0.0:
                info += pij * math.log(pij / (p_lam[i] * p_set[k]))
    info_hat = info / _LOG2

    hits = (rounds.predicted_a == rounds.a) & (rounds.predicted_b == rounds.b)
    return EmpiricalStats(s_hat=s_hat, info_hat=info_hat, prediction_accuracy=float(hits.mean()))


def chsh_standard_error(rounds: RoundLog) -> float:
    """Standard error of the empirical S from the binomial variance of each correlator."""
    var = 0.0
    for corr, cnt in _correlators(*_counts(rounds)):
        var += max(0.0, 1.0 - corr * corr) / cnt
    return math.sqrt(var)


def _csv_rows(columns: tuple[np.ndarray, ...]) -> str:
    """Comma-separated decimal rows with LF endings, one per index of the int64 columns.

    Each row is laid out at a fixed width, with a NUL byte wherever a shorter
    number leaves a place empty; squeezing the NULs out leaves the text.
    """
    n = len(columns[0])
    if n == 0:
        return ""
    layout = [(col, bool((col < 0).any()), len(str(np.abs(col).max()))) for col in columns]
    chars = np.zeros((sum(signed + digits + 1 for _, signed, digits in layout), n), np.uint8)
    pos = 0
    for col, signed, digits in layout:
        if signed:
            chars[pos] = np.where(col < 0, ord("-"), 0)
        pos += signed + digits
        q = np.abs(col)
        for place in range(1, digits + 1):
            leading = q == 0
            q, r = np.divmod(q, 10)
            chars[pos - place] = r + ord("0")
            if place > 1:
                chars[pos - place][leading] = 0
        chars[pos] = ord(",")
        pos += 1
    chars[-1] = ord("\n")
    rows = np.ascontiguousarray(chars.T)
    return rows[rows != 0].tobytes().decode("ascii")


def rounds_to_csv(rounds: RoundLog, path: str | None = None) -> str:
    """Render rounds as CSV `round,lambda,x,y,a,b,pred_a,pred_b` (LF endings)."""
    body = _csv_rows((np.arange(len(rounds)), *rounds._columns()))
    text = ",".join(_CSV_HEADER) + "\n" + body
    if path is not None:
        atomic_write_text(path, text)
    return text


def rounds_from_csv(path: str) -> RoundLog:
    """Read a round log written by rounds_to_csv; a malformed log raises DomainError."""
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header != _CSV_HEADER:
            raise DomainError(f"unexpected round-log header {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header-only log has no rows
                table = np.loadtxt(fh, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise DomainError(f"malformed round log: {exc}") from None
    if table.size == 0:
        table = table.reshape(0, len(_CSV_HEADER))
    if table.shape[1] != len(_CSV_HEADER):
        raise DomainError(f"round-log rows have {table.shape[1]} fields, not {len(_CSV_HEADER)}")
    gaps = np.flatnonzero(table[:, 0] != np.arange(len(table)))
    if gaps.size:
        raise DomainError(f"round column is not 0..n-1: row {gaps[0]} holds {table[gaps[0], 0]}")
    return RoundLog(*np.ascontiguousarray(table[:, 1:].T))
