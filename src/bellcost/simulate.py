"""Seeded Monte-Carlo rounds from a model, with an adversary that predicts every outcome.

Two sampling orders realize the two causal stories: source-first draws the
hidden state and then the settings from its factorized conditionals, while
settings-first draws the settings and then the hidden state from its
posterior.  Both induce the same joint law on (lambda, x, y, a, b).

The round stream comes from numpy's Philox counter-based generator (algorithm
identifier recorded in RNG_ALGORITHM), so identical (model, n, seed, order)
always reproduce the same rounds.  A round log is held as columns
(RoundLog): lambda as int64 and the settings, outcomes and predictions as
int8, 12 bytes a sampled round and 14 a round read back; widen a column with
.astype(np.int64) before arithmetic that can leave the int8 range.  Every
statistic is computed from counts over those columns.
Sampling, counting and writing run in blocks of _BLOCK rounds, and reading in
chunks of about _CHUNK bytes, so their temporaries are bounded by the block or
chunk, not by the number of rounds.

Each hidden state, and settings-first each setting, is drawn as the number of
cumulative weights its uniform passes, counted with one numpy comparison per
weight.

A round log on disk is CSV with one grammar: after the header, lines of 8
comma-separated fields -?[0-9]{1,19} within int64, ended by LF, CRLF or CR;
blank lines are skipped and the last line may lack its ending.  _chunks alone
reads line endings, and hands on LF-ended lines to one numpy tokenizer, which
reads the rows rounds_to_csv writes, walking each line back from its LF.  A
chunk it declines is offered to it again without its blank lines, and if
that fails too, it is read line by line in plain Python against the grammar:
some 30 times the tokenizer's time per row, and 11 times what a numpy
tokenizer of the whole grammar would take.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum, unique
from typing import BinaryIO

import numpy as np

from ._util import atomic_writer
from .core import (
    DomainError,
    MissingSetting,
    Model,
    OrderUnavailable,
    SETTINGS,
    _LOG2,
    _allocation_guard,
    _quote,
    _require_int,
    derived_marginal,
    is_factorized_per_lambda,
    posterior_weights,
    setting_index,
)

__all__ = [
    "RNG_ALGORITHM",
    "SampleOrder",
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

_CSV_HEADER = ["round", "lambda", "x", "y", "a", "b", "pred_a", "pred_b"]
_CSV_HEADER_LINE = ",".join(_CSV_HEADER) + "\n"
_CSV_HEADER_BYTES = _CSV_HEADER_LINE.encode()

#: Rows per block of the round pipeline.  Sampling, counting and writing hold
#: temporaries for one block of rounds, never for all n.
_BLOCK = 1 << 16

#: Bytes of the shortest round line: 8 one-digit fields, 7 commas and its ending.
_ROW_BYTES = 16

#: Bytes per read of rounds_from_csv.  The tokenizer's temporaries
#: for a chunk this size stay in a 2 MiB L2 cache; 1 MiB chunks tokenize slower.
_CHUNK = 1 << 17


@unique
class SampleOrder(Enum):
    SOURCE_FIRST = "source-first"
    SETTINGS_FIRST = "settings-first"


_COLUMNS = ("lambda_index", "x", "y", "a", "b", "predicted_a", "predicted_b")


@dataclass(frozen=True, eq=False)
class RoundLog:
    """Experiment rounds as seven equal-length, read-only columns.

    lambda_index is int64; the settings x, y, the outcomes a, b and the
    predictions are int8.  Construction validates every round before it
    narrows a column: lambda >= 0, settings x, y in {0, 1}, outcomes and
    predictions in {-1, +1}; anything else raises DomainError, so no value
    wraps into a valid one.  An array passed as two columns of one kind, as
    sample_rounds passes a and b again as the predictions, is stored as one
    array.  Two logs are equal when their columns are.
    """

    lambda_index: np.ndarray
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    predicted_a: np.ndarray
    predicted_b: np.ndarray

    def __post_init__(self) -> None:
        given = [np.asarray(getattr(self, name)) for name in _COLUMNS]
        for name, col in zip(_COLUMNS, given):
            if col.ndim != 1 or col.dtype.kind not in "iu":
                raise DomainError(f"round-log column {name} must be a 1-D integer array")
        if any(len(col) != len(given[0]) for col in given):
            raise DomainError("round-log columns differ in length")
        stored = {}  # (id of a given array, its column kind) -> the stored column; given keeps the ids alive
        for name, col in zip(_COLUMNS, given):
            key = (id(col), _KINDS[name])
            if key not in stored:
                if name == "lambda_index":
                    col = col.astype(np.int64, copy=False)  # a uint64 index >= 2**63 wraps below 0 and fails
                _check_column(name, col)
                col = col.astype(_KINDS[name][0], copy=False).view()
                col.flags.writeable = False
                stored[key] = col
            object.__setattr__(self, name, stored[key])

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.lambda_index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundLog):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))


_SETTING = (np.int8, "a setting 0 or 1")
_OUTCOME = (np.int8, "an outcome -1 or +1")
#: Each column's stored dtype and what its values must be.
_KINDS = {
    "lambda_index": (np.int64, "a hidden-state index >= 0"),
    "x": _SETTING,
    "y": _SETTING,
    "a": _OUTCOME,
    "b": _OUTCOME,
    "predicted_a": _OUTCOME,
    "predicted_b": _OUTCOME,
}


def _check_column(name: str, col: np.ndarray, first: int = 0) -> None:
    """Raise DomainError at col's first value that column name may not hold, naming it round first + row."""
    kind = _KINDS[name]
    if kind is _SETTING:
        ok = (col >> 1) == 0
    elif kind is _OUTCOME:
        ok = np.abs(col) == 1
    else:
        ok = col >= 0
    if not ok.all():
        raise DomainError(f"round {first + int(np.argmin(ok))}: {name} is not {kind[1]}")


@dataclass(frozen=True)
class EmpiricalStats:
    """Plug-in estimates of S, the setting/source information and the prediction rate.

    s_standard_error is the standard error of s_hat from the binomial
    variance of each setting's correlator.
    """

    s_hat: float
    info_hat: float
    prediction_accuracy: float
    s_standard_error: float


def _generator(seed: int) -> np.random.Generator:
    message = "seed must be an integer in [0, 2**128), not {}"  # Philox keys are 128-bit
    _require_int(seed, 0, message)
    if seed >= 2**128:
        raise DomainError(message.format(_quote(seed)))
    # Philox(key=seed) would also seed an unused SeedSequence() from OS entropy, a syscall per
    # generator; a fixed-seed Philox takes the key in its state, with counter 0 and an empty buffer
    bits = np.random.Philox(0)
    state = bits.state
    state["state"]["key"] = np.array([int(seed) & (2**64 - 1), int(seed) >> 64], dtype=np.uint64)
    bits.state = state
    return np.random.Generator(bits)


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive row slices of at most _BLOCK rows that cover range(n)."""
    return (slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK))


def _round_blocks(
    m: Model, n: int, seed: int, order: SampleOrder
) -> Iterator[tuple[slice, tuple[np.ndarray, ...]]]:
    """Check the arguments of sample_rounds, then return its rounds block by block.

    The iterator yields (rows, (lambda, x, y, a, b)) per block of _blocks(n),
    lambda as int64 and the rest as int8; the adversary's predictions are a
    and b.  Each block draws its uniforms as one (rows, k) array, and Philox
    fills consecutive blocks with consecutive rows of the single (n, k) draw,
    so the rounds do not depend on the block size.
    """
    _require_int(n, 1, "sample_rounds needs an integer n >= 1, not {}")
    rng = _generator(seed)
    n_states = len(m.states)

    # Each index is drawn as the number of ascending cumulative weights its
    # uniform passes.  Only the first len - 1 weights are thresholds, so a
    # uniform past every weight (the cumsum may round below 1) takes the last
    # index: the counts are np.searchsorted's capped at len - 1.
    if order is SampleOrder.SOURCE_FIRST:
        if not is_factorized_per_lambda(m):
            raise OrderUnavailable(
                "source-first sampling needs p(x,y|lambda) = p(x|lambda) p(y|lambda)"
            )
        cum_w = np.cumsum([st.weight for st in m.states])[:-1]
        px0 = np.array([st.dist.px0() for st in m.states])
        py0 = np.array([st.dist.py0() for st in m.states])
        width = 3

        def draw(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            lam = _passed(cum_w, u[0]).astype(np.intp)
            xs = (u[1] >= px0.take(lam)).view(np.int8)
            ys = (u[2] >= py0.take(lam)).view(np.int8)
            return lam, xs, ys

    elif order is SampleOrder.SETTINGS_FIRST:
        marg = derived_marginal(m)
        cum_s = np.cumsum(marg.probs)[:-1]
        # the posterior's cumulative weights, one contiguous column of 4 settings per threshold
        cum_post = np.ones((n_states - 1, 4))  # a setting never drawn keeps 1.0
        for k, (x, y) in enumerate(SETTINGS):
            if marg.probs[k] > 0.0:
                cum_post[:, k] = np.cumsum(posterior_weights(m, x, y))[:-1]
        width = 2

        def draw(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            sidx = _passed(cum_s, u[0])
            wide = sidx.astype(np.intp)
            # the posterior's strict `>`: a uniform equal to a weight stays below it
            lam = np.zeros(len(wide), np.min_scalar_type(-len(cum_post)))
            for col in cum_post:
                lam += u[1] > col.take(wide)
            return lam.astype(np.intp), sidx >> 1, sidx & 1

    else:  # pragma: no cover
        raise DomainError(f"unknown sample order {order!r}")

    # each state's responses at 2 lambda + setting
    resp_a = np.array([st.responses[:2] for st in m.states], np.int8).ravel()
    resp_b = np.array([st.responses[2:] for st in m.states], np.int8).ravel()

    def blocks():
        for rows in _blocks(n):
            u = rng.random((rows.stop - rows.start, width)).T.copy()  # each uniform a contiguous row
            lam, xs, ys = draw(u)
            twice = lam + lam
            yield rows, (lam, xs, ys, resp_a.take(twice + xs), resp_b.take(twice + ys))

    return blocks()


def _passed(thresholds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each u, how many of the ascending thresholds t hold t <= u, as the narrowest signed type.

    That is np.searchsorted(thresholds, u, side="right"), counted with one
    comparison per threshold.
    """
    count = np.zeros(len(u), np.min_scalar_type(-len(thresholds)))  # the narrowest signed type to hold them
    for t in thresholds:
        count += u >= t
    return count


def sample_rounds(m: Model, n: int, seed: int, order: SampleOrder) -> RoundLog:
    """Draw n rounds from the model under the given sampling order.

    Source-first needs per-state factorized conditionals (it samples
    x ~ p(x|lambda) and y ~ p(y|lambda) independently) and raises
    OrderUnavailable otherwise.  Outcomes are set deterministically from the
    response functions, and the adversary's predictions with them.  n is an
    integer >= 1 and the seed an integer in [0, 2**128); anything else, or a
    log too large to allocate, raises DomainError.  Besides the log itself,
    sampling holds one block of rounds.
    """
    blocks = _round_blocks(m, n, seed, order)
    with _allocation_guard(f"sample_rounds: a log of n = {_quote(int(n))} rounds"):
        lam = np.empty(n, np.int64)
        narrow = np.empty((4, n), np.int8)
    for rows, (lam_rows, *rest) in blocks:
        lam[rows] = lam_rows
        for col, values in zip(narrow, rest):
            col[rows] = values
    xs, ys, avals, bvals = narrow
    return RoundLog(lam, xs, ys, avals, bvals, avals, bvals)


def _ranks(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct hidden states of a block, ascending, and each round's rank among them.

    A table over 0..max(lam) is cheaper than a sort while it is no longer than
    twice the block; a sparse index such as 2**62 is sorted instead.  When
    every state 0..max(lam) occurs, each round's rank is its state.
    """
    top = int(lam.max()) + 1
    if top > 2 * len(lam):
        return np.unique(lam, return_inverse=True)
    present = np.bincount(lam, minlength=top) > 0
    if present.all():
        return np.arange(top), lam
    return np.flatnonzero(present), np.cumsum(present)[lam] - 1


class _Tally:
    """Round counts that blocks of rounds add to, and the estimators read off them.

    The counts are per (hidden state, setting), over the states that occur, in
    ascending order; per setting, the rounds with a == b; and the rounds whose
    outcomes were both predicted.  They are integers, so a log counted block by
    block gives the same estimator bits as counted whole.
    """

    def __init__(self) -> None:
        self.states = np.zeros(0, np.int64)
        self.joint = np.zeros((0, 4), np.int64)
        self.agree = np.zeros(4, np.int64)
        self.hits = 0

    def add(self, lam, x, y, a, b, pred_a, pred_b) -> None:
        states, rank = _ranks(lam)
        if not len(self.states):  # the first block
            self.states, self.joint = states, np.zeros((len(states), 4), np.int64)
        elif not np.array_equal(states, self.states):
            # return_inverse also keeps np.unique from importing numpy.ma (~1.7 MB resident)
            merged, where = np.unique(np.concatenate([self.states, states]), return_inverse=True)
            joint = np.zeros((len(merged), 4), np.int64)
            joint[where[: len(self.states)]] = self.joint
            self.states, self.joint = merged, joint
        # one count per (state rank, setting 2x + y, a == b)
        code = 8 * rank
        code += 4 * x
        code += 2 * y
        code += a == b
        counts = np.bincount(code, minlength=8 * len(states)).reshape(-1, 4, 2)
        self.joint[np.searchsorted(self.states, states)] += counts.sum(axis=2)
        self.agree += counts[:, :, 1].sum(axis=0)
        self.hits += int(np.count_nonzero((pred_a == a) & (pred_b == b)))

    def stats(self) -> EmpiricalStats:
        n = int(self.joint.sum())
        if n == 0:
            raise DomainError("empirical_stats needs at least one round")

        # the loops read Python ints and floats: the same arithmetic as on numpy scalars, unboxed
        counts, agree = self.joint.sum(axis=0).tolist(), self.agree.tolist()
        s_hat = var = 0.0
        for x, y in SETTINGS:
            k = setting_index(x, y)
            cnt = counts[k]
            if cnt == 0:
                raise MissingSetting(f"setting ({x},{y}) never occurs in the round log")
            corr = (2 * agree[k] - cnt) / cnt
            s_hat += corr if (x, y) != (1, 1) else -corr
            var += max(0.0, 1.0 - corr * corr) / cnt

        joint = self.joint / n
        p_set = joint.sum(axis=0).tolist()
        info = 0.0
        for row, p_lam in zip(joint.tolist(), joint.sum(axis=1).tolist()):
            for pij, p_xy in zip(row, p_set):
                if pij > 0.0:
                    info += pij * math.log(pij / (p_lam * p_xy))
        return EmpiricalStats(
            s_hat=s_hat,
            info_hat=float(info / _LOG2),
            prediction_accuracy=self.hits / n,
            s_standard_error=math.sqrt(var),
        )


def _tally(rounds: RoundLog) -> _Tally:
    tally = _Tally()
    columns = rounds._columns()
    for rows in _blocks(len(rounds)):
        tally.add(*(col[rows] for col in columns))
    return tally


def empirical_stats(rounds: RoundLog) -> EmpiricalStats:
    """Plug-in estimates of S, its standard error, the setting/source information, and the prediction rate.

    A log with no rounds raises DomainError; one missing a setting raises MissingSetting.
    """
    return _tally(rounds).stats()


def chsh_standard_error(rounds: RoundLog) -> float:
    """Standard error of the empirical S: empirical_stats(rounds).s_standard_error."""
    return empirical_stats(rounds).s_standard_error


def _sample_summary(
    m: Model, n: int, seed: int, order: SampleOrder, out: BinaryIO | None = None
) -> EmpiricalStats:
    """empirical_stats of sample_rounds(m, n, seed, order).

    The rounds are drawn, counted and, when out is given, written to it as the
    bytes of rounds_to_csv one block at a time, so no more than one block of
    rounds is ever held.
    """
    blocks = _round_blocks(m, n, seed, order)
    tally = _Tally()
    if out is not None:
        out.write(_CSV_HEADER_BYTES)
    for rows, (lam, xs, ys, avals, bvals) in blocks:
        block = (lam, xs, ys, avals, bvals, avals, bvals)
        tally.add(*block)
        if out is not None:
            out.write(_csv_rows(rows, block))
    return tally.stats()


def _csv_rows(rows: slice, columns: Sequence[np.ndarray]) -> bytes:
    """One block's CSV rows as LF-ended ASCII bytes: the round numbers of rows, then the columns.

    Each row is laid out at a fixed width, one place per byte of a (places,
    rows) array, with a NUL byte wherever a shorter number leaves a place
    empty.  The array's transpose as bytes, with the NULs deleted, is the text.
    """
    columns = (np.arange(rows.start, rows.stop), *columns)
    n = len(columns[0])
    if n == 0:
        return b""
    layout = []
    for col in columns:
        low, high = int(col.min()), int(col.max())
        layout.append((col, low < 0, len(str(max(-low, high)))))
    chars = np.zeros((sum(signed + digits + 1 for _, signed, digits in layout), n), np.uint8)
    pos = 0
    for col, signed, digits in layout:
        q = col
        if signed:
            # a product, not np.where or a mask: both branch on every row of a random sign
            chars[pos] = (col < 0).view(np.uint8) * np.uint8(ord("-"))
            q = np.abs(col)
        pos += signed + digits
        for place in range(1, digits + 1):
            if place < digits:
                hi = q // 10  # np.divmod costs 2-4x a floor divide on int64
                chars[pos - place] = q - 10 * hi + ord("0")
            else:
                chars[pos - place] = q + ord("0")  # q < 10 in every row at the last place
            if place > 1:
                chars[pos - place] *= (q != 0).view(np.uint8)  # a leading place stays NUL
            if place < digits:
                q = hi
        chars[pos] = ord(",")
        pos += 1
    chars[-1] = ord("\n")
    return chars.T.tobytes().translate(None, b"\0")


def rounds_to_csv(rounds: RoundLog, path: str | None = None) -> str:
    """Render rounds as CSV `round,lambda,x,y,a,b,pred_a,pred_b` (LF endings).

    The text is rendered one block of rounds at a time.  When path is given,
    each block's bytes are written to it as they are made, and the file
    replaces path atomically once the last block is written; the returned text
    is joined from the blocks' decoded pieces.
    """
    columns = rounds._columns()
    pieces = [_CSV_HEADER_LINE]
    out = contextlib.nullcontext() if path is None else atomic_writer(path)
    with out as fh:
        if fh is not None:
            fh.write(_CSV_HEADER_BYTES)
        for rows in _blocks(len(rounds)):
            data = _csv_rows(rows, [col[rows] for col in columns])
            if fh is not None:
                fh.write(data)
            pieces.append(data.decode("ascii"))
    return "".join(pieces)


def _canonical_rows(buf: bytes, n: int, lam: np.ndarray, narrow: np.ndarray) -> int | None:
    """Store a chunk of canonical rows, rounds n, n+1, ..., and return how many, or None if it is not one.

    buf is an LF sentinel followed by LF-ended lines.  A canonical row is one
    rounds_to_csv writes: the round in its canonical digits, lambda in 1 to 18
    digits with no leading zero, x and y each 0 or 1, and a, b and the
    predictions each 1 or -1.  Each line is read back from its LF through the
    six fixed-alphabet fields, and from its start through the round's digits;
    lambda is what lies between.  Every comma and `-` found on the way is
    checked in place, so the chunk is canonical only if its digit bytes are all
    the rest.  The lambda values go to the start of the int64 column lam and
    the other six to the start of the (6, rows) int8 block narrow; a chunk
    that is not canonical, or has more rows than they hold, stores nothing.
    """
    lf, comma, minus, one = b"\n,-1"
    b = np.frombuffer(buf, np.uint8)
    if len(b) < 2 or b[0] != lf or b[-1] != lf:
        return None
    ends = np.flatnonzero(b == lf)  # the sentinel, then each line's LF
    rows = len(ends) - 1
    stop = n + rows
    if not rows or rows > len(lam) or stop > 10**18 or np.diff(ends).min() < _ROW_BYTES:
        return None  # a line shorter than any row, so the walk stays in the line
    ok = np.ones(rows, bool)
    block = np.empty((6, rows), np.int8)
    minuses = 0
    at = ends[1:]  # each line's LF, then the comma before each field walked
    for k in (5, 4, 3, 2):  # pred_b, pred_a, b, a: `1` or `-1`
        ok &= b.take(at - 1) == one
        negative = b.take(at - 2) == minus
        minuses += np.count_nonzero(negative)
        at = at - 2 - negative
        ok &= b.take(at) == comma
        np.subtract(1, negative.view(np.int8) << 1, out=block[k])
    digit = b - np.uint8(ord("0"))  # wraps, so only a digit byte reads below 10
    for k in (1, 0):  # y, x: `0` or `1`
        block[k] = digit.take(at - 1)
        at = at - 2
        ok &= b.take(at) == comma
    # the round's canonical digits: every row of the chunk has width of them, or one more past each power of ten
    width = np.full(rows, len(str(n)))
    power = 10 ** len(str(n))
    while power < stop:
        width[power - n :] += 1
        power *= 10
    starts = ends[:-1] + 1
    ok &= b.take(starts + width) == comma
    size = at - starts - width - 1  # lambda's digits
    ok &= (size >= 1) & (size <= 18)
    # the commas and `-` found are bytes no other check counted, and the rest must be digits
    if (
        not ok.all()
        or not (block[:2].view(np.uint8) < 2).all()
        or np.count_nonzero(digit < 10) != len(b) - 8 * rows - 1 - minuses
    ):
        return None
    rounds = _digits_value(digit, starts + width - 1, width)
    values = _digits_value(digit, at - 1, size)
    if not np.array_equal(rounds, np.arange(n, stop)) or (values < _LEAST.take(size - 1)).any():
        return None  # a round out of sequence, or a lambda with a leading zero
    lam[:rows] = values
    narrow[:, :rows] = block
    return rows


#: The least value of a k + 1 digit number with no leading zero, for k = 0..17.
_LEAST = np.array([0] + [10**k for k in range(1, 18)], np.int64)


def _digits_value(digit: np.ndarray, last: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The int64 values of the fields of 1 to 18 digits whose last digit is at last and that have size digits.

    digit holds each byte's value less ord("0"), wrapped to uint8.
    """
    value = digit.take(last).astype(np.int64)
    shortest = int(size.min())
    for place in range(1, int(size.max())):
        # a field shorter than place + 1 digits reads a byte before it (or byte 0) as 0
        tens = digit.take(last - place, mode="clip")
        if place >= shortest:
            tens[size <= place] = 0
        value += np.multiply(tens, 10**place, dtype=np.int64)  # uint8 digits, int64 products
    return value


def _chunks(fh: BinaryIO) -> Iterator[bytes]:
    """The rest of fh in chunks of about _CHUNK bytes, each an LF sentinel followed by LF-ended lines.

    The only reader of line endings.  A chunk is cut after the last LF of a
    read, or in a read with no LF after its last CR but one (the CR that ends
    a read may start a CRLF), so no CRLF is split; a line longer than a read
    is joined from several reads.  Then CRLFs and CRs become LFs, and the last
    line gets one if it has no ending, so a chunk holds the file's lines one for one.
    """

    def lf_lines(*parts: bytes) -> bytes:
        buf = b"".join(parts)
        return buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in buf else buf

    head = [b"\n"]
    while data := fh.read(_CHUNK):
        cut = data.rfind(b"\n") + 1 or data.rfind(b"\r", 0, -1) + 1
        if cut:
            yield lf_lines(*head, data[:cut])
            head = [b"\n"]
        head.append(data[cut:])
    if any(head[1:]):
        yield lf_lines(*head, b"\n")  # the last line holds no LF; a CR that ends it makes a CRLF


#: A line of the round-log grammar: 8 comma-separated fields of 1 to 19 digits, each maybe negative.
_ROUND_LINE = re.compile(rb"-?[0-9]{1,19}(,-?[0-9]{1,19}){7}")


def _other_rows(buf: bytes, first: int, lam: np.ndarray, narrow: np.ndarray, n: int) -> tuple[int, int]:
    """Store a chunk that _canonical_rows declined, whose first line is file line first.

    Returns the next n and the number of lines in the chunk.  The chunk's
    lines less the blank ones are offered to _canonical_rows once more; if it
    declines them too, each line is read in plain Python: a line of the
    grammar whose fields are all below 2**63 in magnitude, else DomainError
    names it.  The rows then go through _store.
    """
    lines = buf[1:-1].split(b"\n")
    kept = [line for line in lines if line]
    if not kept:
        return n, len(lines)
    if len(kept) < len(lines):
        stored = _canonical_rows(b"\n%s\n" % b"\n".join(kept), n, lam[n:], narrow[:, n:])
        if stored is not None:
            return n + stored, len(lines)
    rows, line_nos = [], []
    for line_no, line in enumerate(lines, first):
        if not line:
            continue
        values = [int(field) for field in line.split(b",")] if _ROUND_LINE.fullmatch(line) else None
        if values is None or max(map(abs, values)) >= 2**63:
            text = line.decode(errors="replace")
            raise DomainError(f"line {line_no}: {text!r} is not a round of 8 integer fields")
        rows.append(values)
        line_nos.append(line_no)
    return _store(lam, narrow, n, np.array(rows, np.int64).T, line_nos), len(lines)


def _store(lam: np.ndarray, narrow: np.ndarray, n: int, fields: np.ndarray, lines: Sequence[int]) -> int:
    """Check that a block's (8, rows) fields are rounds n, n+1, ..., store them and return the next n.

    lambda goes to the int64 column lam and the other six, once RoundLog's
    checks pass on them (naming the log's round), to the (6, rows) int8 block
    narrow; lines[row] is the file line of the block's row, for the round-column error.
    """
    rows = slice(n, n + fields.shape[1])
    if rows.stop > len(lam):
        raise DomainError("round log grew while it was read")
    gaps = np.flatnonzero(fields[0] != np.arange(rows.start, rows.stop))
    if gaps.size:
        row = int(gaps[0])
        raise DomainError(
            f"line {lines[row]}: round column holds {fields[0, row]}, not {rows.start + row}"
        )
    for name, col in zip(_COLUMNS, fields[1:]):
        _check_column(name, col, n)
    lam[rows] = fields[1]
    narrow[:, rows] = fields[2:]
    return rows.stop


def _row_bound(fh: BinaryIO) -> int:
    """The most rounds fh's file holds after its header: _ROW_BYTES a line, less the last one's ending."""
    return max(os.fstat(fh.fileno()).st_size - len(_CSV_HEADER_BYTES) + 1, 0) // _ROW_BYTES


def rounds_from_csv(path: str) -> RoundLog:
    """Read a round log written by rounds_to_csv; a malformed log raises DomainError.

    After the header line, every line is a round of 8 comma-separated fields
    -?[0-9]{1,19} within int64, so a `+`, a space, a tab, a 20th digit or a
    magnitude of 2**63 or more is an error.  Lines may end in LF, CRLF or CR,
    the last one may lack its ending, and blank lines are skipped; an error
    names its file line.  The file is read once, in chunks of about 128 KiB,
    into columns allocated once and sized by its byte count (a round line
    takes at least 16 bytes), so a file too large for them to fit in memory
    raises DomainError.  Chunks of the rows rounds_to_csv writes, whatever
    their endings and with or without blank lines, take one numpy tokenizer;
    any other chunk is read line by line in plain Python, some 30 times
    slower per row.  Each chunk's values are checked, as RoundLog checks
    them, before they are narrowed.
    """
    with open(path, "rb") as fh:
        bound = _row_bound(fh)
        with _allocation_guard(f"rounds_from_csv: a log of up to {bound} rounds"):
            lam = np.empty(bound, np.int64)
            narrow = np.empty((len(_COLUMNS) - 1, bound), np.int8)
        head = fh.readline(len(_CSV_HEADER_BYTES))
        if head.rstrip(b"\r\n") != _CSV_HEADER_BYTES[:-1]:
            line = (head + fh.readline(256)).splitlines() or [b""]
            header = line[0].decode(errors="replace").split(",")
            raise DomainError(f"unexpected round-log header {header!r}")
        if head.endswith(b"\r") and fh.peek(1)[:1] == b"\n":
            fh.read(1)  # the LF of a CRLF
        n, first = 0, 2  # first: the file line of the chunk's first line
        for buf in _chunks(fh):
            stored = _canonical_rows(buf, n, lam[n:], narrow[:, n:])
            if stored is None:
                n, lines = _other_rows(buf, first, lam, narrow, n)
            else:
                n, lines = n + stored, stored
            first += lines
    return RoundLog(lam[:n], *narrow[:, :n])
