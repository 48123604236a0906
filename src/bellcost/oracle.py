"""Independent brute-force verification of the minimal-information curves.

The search space is the grid family the optimality proofs reduce to: four
equal-weight states, one per (mu, nu) response class of _geometry with the
canonical signs, and per-state setting conditionals quantized to multiples of 1/N
(joint grid for the retrocausal class, factorized for causal, factorized
with an unbiased Y side for one-sided).  Feasible points must reproduce the
uniform setting distribution exactly and reach the target CHSH value; the
search returns the least mutual information over all of them.

With exact uniformity every feasible point is a bona fide uniform-settings
model, so the analytic curve at its achieved S is a rigorous lower bound on
its information cost; the searches here verify that the curves are attained
up to grid resolution.

The enumeration is exhaustive but organized as a meet-in-the-middle scan.
The retrocausal and causal searches tabulate two halves, ordered state pairs,
as rows (key, special mass q, entropy sum) and join them in one pass,
_pair_join, on exactly complementary keys with the q sum within the budget.
A retrocausal half holds every ordered pair of the states kept in its two
roles whose cell sums fit the grid, keyed by those sums.  The two causal
halves are one set of ordered state pairs within the special-product
budget, enumerated once and read under two class maps; each half is keyed
by its summed raw marginals.  The one-sided search needs no join: its
marginal constraint gives both state pairs the same total t <= T =
budget // 2, so one split table of pair entropies over (t, first state),
(T+1)(min(T, N)+1) cells, bounds every point, and only the points within
1e-12 of that bound are summed exactly.
Ties resolve to the first hit in a fixed order: the join's first A row with
the greatest total (retrocausal rows by (q, cell sums, pair), causal pairs
lexicographic) and its first best partner by (key, q); the one-sided search's
first lexicographic (a1, a2, a3) of the left-to-right entropy sum.

A point's information is 2 - (sum of its four state entropies)/4, so once
the best entropy sum is known to be at least a floor F, only states and
state pairs that can still reach F with the rest of the point matter.  A
rest table R bounds that rest: R[m] = C_k(budget - m), -inf past the budget,
where C_k(r) = k hull(r/k) is the most entropy k grid states hold with
special masses summing to at most r, and hull is the upper concave hull of
the best single-state entropy with special mass at most a given value, read
off the grid.  A state is kept in a role, one of the four special cells,
only if its entropy plus R[its special mass there] (k = 3) reaches F, and a
retrocausal half pairs every first state kept in its role with every second
state kept in its own; a causal pair within the budget is kept only if its
entropy plus R[its special mass] (k = 2) reaches F.  The retrocausal and
causal searches take F from a feasible grid point of their own family, the
incumbent, and run one pass pruned that way.  The retrocausal incumbent is
the best circulant with an even special total, improved at an odd budget by
the best one-unit exchange between two of its states that spends the odd
unit; the causal one is four equal factorized states.  The tighter F is, the
fewer states survive: at N = 24 and an odd budget of 3 the exchange keeps 16
of 2 925 states where the circulant alone kept 844.  Incumbent and rest
table are built from the grid alone, and every point within the tie
tolerances of the optimum survives the pruning, so the value and witness are
those of the unpruned search.

The oracle reads the response classes and the witness builder from
_geometry and the rest from core, never the models or the curves it verifies.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._geometry import LAMBDA_CLASSES, SPECIAL, class_model, flip_marginals
from .core import (
    CausalClass,
    DomainError,
    Model,
    NoFeasibleModel,
    SettingDist,
    _LOG2,
    _allocation_guard,
    _binary_entropies,
    _exact_log,
    _quote,
    _real,
    _require_int,
    mutual_information,
)

__all__ = ["SearchConfig", "SearchResult", "brute_force_min_info"]

#: Slack (bits) under every pruning threshold.  It dwarfs the rounding of a
#: four-term entropy sum, so equal-value ties resolve to the same first hit as unpruned.
_MARGIN = 1e-6

#: Most ordered option pairs one retrocausal half may enumerate; the pruned
#: search keeps a few options per role, so only a floor far under the optimum nears it.
_MAX_PAIRS = 2**20


@dataclass(frozen=True)
class SearchConfig:
    """Grid search parameters.

    resolution is the probability grid denominator N; tolerance is the slack
    subtracted from target_s when testing feasibility (the uniform-marginal
    constraint is enforced exactly on the grid).
    """

    resolution: int
    target_s: float
    causal_class: CausalClass
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        _require_int(self.resolution, 4, "SearchConfig: resolution must be an int >= 4, got {}")
        for name in ("target_s", "tolerance"):
            value = _real(getattr(self, name), f"SearchConfig: {name}")
            if not math.isfinite(value):
                raise DomainError(f"SearchConfig: {name} must be a finite number, got {_quote(value)}")
            object.__setattr__(self, name, value)
        if self.tolerance <= 0.0:
            raise DomainError("SearchConfig: tolerance must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Least information on the grid and its witness, with how the search got there.

    states_searched counts the per-state grid options the pruned search kept
    in at least one of the four state roles, and states_total the options
    the grid holds.  incumbent_info, 2 - (entropy sum)/4 of the feasible point
    whose sum set the pruning floor, is not below best_info, the witness's
    mutual_information, by more than rounding; None for the one-sided search.
    """

    best_info: float
    best_model: Model
    states_searched: int
    states_total: int
    incumbent_info: float | None = None


def brute_force_min_info(cfg: SearchConfig) -> SearchResult:
    """Minimal mutual information over the feasible grid family, with a witness model.

    A grid whose arrays cannot be allocated raises DomainError.
    """
    if cfg.causal_class is CausalClass.RETROCAUSAL:
        search = _search_retrocausal
    elif cfg.causal_class is CausalClass.CAUSAL:
        search = _search_causal
    elif cfg.causal_class is CausalClass.ONE_SIDED:
        search = _search_one_sided
    else:
        raise DomainError(
            "brute_force_min_info supports the retrocausal, causal and one-sided classes"
        )
    with _allocation_guard(f"brute_force_min_info: the N = {_quote(int(cfg.resolution))} grid"):
        return search(cfg)


def _grid_result(
    cfg: SearchConfig, label: str, dists: list[SettingDist], states_searched: int, states_total: int,
    floor: float | None = None,
) -> SearchResult:
    """SearchResult for the four-state grid witness with setting conditionals dists.

    floor is the incumbent's entropy sum; four equal-weight states with a
    uniform marginal carry 2 - (sum of their entropies)/4 bits.
    """
    model = class_model(dists, f"{label}(N={cfg.resolution}, target={cfg.target_s!r})")
    incumbent_info = None if floor is None else 2.0 - floor / 4.0
    return SearchResult(mutual_information(model), model, states_searched, states_total, incumbent_info)


# ---------------------------------------------------------------------------
# retrocausal: joint grid
# ---------------------------------------------------------------------------


def _compositions4(total: int) -> np.ndarray:
    """All nonnegative integer 4-vectors summing to total, in lexicographic order; output allocated first."""
    out = np.empty((math.comb(total + 3, 3), 4), dtype=np.int64)
    rows, free = np.zeros((1, 0), dtype=np.int64), np.array([total], dtype=np.int64)
    for _ in range(3):  # each row r with f units left becomes f + 1 rows (r, 0) .. (r, f)
        counts = free + 1
        step = np.arange(counts.sum(), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), step])
        free = np.repeat(free, counts) - step
    out[:, :3], out[:, 3] = rows, free
    return out


@functools.lru_cache(maxsize=64)
def _grid_entropies(n: int, k: int | None = None) -> np.ndarray:
    """h(j/n) for j = 0..k (all of 0..n by default), each binary_entropy(j / n) bit for bit, read-only."""
    h = _binary_entropies(np.arange((n if k is None else k) + 1) / n)
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=8)
def _entropy_terms(n: int) -> np.ndarray:
    """-p ln p at p = k/n for k = 0..n, 0 at k = 0, with math.log, read-only."""
    p = np.arange(1, n + 1) / n
    terms = np.concatenate(([0.0], -p * _exact_log(p)))
    terms.flags.writeable = False
    return terms


def _row_entropies(counts: np.ndarray, n: int) -> np.ndarray:
    """Entropy (bits) of each row of grid counts; every count must lie in 0..n (-1 reads the n term)."""
    return _entropy_terms(n)[counts].sum(axis=1) / _LOG2


def _floor_budget(cfg: SearchConfig, slack: float, cap: int) -> int:
    """floor(slack + 1e-12) clipped to cap (slack may overflow to +-inf).

    A negative slack means cfg's target lies beyond every grid point.
    """
    slack += 1e-12
    if slack < 0.0:
        raise NoFeasibleModel(f"target S {cfg.target_s!r} unreachable on the grid")
    return math.floor(min(slack, cap))


def _special_budget(cfg: SearchConfig, scale: int) -> int:
    """Largest allowed total special-cell mass (in grid units of 1/scale per state)."""
    return _floor_budget(cfg, _real(scale, "grid scale") * (4.0 - cfg.target_s + cfg.tolerance) / 2.0, 4 * scale)


def _entropy_hull(masses: np.ndarray, entropies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the upper concave hull of psi(x), the best entropy with special mass <= x.

    psi is a running maximum over one state's grid options (masses are their
    special masses, nonnegative ints); it only rises at integer x, so the
    hull of the points (x, psi(x)) where it rises bounds it everywhere.
    """
    psi = np.full(int(masses.max()) + 1, -np.inf)
    np.maximum.at(psi, masses, entropies)
    np.maximum.accumulate(psi, out=psi)
    hull: list[tuple[int, float]] = []
    for x in np.flatnonzero(np.diff(psi, prepend=-np.inf) > 0).tolist():
        y = float(psi[x])
        # drop the last vertex while it lies on or under the chord from the one before to (x, y)
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2:]
            if (y1 - y0) * (x - x0) > (y - y0) * (x1 - x0):
                break
            hull.pop()
        hull.append((x, y))
    xs, ys = (np.array(column, dtype=float) for column in zip(*hull))
    xs.flags.writeable = ys.flags.writeable = False  # cached per grid
    return xs, ys


def _rest(hull: tuple[np.ndarray, np.ndarray], budget: int, k: int, size: int) -> np.ndarray:
    """R[m] for m = 0..size-1: the most entropy k more grid states hold beside special mass m.

    R[m] = C_k(budget - m) = k hull((budget - m) / k) for m <= budget, -inf
    past it.  C_k(r) bounds the entropy sum of k states whose special masses
    sum to at most r: each holds at most hull(its mass), and the hull is
    concave and nondecreasing (flat past its last vertex).
    """
    rest = np.full(size, -np.inf)
    spare = budget - np.arange(min(size, budget + 1))
    rest[: len(spare)] = k * np.interp(spare / k, *hull)
    return rest


@functools.lru_cache(maxsize=8)
def _retro_options(n: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Per-state joint grid options (lexicographic), their entropies and _entropy_hull, read-only.

    Every cell has the same mass distribution, so the hull takes cell 0 as special.
    """
    options = _compositions4(n)
    entropies = _row_entropies(options, n)
    options.flags.writeable = entropies.flags.writeable = False
    return options, entropies, _entropy_hull(options[:, 0], entropies)


def _retro_pairs(
    options: np.ndarray, entropies: np.ndarray, reach: np.ndarray, sp_first: int, sp_second: int, n: int, budget: int,
) -> tuple[np.ndarray, ...]:
    """Ordered state pairs of one half, as rows (first, second, cells, q, value), lexicographic.

    first indexes an option reach[sp_first] keeps and second one
    reach[sp_second] keeps (reach[c]: the options that can reach the floor
    with special cell c).  Every such pair whose four cell sums are at most
    n, so that it completes to an exactly uniform model, and whose special
    mass q is at most budget is a row; cells is the flat (n+1)^3 index of
    its first three cell sums and value its entropy sum.  (q, cells) may
    repeat.  A half of more than _MAX_PAIRS ordered pairs raises DomainError
    before any pair is built.
    """
    first, second = np.flatnonzero(reach[sp_first]), np.flatnonzero(reach[sp_second])
    if len(first) * len(second) > _MAX_PAIRS:
        raise DomainError(
            f"brute_force_min_info: a retrocausal half would pair {len(first)} x {len(second)} "
            f"grid options, more than {_MAX_PAIRS}"
        )
    u, v = options[first], options[second]
    fits = u[:, sp_first, None] + v[None, :, sp_second] <= budget
    for c in range(4):
        fits &= u[:, c, None] + v[None, :, c] <= n
    i, j = np.nonzero(fits)
    c0, c1, c2 = (u[i, c] + v[j, c] for c in range(3))
    q = u[i, sp_first] + v[j, sp_second]
    first, second = first[i], second[j]
    return first, second, (c0 * (n + 1) + c1) * (n + 1) + c2, q, entropies[first] + entropies[second]


def _exchange(i: int, c: int, j: int) -> np.ndarray:
    """4x4 count change: state i moves a unit from cell c onto its special cell, state j one back to c."""
    move = np.zeros((4, 4), dtype=np.int64)
    move[i, c] = move[j, SPECIAL[i]] = -1
    move[i, SPECIAL[i]] = move[j, c] = 1
    return move


#: The 24 one-unit exchanges between two retrocausal states: c is a
#: non-special cell of state i, and state j's special cell is neither c nor
#: i's, so j's special mass stays put while i's rises by one.
_EXCHANGES = np.array(
    [
        _exchange(i, c, j)
        for i, c, j in itertools.product(range(4), repeat=3)
        if c != SPECIAL[i] and SPECIAL[j] not in (c, SPECIAL[i])
    ]
)


def _retro_incumbent(n: int, budget: int) -> tuple[float, np.ndarray]:
    """A feasible retrocausal grid point: its entropy sum, a floor under the best, and its 4x4 cell counts.

    For an even special total T <= budget every state puts k = T // 4 units
    on its special cell, states 0 and 2 one more when T % 4 == 2, and spreads
    the rest evenly over its other cells.  State i holds its j-th share at
    cell (SPECIAL[i] - j) % 4, share 0 on its special cell; SPECIAL is a
    permutation, so this is a circulant Latin square in which every cell
    sums to n, and the marginal is exactly uniform.  The best such T is taken.

    An odd budget leaves one unit of special mass that no circulant can use,
    so the 24 one-unit exchanges (_EXCHANGES) of the best circulant are
    scored too: state i moves a unit from a non-special cell c onto its
    special cell, and another state j, whose special cell is neither c nor
    i's, moves a unit from i's special cell to c.  Every row and column sum
    stays n and the special total rises by one, to at most the budget.  The
    best exchange whose cells stay nonnegative replaces the circulant if its
    sum is higher.  At N = 24 and budget 3 that brings the incumbent from
    0.045 bits above the optimum's information onto it, and the search keeps
    16 states instead of 844.
    """
    k, extra = np.divmod(np.arange(0, budget + 1, 2), 4)
    rest = n - k
    plain = np.column_stack([k, (rest + 1) // 3, (rest + 2) // 3, rest // 3])
    bumped = plain + np.outer(extra // 2, [1, 0, -1, 0])  # share 2 is a largest share
    sums = 2.0 * (_row_entropies(plain, n) + _row_entropies(bumped, n))
    t = int(sums.argmax())
    cells = np.arange(4)
    shares = (bumped[t], plain[t], bumped[t], plain[t])
    point = np.array([row[(SPECIAL[i] - cells) % 4] for i, row in enumerate(shares)])
    if budget % 2:
        exchanged = point + _EXCHANGES
        scores = _row_entropies(exchanged.reshape(-1, 4), n).reshape(-1, 4).sum(axis=1)
        scores[exchanged.min(axis=(1, 2)) < 0] = -np.inf  # a -1 cell read the count-n term; never wins
        best = int(scores.argmax())
        if scores[best] > sums[t]:
            return float(scores[best]), exchanged[best]
    return float(sums[t]), point


def _search_retrocausal(cfg: SearchConfig) -> SearchResult:
    n = cfg.resolution
    budget = _special_budget(cfg, n)
    options, entropies, hull = _retro_options(n)  # first, so an oversized grid fails here
    floor, _ = _retro_incumbent(n, budget)
    rest = _rest(hull, budget, 3, n + 1)
    # reach[c]: the options that can reach the floor with special cell c
    reach = np.array([entropies + rest.take(options[:, c]) >= floor - _MARGIN for c in range(4)])

    # halves: (lam00, lam10) with specials (cell 3, cell 2); (lam01, lam11) with (1, 0)
    half_a = _retro_pairs(options, entropies, reach, *SPECIAL[:2], n, budget)
    half_b = _retro_pairs(options, entropies, reach, *SPECIAL[2:], n, budget)
    # the join reads A rows by (q, cells, pair), so ties go to the least special mass, then the
    # first cell sums, then the first pair; partners hold the sums n - c, at (n+1)^3 - 1 - cells
    first_a, second_a, cells_a, q_a, value_a = half_a
    by_q = np.argsort(q_a * (n + 1) ** 3 + cells_a, kind="stable")
    row_a, row_b = _pair_join((n + 1) ** 3 - 1 - cells_a[by_q], q_a[by_q], value_a[by_q], *half_b[2:], budget)
    row_a = by_q[row_a]
    states = (first_a[row_a], second_a[row_a], half_b[0][row_b], half_b[1][row_b])
    dists = [SettingDist.joint((options[k] / n).tolist()) for k in states]
    kept = int(np.count_nonzero(reach.any(axis=0)))  # kept in at least one role
    return _grid_result(cfg, "oracle-retro", dists, kept, len(options), floor)


# ---------------------------------------------------------------------------
# causal: factorized grid
# ---------------------------------------------------------------------------


def _segmented_prefix_max(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running maxima of values within equal-key runs (keys sorted ascending)."""
    out = values.copy()
    shift = 1
    m = len(out)
    while shift < m:
        same = keys[shift:] == keys[:-shift]
        np.maximum(out[shift:], np.where(same, out[:-shift], -np.inf), out=out[shift:])
        shift <<= 1
    return out


def _pair_join(
    key_a: np.ndarray, q_a: np.ndarray, value_a: np.ndarray,
    key_b: np.ndarray, q_b: np.ndarray, value_b: np.ndarray, budget: int,
) -> tuple[int, int]:
    """Best join of A rows with B rows of the same key and q_a + q_b <= budget.

    Returns (row_a, row_b): the first A row with the greatest
    value_a + value_b over its partners, and the first of its partners, in
    stable (key, q) order, whose value equals the greatest partner value, so
    ties go to the least q.  The B rows are sorted by (key, q) once and their
    values turned into running maxima within each key; each A row then finds
    its best partner with one searchsorted.  All q lie in 0..budget.
    """
    order = np.argsort(key_b * (budget + 1) + q_b, kind="stable")
    run_keys = key_b[order]
    sorted_keys = run_keys * (budget + 1) + q_b[order]
    prefix = _segmented_prefix_max(run_keys, value_b[order])
    # the last B row at or before (key_a, budget - q_a), if it has A's key
    found = np.searchsorted(sorted_keys, key_a * (budget + 1) + (budget - q_a), side="right") - 1
    matched = found >= 0
    matched[matched] = run_keys[found[matched]] == key_a[matched]
    if not matched.any():
        raise NoFeasibleModel("internal: no joined pair")  # pragma: no cover
    row_a = int(np.where(matched, value_a + prefix[found], -np.inf).argmax())
    p = int(found[row_a])
    run = int(np.searchsorted(run_keys, run_keys[p], side="left"))
    hit = run + int(np.argmax(value_b[order[run : p + 1]] == prefix[p]))
    return row_a, int(order[hit])


@functools.lru_cache(maxsize=8)
def _causal_options(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Per-state factorized grid options, lexicographic and read-only: (a, b, a*b, entropy, hull).

    a and b are the masses on the special x and y values in grid units, the
    entropy is h(a/n) + h(b/n), and hull is _entropy_hull of (a*b, entropy).
    The options come before the grid entropies, so an oversized grid fails at once.
    """
    a, b = np.divmod(np.arange((n + 1) ** 2), n + 1)
    h_grid = _grid_entropies(n)
    q, h = a * b, h_grid[a] + h_grid[b]
    a.flags.writeable = b.flags.writeable = q.flags.writeable = h.flags.writeable = False
    return a, b, q, h, _entropy_hull(q, h)


def _causal_incumbent(n: int, budget: int) -> tuple[float, np.ndarray]:
    """A feasible causal grid point: its entropy sum, a floor under the best, and its four (i, j) rows.

    All four states share the special-side masses (a, b), the
    causal_pair_model family on the grid, which is exactly uniform for every
    (a, b); the best (a, b) with 4ab <= budget is taken.  Row k holds state
    k's masses on x = 0 and y = 0.
    """
    a, b, q, h, _ = _causal_options(n)
    sums = np.where(4 * q <= budget, 4.0 * h, -np.inf)
    t = int(sums.argmax())
    return float(sums[t]), np.array(
        [flip_marginals(mu, nu, int(a[t]), int(b[t]), n) for mu, nu in LAMBDA_CLASSES]
    )


def _search_causal(cfg: SearchConfig) -> SearchResult:
    n = cfg.resolution
    budget = _special_budget(cfg, n * n)
    floor, _ = _causal_incumbent(n, budget)
    a, b, q1, h1, hull = _causal_options(n)
    h_grid = _grid_entropies(n)
    keep = np.flatnonzero(h1 + _rest(hull, budget, 3, n * n + 1).take(q1) >= floor - _MARGIN)
    qk, hk = q1[keep], h1[keep]
    # ordered state pairs within the budget that can reach the floor with two
    # more states, lexicographic in (a, b, a', b'); both halves enumerate this
    # one set and differ only in their class maps.  rest is -inf past the
    # budget, but a -inf floor passes -inf, so the budget test stays explicit.
    pair_q = qk[:, None] + qk[None, :]
    rest = _rest(hull, budget, 2, 2 * n * n + 1)
    first, second = np.nonzero((pair_q <= budget) & (hk[:, None] + hk[None, :] + rest[pair_q] >= floor - _MARGIN))
    first, second = keep[first], keep[second]
    q = q1[first] + q1[second]
    value = h1[first] + h_grid[a[second]] + h_grid[b[second]]

    nn = n * n

    def half(cls_first, cls_second, flip):
        """Pairs whose raw marginal sums (sum i, sum j, sum i*j) fit, keyed by them or by their complements."""
        i1, j1 = flip_marginals(*cls_first, a, b, n)
        i2, j2 = flip_marginals(*cls_second, a, b, n)
        si, sj = i1[first] + i2[second], j1[first] + j2[second]
        sij = (i1 * j1)[first] + (i2 * j2)[second]
        rows = np.flatnonzero(sij <= nn)
        si, sj, sij = si[rows], sj[rows], sij[rows]
        if flip:
            si, sj, sij = 2 * n - si, 2 * n - sj, nn - sij
        return rows, (si * (2 * n + 1) + sj) * (nn + 1) + sij

    idx_a, key_a = half(LAMBDA_CLASSES[0], LAMBDA_CLASSES[1], True)
    idx_b, key_b = half(LAMBDA_CLASSES[2], LAMBDA_CLASSES[3], False)
    row_a, row_b = _pair_join(key_a, q[idx_a], value[idx_a], key_b, q[idx_b], value[idx_b], budget)
    pair_a, pair_b = idx_a[row_a], idx_b[row_b]

    states = (first[pair_a], second[pair_a], first[pair_b], second[pair_b])
    dists = []
    for (mu, nu), k in zip(LAMBDA_CLASSES, states):
        i, j = flip_marginals(mu, nu, int(a[k]), int(b[k]), n)
        dists.append(SettingDist.factorized(i / n, j / n))
    return _grid_result(cfg, "oracle-causal", dists, len(keep), (n + 1) ** 2, floor)


# ---------------------------------------------------------------------------
# one-sided: factorized grid, unbiased Y
# ---------------------------------------------------------------------------


def _search_one_sided(cfg: SearchConfig) -> SearchResult:
    """Best h(a1) + h(a2) + h(a3) + h(a4) with a1 + a2 = a3 + a4 = t and 2t <= budget.

    The split table P[t, a] = h(a) + h(t - a) (-inf off the grid) is the
    entropy of either state pair, (a1, a2) or (a3, a4), holding t units, so a
    point's entropy is P[t, a1] + P[t, a3], and its greatest value is
    best = max_t 2 max_a P[t, a].  The value the search reports is the
    left-to-right float sum ((h1 + h2) + h3) + h4, whose first two terms are
    exactly P[t, a1]; it differs from P[t, a1] + P[t, a3] by a few ulp of 8,
    under 1e-14.  So every point that ties the float maximum has
    P[t, a1] + P[t, a3] >= best - 1e-12, and only those candidates are summed
    exactly.  The first lexicographic (a1, a2, a3) among their maxima is the
    first hit of a scan over the whole grid.
    """
    n = cfg.resolution
    budget = _floor_budget(cfg, _real(n, "resolution") * (4.0 - cfg.target_s + cfg.tolerance), 4 * n)
    # a feasible point's pairs hold t <= top units and its states a <= k: the split table over those and
    # the padded h share one block, allocated before any entropy or index array, so it fails here at once
    top = budget // 2
    k = min(top, n)
    size = (top + 1) * (k + 1)
    block = np.empty(size + top + k + 1)
    split, padded = block[:size].reshape(top + 1, k + 1), block[size:]
    h_grid = _grid_entropies(n, k)
    # h padded with k cells of -inf before it and top - k after; view[t, a] = padded[k + t - a] = h(t - a)
    padded[:k] = padded[2 * k + 1 :] = -np.inf
    padded[k : 2 * k + 1] = h_grid
    view = np.lib.stride_tricks.as_strided(padded[k:], split.shape, (8, -8), writeable=False)
    np.add(h_grid, view, out=split)
    pair_best = split.max(axis=1)
    cutoff = 2.0 * pair_best.max() - 1e-12
    # a candidate's P[t, a3] is at most pair_best[t], so its P[t, a1] reaches cutoff - pair_best[t]
    rows, cols = np.nonzero(split >= (cutoff - pair_best)[:, None])
    p = split[rows, cols]
    i, j = np.nonzero((rows[:, None] == rows[None, :]) & (p[:, None] + p >= cutoff))
    a1, a3 = cols[i], cols[j]
    a2, a4 = rows[i] - a1, rows[i] - a3
    by_grid = np.lexsort((a3, a2, a1))
    value = (h_grid[a1] + h_grid[a2] + h_grid[a3] + h_grid[a4])[by_grid]
    hit = by_grid[int(value.argmax())]
    best = (a1[hit], a2[hit], a3[hit], a4[hit])
    dists = [
        SettingDist.factorized(flip_marginals(mu, nu, int(a), 0, n)[0] / n, 0.5)
        for (mu, nu), a in zip(LAMBDA_CLASSES, best)
    ]
    return _grid_result(cfg, "oracle-onesided", dists, n + 1, n + 1)
