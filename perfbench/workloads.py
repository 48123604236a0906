"""The benchmark's three workloads, each a client of the public `bellcost` API.

Every workload draws its inputs from the seed alone, runs one op at a time
(closed loop, one client, one thread) and checks each op's outputs; an op
fails if a library call raises or a check does not hold.  Each call into
the library goes through `t.call(<layer>.<call>, ...)`, so that the traced
run can attribute time to layers.

* experiment: the `bellcost sample` pipeline at 10^6 rounds, with a CSV
  read-back audit.  Exercises `simulate` and bypasses `oracle` and `curves`.
* landscape: one seeded slice of curve values, optimal models, lifts,
  bound chains, a sweep and a 10^3-round experiment.  Many small calls, so
  per-call overhead and the `curves` i_2 solver show.
* certify: brute-force certificates of the curves, plus `bellcost
  reproduce`.  Exercises `oracle` and `cli` and bypasses `simulate`.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from math import comb

import numpy as np

import bellcost as bc
from bellcost import cli

S_Q = 2.0 * math.sqrt(2.0)
CLASS_BY_NAME = {
    "retro": bc.CausalClass.RETROCAUSAL,
    "causal": bc.CausalClass.CAUSAL,
    "onesided": bc.CausalClass.ONE_SIDED,
}
CLASS_NAME = {cls: name for name, cls in CLASS_BY_NAME.items()}
UNIFORM = bc.SettingDist.uniform()


class CheckFailed(Exception):
    """An op's output disagreed with its expected value."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def curve(t, cls: bc.CausalClass, s: float) -> float:
    """Curve value through a traced `curve_point` call, tagging i_2-branch calls."""
    pt = t.call("curves.curve_point", bc.curve_point, cls, s)
    if pt.branch is bc.Branch.I2:
        t.tag_last("I2")
    return pt.info


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


class Experiment:
    """`load_model -> sample_rounds -> empirical_stats -> chsh_standard_error ->
    rounds_to_csv`, then `rounds_from_csv -> empirical_stats` must agree."""

    name = "experiment"
    POOL = 8

    def __init__(self, seed: int, workdir: str, rounds: int = 10**6):
        self.seed = seed
        self.workdir = workdir
        self.rounds = rounds
        self.pool: list[tuple[str, bc.SampleOrder]] = []

    def setup(self, t) -> dict:
        rng = _rng(self.seed, 1)
        source_first, settings_first = [], []
        for k in range(self.POOL):
            kind = ("table2", "one_sided", "table1", "biased")[k % 4]
            if kind == "table2":
                m = t.call("models.build", bc.table2_model, float(rng.uniform(0.0, 0.5)))
            elif kind == "one_sided":
                m = t.call("models.build", bc.one_sided_model, float(rng.uniform(0.0, 0.5)))
            elif kind == "table1":
                m = t.call("models.build", bc.table1_model, float(rng.uniform(0.0, 0.25)))
            else:
                base = (bc.CausalClass.RETROCAUSAL, bc.CausalClass.CAUSAL, bc.CausalClass.ONE_SIDED)[
                    int(rng.integers(3))
                ]
                p_max = 0.25 if base is bc.CausalClass.RETROCAUSAL else 0.5
                p = float(rng.uniform(0.0, p_max))
                ex, ey = (float(v) for v in rng.uniform(-0.9, 0.9, size=2))
                m = t.call("models.biased_lift", _biased_lift, base, ex, ey, p)
            m = t.call("models.flip_lift", bc.flip_lift, m)
            path = os.path.join(self.workdir, f"model-{k}.json")
            t.call("core.save_model", bc.save_model, m, path)
            # factorized models are sampled source-first, the others settings-first
            if kind in ("table2", "one_sided"):
                source_first.append((path, bc.SampleOrder.SOURCE_FIRST))
            else:
                settings_first.append((path, bc.SampleOrder.SETTINGS_FIRST))
        rng.shuffle(source_first)
        rng.shuffle(settings_first)
        # alternate the two orders so that any two consecutive ops sample one of each
        self.pool = [entry for pair in zip(source_first, settings_first) for entry in pair]
        self.sample_seeds = rng.integers(0, 2**62, size=4096)
        return {
            "pool_models": len(self.pool),
            "rounds_per_op": self.rounds,
            "model_json_bytes": sum(os.path.getsize(path) for path, _ in self.pool),
        }

    def warmup(self, t) -> None:
        # the 5 SE check needs many rounds per setting, so the short warm-up skips the checks
        for k in range(2):
            self._pipeline(t, self.op(k), 1000)

    def op(self, i: int):
        path, order = self.pool[i % len(self.pool)]
        return path, order, int(self.sample_seeds[i % len(self.sample_seeds)])

    def ops(self):
        i = 0
        while True:
            yield self.op(i), True
            i += 1

    def run(self, t, op) -> None:
        n = self.rounds
        stats, se, s_exact, lines, back, stats_back = self._pipeline(t, op, n)
        check(stats.prediction_accuracy == 1.0, "adversary missed an outcome")
        check(abs(stats.s_hat - s_exact) <= 5.0 * se, "s_hat is more than 5 SE from S")
        check(lines == n + 1, "round CSV does not have n + 1 lines")
        check(back == n, "read-back round count differs")
        check(stats_back == stats, "read-back stats differ from in-memory stats")

    def _pipeline(self, t, op, n: int):
        path, order, sample_seed = op
        m = t.call("core.load_model", bc.load_model, path)
        rounds = t.call("simulate.sample_rounds", bc.sample_rounds, m, n, sample_seed, order)
        t.count("simulate.sample_rounds.rounds", n)
        stats = t.call("simulate.empirical_stats", bc.empirical_stats, rounds)
        se = t.call("simulate.chsh_standard_error", bc.chsh_standard_error, rounds)
        csv_path = os.path.join(self.workdir, "rounds.csv")
        text = t.call("simulate.rounds_to_csv", bc.rounds_to_csv, rounds, csv_path)
        t.count("simulate.rounds_to_csv.bytes", len(text))
        lines = text.count("\n")
        del rounds, text  # drop the in-memory log before reading the CSV back
        s_exact = t.call("core.chsh_value", bc.chsh_value, m)
        back = t.call("simulate.rounds_from_csv", bc.rounds_from_csv, csv_path)
        stats_back = t.call("simulate.empirical_stats", bc.empirical_stats, back)
        return stats, se, s_exact, lines, len(back), stats_back


def _biased_lift(base: bc.CausalClass, ex: float, ey: float, p: float, ptilde=None) -> bc.Model:
    return bc.biased_lift(base, bc.Bias(ex, ey), p, ptilde)


def _biased_info(base: bc.CausalClass, ex: float, ey: float, **params) -> float:
    return bc.biased_info(base, bc.Bias(ex, ey), **params)


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------


class Landscape:
    """One slice at S: curve values, optimal models, lifts, bound chains, a sweep, an experiment."""

    name = "landscape"
    PREGENERATED = 1 << 17
    STRATA = 16
    SWEEP_POINTS = 101
    ROUNDS = 1000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self, t) -> dict:
        rng = _rng(self.seed, 2)
        self.s0 = t.call("curves.s0", bc.s0)
        # the edge points lead every run; then blocks of STRATA slices with one S
        # per stratum of [2, 4], so that every block has the same share of
        # costly i_2-branch slices
        blocks = self.PREGENERATED // self.STRATA
        strata = rng.permuted(np.tile(np.arange(self.STRATA), (blocks, 1)), axis=1)
        s = 2.0 + 2.0 * (strata + rng.uniform(size=strata.shape)) / self.STRATA
        self.s = np.concatenate([(2.0, S_Q, self.s0, 4.0), s.ravel()])[: self.PREGENERATED]
        self.eps = rng.uniform(-0.9, 0.9, size=(self.PREGENERATED, 2))
        self.sample_seeds = rng.integers(0, 2**62, size=self.PREGENERATED)
        return {"slices_pregenerated": self.PREGENERATED, "sweep_points": self.SWEEP_POINTS,
                "rounds_per_slice": self.ROUNDS}

    def warmup(self, t) -> None:
        self.run(t, (3.9, 0.3, -0.3, 1, 0))
        self.run(t, (3.0, -0.3, 0.3, 2, 1))

    def ops(self):
        i = 0
        while True:
            k = i % self.PREGENERATED
            # a cycle is the edge points, then each block of STRATA slices
            cycle_end = i == 3 or (i > 3 and (i - 3) % self.STRATA == 0)
            yield (float(self.s[k]), float(self.eps[k, 0]), float(self.eps[k, 1]),
                   int(self.sample_seeds[k]), i), cycle_end
            i += 1

    def run(self, t, op) -> None:
        s, ex, ey, sample_seed, index = op
        retro, causal, onesided = (bc.CausalClass.RETROCAUSAL, bc.CausalClass.CAUSAL,
                                   bc.CausalClass.ONE_SIDED)
        values = {cls: curve(t, cls, s) for cls in bc.CausalClass}
        check(values[bc.CausalClass.ZIGZAG] == values[causal], "zigzag curve differs from causal")
        check(values[bc.CausalClass.SUPERDETERMINISTIC] == 2.0, "i_SD is not 2")

        # optimal models; each must cost exactly its curve at its own S
        p_retro, p_os = (4.0 - s) / 8.0, (4.0 - s) / 4.0
        p_same = math.sqrt(p_retro)
        table1 = t.call("models.build", bc.table1_model, p_retro)
        same = t.call("models.build", bc.table2_model, p_same)
        onesided_m = t.call("models.build", bc.one_sided_model, p_os)
        self._on_curve(t, table1, retro)
        self._on_curve(t, onesided_m, onesided)
        if s >= self.s0:
            pair = t.call("curves.i_2_pair", bc.i_2_pair, s)
            p_c, pt_c = pair.p, pair.p_star
            optimal = t.call("models.build", bc.table2_model, p_c, bc.Table2Branch.CONJUGATE)
            self._on_curve(t, optimal, causal)
            s_same = t.call("core.chsh_value", bc.chsh_value, same)
            info_same = t.call("core.mutual_information", bc.mutual_information, same)
            check(abs(info_same - t.call("curves.i_1", bc.i_1, s_same)) <= 1e-9,
                  "same-branch model cost differs from i_1")
        else:
            p_c, pt_c = p_same, p_same
            optimal = same
            self._on_curve(t, same, causal)

        flipped = t.call("models.flip_lift", bc.flip_lift, table1)
        corr = t.call("core.correlations_of", bc.correlations_of, flipped)
        sd = t.call("models.build", bc.superdeterministic_model, corr, UNIFORM)
        s_sd = t.call("core.chsh_value", bc.chsh_value, sd)
        check(abs(s_sd - s) <= 1e-9, "superdeterministic model changes S")
        check(abs(t.call("core.mutual_information", bc.mutual_information, sd) - 2.0) <= 1e-9,
              "superdeterministic model does not cost 2 bits")

        # flip lifts keep S and I and are non-signaling
        flips = [(table1, flipped)] + [
            (m, t.call("models.flip_lift", bc.flip_lift, m)) for m in (optimal, onesided_m)
        ]
        for m, lifted in flips:
            for fn in (bc.chsh_value, bc.mutual_information):
                name = f"core.{fn.__name__}"
                check(abs(t.call(name, fn, lifted) - t.call(name, fn, m)) <= 1e-12,
                      f"flip lift changes {fn.__name__}")
            c = t.call("core.correlations_of", bc.correlations_of, lifted)
            check(t.call("core.is_nonsignaling", bc.is_nonsignaling, c, 1e-12),
                  "flip lift is signaling")

        # biased lifts match the closed form, which never exceeds the unbiased curve
        lifts = (
            (retro, (p_retro,), {"s": s}, values[retro]),
            (causal, (p_c, pt_c), {"p": p_c, "ptilde": pt_c}, values[causal]),
            (onesided, (p_os,), {"s": s}, values[onesided]),
        )
        for base, args, params, unbiased in lifts:
            lifted = t.call("models.biased_lift", _biased_lift, base, ex, ey, *args)
            closed = t.call("models.biased_info", _biased_info, base, ex, ey, **params)
            info = t.call("core.mutual_information", bc.mutual_information, lifted)
            check(abs(info - closed) <= 1e-9, f"{base.value} biased lift differs from biased_info")
            check(closed <= unbiased + 1e-12, f"{base.value} biased_info exceeds the curve")
        sd_info = t.call("models.biased_info", _biased_info, bc.CausalClass.SUPERDETERMINISTIC, ex, ey)
        check(sd_info <= 2.0 + 1e-12, "superdeterministic biased_info exceeds 2 bits")

        for m in (table1, optimal, onesided_m):
            rep = t.call("oracle.verify_bound_chain", bc.verify_bound_chain, m)
            check(rep.marginal_uniform and rep.s_within_general and rep.s_within_p_min
                  and rep.s_within_causal is not False, "bound chain violated")

        points = t.call("curves.curve_sweep", bc.curve_sweep, causal, 2.0, s, self.SWEEP_POINTS)
        text = t.call("curves.sweep_to_csv", bc.sweep_to_csv, points, causal,
                      os.path.join(self.workdir, "sweep.csv"))
        check(len(points) == self.SWEEP_POINTS and text.count("\n") == self.SWEEP_POINTS + 1,
              "sweep has the wrong length")
        check(abs(points[-1].info - values[causal]) <= 1e-9, "sweep end differs from the curve")

        # alternate the sample order: the factorized causal optimum source-first,
        # the joint-conditional retrocausal optimum settings-first
        if index % 2:
            model, order = flipped, bc.SampleOrder.SETTINGS_FIRST
        else:
            model, order = flips[1][1], bc.SampleOrder.SOURCE_FIRST
        rounds = t.call("simulate.sample_rounds", bc.sample_rounds, model, self.ROUNDS,
                        sample_seed, order)
        t.count("simulate.sample_rounds.rounds", self.ROUNDS)
        stats = t.call("simulate.empirical_stats", bc.empirical_stats, rounds)
        check(stats.prediction_accuracy == 1.0, "adversary missed an outcome")

    @staticmethod
    def _on_curve(t, m: bc.Model, cls: bc.CausalClass) -> None:
        s_m = t.call("core.chsh_value", bc.chsh_value, m)
        info = t.call("core.mutual_information", bc.mutual_information, m)
        check(abs(info - curve(t, cls, s_m)) <= 1e-9, f"{cls.value} model cost differs from its curve")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

GRIDS = (16, 24, 40)
TARGET_MAX = 3.95
REPRODUCE = "reproduce"


def grid_options(cls: bc.CausalClass, n: int) -> int:
    """Per-state grid options the oracle enumerates at resolution n (computed, not measured)."""
    if cls is bc.CausalClass.RETROCAUSAL:
        return comb(n + 3, 3)  # joint conditionals: compositions of n into 4 cells
    if cls is bc.CausalClass.CAUSAL:
        return (n + 1) ** 2  # factorized conditionals: one grid value per side
    return n + 1  # one-sided: the X side only


def _search(cls: bc.CausalClass, n: int, target: float) -> bc.SearchResult:
    return bc.brute_force_min_info(bc.SearchConfig(n, target, cls))


def _reproduce() -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["reproduce"])


class Certify:
    """Oracle certificates of the curves at seeded (class, N, target), plus `reproduce`.

    A cycle holds the acceptance points (retro and causal at N = 40, S_Q),
    one `reproduce`, and for every other (class, N) 50 seeded targets in
    [S_Q, 3.95], one per stratum of the range.  The search cost falls
    steeply as the target rises, so the strata keep the op-time quantiles
    from following the draws.  Retro and causal at N = 40 take seconds per
    search and run only at the acceptance points: a seeded target there
    would move the cycle's cost, and which ops lie above `op_tail_s`, with
    the draw.
    """

    name = "certify"
    CYCLES = 64
    STRATA = 50
    ACCEPTANCE = ((bc.CausalClass.RETROCAUSAL, 40, S_Q), (bc.CausalClass.CAUSAL, 40, S_Q))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self, t) -> dict:
        rng = _rng(self.seed, 3)
        self.cycles = []
        for _ in range(self.CYCLES):
            drawn = []
            for cls in CLASS_BY_NAME.values():
                for n in GRIDS:
                    if (cls, n, S_Q) in self.ACCEPTANCE:
                        continue
                    u = rng.uniform(size=self.STRATA)
                    targets = S_Q + (TARGET_MAX - S_Q) * (np.arange(self.STRATA) + u) / self.STRATA
                    drawn += [(cls, n, float(target)) for target in targets]
            rng.shuffle(drawn)
            self.cycles.append([*self.ACCEPTANCE, REPRODUCE, *drawn])
        return {"cycles_pregenerated": self.CYCLES, "ops_per_cycle": len(self.cycles[0])}

    def warmup(self, t) -> None:
        for cls in CLASS_BY_NAME.values():
            self.run(t, (cls, 8, S_Q))

    def ops(self):
        i = 0
        while True:
            cycle = self.cycles[i % self.CYCLES]
            for k, op in enumerate(cycle):
                yield op, k == len(cycle) - 1
            i += 1

    def run(self, t, op) -> None:
        if op == REPRODUCE:
            check(t.call("cli.reproduce", _reproduce) == 0, "reproduce did not exit 0")
            return
        cls, n, target = op
        res = t.call(f"oracle.{CLASS_NAME[cls]}", _search, cls, n, target)
        t.count("oracle.search.options", grid_options(cls, n))
        s_achieved = t.call("core.chsh_value", bc.chsh_value, res.best_model)
        rep = t.call("oracle.verify_bound_chain", bc.verify_bound_chain, res.best_model)
        check(rep.marginal_uniform and rep.s_within_general and rep.s_within_p_min
              and rep.s_within_causal is not False, "witness violates the bound chain")
        check(s_achieved >= target - 1e-9, "witness misses the target S")
        check(res.best_info >= curve(t, cls, s_achieved) - 1e-9, "oracle beats the curve")
        if n == 40 and target == S_Q:
            check(res.best_info <= curve(t, cls, S_Q) + 0.01, "oracle is above the curve + 0.01")


WORKLOADS = {w.name: w for w in (Experiment, Landscape, Certify)}
