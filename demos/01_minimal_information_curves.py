"""How much setting/source information does a given CHSH violation cost?

Sweeps the minimal-information curve of every causal structure over
S in [2, 4], prints the values at the quantum maximum S_Q = 2*sqrt(2) and at
the algebraic maximum S = 4, and writes the full sweeps to CSV files in a
temporary directory, printing each file's name and line count; the
directory is removed when the demo ends.

The punchline: retrocausal models are the cheapest, causal (= zigzag) models
cost almost twice as much at S_Q, one-sided models more again, and
superdeterministic models always pay the full 2 bits.
"""

import math
import os
import tempfile

import bellcost as bc

S_Q = 2.0 * math.sqrt(2.0)


def main():
    print(f"branch point of the causal curve: p0 = {bc.find_p0():.6f}, S0 = {bc.s0():.6f}")
    print()
    header = f"{'S':>8} {'retro':>10} {'causal':>10} {'one-sided':>10} {'superdet':>10}"
    print(header)
    for s in (2.0, 2.4, S_Q, 3.2, bc.s0(), 3.8, 4.0):
        row = (
            f"{s:8.4f} {bc.i_R(s):10.6f} {bc.i_C(s).info:10.6f} "
            f"{bc.i_OS(s):10.6f} {bc.i_SD(s):10.6f}"
        )
        marker = "  <- Tsirelson bound" if abs(s - S_Q) < 1e-12 else ""
        print(row + marker)
    print()
    print(f"at S_Q the causal/retro cost ratio is {bc.i_C(S_Q).info / bc.i_R(S_Q):.3f}")

    print()
    with tempfile.TemporaryDirectory(prefix="bellcost-curves-") as out_dir:
        for cls in bc.CausalClass:
            name = f"curve_{cls.value}.csv"
            path = os.path.join(out_dir, name)
            bc.sweep_to_csv(bc.curve_sweep(cls, 2.0, 4.0, 201), cls, path)
            with open(path) as fh:
                print(f"wrote {name}: {sum(1 for _ in fh)} lines")


if __name__ == "__main__":
    main()
