"""Independent check that the analytic curves really are minima.

Exhaustive search over grid-quantized four-state models (exactly uniform
setting marginal, CHSH value at least the target) can approach the analytic
curves from above but never beat them.  The gap closes as the grid refines;
the one-sided search is cheap enough to follow it up to N = 256.
"""

import math
import time

import bellcost as bc

S_Q = 2.0 * math.sqrt(2.0)


def main():
    targets = {
        bc.CausalClass.RETROCAUSAL: bc.i_R(S_Q),
        bc.CausalClass.CAUSAL: bc.i_C(S_Q).info,
        bc.CausalClass.ONE_SIDED: bc.i_OS(S_Q),
    }
    grids = {cls: (8, 16, 24) for cls in targets}
    grids[bc.CausalClass.ONE_SIDED] += (64, 128, 256)
    print(f"target S = 2*sqrt(2) = {S_Q:.6f}")
    for cls, analytic in targets.items():
        print(f"\n{cls.value}: analytic minimum {analytic:.6f} bits")
        for n in grids[cls]:
            t0 = time.time()
            res = bc.brute_force_min_info(bc.SearchConfig(n, S_Q, cls))
            dt = time.time() - t0
            achieved = bc.chsh_value(res.best_model)
            print(
                f"  N={n:3d}: best {res.best_info:.6f} "
                f"(gap {res.best_info - analytic:+.6f}, achieved S {achieved:.4f}) [{dt:.2f}s]"
            )
    print("\nwitness of the last search:")
    res = bc.brute_force_min_info(bc.SearchConfig(24, S_Q, bc.CausalClass.RETROCAUSAL))
    for st in res.best_model.states:
        print(f"  w={st.weight}  p(x,y|lam)={st.dist.probs}  responses={st.responses}")


if __name__ == "__main__":
    main()
