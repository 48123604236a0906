"""Biased setting choices only ever make the simulation cheaper.

The bias lifts keep a base optimal model's lambda-posterior and responses
while re-weighting the settings; S is untouched, and the information cost
drops below the unbiased curve, approaching zero under extreme bias.

The printed costs are those of the lifts (biased_info): each is achievable,
so it bounds the class's minimum at that bias from above, but it is not the
minimum.  At eps = (0.5, 0.5) and S_Q the retrocausal lift costs 0.038268
bits, while the retrocausal minimum there is 0.021930 bits.
"""

import math

import bellcost as bc

S_Q = 2.0 * math.sqrt(2.0)
P_Q = (4.0 - S_Q) / 8.0


def main():
    print(f"unbiased costs at S_Q: retro {bc.i_R(S_Q):.6f}, causal {bc.i_C(S_Q).info:.6f}, "
          f"one-sided {bc.i_OS(S_Q):.6f}, superdet 2.0")
    print()
    print(f"{'eps':>6} {'retro lift':>12} {'causal lift':>12} {'one-sided':>12} {'superdet':>12}")
    p_c = math.sqrt(P_Q)
    for eps in (0.0, 0.3, 0.6, 0.9, 0.99):
        bias = bc.Bias(eps, eps)
        row = (
            bc.biased_info(bc.CausalClass.RETROCAUSAL, bias, s=S_Q),
            bc.biased_info(bc.CausalClass.CAUSAL, bias, p=p_c, ptilde=p_c),
            bc.biased_info(bc.CausalClass.ONE_SIDED, bias, s=S_Q),
            bc.biased_info(bc.CausalClass.SUPERDETERMINISTIC, bias),
        )
        print(f"{eps:6.2f} " + " ".join(f"{v:12.6f}" for v in row))
    print()

    print("closed form vs explicit lifted model at eps = (0.7, -0.4):")
    bias = bc.Bias(0.7, -0.4)
    lifted = bc.biased_lift(bc.CausalClass.RETROCAUSAL, bias, p=P_Q)
    print(f"  model: S = {bc.chsh_value(lifted):.6f}, I = {bc.mutual_information(lifted):.9f}")
    print(f"  form : I = {bc.biased_info(bc.CausalClass.RETROCAUSAL, bias, s=S_Q):.9f}")
    marg = bc.derived_marginal(lifted)
    print(f"  recovered setting marginal: {tuple(round(v, 4) for v in marg.probs)}")
    print()

    print("extreme-bias causal family (deterministic settings, S = 4):")
    for q in (0.5, 0.1, 0.01):
        m = bc.extreme_bias_example(q)
        print(f"  q = {q:>5}: S = {bc.chsh_value(m):.3f}, I = {bc.mutual_information(m):.6f} bits")


if __name__ == "__main__":
    main()
