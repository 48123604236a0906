"""A device implementing these models leaks every outcome to its builder.

Samples seeded experiment rounds from the causal optimum at the Tsirelson
bound.  The empirical statistics look like a maximal quantum violation, yet
an adversary who knows each round's hidden state predicts both outcomes
perfectly, round after round.
"""

import math

import bellcost as bc

S_Q = 2.0 * math.sqrt(2.0)


def main():
    model = bc.table2_model(math.sqrt((4.0 - S_Q) / 8.0))
    print(f"model: {model.label}")
    print(f"exact S = {bc.chsh_value(model):.6f} (Tsirelson bound {S_Q:.6f})")
    print(f"exact I = {bc.mutual_information(model):.6f} bits")
    print(f"rng: {bc.RNG_ALGORITHM}")
    print()

    for n in (10**3, 10**5, 10**6):
        rounds = bc.sample_rounds(model, n, seed=2024, order=bc.SampleOrder.SOURCE_FIRST)
        stats = bc.empirical_stats(rounds)
        print(
            f"n = {n:>9,}: S_hat = {stats.s_hat:.4f} +/- {stats.s_standard_error:.4f}, "
            f"info_hat = {stats.info_hat:.4f}, "
            f"adversary accuracy = {stats.prediction_accuracy:.3f}"
        )

    print()
    print("first rounds (settings-first order realizes the retro story):")
    rounds = bc.sample_rounds(model, 6, seed=7, order=bc.SampleOrder.SETTINGS_FIRST)
    print("  lam  x  y   a   b  pred_a  pred_b")
    columns = (rounds.lambda_index, rounds.x, rounds.y, rounds.a, rounds.b, rounds.predicted_a, rounds.predicted_b)
    for lam, x, y, a, b, pred_a, pred_b in zip(*(col.tolist() for col in columns)):
        print(f"  {lam:3d} {x:2d} {y:2d} {a:3d} {b:3d} {pred_a:7d} {pred_b:7d}")
    print()
    print("every prediction is correct: the 'random' outcomes were never random.")


if __name__ == "__main__":
    main()
