"""Quantum-question XOR games: entangled versus product answers.

A referee sends the two halves of a state drawn from a fixed ensemble to
two players who each reply +-1. The optimal correlation with unrestricted
joint measurements is the trace norm of the payoff operator; product
strategies are captured by the Hermitian product witness. The Werner
ensemble makes the gap nearly maximal, random ensembles do not.
"""

import argparse

from locnorms import (
    SeeSawConfig,
    hiding_ratio,
    random_game,
    werner_hiding_pair,
)


def describe(label, report):
    ratio = "-" if report.ratio is None else f"{report.ratio:.4f}"
    print(
        f"  {label:<18} beta_all={report.trace_norm:.4f} "
        f"beta_product={report.eps_estimate.value:.4f} "
        f"ratio={ratio} cap={report.bound:.3f}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--samples", type=int, default=5, help="number of random games")
    args = parser.parse_args()

    config = SeeSawConfig(restarts=24, seed=args.seed)

    print("two-state werner game at d = 3 (ratio should be 3):")
    describe("werner d=3", hiding_ratio(werner_hiding_pair(3), config))

    print(f"\n{args.samples} random 4-state games at 3 x 3:")
    for k in range(args.samples):
        game = random_game(3, 3, num_states=4, seed=args.seed + k)
        describe(f"random[{k}]", hiding_ratio(game, config))
    print("\nrandom ensembles leave little to hide: their ratios sit near 1,")
    print("far from the 2 sqrt(2) min-dim cap the werner ensemble chases.")


if __name__ == "__main__":
    main()
