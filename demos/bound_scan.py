"""Randomized check of the trace-norm versus product-witness bound.

Draws GUE and induced-state-difference operators over a grid of local
dimensions and reports how close the ratio ever gets to the
2 sqrt(2) min(n_a, n_b) cap. Werner pairs get much closer than noise
does, which is the whole point of structured hiding states.
"""

import argparse

from locnorms import SeeSawConfig
from locnorms.verify import main_bound_scan


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=20, help="instances per dimension pair")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=24)
    args = parser.parse_args()

    dims = ((2, 2), (2, 3), (3, 3), (3, 4))
    result = main_bound_scan(dims, args.samples, SeeSawConfig(restarts=args.restarts, seed=args.seed))
    rows = result["rows"]
    print(f"{len(rows)} instances over {len(dims)} dimension pairs")
    for n_a, n_b in dims:
        sub = [r for r in rows if (r["n_a"], r["n_b"]) == (n_a, n_b)]
        worst = max(r["ratio"] / r["bound"] for r in sub)
        kinds = {r["kind"] for r in sub}
        print(f"  ({n_a},{n_b}): worst ratio/bound = {worst:.4f} over {sorted(kinds)}")
    print(f"overall worst ratio/bound: {result['stats']['worst_ratio_over_bound']:.4f}")
    print(f"violations after escalation: {len(result['failures'])}")
    if result["failures"]:
        for line in result["failures"]:
            print("  " + line)


if __name__ == "__main__":
    main()
