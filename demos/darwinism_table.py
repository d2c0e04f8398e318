"""Objectivity coefficients and where the new one wins.

Omega(d_a, d_r) scales how far a broadcast channel can sit from an
objective measure-and-prepare one. The linear-in-d_a coefficient beats the
earlier five-way minimum once the observed system is larger than a qubit,
by a factor growing like sqrt(2 d_a) when fragments are large.
"""

import argparse
import math

from locnorms import coefficient_sweep, diamond_bound_rhs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dr", type=int, default=10**6, help="fragment dimension (default 1e6)")
    args = parser.parse_args()

    dims = (2, 3, 4, 8, 16, 64, 256)
    print(f"fragment dimension d_r = {args.dr}")
    print(f"{'d_a':>5} {'omega_new':>11} {'omega_prev':>11} {'factor':>8} {'sqrt(2 d_a)':>12}")
    for row in coefficient_sweep(dims, [args.dr]):
        print(
            f"{row['d_a']:>5} {row['omega_new']:>11.3f} {row['omega_ranard']:>11.3f} "
            f"{row['improvement_factor']:>8.3f} {math.sqrt(2.0 * row['d_a']):>12.3f}"
        )

    print("\nqubit system broadcast over 100 fragments, observers reading one:")
    print(f"  deviation from objectivity at most {diamond_bound_rhs(2, 5, 1, 100):.4f} in diamond norm")
    print(f"  with 10^4 fragments the bound tightens to {diamond_bound_rhs(2, 5, 1, 10**4):.4f}")


if __name__ == "__main__":
    main()
