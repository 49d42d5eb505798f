"""Exact Sylvester equations: solve, constrain, and detect inconsistency.

Three short exhibits of the public solvers.  The normal form needs none of
them: each of its coupling blocks touches block 1 or block 4, which sit at
single eigenvalues, so finite Taylor series solve them.

  1. a plain equation A X - X B = C built from a known X, solved back
     exactly;
  2. the same with side constraints X R = T_r and L X = T_l imposed
     jointly;
  3. an equation with no solution at all -- A X - X A always has zero
     trace, so a right-hand side with trace one must be rejected.
"""

from __future__ import annotations

import argparse
import random

from dacscanon import NoSolution, RatMatrix, mat, qq, solve_constrained_sylvester, solve_sylvester


def random_matrix(rng, rows, cols):
    return RatMatrix(
        [[qq(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=3, help="instance seed")
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)

    A = random_matrix(rng, 3, 3)
    B = random_matrix(rng, 2, 2)
    X0 = random_matrix(rng, 3, 2)
    C = A * X0 - X0 * B
    X = solve_sylvester(A, B, C)
    print("plain equation:       residual zero: %s" % (A * X - X * B == C))

    R = random_matrix(rng, 2, 2)
    L = random_matrix(rng, 1, 3)
    X = solve_constrained_sylvester(
        A, B, C, right_zero=R, target_r=X0 * R, left_zero=L, target_l=L * X0
    )
    print(
        "constrained equation: residual zero: %s, X*R on target: %s, L*X on target: %s"
        % (A * X - X * B == C, X * R == X0 * R, L * X == L * X0)
    )

    M = random_matrix(rng, 3, 3)
    trace_one = random_matrix(rng, 3, 3).to_lists()
    trace_one[0][0] += qq(1) - sum(trace_one[i][i] for i in range(3))
    try:
        solve_sylvester(M, M, RatMatrix(trace_one))
        print("inconsistent equation: NOT detected")
        return 1
    except NoSolution:
        print("inconsistent equation: rejected with NoSolution")

    print()
    print("a 2x2 sample, printed exactly:")
    A = mat([[0, 1], [-2, 3]])
    B = mat([[5]])
    C = mat([[1], [2]])
    X = solve_sylvester(A, B, C)
    print(X)
    print("residual zero: %s" % (A * X - X * B == C))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
