#!/usr/bin/env bash
# Run the installed `bfre` on the golden problems and compare each report
# with its committed output, byte for byte.  Stops at the first difference.
#   bash tests/data/golden/check.sh
set -euo pipefail
cd "$(dirname "$0")"
bfre solve problem.json | diff - solve.out
bfre feasible problem.json | diff - feasible.out
bfre feasible problem.json --no-simplify | diff - feasible_no_simplify.out
bfre feasible rule3_problem.json | diff - rule3_feasible.out
bfre simplify problem.json --explain | diff - simplify_explain.out
bfre simplify rule3_problem.json --explain | diff - rule3_simplify_explain.out
bfre verify problem.json --step 0.25 --cap 2000 | diff - verify.out
bfre verify rule3_problem.json --step 0.25 --cap 2000 | diff - rule3_verify.out
# sampled runs: the seeded draws are the same on every Python version
bfre verify problem.json --step 0.25 --cap 20 --seed 3 | diff - verify_sampled.out
bfre verify rule3_problem.json --step 1e-4 --cap 50 --seed 1 | diff - rule3_verify_lazy.out
