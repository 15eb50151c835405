"""
Refinement, convergence, and when the gap refuses to close
==========================================================

Splitting an interval can only grow the right-endpoint sum of a
decreasing function, so repeated bisection produces a non-decreasing
staircase of lower bounds converging to the integral.  The gap is zero
only for constant g; for strictly decreasing g it stays positive at
every finite n, with an exact closed form in the linear uniform case.
"""

from monobound import (
    CumulativePartition,
    bound_report,
    constant,
    cumulative,
    linear,
    power_complement,
    refinement_chain,
    uniform_weights,
)

g = power_complement(2)
trivial = CumulativePartition([0.0, 1.0])

print("bisection chain for", g.formula, "starting from the single interval [0, 1]:")
for k, value in enumerate(refinement_chain(g, trivial, depth=6)):
    n = 2**k
    print(f"  n = {n:3d}   T_n = {value:.10f}   gap = {2.0 / 3.0 - value:.10f}")

# Constant functions are the equality case: the rectangles tile the
# area exactly and the gap vanishes.
flat = bound_report(constant(3.0), cumulative(uniform_weights(8)))
print()
print("constant g: gap =", flat.gap, " strict =", flat.strict)

# Linear g with n uniform weights leaves gap |m| / (2n): n congruent
# triangles above the staircase, each of area |m| / (2 n^2).
print()
print("linear g(x) = 1 - x on uniform partitions:")
for n in (1, 2, 4, 8, 16, 32):
    report = bound_report(linear(-1.0, 1.0), cumulative(uniform_weights(n)))
    print(f"  n = {n:3d}   gap = {report.gap:.10f}   |m|/(2n) = {1.0 / (2 * n):.10f}")
    assert abs(report.gap - 1.0 / (2 * n)) <= 1e-12
