"""
Majorization, Karamata's inequality, and a bridge to the weights
================================================================

x is majorized by y (written x < y here) when, after sorting both in
decreasing order, every prefix sum of x stays at or below the matching
prefix of y and the totals agree.  Intuitively x is a more even split
of the same total.  Karamata's inequality then says any convex g turns
the relation into a sum comparison: sum g(x_i) <= sum g(y_i).
"""

import math

from monobound import (
    from_weights,
    generate_majorized_pair,
    is_majorized,
    karamata_check,
    uniform_weights,
)

x, y = [0.5, 0.5], [1.0, 0.0]
verdict = is_majorized(x, y)
print("x =", x, " y =", y)
print("relation      ", verdict.relation)
print("prefix margins", verdict.prefix_margins)

for label, g in (("t^2", lambda t: t * t), ("exp", math.exp)):
    report = karamata_check(g, x, y)
    print(f"karamata with {label:<4}  sum_x = {report.sum_x:.6f}  sum_y = {report.sum_y:.6f}  margin = {report.margin:.6f}")
    assert report.holds

# Robin Hood transfers: each moves up to half the gap from a larger entry
# to a smaller one, so the result gx is majorized by the original gy.  The
# generator applies them in rounds of disjoint pairs.
print()
gx, gy = generate_majorized_pair(n=6, transfers=40, seed=4)
print("generated x   ", [round(v, 3) for v in gx.entries])
print("generated y   ", [round(v, 3) for v in gy.entries])
print("relation      ", is_majorized(gx, gy).relation)

# Weight vectors compare the same way; the uniform split is majorized
# by every other split of the same total, so it is the evenest one.
print()
w = from_weights([0.2, 0.3, 0.5])
bridge = is_majorized(uniform_weights(3), w)
print("uniform(3) vs (0.2, 0.3, 0.5):", bridge.relation)
assert bridge.relation == "x_majorized_by_y"
