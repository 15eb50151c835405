"""
The substitution identity and expectation bounds
================================================

For a density f on [0, 1] with CDF F, substituting u = F(x) gives

    integral of f(x) * g(F(x))  =  integral of g(u).

The left side depends on f only through the change of variables, so
every density reproduces the same number.  Reading the same identity
probabilistically: weights from data define an empirical CDF, and the
weighted sum T_n becomes a plug-in estimate of E[g(F(X))] that the
integral of g bounds from above when g is decreasing.
"""

from monobound import (
    bound_report,
    cumulative,
    from_weights,
    pit_identity_check,
    polynomial_density,
    power_complement,
    tabulated_density,
    triangular_density,
    uniform_density,
)

g = power_complement(2)

densities = [
    ("uniform", uniform_density()),
    ("f(x) = 2x", polynomial_density([0.0, 2.0])),
    ("triangular, peak 0.5", triangular_density(0.5)),
    ("tabulated", tabulated_density([(0.0, 0.5), (0.25, 1.8), (0.6, 1.2), (1.0, 0.1)])),
]

print("g =", g.formula, "  integral of g =", g.closed_form_integral)
print()
for label, f in densities:
    report = pit_identity_check(f, g, tol=1e-8)
    print(f"{label:<22} lhs = {report.lhs:.12f}  residual = {report.residual:.2e}  pass = {report.passed}")
    assert report.passed

# Three observations with raw importance weights 2, 3, 5: normalizing
# gives the jump sizes of a weighted empirical CDF.
w = from_weights([2.0, 3.0, 5.0], normalize=True)
print()
print("raw weights [2, 3, 5] -> jumps", w.weights)

report = bound_report(g, cumulative(w))
holds = not report.invariant_violations()
print(f"discrete sum {report.t_n:.6f} <= E[g(U)] = {report.integral:.6f}  holds = {holds}")
assert holds
