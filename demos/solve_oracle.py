"""
Solving the system and freezing an oracle table
===============================================

The generating functions of a recursive grammar only converge for x
below the dominant singularity rho.  This script locates rho for the
bundled ternary-tree grammar (a coarse bisection on Newton divergence,
then Newton on the augmented system Y = Phi(x, Y), (I - J) v = 0), checks
the estimate against the closed form, and round-trips the solved values
through the oracle text format.
"""

import math
import tempfile
from pathlib import Path

from boltzxml import (
    compile_grammar,
    estimate_singularity,
    load_bundled_grammar,
    load_oracle,
    newton_evaluate,
    save_oracle,
    solve,
)

system = compile_grammar(load_bundled_grammar("ternary"))

# ternary trees satisfy T = x + x T^3; the singularity is known exactly
tau = 2.0 ** (-1.0 / 3.0)
rho_exact = tau / (1.0 + tau**3)

est = estimate_singularity(system)
print("estimated rho   %.12f" % est.rho)
print("exact rho       %.12f" % rho_exact)
print("bracket width   %.3g" % (est.upper - est.lower))
print("found by        %s, %d Newton runs" % (est.method, est.newton_runs))
print()

# inside the disk of convergence Newton settles in a handful of steps;
# T(x) climbs toward its finite limit value as x approaches rho
print("   x/rho    T(x)        iterations")
for frac in (0.5, 0.9, 0.99, 0.999):
    x = frac * est.rho
    result = newton_evaluate(system, x)
    print(
        "  %6.3f   %-10.6f  %d"
        % (frac, result.values[system.start], result.iterations)
    )
print()

# solve() bundles bracketing and evaluation: with x="auto" it backs off
# slightly from the singularity, which maximizes the spread of free
# Boltzmann sizes; the result is a plain-text table safe to diff
oracle = solve(system)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "ternary.oracle"
    save_oracle(oracle, path)
    reloaded = load_oracle(path, system)
    print("oracle round trip")
    print("-----------------")
    print(path.read_text(), end="")
    drift = max(
        abs(reloaded.values[name] - oracle.values[name])
        for name in system.classes
    )
    assert math.isclose(reloaded.x, oracle.x)
    print("max value drift after reload: %.3g" % drift)
