"""Stability of periodic linear systems from one period of integration.

Integrate the fundamental matrix across a single period, read off its
eigenvalues (the characteristic multipliers), and compare their product
against the exponential of the integrated trace -- a built-in accuracy
check on the whole computation.
"""

import math

from stabkit import floquet as fl
from stabkit.odeint import Linear, SystemDef
from stabkit.schema import bundled_system

sysd = bundled_system("periodic_rotation").build()
rep = fl.floquet_report(sysd, h=1e-3)

print(f"period T = {sysd.period:.6f}")
print("multipliers:")
for m in rep.multipliers:
    print(f"  {m.real:+.6e} {m.imag:+.6e}i   |rho| = {abs(m):.6e}")
print(f"product of moduli     : {rep.liouville_lhs:.6e}")
print(f"integrated-trace value: {rep.liouville_rhs:.6e}")
print(f"relative gap          : {rep.relative_gap:.2e}")
print(f"verdict               : {rep.verdict.value}")

# halving the step shrinks the accuracy gap ~16x (fourth-order integration)
wobble = SystemDef(2, Linear((("-0.2", "sin(t)"),
                             ("cos(t)", "-0.4"))),
                   period=2 * math.pi)
for h in (0.02, 0.01):
    r = fl.floquet_report(wobble, h=h)
    print(f"step {h}: gap {r.relative_gap:.3e}")
