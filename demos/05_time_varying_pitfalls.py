"""Why time-varying systems need their own theory.

Three cautionary tales: frozen eigenvalues can lie, convergence can be
real but non-uniform in the starting time, and decay can be genuine yet
slower than every exponential.
"""

import numpy as np

from stabkit import autonomous as aut, lyapunov, odeint
from stabkit.errors import NonFiniteStateError
from stabkit.schema import bundled_system

# 1. frozen-time eigenvalues are -1, -1 for every t, yet a state escapes
esc = bundled_system("exponential_coupling").build()
frozen = np.array([[-1.0, 1.0], [0.0, -1.0]])  # snapshot at t = 0
print("frozen-time verdict:", aut.classify_linear(frozen).kind.value)
try:
    odeint.integrate(esc, [1.0, 1.0], 0.0, 40.0, 1e-3)
    print("trajectory stayed bounded")
except NonFiniteStateError as err:
    print(f"trajectory escaped anyway, around t = {err.t:.1f}")

# 2. convergence that slows down with the starting time
slow = bundled_system("slowing_decay").build()
for t0 in (0.0, 9.0):
    traj = odeint.integrate(slow, [1.0], t0, t0 + 120.0, 1e-3)
    hit = traj.times[np.nonzero(traj.norms() <= 0.1)[0][0]] - t0
    print(f"start at t0={t0:4.1f}: reaching 10% of x0 takes {hit:.2f}s")
print("same contraction law, ten times slower -- stability is not uniform")
# the candidate check reads V = x1^2 on a ladder of later windows as well:
# Vdot = -2 x1^2/(1+t) keeps no time-free margin, so the uniform asymptotic
# and exponential rungs stay out of reach wherever the window starts
for t0 in (0.0, 1000.0):
    rep = lyapunov.check_candidate(slow, lyapunov.CandidateV("x1^2"),
                                   scan=lyapunov.ScanConfig(t0=t0))
    print(f"candidate x1^2 from t0={t0:6.1f}: {rep.conclusion.value} "
          f"(Vdot {rep.vdot_verdict.value})")

# 3. decay slower than any exponential
alg = bundled_system("algebraic_decay").build()
traj = odeint.integrate(alg, [1.0], 0.0, 100.0, 1e-3)
print(f"x(100) = {traj.states[-1][0]:.4f} "
      "(1/(1+t): converges, but every fitted rate collapses as the window grows)")

# 4. damping that grows so fast the mass freezes short of equilibrium
frozen_mass = bundled_system("growing_damping").build()
traj = odeint.integrate(frozen_mass, [2.0, -1.0], 0.0, 6.0, 1e-3)
print(f"\nover-damped mass from (2, -1): x(6) = {traj.states[-1][0]:.4f} "
      "-- stuck near 1, not at the equilibrium 0")
print("(integrated on [0, 6]: the exp(t) damping soon exceeds the stability "
      "limit of a fixed-step explicit method; stiff solvers are out of scope)")
