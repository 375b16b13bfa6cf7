"""Certified convergence rates for linear systems with delays.

A delay system is alpha-stable when solutions sit under c*exp(-alpha t).
The scalar rate inequality turns a Lyapunov-equation solution P into an
explicit largest certifiable rate; simulated trajectories cross-check the
claimed envelope.
"""

import numpy as np

from stabkit import alpha as al
from stabkit.schema import bundled_system

ds = bundled_system("delay_coupled").build()
p = al.solve_delay_lyapunov(ds.rhs.a, len(ds.delays))
inputs = al.rate_bound_inputs(ds, p)
print("scalar inputs of the rate inequality:")
print(f"  matrix measure eta = {inputs.eta:.6f}")
print(f"  ||P + I||          = {inputs.p_norm:.6f}")
print(f"  ||A||^2            = {inputs.a_norm_sq:.6f}")
amax = al.max_alpha(inputs.eta, inputs.p_norm, inputs.a_norm_sq,
                    inputs.m, inputs.h)
print(f"  largest certifiable rate = {amax:.4f}")

cert = al.certify(ds, 0.4, al.CertificateRoute.RATE_INEQUALITY, horizon=20.0)
print(f"\ncertificate at rate 0.4: valid={cert.valid}, "
      f"margin={cert.inequality_margin:.4f}")
check = cert.trajectory_check
print(f"simulated envelope ||x(t)|| <= {check.coefficient:.3f} "
      f"exp(-{check.rate}t) verified: {check.verified}")

# a time-varying system certified against a supplied P(t)
rot = bundled_system("delay_rotating").build()
p_t = al.SampledMatrixFunction.from_callable(
    lambda t: np.exp(-t) * np.eye(2), 0.0, 5.0, 20001)
cert = al.certify(rot, 0.2, al.CertificateRoute.RATE_INEQUALITY,
                  p=p_t, horizon=0.0)
print(f"\ntime-varying system at rate 0.2: valid={cert.valid}, "
      f"residual={cert.residual:.2e}, margin={cert.inequality_margin:.4f}")
