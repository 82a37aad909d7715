"""Numerical laboratory for singularly perturbed second-order operator equations.

The package studies the two-point operator boundary value problem

    -eps * u''(t) + B u'(t) + (A + lam) u(t) = f(t),   0 < t < T,

with boundary functionals that mix values and scaled first derivatives at
the endpoints, for dense matrix realizations of the operator pair (A, B).
It provides solvers (per mode in a joint eigenbasis, finite differences,
semigroup and Fourier references), weighted-norm estimate reports, boundary
layer measurements, and the vanishing-viscosity comparison against the
first-order Cauchy problem B u' + (A + lam) u = f.
"""

__version__ = "0.1.0"
