#!/usr/bin/env python3
"""Linear prediction on a known AR(2) process.

Estimates the predictor from the biased autocorrelation of a realization,
compares against the coefficients that generated the data, and shows the
companion-form transition matrix advancing the state.
"""

import numpy as np

from nkf.linear_prediction import autocorrelate, levinson_durbin, \
    transition_matrix

a1, a2, sigma_w = 1.2, -0.5, 0.1
rng = np.random.default_rng(1)
n = 200000
x = np.zeros(n)
for t in range(2, n):
    x[t] = a1 * x[t - 1] + a2 * x[t - 2] + sigma_w * rng.standard_normal()

r = autocorrelate(x[1000:], max_lag=2)
coeffs, residual_var = levinson_durbin(r, order=2)
print(f"true coefficients      [{a1:.4f}, {a2:.4f}], "
      f"innovation var {sigma_w ** 2:.5f}")
print(f"estimated (N={n - 1000}): [{coeffs[0]:.4f}, "
      f"{coeffs[1]:.4f}], residual var {residual_var:.5f}")

a = transition_matrix(coeffs)
print("companion transition matrix:")
print(np.array_str(a, precision=4))

state = np.array([x[5000], x[4999]])
prediction = (a @ state)[0]
print(f"one-step prediction {prediction:.5f} vs actual {x[5001]:.5f} "
      f"(difference is the innovation)")

print("\nresidual variance by order (non-increasing):")
r8 = autocorrelate(x[1000:], max_lag=8)
for order in range(1, 9):
    print(f"  P={order}: {levinson_durbin(r8, order)[1]:.6f}")
