"""Sequential per-step recursions of the scalar power problem.

An independent oracle for the whole-array versions in
`lqcoord.power.scalar`: b runs forward from b_0 = 1, the costate theta runs
backward from theta_n = nu, and the stationarity residual g_t is read off
step by step, exactly as the equations are written in that module's
docstring (dividing by b_t, so the oracle goes non-finite once b underflows).
"""

import numpy as np


def b_forward(a):
    b = np.empty(a.size + 1)
    b[0] = 1.0
    for t in range(a.size):
        b[t + 1] = b[t] / (1.0 + a[t])
    return b


def theta_sequence(a, c1, c2, c3, nu):
    b = b_forward(a)
    theta = np.empty(a.size + 1)
    theta[-1] = nu
    for t in range(a.size - 1, -1, -1):
        theta[t] = (c3[t] + c2[t] * np.sqrt(a[t]) / (2.0 * np.sqrt(b[t]))
                    + theta[t + 1] / (1.0 + a[t]))
    return theta


def residuals(a, c1, c2, c3, nu):
    b = b_forward(a)
    theta = theta_sequence(a, c1, c2, c3, nu)
    return np.array([c1[t] + c2[t] * np.sqrt(b[t]) / (2.0 * np.sqrt(a[t]))
                     - b[t] * theta[t + 1] / (1.0 + a[t]) ** 2
                     for t in range(a.size)])
