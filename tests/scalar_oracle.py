"""Sequential per-step recursions of the scalar power problem.

An independent oracle for the whole-array versions in
`lqcoord.power.scalar`: b runs forward from b_0 = 1, the costate theta runs
backward from theta_n = nu, and the stationarity residual g_t is read off
step by step, exactly as the equations are written in that module's
docstring (dividing by b_t, so the oracle goes non-finite once b underflows).

`hessian` and `newton_step` are the module's Newton step as first written:
the n x n Hessian assembled from the generators of `scalar._evaluate`,
a Cholesky factorisation as the positive-definite test, then one LU solve
of the (bordered) system; the reference for the O(n) generator-form step,
with the module's exact +-1 scaled diagonal. `brent_solve` is the design's
earlier search over the terminal multiplier, kept as the reference for the
module's one KKT solve; its inner solves take the dense step as first
written, the scaled diagonal formed as the quotient diag/d^2.
"""

import numpy as np
import scipy.optimize

from lqcoord.power import scalar


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


# --- the dense Newton step --------------------------------------------------------

def hessian(x, y, diag):
    """The matrix with generators (x, y, diag): x_min(t,s) y_max(t,s) off
    the diagonal, diag on it."""
    low = np.tril(np.outer(y, x), -1)
    hess = low + low.T
    np.fill_diagonal(hess, diag)
    return hess


def newton_step(hess, grad, border=None, unit_diagonal=True):
    """Solve hess p = -grad, or with a border x the KKT system
    [hess, -x; -x', 0] [p; mu] = [-grad; 0] for p and mu stacked.

    The identity shift of the Jacobi-scaled hess is raised as in
    `scalar._newton_step` until a Cholesky factorisation succeeds; also
    says whether none was added. The scaled diagonal is +-1, as in the
    module, or with unit_diagonal=False the quotient diag/d^2 as first
    written, which may round to just above -1.
    """
    d = np.sqrt(np.abs(np.diag(hess)))
    d[d == 0.0] = 1.0
    m = d.size
    scaled = hess / np.outer(d, d)
    if unit_diagonal:
        np.fill_diagonal(scaled, np.sign(np.diag(hess)))
    shift = 0.0
    while True:
        try:
            np.linalg.cholesky(scaled)
            break
        except np.linalg.LinAlgError:
            raised = max(10.0 * shift, scalar.HESS_SHIFT)
            scaled[np.diag_indices(m)] += raised - shift
            shift = raised
    rhs = -grad / d
    if border is not None:
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = scaled
        kkt[:m, m] = kkt[m, :m] = -border / d
        scaled, rhs, d = kkt, np.append(rhs, 0.0), np.append(d, 1.0)
    return np.linalg.solve(scaled, rhs) / d, shift == 0.0


# --- the scalar design as first written: a Brent search over the multiplier ---

def _at_nu(a, c, nu):
    """`scalar._evaluate` at the terminal costate nu (phi_n = nu b_n), and
    the reduced cost at nu, which adds nu b_n."""
    b_n = scalar._evaluate(a, c, 0.0).b[-1]
    point = scalar._evaluate(a, c, nu * b_n)
    return point, point.cost + nu * b_n


def _solve_for_nu(c, nu, a0):
    """Minimize the reduced objective over a >= A_FLOOR for a fixed terminal
    costate nu: projected Newton in u = log a from a0, every step the dense
    `newton_step` as first written on the module's Hessian generators, with
    the module's line search and floor rule. Returns a and its
    projected residual."""
    u = np.log(np.maximum(a0, scalar.A_FLOOR))
    point, cost = _at_nu(np.exp(u), c, nu)
    g = point.g
    for _ in range(scalar.NEWTON_MAXITER):
        a, free = np.exp(u), scalar._free(u, g)
        worst = np.abs(g[free]).max(initial=0.0)
        converged = worst <= scalar.RESIDUAL_TOL
        grad = g * a
        step = np.zeros_like(u)
        step[free], newton = newton_step(
            hessian(*point.hess)[np.ix_(free, free)], grad[free], unit_diagonal=False)
        step *= min(1.0, scalar.MAX_LOG_STEP
                    / np.abs(step).max(initial=scalar.MAX_LOG_STEP))
        for _ in range(1 if converged else scalar.MAX_BACKTRACKS):
            trial = np.maximum(u + step, scalar.U_FLOOR)
            with np.errstate(over="ignore", invalid="ignore"):
                trial_point, trial_cost = _at_nu(np.exp(trial), c, nu)
                trial_g = trial_point.g
            if np.isfinite(trial_cost) and np.all(np.isfinite(trial_g)):
                trial_worst = np.abs(trial_g[scalar._free(trial, trial_g)]).max(initial=0.0)
                if newton and trial_worst < worst:
                    break
                if (not converged
                        and trial_cost <= cost + scalar.ARMIJO * grad @ (trial - u)):
                    break
            step *= 0.5
        else:
            break
        u, g, point, cost = trial, trial_g, trial_point, trial_cost
    resid = np.where(scalar._free(u, g), g, 0.0)
    assert np.abs(resid).max() <= scalar.RESIDUAL_TOL, "reference inner solve failed"
    return np.exp(u), resid


def brent_solve(c, epsilon):
    """The design for b_n <= epsilon by a search over the multiplier nu.

    The free optimum (nu = 0) when it meets the target; otherwise log nu is
    bracketed from a guess and found by one Brent root solve of
    log b_n(nu) = log(epsilon) - B_N_MARGIN, each trial nu running a full
    inner solve warm-started from the previous schedule; the smallest
    evaluated nu with b_n <= epsilon is returned. Returns a, its projected
    residual, nu and the number of inner solves.
    """
    n = c.c1.size
    a0 = np.clip(c.c2 ** 2 / (4.0 * c.c1 ** 2) * 0.5, 1e-6, 1e2)
    a, resid = _solve_for_nu(c, 0.0, a0)
    if scalar._evaluate(a, c, 0.0).b[-1] <= epsilon:
        return a, resid, 0.0, 1
    log_target = np.log(epsilon) - scalar.B_N_MARGIN
    a = (1.0 + a) * np.exp((-np.sum(np.log1p(a)) - log_target) / n) - 1.0
    solved = {}  # log nu -> (a, projected residual, log b_n - log target)

    def excess(log_nu):
        nonlocal a
        if log_nu not in solved:
            a, resid = _solve_for_nu(c, np.exp(log_nu), a)
            solved[log_nu] = (a, resid, -np.sum(np.log1p(a)) - log_target)
        return solved[log_nu][2]

    lo = hi = np.log(c.c1[-1] * (1.0 + a[-1]) / epsilon)
    step = np.log(10.0)
    while excess(hi) > 0.0:
        lo, hi = hi, hi + step
        step *= 2.0
    while excess(lo) <= 0.0:
        lo, hi = lo - step, lo
        step *= 2.0
    scipy.optimize.brentq(excess, lo, hi, xtol=1e-13)
    log_nu = min(x for x, (a_x, _, _) in solved.items()
                 if scalar._evaluate(a_x, c, 0.0).b[-1] <= epsilon)
    a, resid, _ = solved[log_nu]
    return a, resid, float(np.exp(log_nu)), 1 + len(solved)
