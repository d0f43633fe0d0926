"""Efficient scalar power design: Lambda_t = a_t H^-1.

With this input shape the contraction is isotropic, Sigma_t = b_t Sigma0
with b_{t+1} = b_t/(1+a_t), and the surrogate cost collapses to a
one-dimensional optimal control problem

    J = sum_t  c1_t a_t + c2_t sqrt(a_t b_t) + c3_t b_t   (+ schedule-free terms)

whose adjoint gradient dJ/da_t is exactly the per-step stationarity
expression

    g_t = c1_t + c2_t sqrt(b_t)/(2 sqrt(a_t)) - b_t theta_{t+1}/(1+a_t)^2,
    theta_t = c3_t + c2_t sqrt(a_t)/(2 sqrt(b_t)) + theta_{t+1}/(1+a_t).

Both recursions are evaluated as whole-array operations. b is a cumulative
product, and the costate is carried scaled, phi_t = theta_t b_t, which is a
suffix sum:

    phi_t = nu b_n + sum_{s>=t} (c3_s b_s + c2_s sqrt(a_s b_s)/2),
    g_t   = c1_t + c2_t sqrt(b_t)/(2 sqrt(a_t)) - phi_{t+1}/(1+a_t).

This form never divides by b_t, so it stays finite after b underflows.

Each inner solve (fixed nu) is one projected Newton iteration in u = log a
on the reduced cost, with the exact gradient g_t a_t and the analytic
Hessian. With psi_m = nu b_n + sum_{k>=m} (c3_k b_k + c2_k sqrt(a_k b_k)/4)
and q_t = c2_t sqrt(b_t/a_t)/4, the Hessian of J in a is

    dg_t/da_s = (psi_{max(t,s)+1}/(1+a_s) - [s>t] q_s)/(1+a_t) - [s<t] q_t/(1+a_s)
                + [s=t] (phi_{t+1}/(1+a_t)^2 - q_t/a_t),

which is symmetric and semi-separable, and in u it is a_t a_s dg_t/da_s +
[s=t] a_t g_t. Where it is not positive definite a multiple of the
identity is added (Nocedal & Wright, Numerical Optimization, ch. 3). Steps
are accepted on an Armijo decrease of J, or, for an unmodified Newton
step, on a decrease of the residual: J stalls in roundoff long before g
does when nu is large. The search is unbounded above; entries are held at
A_FLOOR while g_t >= 0 there (the KKT condition of the bound). Once
|g_t| <= RESIDUAL_TOL on the free entries, full Newton steps continue only
while they still reduce it, so the solve ends at roundoff level. A single
backward sweep from a guessed terminal (b_n, theta_n) is NOT used: on
realistic systems the stationarity root vanishes once b grows past
(2 c1/|c2|)^2, so the sweep either dies or returns a near-zero schedule
inconsistent with b_0 = 1.

The terminal-accuracy condition b_n = epsilon is enforced, when it binds,
through the terminal costate theta_n = nu >= 0 (the constraint multiplier).
b_n falls monotonically as nu grows, so log nu is bracketed and then found
by one Brent root solve of log b_n(nu) = log epsilon; each inner solve
warm-starts from the previous schedule.

The constants c1/c2/c3 absorb the surrogate's state-error costates
(`costate_Z`: theta_Z,n = Fn, theta_Z,t = F + K'GK + Abar' theta_Z,t+1 Abar)
and its offset-feedback sequence (`offset_feedback_seq`: L_0 = -I,
L_{t+1} = Abar_t L_t - B D_t). Both depend on the gains alone, so they are
computed once per gain schedule. The rest of the surrogate's minimum-
principle stack (stage cost, Hamiltonian, Sigma-costate, power gradient)
is the test oracle `tests/pmp_oracle.py`, which checks these constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..channel import ChannelSetup
from ..errors import NoRootFound, ValidationError
from ..gains import GainSchedule
from ..linalg import psd_sqrt, sym_part
from ..model import SystemModel
from .schedules import PowerSchedule, ScheduleMode

A_FLOOR = 1e-12
U_FLOOR = np.log(A_FLOOR)
RESIDUAL_TOL = 1e-10
NEWTON_MAXITER = 100          # Newton steps per inner solve
MAX_BACKTRACKS = 40           # step halvings per Newton step
MAX_LOG_STEP = np.log(1e4)    # largest change of any log a_t in one step
ARMIJO = 1e-4                 # sufficient-decrease constant of the line search
HESS_SHIFT = 1e-3             # first identity shift of the scaled Hessian
BRACKET_STEP = np.log(10.0)  # first bracket step in log nu; doubles per step
NU_XTOL = 1e-13               # root tolerance in log nu
LOG_NU_MAX = np.log(np.finfo(float).max)
B_N_MARGIN = 1e-13            # relative gap aimed for below epsilon, so that
                              # rounding can not lift b_n above it


@dataclass(frozen=True)
class ConstantsTable:
    """Schedule-independent constants of the scalar problem.

    c1/c2/c3 are the reduced per-step coefficients after absorbing the
    Z-costates; H holds the channel gains, Lambda_t = a_t / H.
    """

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    H: np.ndarray


def offset_feedback_seq(gains: GainSchedule, model: SystemModel) -> list[np.ndarray]:
    """Surrogate cross-covariance coefficients L_t: L_0 = -I, L_{t+1} = Abar_t L_t - B D_t.

    Independent of the power schedule, so computed once per gain schedule.
    """
    L = [-np.eye(model.d0)]
    for t in range(model.n):
        Abar = model.A - model.B @ gains.K[t]
        L.append(Abar @ L[-1] - model.B @ gains.D[t])
    return L


def costate_Z(gains: GainSchedule, model: SystemModel) -> list[np.ndarray]:
    """Backward costates of Z_t: theta_n = Fn, theta_t = F + K'GK + Abar' theta Abar."""
    theta = [None] * (model.n + 1)
    theta[model.n] = model.Fn.copy()
    for t in range(model.n - 1, -1, -1):
        Abar = model.A - model.B @ gains.K[t]
        theta[t] = sym_part(model.F + gains.K[t].T @ model.G @ gains.K[t]
                            + Abar.T @ theta[t + 1] @ Abar)
    return theta


def scalar_constants(gains: GainSchedule, setup: ChannelSetup,
                     model: SystemModel) -> ConstantsTable:
    """Assemble the constant tables for the scalar solver.

    Q_a, Q_b and Q_ab weight the covariance transition, r_a, r_b and r_ab
    the stage cost; contracted with the Z-costates they give c1/c2/c3.
    """
    n = model.n
    thetaZ = costate_Z(gains, model)
    L = offset_feedback_seq(gains, model)
    U, H = setup.eig.U, setup.eig.H
    Q, Q1 = setup.Q, setup.Q1
    G, G1 = model.G, model.G1
    Itil = model.leader_embed
    S0 = model.Sigma0
    S0_12 = psd_sqrt(S0)
    UHinv = (U / H) @ U.T
    UHm12 = (U / np.sqrt(H)) @ U.T

    Q_a = Q1 @ UHinv @ Q1.T
    r_a = float(np.trace(Q.T @ G1 @ Q @ UHinv))
    c1, c2, c3 = np.empty((3, n))
    for t in range(n):
        K, D = gains.K[t], gains.D[t]
        Abar = model.A - model.B @ K
        BD = model.B @ D
        Q_b = BD @ S0 @ L[t + 1].T + Abar @ L[t] @ S0 @ BD.T
        X = Q1 @ UHm12 @ S0_12 @ L[t + 1].T
        Q_ab = X + X.T
        r_b = float(np.trace(D.T @ G @ (D @ S0 + 2.0 * K @ L[t] @ S0)))
        r_ab = float(np.trace((D + K @ L[t]).T @ G @ Itil @ Q @ UHm12 @ S0_12))
        c1[t] = r_a + float(np.trace(thetaZ[t + 1] @ Q_a.T))
        c2[t] = float(np.trace(thetaZ[t + 1] @ Q_ab.T)) - 2.0 * r_ab
        c3[t] = r_b - float(np.trace(thetaZ[t + 1] @ Q_b.T))
    return ConstantsTable(c1=c1, c2=c2, c3=c3, H=H.copy())


def _b_forward(a: np.ndarray) -> np.ndarray:
    """b_0 = 1, b_{t+1} = b_t / (1 + a_t)."""
    return np.concatenate(([1.0], np.cumprod(1.0 / (1.0 + a))))


def _scaled_costate(a: np.ndarray, b: np.ndarray, c: ConstantsTable,
                    nu: float, weight: float = 0.5) -> np.ndarray:
    """phi_t = theta_t b_t for t = 0..n, summed backward from phi_n = nu b_n.

    weight = 1/4 gives the Hessian's psi_t instead.
    """
    terms = np.append(c.c3 * b[:-1] + weight * c.c2 * np.sqrt(a * b[:-1]),
                      nu * b[-1])
    return np.cumsum(terms[::-1])[::-1]


def _reduced_cost(a: np.ndarray, c: ConstantsTable, nu: float) -> float:
    b = _b_forward(a)
    phi = _scaled_costate(a, b, c, nu)
    return float(np.sum(c.c1 * a + 0.5 * c.c2 * np.sqrt(a * b[:-1])) + phi[0])


def stationarity_residuals(a: np.ndarray, c: ConstantsTable,
                           nu: float = 0.0) -> np.ndarray:
    """g_t along the trajectory implied by a (b forward from 1, theta backward)."""
    b = _b_forward(a)
    phi = _scaled_costate(a, b, c, nu)
    return c.c1 + c.c2 * np.sqrt(b[:-1]) / (2.0 * np.sqrt(a)) - phi[1:] / (1.0 + a)


def _hessian(a: np.ndarray, g: np.ndarray, c: ConstantsTable,
             nu: float) -> np.ndarray:
    """Hessian of the reduced cost in u = log a, given g at a.

    Off the diagonal a_t a_s dg_t/da_s = x_min(t,s) y_max(t,s), with
    x = a/(1+a) and y_t = psi_{t+1} x_t - a_t q_t, so no product a_t a_s
    is formed.
    """
    b = _b_forward(a)
    phi = _scaled_costate(a, b, c, nu)
    psi = _scaled_costate(a, b, c, nu, weight=0.25)
    x = a / (1.0 + a)
    aq = 0.25 * c.c2 * np.sqrt(a * b[:-1])
    y = psi[1:] * x - aq
    low = np.tril(np.outer(y, x), -1)
    hess = low + low.T
    np.fill_diagonal(hess, (phi[1:] + psi[1:]) * x ** 2 - aq + a * g)
    return hess


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve hess p = -grad, adding a multiple of the identity to the
    Jacobi-scaled hess until it factors; also says whether none was added."""
    import scipy.linalg   # on first use, so `import lqcoord` needs numpy alone

    d = np.sqrt(np.abs(np.diag(hess)))
    d[d == 0.0] = 1.0
    scaled = hess / np.outer(d, d)
    shift = 0.0
    while True:
        try:
            factor = scipy.linalg.cho_factor(scaled + shift * np.eye(d.size))
            break
        except np.linalg.LinAlgError:
            shift = max(10.0 * shift, HESS_SHIFT)
    return -scipy.linalg.cho_solve(factor, grad / d) / d, shift == 0.0


def _free(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Entries not held at the floor (held: u_t = log A_FLOOR and g_t >= 0)."""
    return (u > U_FLOOR) | (g < 0.0)


def _solve_for_nu(c: ConstantsTable, nu: float,
                  a0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the reduced objective over a >= A_FLOOR for a fixed terminal costate nu.

    Projected Newton in u = log a on the analytic Hessian, from a0; entries
    held at A_FLOOR are left out of the step. Once the projected residual
    (g, zero on the held entries) is within RESIDUAL_TOL, full Newton steps
    continue while they still reduce it, so the solve ends at roundoff
    level. Returns a and its projected residual.
    """
    u = np.log(np.maximum(a0, A_FLOOR))
    reached = [u.min(), u.max()]
    g = stationarity_residuals(np.exp(u), c, nu)
    for _ in range(NEWTON_MAXITER):
        a, free = np.exp(u), _free(u, g)
        worst = np.abs(g[free]).max(initial=0.0)
        converged = worst <= RESIDUAL_TOL
        grad = g * a
        step = np.zeros_like(u)
        step[free], newton = _newton_step(
            _hessian(a, g, c, nu)[np.ix_(free, free)], grad[free])
        step *= min(1.0, MAX_LOG_STEP / np.abs(step).max(initial=MAX_LOG_STEP))
        cost = _reduced_cost(a, c, nu)
        for _ in range(1 if converged else MAX_BACKTRACKS):
            trial = np.maximum(u + step, U_FLOOR)
            with np.errstate(over="ignore", invalid="ignore"):
                trial_cost = _reduced_cost(np.exp(trial), c, nu)
                trial_g = stationarity_residuals(np.exp(trial), c, nu)
            if np.isfinite(trial_cost) and np.all(np.isfinite(trial_g)):
                trial_worst = np.abs(trial_g[_free(trial, trial_g)]).max(initial=0.0)
                if newton and trial_worst < worst:
                    break
                if (not converged
                        and trial_cost <= cost + ARMIJO * grad @ (trial - u)):
                    break
            step *= 0.5
        else:
            break
        u, g = trial, trial_g
        reached = [min(reached[0], u.min()), max(reached[1], u.max())]
    resid = np.where(_free(u, g), g, 0.0)
    t = int(np.abs(resid).argmax())
    if abs(resid[t]) <= RESIDUAL_TOL:
        return np.exp(u), resid
    lo, hi = np.exp(reached)
    raise NoRootFound(
        f"stationarity system not solvable to {RESIDUAL_TOL:g}: the inner "
        f"solve reached a in [{lo:.3g}, {hi:.3g}]; worst residual "
        f"{resid[t]:.3e} at t={t}")


def scalar_backward_solve(constants: ConstantsTable, epsilon: float,
                          model: SystemModel, setup: ChannelSetup,
                          gains: GainSchedule | None = None) -> PowerSchedule:
    """Solve the scalar power problem with terminal-accuracy target epsilon.

    Returns the unconstrained optimum when it already reaches b_n <=
    epsilon; otherwise root-solves the terminal costate multiplier nu for
    b_n = epsilon, keeping the solution on the b_n <= epsilon side. Either
    way the returned trajectory satisfies every stationarity equation to
    RESIDUAL_TOL, except on entries held at A_FLOOR with g_t >= 0 (the KKT
    conditions of the bound), and carries b forward from b_0 = 1; the
    schedule records this projected residual. An epsilon so small
    that its multiplier would overflow raises ValidationError before any
    inner solve.
    """
    if not epsilon > 0.0:
        raise ValidationError(f"epsilon: {epsilon:g} must be positive")
    c = constants
    n = c.c1.size
    # The multiplier that meets b_n = epsilon grows like c1 epsilon^-(1+1/n)
    # (see the guess below); past the float range it can not be represented.
    log_floor = n / (n + 1.0) * (np.log(c.c1[-1]) - LOG_NU_MAX)
    if np.log(epsilon) < log_floor:
        raise ValidationError(
            f"epsilon: {epsilon:g} is below the reachable floor "
            f"{np.exp(log_floor):.3g} at horizon n={n}; the terminal "
            f"multiplier, about c1 epsilon^-(1+1/n), would overflow")
    # myopic initializer: per-step optimum ignoring the b-coupling
    a0 = np.clip(c.c2 ** 2 / (4.0 * c.c1 ** 2) * 0.5, 1e-6, 1e2)

    a, resid = _solve_for_nu(c, 0.0, a0)
    inner_solves = 1
    nu = 0.0
    if _b_forward(a)[-1] > epsilon:
        # The accuracy target binds. Spread the missing contraction evenly
        # over the steps, so that b_n hits the target, and guess nu from the
        # last stationarity equation there: phi_n = nu epsilon ~ c1 (1 + a_{n-1}).
        log_target = np.log(epsilon) - B_N_MARGIN
        a = (1.0 + a) * np.exp((-np.sum(np.log1p(a)) - log_target) / n) - 1.0
        solved = {}  # log nu -> (a, projected residual, log b_n - log target)

        def excess(log_nu: float) -> float:
            nonlocal a, inner_solves
            if log_nu not in solved:
                a, resid = _solve_for_nu(c, np.exp(log_nu), a)
                inner_solves += 1
                solved[log_nu] = (a, resid, -np.sum(np.log1p(a)) - log_target)
            return solved[log_nu][2]

        lo = hi = np.log(c.c1[-1] * (1.0 + a[-1]) / epsilon)
        step = BRACKET_STEP
        while excess(hi) > 0.0:  # raise nu until b_n <= target ...
            lo, hi = hi, hi + step
            step *= 2.0
            if hi > LOG_NU_MAX:
                raise NoRootFound("terminal multiplier search failed to "
                                  f"bracket epsilon={epsilon:g}")
        while excess(lo) <= 0.0:  # ... or lower it until b_n > target
            lo, hi = lo - step, lo
            step *= 2.0
        import scipy.optimize
        scipy.optimize.brentq(excess, lo, hi, xtol=NU_XTOL)
        # the smallest evaluated nu with b_n <= epsilon lies within xtol of the root
        log_nu = min(x for x, (a_x, _, _) in solved.items()
                     if _b_forward(a_x)[-1] <= epsilon)
        a, resid, _ = solved[log_nu]
        nu = float(np.exp(log_nu))

    return PowerSchedule(mode=ScheduleMode.SCALAR, Lambda=a[:, None] / c.H, a=a,
                         b=_b_forward(a), terminal_multiplier=nu,
                         stationarity_residuals=resid,
                         inner_solves=inner_solves)


def solve_scalar_power(gains: GainSchedule, setup: ChannelSetup,
                       model: SystemModel, epsilon: float = 1e-3) -> PowerSchedule:
    """Convenience wrapper: constants + solve in one call."""
    constants = scalar_constants(gains, setup, model)
    return scalar_backward_solve(constants, epsilon, model, setup, gains)
