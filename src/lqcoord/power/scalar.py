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

The production solver minimizes J directly (L-BFGS on log a, then a
trust-region root solve of the stationarity system), which lands on a
trajectory satisfying every stationarity equation by construction. A single
backward sweep from a guessed terminal (b_n, theta_n) is NOT used: on
realistic systems the stationarity root vanishes once b grows past
(2 c1/|c2|)^2, so the sweep either dies or returns a near-zero schedule
inconsistent with b_0 = 1.

The terminal-accuracy condition b_n = epsilon is enforced, when it binds,
through the terminal costate theta_n = nu >= 0 (the constraint multiplier).
b_n falls monotonically as nu grows, so log nu is bracketed and then found
by one Brent root solve of log b_n(nu) = log epsilon; each inner solve
warm-starts from the previous schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from ..channel import ChannelSetup
from ..errors import NoRootFound, ValidationError
from ..gains import GainSchedule
from ..linalg import psd_sqrt
from ..model import SystemModel
from .pmp import costate_Z, offset_feedback_seq
from .schedules import PowerSchedule, ScheduleMode

A_FLOOR = 1e-12
A_CEIL = 1e6
RESIDUAL_TOL = 1e-10
BRACKET_STEP = np.log(10.0)  # first bracket step in log nu; doubles per step
NU_XTOL = 1e-13               # root tolerance in log nu
LOG_NU_MAX = np.log(np.finfo(float).max)
B_N_MARGIN = 1e-13            # relative gap aimed for below epsilon, so that
                              # rounding can not lift b_n above it


@dataclass(frozen=True)
class ConstantsTable:
    """Schedule-independent constants of the scalar problem.

    Q_a/Q_b/Q_ab weight the covariance transition, r_a/r_b/r_ab the stage
    cost; c1/c2/c3 are the reduced per-step coefficients after absorbing
    the Z-costates.
    """

    Q_a: np.ndarray
    Q_b: list[np.ndarray]
    Q_ab: list[np.ndarray]
    r_a: float
    r_b: np.ndarray
    r_ab: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    H: np.ndarray
    thetaZ: list[np.ndarray]


def scalar_constants(gains: GainSchedule, setup: ChannelSetup,
                     model: SystemModel,
                     thetaZ: list[np.ndarray] | None = None) -> ConstantsTable:
    """Assemble the constant tables for the scalar solver."""
    n = model.n
    if thetaZ is None:
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
    Q_b, Q_ab = [], []
    r_b = np.empty(n)
    r_ab = np.empty(n)
    c1 = np.empty(n)
    c2 = np.empty(n)
    c3 = np.empty(n)
    for t in range(n):
        K, D = gains.K[t], gains.D[t]
        Abar = model.A - model.B @ K
        BD = model.B @ D
        Qb = BD @ S0 @ L[t + 1].T + Abar @ L[t] @ S0 @ BD.T
        X = Q1 @ UHm12 @ S0_12 @ L[t + 1].T
        Qab = X + X.T
        Q_b.append(Qb)
        Q_ab.append(Qab)
        r_b[t] = float(np.trace(D.T @ G @ (D @ S0 + 2.0 * K @ L[t] @ S0)))
        r_ab[t] = float(np.trace((D + K @ L[t]).T @ G @ Itil @ Q @ UHm12 @ S0_12))
        c1[t] = r_a + float(np.trace(thetaZ[t + 1] @ Q_a.T))
        c2[t] = float(np.trace(thetaZ[t + 1] @ Qab.T)) - 2.0 * r_ab[t]
        c3[t] = r_b[t] - float(np.trace(thetaZ[t + 1] @ Qb.T))
    return ConstantsTable(Q_a=Q_a, Q_b=Q_b, Q_ab=Q_ab, r_a=r_a, r_b=r_b,
                          r_ab=r_ab, c1=c1, c2=c2, c3=c3, H=H.copy(),
                          thetaZ=thetaZ)


def _b_forward(a: np.ndarray) -> np.ndarray:
    """b_0 = 1, b_{t+1} = b_t / (1 + a_t)."""
    return np.concatenate(([1.0], np.cumprod(1.0 / (1.0 + a))))


def _scaled_costate(a: np.ndarray, b: np.ndarray, c: ConstantsTable,
                    nu: float) -> np.ndarray:
    """phi_t = theta_t b_t for t = 0..n, summed backward from phi_n = nu b_n."""
    terms = np.append(c.c3 * b[:-1] + 0.5 * c.c2 * np.sqrt(a * b[:-1]),
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


def theta_b_sequence(a: np.ndarray, c: ConstantsTable, nu: float = 0.0) -> np.ndarray:
    """Costates theta_{b,t} backward from theta_{b,n} = nu.

    theta_t is unbounded where b_t underflows to 0 and comes out non-finite there.
    """
    b = _b_forward(a)
    theta = _scaled_costate(a, b, c, nu) / b
    theta[-1] = nu
    return theta


def _solve_for_nu(c: ConstantsTable, nu: float, a0: np.ndarray) -> np.ndarray:
    """Minimize the reduced objective for a fixed terminal costate nu.

    Two stages in log coordinates: L-BFGS gets near the optimum, then a
    trust-region root solve of the stationarity system polishes the
    residuals to machine precision. Root-finding on the gradient of a
    smooth scalar function is well conditioned near its minimum; jumping
    straight into it from a cold start is not, hence the two stages.
    """
    u0 = np.log(np.clip(a0, A_FLOOR, A_CEIL))
    res = scipy.optimize.minimize(
        lambda u: _reduced_cost(np.exp(u), c, nu), u0,
        jac=lambda u: stationarity_residuals(np.exp(u), c, nu) * np.exp(u),
        method="L-BFGS-B",
        bounds=[(np.log(A_FLOOR), np.log(A_CEIL))] * a0.size,
        options=dict(maxiter=5000, ftol=1e-18, gtol=1e-14))
    sol = scipy.optimize.root(
        lambda u: stationarity_residuals(np.exp(u), c, nu), res.x,
        method="hybr", options=dict(xtol=1e-14))
    a = np.exp(sol.x)
    resid = stationarity_residuals(a, c, nu)
    if np.abs(resid).max() > RESIDUAL_TOL:
        # keep whichever stage did better before reporting failure
        a_lbfgs = np.exp(res.x)
        if (np.abs(stationarity_residuals(a_lbfgs, c, nu)).max()
                < np.abs(resid).max()):
            a, resid = a_lbfgs, stationarity_residuals(a_lbfgs, c, nu)
    if np.abs(resid).max() > RESIDUAL_TOL:
        worst = int(np.abs(resid).argmax())
        raise NoRootFound(
            f"stationarity system not solvable to {RESIDUAL_TOL:g} on "
            f"[{A_FLOOR:g}, {A_CEIL:g}]; worst residual {resid[worst]:.3e} "
            f"at t={worst}")
    return a


def scalar_backward_solve(constants: ConstantsTable, epsilon: float,
                          model: SystemModel, setup: ChannelSetup,
                          gains: GainSchedule | None = None) -> PowerSchedule:
    """Solve the scalar power problem with terminal-accuracy target epsilon.

    Returns the unconstrained optimum when it already reaches b_n <=
    epsilon; otherwise root-solves the terminal costate multiplier nu for
    b_n = epsilon, keeping the solution on the b_n <= epsilon side. Either
    way the returned trajectory satisfies every stationarity equation to
    RESIDUAL_TOL and carries b forward from b_0 = 1. An epsilon so small
    that its multiplier would overflow raises ValidationError before any
    inner solve.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
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

    a = _solve_for_nu(c, 0.0, a0)
    inner_solves = 1
    nu = 0.0
    if _b_forward(a)[-1] > epsilon:
        # The accuracy target binds. Spread the missing contraction evenly
        # over the steps, so that b_n hits the target, and guess nu from the
        # last stationarity equation there: phi_n = nu epsilon ~ c1 (1 + a_{n-1}).
        log_target = np.log(epsilon) - B_N_MARGIN
        a = (1.0 + a) * np.exp((-np.sum(np.log1p(a)) - log_target) / n) - 1.0
        solved = {}  # log nu -> (a, log b_n - log target)

        def excess(log_nu: float) -> float:
            nonlocal a, inner_solves
            if log_nu not in solved:
                a = _solve_for_nu(c, np.exp(log_nu), a)
                inner_solves += 1
                solved[log_nu] = (a, -np.sum(np.log1p(a)) - log_target)
            return solved[log_nu][1]

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
        scipy.optimize.brentq(excess, lo, hi, xtol=NU_XTOL)
        # the smallest evaluated nu with b_n <= epsilon lies within xtol of the root
        log_nu = min(x for x, (a_x, _) in solved.items()
                     if _b_forward(a_x)[-1] <= epsilon)
        a = solved[log_nu][0]
        nu = float(np.exp(log_nu))

    resid = stationarity_residuals(a, c, nu)
    b = _b_forward(a)
    Lambda = [a[t] / c.H for t in range(n)]
    return PowerSchedule(mode=ScheduleMode.SCALAR, Lambda=Lambda, a=a, b=b,
                         terminal_multiplier=nu, stationarity_residuals=resid,
                         inner_solves=inner_solves)


def solve_scalar_power(gains: GainSchedule, setup: ChannelSetup,
                       model: SystemModel, epsilon: float = 1e-3) -> PowerSchedule:
    """Convenience wrapper: constants + solve in one call."""
    constants = scalar_constants(gains, setup, model)
    return scalar_backward_solve(constants, epsilon, model, setup, gains)
