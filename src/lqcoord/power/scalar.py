"""Efficient scalar power design: Lambda_t = a_t H^-1.

With this input shape the contraction is isotropic, Sigma_t = b_t Sigma0
with b_{t+1} = b_t/(1+a_t), and the exact expected cost collapses to the
ex-comm cost (the lower bound) plus the reduced cost of a one-dimensional
optimal control problem, the design's overhead over that bound (the
exact cost's identity on this family; constants below),

    J = sum_t  c1_t a_t + c2_t sqrt(a_t b_t) + c3_t b_t,

whose adjoint gradient dJ/da_t is exactly the per-step stationarity expression

    g_t = c1_t + c2_t sqrt(b_t)/(2 sqrt(a_t)) - b_t theta_{t+1}/(1+a_t)^2,
    theta_t = c3_t + c2_t sqrt(a_t)/(2 sqrt(b_t)) + theta_{t+1}/(1+a_t).

One function, `_evaluate`, gives all the solve reads at a point (a, mu)
in whole-array operations. b is a cumulative product, and the costate is
carried scaled, phi_t = theta_t b_t, a suffix sum from phi_n = mu = nu b_n:

    phi_t = mu + sum_{s>=t} (c3_s b_s + c2_s sqrt(a_s b_s)/2),
    g_t   = c1_t + c2_t sqrt(b_t)/(2 sqrt(a_t)) - phi_{t+1}/(1+a_t).

This form never divides by b_t, so it stays finite after b underflows.

Each solve is one projected Newton iteration on the reduced cost, in
u = log a (or in sqrt a on the target, below), with the exact gradient
g_t a_t and the analytic Hessian. With
psi_m = mu + sum_{k>=m} (c3_k b_k + c2_k sqrt(a_k b_k)/4) and
q_t = c2_t sqrt(b_t/a_t)/4, the Hessian of J in a is

    dg_t/da_s = (psi_{max(t,s)+1}/(1+a_s) - [s>t] q_s)/(1+a_t) - [s<t] q_t/(1+a_s)
                + [s=t] (phi_{t+1}/(1+a_t)^2 - q_t/a_t),

which is symmetric, and in u it is a_t a_s dg_t/da_s + [s=t] a_t g_t.
Off the diagonal that is x_min(t,s) y_max(t,s), with x = a/(1+a) and
y_t = psi_{t+1} x_t - a_t q_t: the Hessian is semi-separable and is kept
as its generators (x, y, diag), never as the n x n matrix; psi and phi
differ only in the c2 weight and come out of one stacked suffix sum. The
free entries' principal submatrix has the same generators, subset. Each
trial point is evaluated once, and the accepted one, its Hessian included,
carries into the next step. Each Newton step factors the Jacobi-scaled
generators (x, y, h), h = sign(diag), as L D L', with L_ts = y_t w_s
below the diagonal, in one O(n) pass from sigma_0 = 0:

    D_s = h_s - y_s^2 sigma_s,  w_s = (x_s - y_s sigma_s) / D_s,
    sigma_{s+1} = sigma_s + w_s^2 D_s.

A pivot D_s <= 0 says the matrix is not positive definite; a multiple of
the identity is then added to h, HESS_SHIFT and up by factors of 10
(Nocedal & Wright, Numerical Optimization, ch. 3). One forward and one
backward sweep on the factor give the step. The pass runs in Python
floats and calls no BLAS, so the design does not depend on the BLAS
thread count.

Steps are accepted on an Armijo decrease of J, or, for an unmodified
Newton step, on a decrease of the residual: J stalls in roundoff long
before g does when nu is large. The search is unbounded above; entries
are held at A_FLOOR while g_t >= 0 there (the KKT condition of the
bound). Once |g_t| <= RESIDUAL_TOL on the free entries, full Newton
steps continue only while they still reduce it, so the solve ends at
roundoff level. A single backward sweep from a guessed terminal (b_n,
theta_n) is NOT used: on realistic systems the stationarity root
vanishes once b grows past (2 c1/|c2|)^2, so the sweep either dies or
returns a near-zero schedule inconsistent with b_0 = 1.

The terminal-accuracy target b_n <= epsilon binds when the free optimum
(nu = 0) misses it, and a design then takes two Newton solves, not one.
The free one only seeds the second, so once its b_n exceeds SEED_MARGIN
epsilon it stops at RESIDUAL_TOL, without the roundoff polish. The second
runs on the surface sum_t log1p(a_t) = -log epsilon (plus B_N_MARGIN),
with the multiplier carried as mu = nu b_n = phi_n throughout and nu =
mu/b_n formed once, on return: mu stays of the order of c1 while nu grows
like epsilon^-(1+1/n), so nothing underflows at epsilon = 1e-100. It
starts from the free optimum with the missing contraction spread evenly
over log1p(a), and every iterate stays on the surface: after each step
the free entries are scaled by one common factor, found by a monotone
one-dimensional Newton iteration, that restores it.

Its Newton steps are taken in v = 2 sqrt(a/a_k) about the current a_k.
Far above a tail entry's optimum c1 a + c2 sqrt(a b) is linear in a, so
Newton in u walks down one e-fold per step (at n = 120, epsilon = 1e-12
some 21 steps for a_119 alone); in v that term is quadratic, and one
step lands on it. As dv = du and d^2u/dv^2 = -1/2 at a_k, the gradient
in v is the one in u, and the Hessian of the Lagrangian J + nu b_n is the
one above with its diagonal lowered by a g(a, nu)/2: the same generators.
A step delta maps back to u + 2 log1p(delta/2), the floor where delta <=
-2, and the line search halves delta before that map, so the restored
trial point stays on a descent path. Where that Hessian needs an identity
shift, the step is the plain one in u. With x = a/(1+a), the gradient of
-log b_n in u and v, the step and the new multiplier come out of one
bordered (KKT) solve (Nocedal & Wright, ch. 18)

    [H, -x; -x', 0] [dv; mu] = [-g(a, 0) a; 0],

with H that Hessian at the current mu and g(a, 0) = g(a, nu) + mu/(1+a).
The border x is the Hessian's own generator. The system is solved on the
O(n) factor through the Schur complement: with r = -g(a, 0) a, mu =
-x'H^-1 r / x'H^-1 x and dv = H^-1 (r + mu x), so two sweeps give H^-1 r
and H^-1 x. Since dv is tangent to x, H may be replaced by H + rho x x',
whose generators are (x, y + rho x, diag + rho x^2); with rho x'x the
size of the shifted, scaled diagonal, the sum has no near-singular
direction along x for the Schur complement to amplify. The step is
tangent to the surface and, with H positive definite (shifted, in u),
descends J at nu = 0, on which the Armijo test runs; the residual test
uses g(a, nu) at the new mu. A negative multiplier at the end says J
still falls into b_n < epsilon, which the nonconvex J of a system with
some c2_t > 0 allows; a third, free, solve from there then releases the
target, and is kept if it still meets it.

The constants c1/c2/c3 are the exact cost's identity (`analytic`) on the
family. With Lambda_t = a_t H^-1 the leader sends enc_t Sigma_t^(1/2) =
sqrt(a_t) Q U diag(H^(-1/2)) U', so Delta_t Sigma_t^(1/2) = sqrt(a_t) N -
sqrt(b_t) D_t Sigma0^(1/2) with N = I~ Q U diag(H^(-1/2)) U', and
Tr(R_t Delta_t Sigma_t Delta_t') is the reduced cost's term at t:

    c1_t = Tr(R_t N N'),  c2_t = -2 Tr(D_t' R_t N Sigma0^(1/2)),
    c3_t = Tr(D_t' R_t D_t Sigma0),

with R_t the gains' input weight; the rest of the identity, the ex-comm
cost, is schedule-free. The tests check these constants against the
paper's covariance-model derivation (`tests/pmp_oracle.py`: its
state-error costates, the offset-feedback sequence and the
minimum-principle stack built on them).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

from ..channel import ChannelSetup
from ..errors import NoRootFound, ValidationError, checked_number
from ..gains import GainSchedule
from ..linalg import psd_sqrt
from ..model import SystemModel
from .schedules import PowerSchedule, ScheduleMode

A_FLOOR = 1e-12
U_FLOOR = np.log(A_FLOOR)
RESIDUAL_TOL = 1e-10
NEWTON_MAXITER = 100          # Newton steps per solve
MAX_BACKTRACKS = 40           # step halvings per Newton step
MAX_LOG_STEP = np.log(1e4)    # largest change of any log a_t in one step
V_STEP_MAX = 2.0 * np.expm1(0.5 * MAX_LOG_STEP)   # that rise of log a_t, in v
ARMIJO = 1e-4                 # sufficient-decrease constant of the line search
HESS_SHIFT = 1e-3             # first identity shift of the scaled Hessian
LOG_NU_MAX = np.log(np.finfo(float).max)
SEED_MARGIN = 2.0             # b_n / epsilon past which the free optimum is
                              # only a seed and skips the roundoff polish
B_N_MARGIN = 1e-13            # relative gap aimed for below epsilon, so that
                              # rounding can not lift b_n above it


@dataclass(frozen=True)
class ConstantsTable:
    """Schedule-independent constants of the scalar problem: the reduced
    cost's per-step coefficients c1/c2/c3 and the channel gains H, with
    Lambda_t = a_t / H."""

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    H: np.ndarray


def scalar_constants(gains: GainSchedule, setup: ChannelSetup,
                     model: SystemModel) -> ConstantsTable:
    """The reduced cost's constants c1/c2/c3 of every step, from the gains'
    input weights R_t (module docstring)."""
    R, D = np.array(gains.R), np.array(gains.D)
    U, H = setup.eig.U, setup.eig.H
    N = model.leader_embed @ setup.Q @ (U / np.sqrt(H)) @ U.T
    RD = R @ D

    def tr(X, Y):   # Tr(X' Y) of each step
        return np.einsum("...ij,...ij->...", X, Y)

    c1 = tr(N, R @ N)
    c2 = -2.0 * tr(RD, N @ psd_sqrt(model.Sigma0))
    c3 = tr(RD, D @ model.Sigma0)
    return ConstantsTable(c1=c1, c2=c2, c3=c3, H=H.copy())


class _Point(NamedTuple):
    """The reduced problem at one point (a, mu), mu = nu b_n."""

    a: np.ndarray
    b: np.ndarray      # b_0..b_n
    phi: np.ndarray    # phi_0..phi_n, phi_n = mu
    cost: float        # J at nu = 0
    g: np.ndarray      # g(a, nu)
    hess: tuple[np.ndarray, np.ndarray, np.ndarray]   # generators (x, y, diag)


def _evaluate(a: np.ndarray, c: ConstantsTable, mu: float) -> _Point:
    """b, phi, the cost J at nu = 0, g(a, nu) and the generators (x, y,
    diag) of the Hessian of J in u = log a at nu."""
    b = np.concatenate(([1.0], np.cumprod(1.0 / (1.0 + a))))
    root = c.c2 * np.sqrt(a * b[:-1])
    terms = np.empty((2, a.size + 1))   # reversed: mu first
    terms[:, 0] = mu
    terms[:, 1:] = (c.c3 * b[:-1] + np.array([[0.5], [0.25]]) * root)[:, ::-1]
    phi, psi = np.cumsum(terms, axis=1)[:, ::-1]
    g = c.c1 + c.c2 * np.sqrt(b[:-1]) / (2.0 * np.sqrt(a)) - phi[1:] / (1.0 + a)
    x, aq = a / (1.0 + a), 0.25 * root
    hess = x, psi[1:] * x - aq, (phi[1:] + psi[1:]) * x ** 2 - aq + a * g
    cost = float(np.sum(c.c1 * a + c.c3 * b[:-1] + root))
    return _Point(a, b, phi, cost, g, hess)


def stationarity_residuals(a: np.ndarray, c: ConstantsTable,
                           nu: float = 0.0) -> np.ndarray:
    """g_t along the trajectory implied by a (b forward from 1, theta backward)."""
    return _evaluate(a, c, nu * _evaluate(a, c, 0.0).b[-1]).g


def _ldl(x: list, y: list, h: list) -> tuple[list, list] | None:
    """LDL' pivots D and multipliers w of the semi-separable matrix with
    generators (x, y, h); None where it is not positive definite."""
    D, w, sigma = [], [], 0.0   # sigma_s = sum_{k<s} w_k^2 D_k
    for xs, ys, hs in zip(x, y, h):
        ds = hs - ys * ys * sigma
        if not ds > 0.0:
            return None
        ws = (xs - ys * sigma) / ds
        sigma += ws * ws * ds
        D.append(ds)
        w.append(ws)
    return D, w


def _ldl_solve(y: list, D: list, w: list, r: list) -> list:
    """z with L D L' z = r, by one forward and one backward sweep."""
    v, tau = [], 0.0            # L v = r: v_t = r_t - y_t sum_{s<t} w_s v_s
    for ys, ws, rs in zip(y, w, r):
        vs = rs - ys * tau
        tau += ws * vs
        v.append(vs)
    z, tau = [], 0.0            # L' z = v/D: z_s = v_s/D_s - w_s sum_{t>s} y_t z_t
    for ys, ws, ds, vs in zip(y[::-1], w[::-1], D[::-1], v[::-1]):
        zs = vs / ds - ws * tau
        tau += ys * zs
        z.append(zs)
    return z[::-1]


def _newton_step(x: np.ndarray, y: np.ndarray, diag: np.ndarray,
                 grad: np.ndarray, bordered: bool = False, may_shift: bool = True
                 ) -> tuple[np.ndarray, bool] | None:
    """The Newton step p on the Hessian generators (x, y, diag) and grad,
    or when bordered the KKT solution (p, mu) stacked; also says whether
    the Hessian needed no identity shift; None where it needs one and
    may_shift is False."""
    d = np.sqrt(np.abs(diag))
    d[d == 0.0] = 1.0
    # diag/d^2 may round to just above -1, and a shift of 1 would then
    # leave a pivot of roundoff size
    xs, ys, hs = (x / d).tolist(), (y / d).tolist(), np.sign(diag).tolist()
    shift = 0.0
    while (factor := _ldl(xs, ys, hs)) is None:
        if not may_shift:
            return None
        raised = max(10.0 * shift, HESS_SHIFT)
        hs = [h + (raised - shift) for h in hs]
        shift = raised
    rhs = (-grad / d).tolist()
    if not bordered:
        return np.array(_ldl_solve(ys, *factor, rhs)) / d, shift == 0.0
    # hess + rho x x' has the same tangent step and no near-singular
    # direction along x for the Schur complement to amplify
    rho = (1.0 + shift) / sum(map(mul, xs, xs))
    ys = [v + rho * u for u, v in zip(xs, ys)]
    factor = _ldl(xs, ys, [h + rho * u * u for u, h in zip(xs, hs)])
    z, zx = _ldl_solve(ys, *factor, rhs), _ldl_solve(ys, *factor, xs)
    mu = -sum(map(mul, xs, z)) / sum(map(mul, xs, zx))
    return np.append((np.array(z) + mu * np.array(zx)) / d, mu), shift == 0.0


def _free(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Entries not held at the floor (held: u_t = log A_FLOOR and g_t >= 0)."""
    return (u > U_FLOOR) | (g < 0.0)


def _restore(a: np.ndarray, free: np.ndarray, log_target: float) -> np.ndarray:
    """Scale the free entries of a by one factor e^s, none below A_FLOOR, so
    that log b_n = -sum log1p(a) = log_target.

    The sum is convex and increasing in s, so Newton's method started above
    the root falls monotonically onto it.
    """
    v = np.log(a[free])
    need = -log_target - np.sum(np.log1p(a[~free]))
    # log1p(e^v) > v, so where s = 0 falls short this s lies above the root
    s = 0.0 if np.sum(np.log1p(a[free])) >= need else (need - v.sum()) / v.size
    w = np.maximum(v + s, U_FLOOR)
    excess = np.sum(np.logaddexp(0.0, w)) - need
    for _ in range(NEWTON_MAXITER):
        if not excess > 0.0:
            break
        s -= excess / np.sum(1.0 / (1.0 + np.exp(-w[w > U_FLOOR])))
        trial = np.maximum(v + s, U_FLOOR)
        trial_excess = np.sum(np.logaddexp(0.0, trial)) - need
        if not trial_excess < excess:   # roundoff level
            break
        w, excess = trial, trial_excess
    a = a.copy()
    a[free] = np.exp(w)
    return a


def _newton_solve(c: ConstantsTable, a: np.ndarray,
                  log_target: float | None = None, seed_above: float = np.inf
                  ) -> tuple[_Point, np.ndarray, float]:
    """One projected Newton solve from a >= A_FLOOR: free (nu = 0), or on
    the surface log b_n = log_target, where a must start. A free solve
    stops at RESIDUAL_TOL once b_n lies above seed_above.

    Returns the point, its projected residual (g, zero on the entries held
    at A_FLOOR) and nu = mu / b_n.
    """
    u = np.log(a)
    reached = [u.min(), u.max()]
    point, mu = _evaluate(a, c, 0.0), 0.0
    if log_target is not None:
        # the first multiplier fits grad ~ mu x in least squares
        grad, x = point.g * a, point.hess[0]
        mu = max(grad @ x / (x @ x), 0.0)
        if mu:
            point = _evaluate(a, c, mu)
    for _ in range(NEWTON_MAXITER):
        a, g, x = point.a, point.g, point.hess[0]
        grad = g * a + mu * x   # of J at nu = 0 in u: nu db_n/du_t = -mu x_t
        free = _free(u, g)
        worst = np.abs(g[free]).max(initial=0.0)
        converged = worst <= RESIDUAL_TOL
        if converged and point.b[-1] > seed_above:
            break
        hess = point.hess
        if not free.all():   # a principal submatrix keeps the generators
            hess = [v[free] for v in hess]
        step = np.zeros_like(u)
        in_v = False   # a step in v = 2 sqrt(a/a_k), not in u
        if log_target is None:
            step[free], newton = _newton_step(*hess, grad[free])
            trial_mu = 0.0
        else:
            hess_v = (*hess[:2], hess[2] - 0.5 * (a * g)[free])
            sol = _newton_step(*hess_v, grad[free], bordered=True, may_shift=False)
            in_v = sol is not None
            sol, newton = sol if in_v else _newton_step(*hess, grad[free], bordered=True)
            step[free], trial_mu = sol[:-1], sol[-1]
        if in_v:
            step *= min(1.0, V_STEP_MAX / step.max(initial=V_STEP_MAX))
        else:
            step *= min(1.0, MAX_LOG_STEP / np.abs(step).max(initial=MAX_LOG_STEP))
        for _ in range(1 if converged else MAX_BACKTRACKS):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                du = 2.0 * np.log1p(0.5 * np.maximum(step, -2.0)) if in_v else step
                trial_a = np.exp(np.maximum(u + du, U_FLOOR))
                if log_target is not None:
                    trial_a = _restore(trial_a, free, log_target)
                trial_u = np.log(trial_a)
                trial = _evaluate(trial_a, c, trial_mu)
            if np.isfinite(trial.cost) and np.all(np.isfinite(trial.g)):
                trial_worst = np.abs(trial.g[_free(trial_u, trial.g)]).max(initial=0.0)
                if newton and trial_worst < worst:
                    break
                if (not converged
                        and trial.cost <= point.cost + ARMIJO * grad @ (trial_u - u)):
                    break
            step *= 0.5
        else:
            break
        point, u, mu = trial, trial_u, trial_mu
        reached = [min(reached[0], u.min()), max(reached[1], u.max())]
    nu = mu / point.b[-1] if mu else 0.0
    if nu * point.b[-1] != mu:   # report g as stationarity_residuals forms it
        point = _evaluate(point.a, c, nu * point.b[-1])
    resid = np.where(_free(u, point.g), point.g, 0.0)
    t = int(np.abs(resid).argmax())
    if abs(resid[t]) <= RESIDUAL_TOL:
        return point, resid, nu
    lo, hi = np.exp(reached)
    raise NoRootFound(
        f"stationarity system not solvable to {RESIDUAL_TOL:g}: the "
        f"solve reached a in [{lo:.3g}, {hi:.3g}]; worst residual "
        f"{resid[t]:.3e} at t={t}")


def scalar_backward_solve(constants: ConstantsTable, epsilon: float,
                          model: SystemModel, setup: ChannelSetup,
                          gains: GainSchedule | None = None) -> PowerSchedule:
    """The scalar design at terminal-accuracy target b_n <= epsilon.

    The schedule records b (from b_0 = 1), the multiplier nu, the projected
    residual and the number of Newton solves. An epsilon so small that its
    multiplier would overflow raises ValidationError before any solve, and
    a solve that ends above RESIDUAL_TOL raises NoRootFound. model, setup
    and gains are not read.
    """
    # nan (the one value unequal to itself) is not positive either
    if epsilon != epsilon or checked_number("epsilon", epsilon) <= 0.0:
        raise ValidationError(f"epsilon: {epsilon:g} must be positive")
    c = constants
    n = c.c1.size
    # The multiplier that meets b_n = epsilon grows like c1 epsilon^-(1+1/n)
    # (b_n = epsilon spread evenly needs a ~ epsilon^(-1/n), and the last
    # stationarity equation gives nu epsilon ~ c1 (1 + a_{n-1}));
    # past the float range it can not be represented.
    log_floor = n / (n + 1.0) * (np.log(c.c1[-1]) - LOG_NU_MAX)
    if np.log(epsilon) < log_floor:
        raise ValidationError(
            f"epsilon: {epsilon:g} is below the reachable floor "
            f"{np.exp(log_floor):.3g} at horizon n={n}; the terminal "
            f"multiplier, about c1 epsilon^-(1+1/n), would overflow")
    # myopic initializer: per-step optimum ignoring the b-coupling
    a0 = np.clip(c.c2 ** 2 / (4.0 * c.c1 ** 2) * 0.5, 1e-6, 1e2)

    point, resid, nu = _newton_solve(c, a0, seed_above=SEED_MARGIN * epsilon)
    inner_solves = 1
    if point.b[-1] > epsilon:
        # The accuracy target binds: start from the free optimum with the
        # missing contraction spread evenly over the steps.
        log_target = np.log(epsilon) - B_N_MARGIN
        a = np.expm1(np.log1p(point.a)
                     - (np.sum(np.log1p(point.a)) + log_target) / n)
        point, resid, nu = _newton_solve(c, a, log_target)
        inner_solves = 2
        if nu < 0.0:
            # J still falls into b_n < epsilon here (possible where some
            # c2_t > 0 makes J nonconvex): release the target, descend
            free_point, free_resid, _ = _newton_solve(c, point.a)
            if free_point.b[-1] <= epsilon:
                point, resid, nu = free_point, free_resid, 0.0
                inner_solves = 3

    return PowerSchedule(mode=ScheduleMode.SCALAR, Lambda=point.a[:, None] / c.H,
                         a=point.a, b=point.b, terminal_multiplier=float(nu),
                         stationarity_residuals=resid,
                         inner_solves=inner_solves)


def solve_scalar_power(gains: GainSchedule, setup: ChannelSetup,
                       model: SystemModel, epsilon: float = 1e-3) -> PowerSchedule:
    """Convenience wrapper: constants + solve in one call."""
    constants = scalar_constants(gains, setup, model)
    return scalar_backward_solve(constants, epsilon, model, setup, gains)
