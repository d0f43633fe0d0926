import warnings

import numpy as np
import pytest

import lqcoord as lq
from lqcoord.channel import ua_setup
from lqcoord.errors import BudgetExhaustedWarning, ValidationError
from lqcoord.gains import backward_riccati
from lqcoord.power import expected_total_cost, heuristic_schedule, ua_optimize
from lqcoord.power.analytic import TailCostEvaluator
from lqcoord.power.schedules import PowerSchedule, ScheduleMode
from lqcoord.power.ua_opt import LAMBDA_BOUNDS, PG_RTOL
from test_differential import _random_policy

# Battery of 40 random under-actuated systems: system i is
# _random_policy(d0, r, 6 + i % 10, 1000 + i) with (d0, r) = BATTERY_DIMS[i % 7],
# started from the theta = 0.88 heuristic. CD_COSTS are the exact costs the
# earlier multiplicative coordinate descent reached on them at budget 5000.
BATTERY_DIMS = [(2, 1), (3, 1), (4, 1), (4, 2), (6, 1), (6, 2), (6, 3)]
CD_COSTS = [
    103.65895146940125, 145.30693387139289, 377.96049962411786,
    319.4236627085874, 1564.9450039995727, 1324.9696353891509,
    1949.766635413381, 103.52179737889709, 261.77658868381394,
    790.101022353251, 247.64186792456604, 15431.566092222918,
    1796.4520039065774, 1046.7859969365206, 30.84770475340843,
    262.5063115966791, 360.9287305473828, 450.96629677001727,
    5780.781344881623, 1981.0165913621377, 1484.0625304993755,
    61.465508438588245, 178.4877318240242, 617.92796428162, 184.99067702583747,
    3052.5674537586256, 991.076253796472, 1233.6856898636331,
    153.5323678847624, 230.71484567927996, 477.9702199260595,
    264.27061545478807, 2710.0649862222854, 875.6194331677839,
    2907.459680001278, 51.6003479123189, 220.55690175001374, 402.0291239261396,
    431.3902730769926, 5173.174704107576,
]


@pytest.fixture(scope="module")
def small_ua():
    # short-horizon variant keeps the optimizer tests quick
    model = lq.under_actuated_model(n=10)
    setup = ua_setup(model.B1, model.W)
    gains = backward_riccati(model)
    return model, setup, gains


def test_improves_heuristic(small_ua):
    model, setup, gains = small_ua
    init = heuristic_schedule(0.88, model.n, setup.r)
    c0 = expected_total_cost(init, gains, setup, model)
    opt = ua_optimize(init, gains, setup, model, budget=1500)
    c1 = expected_total_cost(opt, gains, setup, model)
    assert c1 < c0


def test_never_worse_than_init(small_ua):
    model, setup, gains = small_ua
    init = heuristic_schedule(0.5, model.n, setup.r)
    c0 = expected_total_cost(init, gains, setup, model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BudgetExhaustedWarning)
        opt = ua_optimize(init, gains, setup, model, budget=50)
    assert expected_total_cost(opt, gains, setup, model) <= c0


def test_stationary_input_returned_unchanged(small_ua):
    model, setup, gains = small_ua
    init = heuristic_schedule(0.88, model.n, setup.r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BudgetExhaustedWarning)
        opt1 = ua_optimize(init, gains, setup, model, budget=4000)
        opt2 = ua_optimize(opt1, gains, setup, model, budget=4000)
    c1 = expected_total_cost(opt1, gains, setup, model)
    c2 = expected_total_cost(opt2, gains, setup, model)
    assert c2 <= c1
    # a converged schedule moves no further
    opt3 = ua_optimize(opt2, gains, setup, model, budget=4000)
    for a, b in zip(opt3.Lambda, opt2.Lambda):
        np.testing.assert_allclose(a, b, rtol=1e-9)
    assert opt3.evals == 1


def test_returns_the_best_schedule_evaluated(small_ua):
    # the evaluations follow one path whatever the budget, so the cost of
    # the best point of a longer prefix can only be lower, even where the
    # last evaluation (a rejected line-search trial) is worse
    # (from theta = 0.1 the third evaluation is such a trial)
    model, setup, gains = small_ua
    init = heuristic_schedule(0.1, model.n, setup.r)
    costs = [expected_total_cost(init, gains, setup, model)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BudgetExhaustedWarning)
        for budget in range(1, 13):
            opt = ua_optimize(init, gains, setup, model, budget=budget)
            costs.append(expected_total_cost(opt, gains, setup, model))
    assert all(b <= a for a, b in zip(costs, costs[1:])), np.diff(costs)


def test_budget_warning(small_ua):
    model, setup, gains = small_ua
    init = heuristic_schedule(0.88, model.n, setup.r)
    with pytest.warns(BudgetExhaustedWarning):
        opt = ua_optimize(init, gains, setup, model, budget=10)
    assert opt.evals == 10 and opt.budget_exhausted


def test_overpowered_start_recovers(small_ua):
    model, setup, gains = small_ua
    heu = heuristic_schedule(0.88, model.n, setup.r)
    blown = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                          Lambda=[10.0 * lam for lam in heu.Lambda])
    c_heu = expected_total_cost(heu, gains, setup, model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BudgetExhaustedWarning)
        opt = ua_optimize(blown, gains, setup, model, budget=3000)
    assert expected_total_cost(opt, gains, setup, model) < c_heu


def test_rejects_zero_entries(small_ua):
    model, setup, gains = small_ua
    bad = PowerSchedule(mode=ScheduleMode.FULL_MATRIX,
                        Lambda=[np.zeros(setup.r)] * model.n)
    with pytest.raises(ValidationError, match=r"Lambda_0\[0\]"):
        ua_optimize(bad, gains, setup, model, budget=100)


def test_converges_without_warning_and_reports_outcome(small_ua):
    model, setup, gains = small_ua
    init = heuristic_schedule(0.88, model.n, setup.r)
    c0 = expected_total_cost(init, gains, setup, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BudgetExhaustedWarning)
        opt = ua_optimize(init, gains, setup, model, budget=5000)
    assert opt.budget_exhausted is False
    assert 1 < opt.evals < 5000
    assert opt.projected_gradient_norm <= PG_RTOL * c0
    # the reported norm is the schedule's own log-Lambda gradient, with the
    # entries held at the floor of the box (the last steps' power, which
    # comes too late to pay off) projected out
    evaluator = TailCostEvaluator(gains, setup, model)
    evaluator.cost(opt.Lambda)
    lam = np.array(opt.Lambda)
    g = evaluator.gradient() * lam
    floor = lam <= LAMBDA_BOUNDS[0] * (1 + 1e-9)
    assert floor.any() and np.all(g[floor] > 0)
    assert np.abs(np.where(floor, 0.0, g)).max() == pytest.approx(
        opt.projected_gradient_norm, rel=1e-12)


def test_evaluator_cost_is_the_exact_cost(small_ua):
    model, setup, gains = small_ua
    sched = heuristic_schedule(0.7, model.n, setup.r)
    evaluator = TailCostEvaluator(gains, setup, model, [1, 0])
    assert evaluator.cost(sched.Lambda) == expected_total_cost(
        sched, gains, setup, model, [1, 0])


def test_initial_schedule_must_fit_the_channel(small_ua):
    model, setup, gains = small_ua
    short = heuristic_schedule(0.88, model.n - 1, setup.r)
    with pytest.raises(ValidationError, match=r"power: .*horizon needs 10"):
        ua_optimize(short, gains, setup, model, budget=100)
    wide = heuristic_schedule(0.88, model.n, 3)
    with pytest.raises(ValidationError, match=r"power: Lambda_0 .*2 entries"):
        ua_optimize(wide, gains, setup, model, budget=100)


def test_start_outside_the_box_is_clipped(small_ua):
    # theta^t falls below the 1e-12 floor from t = 4 on
    model, setup, gains = small_ua
    init = heuristic_schedule(1e-4, model.n, setup.r)
    opt = ua_optimize(init, gains, setup, model, budget=5000)
    lam = np.array(opt.Lambda)
    assert lam.min() >= 1e-12 and lam.max() <= 1e6
    assert (expected_total_cost(opt, gains, setup, model)
            < expected_total_cost(init, gains, setup, model))


def test_random_systems_against_coordinate_descent():
    # a local method on a non-convex cost: across the battery the result is
    # lower than coordinate descent's in the median and at worst 5e-3 higher
    rel = []
    for i, cd in enumerate(CD_COSTS):
        d0, r = BATTERY_DIMS[i % 7]
        pol = _random_policy(d0, r, 6 + i % 10, 1000 + i)
        init = heuristic_schedule(0.88, pol.model.n, r)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BudgetExhaustedWarning)
            opt = ua_optimize(init, pol.gains, pol.setup, pol.model, budget=5000)
        rel.append(expected_total_cost(opt, pol.gains, pol.setup, pol.model) / cd - 1)
    rel = np.array(rel)
    assert np.median(rel) <= 0.0, f"median {np.median(rel):.3e}"
    assert rel.max() <= 5e-3, f"worst {rel.max():.3e} on system {rel.argmax()}"


@pytest.mark.parametrize("budget, what", [
    (2.5, "an integer"),       # used to run 3 evaluations, budget_exhausted False
    (True, "an integer"),      # used to run with a budget of 1
    ("3", "an integer"),       # used to escape as a TypeError
    (None, "an integer"),
], ids=["fraction", "bool", "text", "none"])
def test_budget_must_be_an_integer(small_ua, budget, what):
    model, setup, gains = small_ua
    init = heuristic_schedule(0.88, model.n, setup.r)
    with pytest.raises(ValidationError, match=f"^budget: {budget!r} is not {what}$"):
        ua_optimize(init, gains, setup, model, budget=budget)


def test_budget_takes_a_numpy_integer(small_ua):
    model, setup, gains = small_ua
    init = heuristic_schedule(0.88, model.n, setup.r)
    with pytest.warns(BudgetExhaustedWarning):
        opt = ua_optimize(init, gains, setup, model, budget=np.int64(3))
    assert opt.evals == 3 and opt.budget_exhausted
