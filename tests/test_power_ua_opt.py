import warnings

import numpy as np
import pytest

import lqcoord as lq
from lqcoord.channel import ua_setup
from lqcoord.errors import BudgetExhaustedWarning, ValidationError
from lqcoord.gains import backward_riccati
from lqcoord.power import expected_total_cost, heuristic_schedule, ua_optimize
from lqcoord.power.schedules import PowerSchedule, ScheduleMode


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


def test_budget_warning(small_ua):
    model, setup, gains = small_ua
    init = heuristic_schedule(0.88, model.n, setup.r)
    with pytest.warns(BudgetExhaustedWarning):
        ua_optimize(init, gains, setup, model, budget=10)


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
