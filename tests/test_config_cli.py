import json
import re
import warnings

import numpy as np
import pytest

import lqcoord as lq
from lqcoord import cli
from lqcoord.config import (ExperimentConfig, PolicyConfig, config_from_dict,
                            load_config, save_config)
from lqcoord.errors import (BudgetExhaustedWarning, HorizonMismatch, ParseError,
                            ValidationError)
from lqcoord.simulate import AggregateReport


# --- preset fidelity -----------------------------------------------------------

def test_fully_actuated_preset_entries(fa_model):
    np.testing.assert_array_equal(fa_model.A, [[1.5, 0.2, 0.0, 0.7],
                                               [0.0, 0.5, 0.5, 0.3],
                                               [0.2, 0.0, 1.9, 0.4],
                                               [0.3, 0.0, 0.3, 1.7]])
    np.testing.assert_array_equal(fa_model.B1, [[1.0, 2.0, 0.0, 0.0],
                                                [0.0, 0.0, 1.0, 0.0],
                                                [0.0, 1.2, 0.0, 0.0],
                                                [0.0, 0.0, 0.0, 1.3]])
    np.testing.assert_array_equal(fa_model.B2, [[0.0, 0.0], [1.0, 0.0],
                                                [2.0, 0.0], [0.0, 3.0]])
    np.testing.assert_array_equal(fa_model.W, 0.1 * np.eye(4))
    np.testing.assert_array_equal(fa_model.F, np.diag([2.0, 1.0, 1.0, 2.0]))
    np.testing.assert_array_equal(fa_model.Fn, 10.0 * np.eye(4))
    np.testing.assert_array_equal(fa_model.G1, np.diag([2.0, 2.0, 4.0, 6.0]))
    np.testing.assert_array_equal(fa_model.G2, np.diag([2.0, 2.0]))
    np.testing.assert_array_equal(fa_model.Sigma0, 5.0 * np.eye(4))


def test_under_actuated_preset_entries(ua_model):
    np.testing.assert_array_equal(ua_model.A, [[1.5, 0.2, 0.0, 0.0],
                                               [0.0, 2.2, 0.5, 0.3],
                                               [0.0, 0.2, 0.9, 0.4],
                                               [0.2, 0.0, 0.3, 0.7]])
    np.testing.assert_array_equal(ua_model.B1, [[1.0, 0.0], [0.0, 0.0],
                                                [0.0, 1.2], [0.0, 0.0]])
    np.testing.assert_array_equal(ua_model.B2, [[0.0, 0.0], [1.0, 0.0],
                                                [0.0, 0.0], [0.0, 1.5]])
    np.testing.assert_array_equal(ua_model.G2, np.diag([3.0, 3.0]))
    np.testing.assert_array_equal(ua_model.Sigma0, np.diag([5.0, 5.0, 5.0, 5.0]))


def test_preset_loader_validates_name():
    with pytest.raises(ValidationError):
        lq.load_preset("no-such-system")


def test_preset_targets_table():
    np.testing.assert_array_equal(lq.TARGETS[lq.FULLY_ACTUATED]["A"],
                                  [-1.0, 2.0, 2.0, -2.0])
    np.testing.assert_array_equal(lq.TARGETS[lq.UNDER_ACTUATED]["C"],
                                  [2.0, -2.0, 3.0, 2.0])


# --- config -----------------------------------------------------------------------

def make_config(**overrides):
    raw = {
        "system": lq.FULLY_ACTUATED,
        "horizon": 6,
        "policies": [{"name": "ex-comm"}],
        "runs": 3,
        "master_seed": 1,
        "target": [-1.0, 2.0, 2.0, -2.0],
        "out_dir": "results",
    }
    raw.update(overrides)
    return config_from_dict(raw)


def test_config_round_trip(tmp_path):
    cfg = make_config()
    path = tmp_path / "exp.json"
    save_config(cfg, path)
    again = load_config(path)
    assert again == cfg


def test_config_rejects_bad_policy_name():
    with pytest.raises(ValidationError):
        make_config(policies=[{"name": "mystery"}])


def test_config_rejects_zero_runs():
    with pytest.raises(ValidationError):
        make_config(runs=0)


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(path)


def test_config_missing_file():
    with pytest.raises(ParseError):
        load_config("/nonexistent/exp.json")


def test_config_inline_system_validation():
    m = lq.fully_actuated_model(n=4)
    inline = {f: getattr(m, f).tolist()
              for f in ("A", "B1", "B2", "W", "F", "Fn", "G1", "G2",
                        "Sigma0", "X0")}
    cfg = make_config(system=inline, horizon=4)
    assert cfg.model().d0 == 4
    # an indefinite noise covariance must be refused, naming the field
    bad = dict(inline)
    bad["W"] = np.diag([0.1, 0.1, 0.1, -0.1]).tolist()
    with pytest.raises(ValidationError, match="W"):
        make_config(system=bad, horizon=4)


def test_config_inline_system_programming_error_propagates(monkeypatch):
    # only package errors are relabelled as config errors; a bug inside
    # SystemModel must surface as itself
    m = lq.fully_actuated_model(n=4)
    inline = {f: getattr(m, f).tolist()
              for f in ("A", "B1", "B2", "W", "F", "Fn", "G1", "G2",
                        "Sigma0", "X0")}

    class Bug(Exception):
        pass

    def broken_model(**kwargs):
        raise Bug("not a config problem")

    monkeypatch.setattr(lq.config, "SystemModel", broken_model)
    with pytest.raises(Bug, match="not a config problem"):
        make_config(system=inline, horizon=4)


def test_config_target_resolution():
    cfg = make_config(target="sampled")
    assert cfg.resolve_target() is None
    cfg = make_config(target="preset:A")
    np.testing.assert_array_equal(cfg.resolve_target(), [-1.0, 2.0, 2.0, -2.0])
    with pytest.raises(ValidationError):
        make_config(target=[1.0, 2.0]).resolve_target()


# --- CLI and emission ----------------------------------------------------------

def run_cli(args):
    return cli.main(args)


def test_cli_compare_writes_files(tmp_path):
    out = tmp_path / "res"
    rc = run_cli(["compare", "--preset", lq.FULLY_ACTUATED, "--horizon", "6",
                  "--runs", "3", "--seed", "7", "--out", str(out),
                  "--target=-1,2,2,-2",
                  "--policy", "ex-comm", "--policy", "leader-only",
                  "--policy", "im-comm-heu"])
    assert rc == 0
    agg = (out / "aggregate.csv").read_text().strip().splitlines()
    assert agg[0] == "policy,runs,mean_total_cost,std_total_cost"
    assert len(agg) == 4  # header + one row per policy
    summary = json.loads((out / "summary.json").read_text())
    assert [s["policy"] for s in summary] == ["ex-comm", "leader-only",
                                              "im-comm-heu"]
    for s in summary:
        assert set(s) >= {"policy", "runs", "mean_total_cost",
                          "std_total_cost", "achieved_terminal_ratio",
                          "wall_time_s"}


def test_cli_outputs_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_cli(["simulate", "--preset", lq.FULLY_ACTUATED, "--horizon", "5",
                 "--runs", "4", "--seed", "3", "--out", str(out),
                 "--policy", "im-comm-heu", "--target", "1,0,-1,0"])
        outs.append(out)
    for name in ("aggregate.csv", "series.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # the JSON summaries agree on everything except wall time
    s0, s1 = (json.loads((o / "summary.json").read_text()) for o in outs)
    for a, b in zip(s0, s1):
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b


def test_cli_gains_dump(tmp_path):
    out = tmp_path / "g"
    rc = run_cli(["gains", "--preset", lq.UNDER_ACTUATED, "--horizon", "4",
                  "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "gains.json").read_text())
    assert len(payload["K"]) == 4
    assert len(payload["Phi"]) == 5
    assert "leader_only" not in payload or payload["leader_only"]


def test_cli_optimize_power_fa(tmp_path):
    out = tmp_path / "p"
    rc = run_cli(["optimize-power", "--preset", lq.FULLY_ACTUATED,
                  "--horizon", "8", "--epsilon", "0.01", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "power.json").read_text())
    assert payload["mode"] == "scalar"
    assert payload["max_stationarity_residual"] < 1e-8
    assert payload["inner_solves"] >= 1
    assert len(payload["a"]) == 8
    csv = (out / "power.csv").read_text().strip().splitlines()
    assert csv[0].startswith("t,lambda_0")
    assert len(csv) == 9


def test_cli_optimize_power_ua_reports_the_optimizer(tmp_path):
    out = tmp_path / "p"
    rc = run_cli(["optimize-power", "--preset", lq.UNDER_ACTUATED,
                  "--horizon", "8", "--budget", "400", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "power.json").read_text())
    assert payload["mode"] == "numeric" and payload["budget"] == 400
    assert len(payload["Lambda"]) == 8
    assert 1 <= payload["evals"] <= 400
    assert payload["budget_exhausted"] is False
    assert 0.0 <= payload["projected_gradient_norm"] < 1e-3
    csv = (out / "power.csv").read_text().strip().splitlines()
    assert csv[0] == "t,lambda_0,lambda_1" and len(csv) == 9


def test_cli_optimize_power_ua_budget_exhausted(tmp_path):
    out = tmp_path / "p"
    with pytest.warns(BudgetExhaustedWarning):
        rc = run_cli(["optimize-power", "--preset", lq.UNDER_ACTUATED,
                      "--horizon", "8", "--budget", "3", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "power.json").read_text())
    assert payload["evals"] == 3 and payload["budget_exhausted"] is True


@pytest.mark.parametrize("policies, horizon", [
    ([{"name": "ex-comm"}, {"name": "im-comm-opt", "epsilon": 1e-6}], 30),
    ([{"name": "im-comm-num", "budget": 3}], 8)], ids=["fa-epsilon", "ua-budget"])
def test_cli_optimize_power_reads_the_config_policy(tmp_path, policies, horizon):
    # the designed policy of --config sets the design; the flags' defaults
    # (epsilon 1e-3, budget 5000) used to win
    fully = policies[-1]["name"] == "im-comm-opt"
    raw = {"system": lq.FULLY_ACTUATED if fully else lq.UNDER_ACTUATED,
           "horizon": horizon, "policies": policies, "out_dir": str(tmp_path / "p")}
    (tmp_path / "exp.json").write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BudgetExhaustedWarning)
        assert run_cli(["optimize-power", "--config", str(tmp_path / "exp.json")]) == 0
    payload = json.loads((tmp_path / "p" / "power.json").read_text())
    if fully:
        assert 0.9e-6 <= payload["achieved_terminal_ratio"] <= 1e-6
    else:
        assert payload["budget"] == payload["evals"] == 3
        assert payload["budget_exhausted"] is True


@pytest.mark.parametrize("field, value", [
    ("runs", "3"), ("runs", 2.7), ("horizon", "5"), ("target", ("a", 1, 2, 3))])
def test_config_dataclass_checks_each_field(field, value):
    # the dataclass makes the checks a JSON config gets: these used to
    # escape as a raw TypeError or ValueError, or to be accepted
    fields = {"system": lq.FULLY_ACTUATED, "policies": (PolicyConfig("ex-comm"),),
              field: value}
    with pytest.raises(ValidationError, match=f"^{field}"):
        ExperimentConfig(**fields)


def test_config_dataclass_checks_each_policy():
    # a policy name where a PolicyConfig belongs used to build, and
    # run_experiment then died with an AttributeError
    with pytest.raises(ValidationError, match=r"^policies\[1\]: 'ex-comm' is not"):
        ExperimentConfig(system=lq.FULLY_ACTUATED,
                         policies=(PolicyConfig("no-comm"), "ex-comm"))


@pytest.mark.parametrize("flags", [["--epsilon", "1e-9"], ["--out", "elsewhere"],
                                   ["--runs", "50", "--epsilon", "1e-3"],
                                   ["--policy", "ex-comm"]],
                         ids=["epsilon", "out", "defaults", "policy"])
def test_cli_rejects_flags_next_to_config(capsys, tmp_path, monkeypatch, flags):
    # the config file used to win silently: the design ran at the file's
    # epsilon and wrote to its out_dir. A flag given at its default value
    # is rejected too
    monkeypatch.chdir(tmp_path)
    raw = {"system": lq.FULLY_ACTUATED, "policies": ["ex-comm"], "runs": 2}
    (tmp_path / "exp.json").write_text(json.dumps(raw))
    assert run_cli(["simulate", "--config", "exp.json", *flags]) == 1
    err = capsys.readouterr().err
    named = ", ".join(f for f in flags if f.startswith("--"))
    assert err.startswith(f"error: {named}: given next to --config"), err
    assert not (tmp_path / "results").exists() and not (tmp_path / "elsewhere").exists()
    assert run_cli(["simulate", "--config", "exp.json"]) == 0


def test_cli_error_exit_code(capsys):
    rc = run_cli(["simulate", "--preset", lq.FULLY_ACTUATED, "--runs", "0",
                  "--policy", "ex-comm"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_names_the_policy_whose_build_fails(capsys, tmp_path):
    # im-comm-num is built after ex-comm and fails on a fully actuated
    # leader; the error keeps its type and names the policy
    args = ["compare", "--preset", lq.FULLY_ACTUATED, "--runs", "2",
            "--policy", "ex-comm", "--policy", "im-comm-num",
            "--out", str(tmp_path / "out")]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: policy 'im-comm-num': im-comm-num targets "
                          "under-actuated leaders"), err
    assert not (tmp_path / "out" / "aggregate.csv").exists()
    config = config_from_dict({"system": lq.FULLY_ACTUATED, "runs": 2,
                               "policies": ["im-comm-num"],
                               "out_dir": str(tmp_path / "out")})
    with pytest.raises(ValidationError, match="^policy 'im-comm-num': "):
        cli.run_experiment(config)


def test_cli_non_finite_rollout_exits_1(capsys, tmp_path):
    # the state overflows; no NaN may reach a CSV
    I = np.eye(2).tolist()
    raw = {"system": {"A": (1e30 * np.eye(2)).tolist(), "B1": I,
                      "B2": [[1.0], [0.0]], "W": I, "F": np.zeros((2, 2)).tolist(),
                      "Fn": np.zeros((2, 2)).tolist(), "G1": I, "G2": [[1.0]],
                      "Sigma0": I, "X0": I},
           "horizon": 30, "policies": [{"name": "no-comm"}, {"name": "ex-comm"}],
           "runs": 5, "out_dir": str(tmp_path / "out")}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    rc = run_cli(["simulate", "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "policy no-comm: run 0" in err
    assert not (tmp_path / "out" / "aggregate.csv").exists()


MALFORMED = {    # config changes, or CLI arguments; the field the error names
    "runs-text": ({"runs": "abc"}, "runs"),
    "seed-text": ({"master_seed": "x"}, "master_seed"),
    "seed-2^64": ({"master_seed": 2 ** 64}, "master_seed"),
    "seed-negative": ({"master_seed": -5}, "master_seed"),
    "seed-flag-negative": (["--preset", lq.FULLY_ACTUATED, "--seed", "-1"],
                           "master_seed"),
    "horizon-text": ({"horizon": "30"}, "horizon"),
    "horizon-fraction": ({"horizon": 2.5}, "horizon"),
    "runs-fraction": ({"runs": 2.7}, "runs"),
    "budget-fraction": ({"policies": [{"name": "ex-comm", "budget": 2.5}]},
                        "budget"),
    "target-text": ({"target": [1, 2, "x", 4]}, r"target\[2\]"),
    "target-nan": ({"target": [1, 2, float("nan"), 4]}, r"target\[2\]"),
    "target-flag": (["--preset", lq.FULLY_ACTUATED, "--target", "1,2,x,4"],
                    "--target"),
    "config-directory": (["--config", "."], r"\."),     # the path
    "policies-number": ({"policies": 5}, "policies"),
    "system-number": ({"system": 5}, "system"),
    "theta-text": ({"policies": [{"name": "im-comm-heu", "theta": "x"}]},
                   r"policies\[\]\.theta"),
    "epsilon-text": ({"policies": [{"name": "im-comm-opt", "epsilon": "x"}]},
                     r"policies\[\]\.epsilon"),
    "epsilon-infinite": ({"policies": [{"name": "im-comm-opt",
                                        "epsilon": float("inf")}]},
                         r"policies\[\]\.epsilon"),   # JSON Infinity
    "out-dir-null": ({"out_dir": None}, "out_dir"),
}


@pytest.mark.parametrize("case, field", MALFORMED.values(), ids=list(MALFORMED))
def test_cli_names_the_malformed_field(capsys, tmp_path, monkeypatch, case, field):
    # these used to escape as a raw ValueError, TypeError or
    # IsADirectoryError, to be truncated (runs 2.7 ran 2) or accepted
    # (budget 2.5, epsilon Infinity), to fail later as a NonFiniteRollout
    # (a NaN target) or without naming the field (theta "x"), or to write
    # to a directory named None (out_dir null)
    monkeypatch.chdir(tmp_path)
    if isinstance(case, dict):
        raw = {"system": lq.FULLY_ACTUATED, "policies": ["ex-comm"], "runs": 2,
               **case}
        (tmp_path / "exp.json").write_text(json.dumps(raw))
        case = ["--config", "exp.json"]
    assert run_cli(["simulate", *case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(f"{field}: ", err), err
    assert not (tmp_path / "results").exists() and not (tmp_path / "None").exists()


def test_cli_optimize_power_underflowing_theta(capsys, tmp_path):
    # theta^t underflows to 0 at t = 17: a typed error naming the entry
    rc = run_cli(["optimize-power", "--preset", lq.UNDER_ACTUATED,
                  "--theta", "1e-20", "--out", str(tmp_path / "p")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Lambda_17[0]" in err


@pytest.mark.parametrize("preset", [lq.FULLY_ACTUATED, lq.UNDER_ACTUATED])
def test_series_policies_match_aggregate(tmp_path, preset):
    out = tmp_path / "cmp"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BudgetExhaustedWarning)
        rc = run_cli(["compare", "--preset", preset, "--horizon", "6",
                      "--runs", "2", "--budget", "30", "--out", str(out)])
    assert rc == 0
    agg = [line.split(",")[0] for line in
           (out / "aggregate.csv").read_text().strip().splitlines()[1:]]
    series = [line.split(",")[0] for line in
              (out / "series.csv").read_text().strip().splitlines()[1:]]
    assert len(set(agg)) == 4
    assert list(dict.fromkeys(series)) == agg
    assert all(series.count(name) == 3 * 7 for name in agg)


def test_emit_plot_series_row_count(tmp_path, fa_model):
    n = 2
    rep = AggregateReport(policy="ex-comm", runs=1, mean_total_cost=1.0,
                          std_total_cost=0.0,
                          mean_z_norms=np.zeros(n + 1),
                          mean_sigma_traces=np.zeros(n + 1),
                          mean_stage_costs=np.ones(n) * 0.25, horizon=n)
    path = tmp_path / "series.csv"
    rows = cli.emit_plot_series([rep], path)
    assert rows == 3 * (n + 1)  # three metrics, each with n+1 rows
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "policy,t,metric,value"
    assert len(lines) == rows + 1


def test_emit_plot_series_horizon_mismatch(tmp_path):
    def rep(n):
        return AggregateReport(policy="p", runs=1, mean_total_cost=0.0,
                               std_total_cost=0.0,
                               mean_z_norms=np.zeros(n + 1),
                               mean_sigma_traces=np.zeros(n + 1),
                               mean_stage_costs=np.zeros(n), horizon=n)
    with pytest.raises(HorizonMismatch):
        cli.emit_plot_series([rep(2), rep(3)], tmp_path / "x.csv")


def test_leader_only_sigma_series_constant(tmp_path):
    out = tmp_path / "lo"
    run_cli(["simulate", "--preset", lq.FULLY_ACTUATED, "--horizon", "4",
             "--runs", "2", "--seed", "0", "--out", str(out),
             "--policy", "leader-only", "--target", "preset:A"])
    rows = [line.split(",") for line in
            (out / "series.csv").read_text().strip().splitlines()[1:]]
    sig = [float(r[3]) for r in rows if r[2] == "sigma_trace"]
    assert sig == [20.0] * 5  # Tr(Sigma0) = 20, constant over time


def test_series_matches_report_fields(tmp_path, fa_model):
    from lqcoord.policies import PolicyKind, make_policy
    from lqcoord.simulate import monte_carlo
    model = lq.fully_actuated_model(n=4)
    rep = monte_carlo(make_policy(PolicyKind.EX_COMM, model), model,
                      np.array([1.0, 0.0, 0.0, 0.0]), 3, 9)
    path = tmp_path / "series.csv"
    cli.emit_plot_series([rep], path)
    rows = [line.split(",") for line in
            path.read_text().strip().splitlines()[1:]]
    z = np.array([float(r[3]) for r in rows if r[2] == "mean_z_norm"])
    np.testing.assert_allclose(z, rep.mean_z_norms, rtol=1e-15)
    st = np.array([float(r[3]) for r in rows if r[2] == "mean_stage_cost"])
    np.testing.assert_allclose(st[:-1], rep.mean_stage_costs, rtol=1e-15)
    assert st[-1] == pytest.approx(rep.mean_terminal_cost, rel=1e-12)
