"""Command-line front end.

Subcommands mirror the benchmark workflow: `gains` dumps the LQR schedule,
`simulate` runs one policy, `optimize-power` solves for a signaling-power
schedule, `compare` aggregates several policies side by side.

Output conventions: CSV with '.' decimals and 17 significant digits
(lossless float round-trip); one long-format series file with columns
policy,t,metric,value; a JSON summary with per-policy scalars.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import (ExperimentConfig, PolicyConfig, config_from_dict,
                     load_config)
from .errors import HorizonMismatch, LqcoordError, ParseError, ValidationError
from .gains import backward_riccati, leader_only_gains
from .model import SystemModel
from .policies import PolicyKind, PreparedPolicy, make_policy
from .power import ua_optimize
from .power.scalar import solve_scalar_power
from .simulate import AggregateReport, monte_carlo
from . import presets


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c)
                              for c in row))
    path.write_text("\n".join(lines) + "\n")


def emit_plot_series(reports: list[AggregateReport], path: Path) -> int:
    """Long-format per-step series: one row per (policy, t, metric).

    Metrics: mean_z_norm and sigma_trace over t=0..n, mean_stage_cost over
    t=0..n-1 with the mean terminal cost in the t=n slot.
    """
    horizons = {r.horizon for r in reports}
    if len(horizons) > 1:
        raise HorizonMismatch(f"reports mix horizons {sorted(horizons)}")
    rows = []
    for rep in reports:
        for t, v in enumerate(rep.mean_z_norms):
            rows.append([rep.policy, t, "mean_z_norm", float(v)])
        for t, v in enumerate(rep.mean_sigma_traces):
            rows.append([rep.policy, t, "sigma_trace", float(v)])
        stage = list(rep.mean_stage_costs) + [rep.mean_terminal_cost]
        for t, v in enumerate(stage):
            rows.append([rep.policy, t, "mean_stage_cost", float(v)])
    _write_csv(path, ["policy", "t", "metric", "value"], rows)
    return len(rows)


def build_policy(pol: PolicyConfig, model: SystemModel) -> tuple[PreparedPolicy, float | None]:
    """Prepared policy plus the achieved terminal ratio (power solvers only).

    A designed policy is prepared first, with the theta^t heuristic
    (pol.theta) as its power, and its power is then designed on the same
    gains and channel. Fully actuated: the scalar solver at pol.epsilon.
    Under-actuated: L-BFGS-B on the adjoint gradient of the exact cost,
    started from the heuristic with at most pol.budget cost evaluations.
    """
    fully = model.leader_fully_actuated()
    name = pol.name
    if name == "ex-comm":
        return make_policy(PolicyKind.EX_COMM, model), None
    if name == "leader-only":
        return make_policy(PolicyKind.LEADER_ONLY, model), None
    if name == "no-comm":
        return make_policy(PolicyKind.NO_COMM, model), None
    if name == "im-comm-opt" and not fully:
        raise ValidationError("im-comm-opt needs a fully actuated leader")
    if name == "im-comm-num" and fully:
        raise ValidationError("im-comm-num targets under-actuated leaders")
    kind = PolicyKind.IM_COMM_FA if fully else PolicyKind.IM_COMM_UA
    prepared = make_policy(kind, model, theta=pol.theta)
    if name == "im-comm-heu":
        return prepared, None
    gains, setup = prepared.gains, prepared.setup
    if fully:
        schedule = solve_scalar_power(gains, setup, model, epsilon=pol.epsilon)
    else:
        schedule = ua_optimize(prepared.power, gains, setup, model,
                               budget=pol.budget, block_order=prepared.block_order)
    return (dataclasses.replace(prepared, power=schedule),
            schedule.achieved_terminal_ratio)


def run_experiment(config: ExperimentConfig) -> list[Path]:
    """Execute the config and write aggregate/series/summary files."""
    model = config.model()
    target = config.resolve_target()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    reports, summaries = [], []
    for pol in config.policies:
        t0 = time.perf_counter()
        prepared, ratio = build_policy(pol, model)
        report = monte_carlo(prepared, model, target, config.runs,
                             config.master_seed)
        wall = time.perf_counter() - t0
        reports.append(report)
        entry = {
            "policy": pol.name,
            "runs": report.runs,
            "mean_total_cost": report.mean_total_cost,
            "std_total_cost": report.std_total_cost,
            "achieved_terminal_ratio": ratio,
            "wall_time_s": round(wall, 3),
        }
        if pol.name == "im-comm-num":
            entry["optimizer_budget"] = pol.budget
        summaries.append(entry)

    agg_path = out / "aggregate.csv"
    _write_csv(agg_path,
               ["policy", "runs", "mean_total_cost", "std_total_cost"],
               [[s["policy"], s["runs"], float(s["mean_total_cost"]),
                 float(s["std_total_cost"])] for s in summaries])
    series_path = out / "series.csv"
    emit_plot_series(reports, series_path)
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summaries, indent=2) + "\n")
    return [agg_path, series_path, summary_path]


def _float_arg(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{flag}: '{text}' is not a number") from None


def _config_from_args(args: argparse.Namespace, policies: list[str]) -> ExperimentConfig:
    if args.config:
        return load_config(args.config)
    if not args.preset:
        raise ValidationError("either --config or --preset is required")
    raw = {
        "system": args.preset,
        "horizon": args.horizon,
        "policies": [{"name": p, "theta": args.theta, "epsilon": args.epsilon,
                      "budget": args.budget} for p in policies],
        "runs": args.runs,
        "master_seed": args.seed,
        "target": args.target if args.target == "sampled"
                  or args.target.startswith("preset:")
                  else [_float_arg(v, "--target") for v in args.target.split(",")],
        "out_dir": args.out,
    }
    return config_from_dict(raw)


def cmd_simulate(args) -> int:
    config = _config_from_args(args, [args.policy])
    for path in run_experiment(config):
        print(path)
    return 0


def cmd_compare(args) -> int:
    policies = args.policy
    if not policies:
        probe = _config_from_args(args, ["ex-comm"])
        if probe.model().leader_fully_actuated():
            policies = ["ex-comm", "leader-only", "im-comm-heu", "im-comm-opt"]
        else:
            policies = ["ex-comm", "no-comm", "im-comm-heu", "im-comm-num"]
    config = _config_from_args(args, policies)
    for path in run_experiment(config):
        print(path)
    return 0


def cmd_gains(args) -> int:
    config = _config_from_args(args, ["ex-comm"])
    model = config.model()
    gains = backward_riccati(model)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "d1": gains.d1,
        "K": [K.tolist() for K in gains.K],
        "D": [D.tolist() for D in gains.D],
        "Phi": [P.tolist() for P in gains.Phi],
        "Dbar": [Db.tolist() for Db in gains.Dbar],
    }
    if model.leader_fully_actuated():
        lead = leader_only_gains(model)
        payload["leader_only"] = {"K": [K.tolist() for K in lead.K],
                                  "D": [D.tolist() for D in lead.D]}
    path = out / "gains.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(path)
    return 0


def cmd_optimize_power(args) -> int:
    config = _config_from_args(args, ["im-comm-heu"])
    model = config.model()
    fully = model.leader_fully_actuated()
    pol = PolicyConfig(name="im-comm-opt" if fully else "im-comm-num",
                       theta=args.theta, epsilon=args.epsilon,
                       budget=args.budget)
    schedule = build_policy(pol, model)[0].power
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fully:
        payload = {
            "mode": "scalar",
            "a": schedule.a.tolist(),
            "b": schedule.b.tolist(),
            "achieved_terminal_ratio": schedule.achieved_terminal_ratio,
            "terminal_multiplier": schedule.terminal_multiplier,
            "max_stationarity_residual":
                float(np.abs(schedule.stationarity_residuals).max()),
            "inner_solves": schedule.inner_solves,
            "Lambda": [lam.tolist() for lam in schedule.Lambda],
        }
    else:
        payload = {
            "mode": "numeric",
            "budget": args.budget,
            "Lambda": [lam.tolist() for lam in schedule.Lambda],
            "evals": schedule.evals,
            "budget_exhausted": schedule.budget_exhausted,
            "projected_gradient_norm": schedule.projected_gradient_norm,
        }
    path = out / "power.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    rows = [[t] + [float(v) for v in lam]
            for t, lam in enumerate(schedule.Lambda)]
    dim = len(schedule.Lambda[0])
    csv_path = out / "power.csv"
    _write_csv(csv_path, ["t"] + [f"lambda_{j}" for j in range(dim)], rows)
    print(path)
    print(csv_path)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--preset", choices=[presets.FULLY_ACTUATED, presets.UNDER_ACTUATED],
                   help="built-in system")
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, default=0.88)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--budget", type=int, default=5000)
    p.add_argument("--out", default="results")
    p.add_argument("--target", default="sampled",
                   help='"v1,v2,..." | sampled | preset:<A|B|C>')


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lqcoord",
        description="Decentralized LQG coordination benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gains", help="dump the LQR gain schedules")
    _add_common(p)
    p.set_defaults(func=cmd_gains)

    p = sub.add_parser("simulate", help="Monte Carlo for one policy")
    _add_common(p)
    p.add_argument("--policy", default="im-comm-heu",
                   help="ex-comm|leader-only|no-comm|im-comm-heu|im-comm-opt|im-comm-num")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize-power", help="solve for a power schedule")
    _add_common(p)
    p.set_defaults(func=cmd_optimize_power)

    p = sub.add_parser("compare", help="aggregate several policies")
    _add_common(p)
    p.add_argument("--policy", action="append",
                   help="repeatable; defaults to the standard comparison set")
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LqcoordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
