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
from .model import SystemModel
from .policies import PolicyKind, PreparedPolicy, make_policy
from .power import ua_optimize
from .power.scalar import solve_scalar_power
from .simulate import AggregateReport, SharedDraws, monte_carlo
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
    gains and channel: by the scalar solver at pol.epsilon (fully
    actuated), or by `ua_optimize` from the heuristic within pol.budget
    cost evaluations (under-actuated).
    """
    fully = model.leader_fully_actuated()
    name = pol.name
    if name in ("ex-comm", "leader-only", "no-comm"):   # PolicyKind values
        return make_policy(PolicyKind(name), model), None
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
    """Execute the config and write aggregate/series/summary files.

    A package error while a policy is built is raised again as the same
    type with the policy's name in front of its message. The policies'
    Monte Carlo runs share one store of draws, so the first policy's
    wall time includes the draws the others read.
    """
    model = config.model()
    target = config.resolve_target()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    draws = SharedDraws(model)
    reports, summaries = [], []
    for pol in config.policies:
        t0 = time.perf_counter()
        try:
            prepared, ratio = build_policy(pol, model)
        except LqcoordError as exc:
            raise type(exc)(f"policy '{pol.name}': {exc}") from exc
        report = monte_carlo(prepared, model, target, config.runs,
                             config.master_seed, draws=draws)
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


# The experiment flags. One left out parses to None, so that one given next
# to --config, whose file sets the whole experiment, can be told apart; the
# config's dataclasses hold the defaults of those left out.
FLAGS = ("preset", "horizon", "runs", "seed", "theta", "epsilon", "budget",
         "out", "target", "policy")
# flag -> its key in the config file; theta, epsilon and budget go to
# every policy
_CONFIG_KEYS = {"horizon": "horizon", "runs": "runs", "seed": "master_seed",
                "out": "out_dir", "target": "target"}


def _config_from_args(args: argparse.Namespace, policies: list[str]) -> ExperimentConfig:
    given = {k: v for k in FLAGS if (v := getattr(args, k, None)) is not None}
    if args.config:
        if given:
            raise ValidationError(
                f"{', '.join('--' + k for k in given)}: given next to --config, "
                "whose file sets the whole experiment")
        return load_config(args.config)
    if "preset" not in given:
        raise ValidationError("either --config or --preset is required")
    target = given.get("target", "sampled")
    if not (target == "sampled" or target.startswith("preset:")):
        given["target"] = [_float_arg(v, "--target") for v in target.split(",")]
    design = {k: given[k] for k in ("theta", "epsilon", "budget") if k in given}
    raw = {"system": given["preset"],
           "policies": [{"name": p, **design} for p in policies],
           **{key: given[flag] for flag, key in _CONFIG_KEYS.items() if flag in given}}
    return config_from_dict(raw)


def cmd_simulate(args) -> int:
    config = _config_from_args(args, [args.policy or "im-comm-heu"])
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
    gains = model.joint_gains
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"d1": gains.d1, "K": gains.K.tolist(), "D": gains.D.tolist(),
               "Phi": gains.Phi.tolist(), "Dbar": gains.Dbar.tolist()}
    if model.leader_fully_actuated():
        lead = model.leader_gains
        payload["leader_only"] = {"K": lead.K.tolist(), "D": lead.D.tolist()}
    path = out / "gains.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(path)
    return 0


def cmd_optimize_power(args) -> int:
    config = _config_from_args(args, ["im-comm-heu"])
    model = config.model()
    fully = model.leader_fully_actuated()
    # the config's designed policy sets theta, epsilon and budget, else its
    # first policy (from the flags, when there is no config file)
    name = "im-comm-opt" if fully else "im-comm-num"
    pol = next((p for p in config.policies if p.name == name), config.policies[0])
    pol = dataclasses.replace(pol, name=name)
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
            "budget": pol.budget,
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
    # no defaults here: the config's dataclasses fill in the flags left out
    p.add_argument("--config", help="JSON experiment config, instead of the flags")
    p.add_argument("--preset", choices=[presets.FULLY_ACTUATED, presets.UNDER_ACTUATED],
                   help="built-in system")
    p.add_argument("--runs", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    p.add_argument("--target", help='"v1,v2,..." | sampled | preset:<A|B|C>')


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
    p.add_argument("--policy", help="ex-comm|leader-only|no-comm|im-comm-heu"
                   "|im-comm-opt|im-comm-num (default im-comm-heu)")
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
