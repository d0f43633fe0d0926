"""lqcoord benchmark: named workloads run end to end through the CLI layer.

    python3 perfbench/run.py --workload mc-sweep --seed 0 --seconds 30 --trace 0

Untraced (`--trace 0`): each repetition runs every config of the workload
through `lqcoord.cli.run_experiment`, with only two boundary timers on
`cli.build_policy` (power design) and `cli.monte_carlo` (rollouts). It
prints the end-to-end metrics. Traced (`--trace 1`): each repetition is an
untraced run followed by a replay of the same configs that calls every
layer's public functions one at a time inside in-memory spans; it prints
the per-layer metrics. Repetitions continue while another one fits in
`--seconds`; there is always at least one.

Both modes run the correctness checks. The last line of standard output
is a JSON object {"correct", "attempted", "failed", "metrics"}; every line
before it is a human-readable report (manifest, checks, metrics).
See perfbench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"    # experiment outputs, removed after each run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_LAYER_COVERAGE = 0.95   # share of traced wall time inside layer spans

FA, UA = "fully-actuated-vi-a", "under-actuated-vi-b"
# the `lqcoord compare` default policy sets
COMPARE_SETS = {FA: ["ex-comm", "leader-only", "im-comm-heu", "im-comm-opt"],
                UA: ["ex-comm", "no-comm", "im-comm-heu", "im-comm-num"]}
# policies whose schedule is the workload's power design
DESIGN_POLICIES = {"mc-sweep": "im-comm-heu", "fa-design": "im-comm-opt",
                   "ua-design": "im-comm-num"}
WORKLOADS = tuple(DESIGN_POLICIES)

END_TO_END = {"setup_s": "s", "wall_s": "s", "design_s": "s",
              "design_cost": "cost", "peak_rss_mb": "MB"}
PER_LAYER = {
    "simulate.monte_carlo_s": "s", "simulate.rollout_us": "us",
    "simulate.rollouts": "count", "policies.make_policy_s": "s",
    "policies.step_ops_s": "s", "power.scalar.constants_s": "s",
    "power.scalar.solve_s": "s", "power.scalar.residual_evals": "count",
    "power.scalar.max_residual": "1", "power.ua_opt.optimize_s": "s",
    "power.ua_opt.evals": "count", "power.ua_opt.budget_exhausted": "count",
    "power.analytic.tail_cost_us": "us",
    "power.analytic.expected_total_cost_s": "s",
    "gains.backward_riccati_s": "s", "gains.calls": "count",
    "channel.setup_s": "s", "cli.emit_s": "s", "trace.overhead_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
}

# public functions wrapped in spans during a traced replay, wherever bound:
# (module, name, span, counter)
TRACED_FUNCTIONS = [
    ("lqcoord.gains", "backward_riccati", "gains.backward_riccati", "gains.calls"),
    ("lqcoord.gains", "leader_only_gains", "gains.backward_riccati", "gains.calls"),
    ("lqcoord.channel", "fa_setup", "channel.setup", None),
    ("lqcoord.channel", "ua_setup", "channel.setup", None),
    ("lqcoord.power.scalar", "stationarity_residuals", None,
     "power.scalar.residual_evals"),
]
TRACED_METHODS = [
    ("lqcoord.power.analytic", "TailCostEvaluator", "cost",
     "power.analytic.tail_cost", "power.ua_opt.evals"),
]


class BenchError(Exception):
    """The benchmark cannot run as asked (no or foreign lqcoord, unknown name)."""


@dataclass(frozen=True)
class Scale:
    """Problem sizes; FULL is the benchmark, smaller ones serve smoke tests."""

    mc_runs: int = 200
    design_runs: int = 50
    long_horizon: int = 120
    long_epsilon: float = 1e-12
    budget: int = 5000
    horizon: int | None = None      # None keeps the presets' 30 steps


FULL = Scale()


def workload_configs(name: str, seed: int, scale: Scale = FULL) -> list[dict]:
    """The experiment configs of one workload, as `lqcoord --config` reads them."""
    base = {"master_seed": seed, "target": "sampled", "horizon": scale.horizon}
    if name == "mc-sweep":
        fa_pols = ["ex-comm", "leader-only", "im-comm-heu"]
        return [
            {**base, "system": FA, "policies": fa_pols, "runs": scale.mc_runs},
            {**base, "system": UA, "policies": ["ex-comm", "no-comm", "im-comm-heu"],
             "runs": scale.mc_runs},
            {**base, "system": FA, "policies": fa_pols, "runs": scale.mc_runs,
             "target": "preset:A"},
        ]
    if name == "fa-design":
        return [
            {**base, "system": FA, "policies": COMPARE_SETS[FA],
             "runs": scale.design_runs},
            {**base, "system": FA, "horizon": scale.long_horizon,
             "policies": [{"name": "im-comm-opt", "epsilon": scale.long_epsilon}],
             "runs": scale.design_runs},
        ]
    if name == "ua-design":
        return [{**base, "system": UA, "runs": scale.design_runs,
                 "policies": [{"name": p, "budget": scale.budget}
                              for p in COMPARE_SETS[UA]]}]
    raise BenchError(f"unknown workload '{name}' (have {', '.join(WORKLOADS)})")


def import_program():
    """Import lqcoord from this checkout's src/, refusing any other copy."""
    if not (SRC / "lqcoord" / "__init__.py").is_file():
        raise BenchError(f"no lqcoord package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lqcoord
    import lqcoord.cli  # noqa: F401  (run_experiment and its helpers)
    if Path(lqcoord.__file__).resolve().parent != (SRC / "lqcoord").resolve():
        raise BenchError(f"imported lqcoord from {lqcoord.__file__}, not {SRC}")
    return lqcoord


# ---------------------------------------------------------------- runs

@dataclass
class Rep:
    """One untraced repetition of a workload."""

    wall_s: float
    design_s: float = 0.0
    mc_s: float = 0.0
    rollouts: int = 0
    built: list = field(default_factory=list)   # per config [(model, pol, prepared)]
    csv: list = field(default_factory=list)     # per config {file: text}


def _parse(lq, configs: list[dict], out_dir: Path):
    return [lq.config.config_from_dict({**raw, "out_dir": str(out_dir / str(i))})
            for i, raw in enumerate(configs)]


def _read_csv(out_dir: Path, n_configs: int) -> list[dict]:
    return [{f: (out_dir / str(i) / f).read_text()
             for f in ("aggregate.csv", "series.csv")}
            for i in range(n_configs)]


@contextmanager
def _boundary_timers(cli, rep: Rep, design_policy: str):
    """Time cli.build_policy (design policies only) and cli.monte_carlo."""
    build, monte_carlo = cli.build_policy, cli.monte_carlo

    def timed_build(pol, model):
        t0 = time.perf_counter()
        out = build(pol, model)
        if pol.name == design_policy:
            rep.design_s += time.perf_counter() - t0
        rep.built[-1].append((model, pol, out[0]))
        return out

    def timed_monte_carlo(*args, **kwargs):
        t0 = time.perf_counter()
        report = monte_carlo(*args, **kwargs)
        rep.mc_s += time.perf_counter() - t0
        rep.rollouts += report.runs
        return report

    cli.build_policy, cli.monte_carlo = timed_build, timed_monte_carlo
    try:
        yield
    finally:
        cli.build_policy, cli.monte_carlo = build, monte_carlo


def run_untraced(lq, configs: list[dict], out_dir: Path, design_policy: str) -> Rep:
    parsed = _parse(lq, configs, out_dir)
    rep = Rep(wall_s=0.0)
    with _boundary_timers(lq.cli, rep, design_policy):
        t0 = time.perf_counter()
        for config in parsed:
            rep.built.append([])
            lq.cli.run_experiment(config)
        rep.wall_s = time.perf_counter() - t0
    rep.csv = _read_csv(out_dir, len(configs))
    shutil.rmtree(out_dir)
    return rep


def replay_policy(lq, pol, model, tracer):
    """`lqcoord.cli.build_policy`, one public layer call at a time."""
    kinds = lq.PolicyKind
    baselines = {"ex-comm": kinds.EX_COMM, "leader-only": kinds.LEADER_ONLY,
                 "no-comm": kinds.NO_COMM}
    if pol.name in baselines:
        with tracer.span("policies.make_policy"):
            return lq.make_policy(baselines[pol.name], model)
    kind = kinds.IM_COMM_FA if model.leader_fully_actuated() else kinds.IM_COMM_UA
    if pol.name == "im-comm-heu":
        with tracer.span("policies.make_policy"):
            return lq.make_policy(kind, model, theta=pol.theta)
    gains = lq.backward_riccati(model)
    if pol.name == "im-comm-opt":
        setup = lq.fa_setup(model.B1, model.W)
        with tracer.span("power.scalar.constants"):
            constants = lq.power.scalar_constants(gains, setup, model)
        with tracer.span("power.scalar.solve"):
            schedule = lq.power.scalar_backward_solve(constants, pol.epsilon,
                                                      model, setup, gains)
    elif pol.name == "im-comm-num":
        setup = lq.ua_setup(model.B1, model.W)
        init = lq.heuristic_schedule(pol.theta, model.n, setup.r)
        budget_warning = lq.errors.BudgetExhaustedWarning
        with tracer.span("power.ua_opt.optimize"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", budget_warning)
            schedule = lq.ua_optimize(init, gains, setup, model, budget=pol.budget)
        tracer.count("power.ua_opt.budget_exhausted",
                     sum(issubclass(w.category, budget_warning) for w in caught))
    else:
        raise BenchError(f"no replay for policy '{pol.name}'")
    with tracer.span("policies.make_policy"):
        return lq.make_policy(kind, model, power=schedule)


def replay_experiment(lq, config, tracer) -> None:
    """`lqcoord.cli.run_experiment` as explicit layer calls inside spans."""
    model = config.model()
    target = config.resolve_target()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for pol in config.policies:
        prepared = replay_policy(lq, pol, model, tracer)
        if prepared.tracks_sigma:
            with tracer.span("policies.step_ops"):
                _ = prepared.step_ops
        with tracer.span("simulate.monte_carlo"):
            report = lq.monte_carlo(prepared, model, target, config.runs,
                                    config.master_seed)
        tracer.count("simulate.rollouts", report.runs)
        reports.append((pol.name, report))
    with tracer.span("cli.emit"):
        rows = [[name, r.runs, float(r.mean_total_cost), float(r.std_total_cost)]
                for name, r in reports]
        lq.cli._write_csv(out / "aggregate.csv",
                          ["policy", "runs", "mean_total_cost", "std_total_cost"],
                          rows)
        lq.cli.emit_plot_series([r for _, r in reports], out / "series.csv")
        summary = [dict(zip(("policy", "runs", "mean_total_cost",
                             "std_total_cost"), row)) for row in rows]
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def run_traced(lq, configs: list[dict], out_dir: Path):
    """One traced replay; returns its tracer, wall time and CSV outputs."""
    from tracing import Tracer

    parsed = _parse(lq, configs, out_dir)
    tracer = Tracer()
    with tracer.patched(TRACED_FUNCTIONS, TRACED_METHODS):
        with tracer.span("workload"):
            for config in parsed:
                replay_experiment(lq, config, tracer)
    csv = _read_csv(out_dir, len(configs))
    shutil.rmtree(out_dir)
    return tracer, tracer.spans[0].duration, csv


def repeat(fn, seconds: float) -> None:
    """Call fn(k) for k = 0, 1, ... while another call fits in `seconds`."""
    t0 = time.perf_counter()
    k = 0
    while True:
        fn(k)
        k += 1
        if (time.perf_counter() - t0) * (k + 1) / k > seconds:
            return


def setup_seconds(configs: list[dict]) -> list[float]:
    """Import + validation time of a fresh interpreter, SETUP_REPEATS times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                              input=json.dumps(configs), capture_output=True,
                              text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["lqcoord"]).resolve().parent != (SRC / "lqcoord").resolve():
            raise BenchError(f"set-up probe imported {probe['lqcoord']}")
        samples.append(probe["setup_s"])
    return samples


# -------------------------------------------------------------- checks

def run_checks(lq, design_policy: str, configs: list[dict], rep: Rep, log,
               tracer) -> dict:
    """Output checks on one untraced repetition; returns derived values."""
    import checks

    for i, files in enumerate(rep.csv):
        for fname, text in files.items():
            log.record(f"csv-finite config{i}/{fname}", *checks.csv_values_finite(text))
    costs, max_residual = {}, 0.0
    for i, built in enumerate(rep.built):
        for model, pol, prepared in built:
            if pol.name == "im-comm-opt":
                ok, detail, worst = checks.scalar_schedule_ok(
                    prepared.power, prepared.gains, prepared.setup, model, pol.epsilon)
                log.record(f"scalar-residual config{i} n={model.n}", ok, detail)
                max_residual = max(max_residual, worst)
            if pol.name in (design_policy, "im-comm-heu"):
                costs[i, pol.name] = checks.exact_cost(prepared, tracer)
    for (i, pol_name), cost in costs.items():
        if pol_name == "im-comm-num":
            heu = costs[i, "im-comm-heu"]
            log.record(f"num-le-heu config{i}", cost <= heu,
                       f"exact cost im-comm-num {cost:.6f} <= im-comm-heu {heu:.6f}")
    checks.mc_matches_exact(log, tracer)
    design_cost = sum(cost for (i, pol_name), cost in costs.items()
                      if pol_name == design_policy
                      and configs[i]["target"] == "sampled")
    return {"design_cost": design_cost, "max_residual": max_residual}


def check_same_outputs(log, label: str, reference: list, other: list) -> None:
    same = all(a[f] == b[f] for a, b in zip(reference, other) for f in a)
    log.record(f"byte-identical {label}", same and len(reference) == len(other),
               "aggregate.csv and series.csv of every config")


# ------------------------------------------------------------- metrics

def layer_metrics(tracer) -> dict:
    total, count = tracer.totals(), tracer.counts
    rollouts, evals = count["simulate.rollouts"], count["power.ua_opt.evals"]
    return {
        "simulate.monte_carlo_s": total["simulate.monte_carlo"],
        "simulate.rollout_us": (1e6 * total["simulate.monte_carlo"] / rollouts
                                if rollouts else 0.0),
        "simulate.rollouts": rollouts,
        "policies.make_policy_s": total["policies.make_policy"],
        "policies.step_ops_s": total["policies.step_ops"],
        "power.scalar.constants_s": total["power.scalar.constants"],
        "power.scalar.solve_s": total["power.scalar.solve"],
        "power.scalar.residual_evals": count["power.scalar.residual_evals"],
        "power.ua_opt.optimize_s": total["power.ua_opt.optimize"],
        "power.ua_opt.evals": evals,
        "power.ua_opt.budget_exhausted": count["power.ua_opt.budget_exhausted"],
        "power.analytic.tail_cost_us": (1e6 * total["power.analytic.tail_cost"] / evals
                                        if evals else 0.0),
        "gains.backward_riccati_s": total["gains.backward_riccati"],
        "gains.calls": count["gains.calls"],
        "channel.setup_s": total["channel.setup"],
        "cli.emit_s": total["cli.emit"],
        "trace.wall_s": total["workload"],
        "trace.unattributed_s": tracer.self_times()["workload"],
    }


def high_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    k = len(values)
    if k < 11:
        return f"n/a with {k} samples (needs 11)"
    return f"p{100 * (k - 10) / k:.0f} {sorted(values)[k - 11]:.6g} s"


@dataclass
class Result:
    metrics: dict
    units: dict
    log: object
    manifest: dict
    notes: list = field(default_factory=list)


def measure_untraced(lq, name, configs, seconds, out_root, log, notes) -> tuple[dict, int]:
    """End-to-end metrics; repetition 0 is kept for the output checks."""
    from tracing import NullTracer

    setup = setup_seconds(configs)
    reps: list[Rep] = []

    def one(k):
        rep = run_untraced(lq, configs, out_root / f"u{k}", DESIGN_POLICIES[name])
        if k:   # keep only timings, so memory does not grow with repetitions
            check_same_outputs(log, f"repetition {k} vs 0", reps[0].csv, rep.csv)
            rep.built, rep.csv = [], []
        reps.append(rep)

    repeat(one, seconds)
    derived = run_checks(lq, DESIGN_POLICIES[name], configs, reps[0], log,
                         NullTracer())
    walls = [r.wall_s for r in reps]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "design_s": statistics.median(r.design_s for r in reps),
        "design_cost": derived["design_cost"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes.append(f"wall_s: median {metrics['wall_s']:.6g} s, high percentile "
                 f"{high_percentile(walls)}, {len(walls)} repetitions")
    notes.append(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    # printed, not a result metric: the design workloads spend well under a
    # second per repetition in rollouts, too little for a steady figure
    rollouts, mc_s = sum(r.rollouts for r in reps), sum(r.mc_s for r in reps)
    notes.append(f"rollouts_per_s = {rollouts / mc_s!r} 1/s "
                 f"({rollouts} rollouts in {mc_s:.4f} s of monte_carlo)")
    log.operations = len(configs) * len(reps)
    return metrics, len(reps)


def measure_traced(lq, name, configs, seconds, out_root, log) -> tuple[dict, int]:
    """Per-layer metrics from untraced/traced repetition pairs."""
    from tracing import Tracer

    first: list[Rep] = []
    per_rep, traced_walls, untraced_walls = [], [], []

    def pair(k):
        untraced = run_untraced(lq, configs, out_root / f"u{k}", DESIGN_POLICIES[name])
        tracer, wall, traced_csv = run_traced(lq, configs, out_root / f"t{k}")
        check_same_outputs(log, f"traced vs untraced repetition {k}",
                           untraced.csv, traced_csv)
        if k:
            check_same_outputs(log, f"repetition {k} vs 0", first[0].csv, untraced.csv)
        else:
            first.append(untraced)
        selfs = tracer.self_times()
        layers = sum(v for span, v in selfs.items() if span != "workload")
        log.record(f"layer self-times cover traced wall, repetition {k}",
                   layers >= MIN_LAYER_COVERAGE * wall,
                   f"{layers:.6f} s of {wall:.6f} s (>= {MIN_LAYER_COVERAGE:.0%}); "
                   f"unattributed {selfs['workload']:.6f} s")
        per_rep.append(layer_metrics(tracer))
        traced_walls.append(wall)
        untraced_walls.append(untraced.wall_s)

    repeat(pair, seconds)
    check_tracer = Tracer()
    derived = run_checks(lq, DESIGN_POLICIES[name], configs, first[0], log,
                         check_tracer)
    metrics = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    metrics["power.scalar.max_residual"] = derived["max_residual"]
    metrics["power.analytic.expected_total_cost_s"] = \
        check_tracer.totals()["power.analytic.expected_total_cost"]
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    log.operations = 2 * len(configs) * len(per_rep)
    return metrics, len(per_rep)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL, out_root: Path | None = None) -> Result:
    """Run one workload in this process; lqcoord must already be importable."""
    import lqcoord as lq
    from checks import CheckLog

    configs = workload_configs(name, seed, scale)
    out_root = out_root or OUT_DIR / f"{name}-{os.getpid()}"
    log, notes = CheckLog(), []
    try:
        if trace:
            metrics, reps = measure_traced(lq, name, configs, seconds, out_root, log)
        else:
            metrics, reps = measure_untraced(lq, name, configs, seconds, out_root,
                                             log, notes)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with suppress(OSError):     # only succeeds once OUT_DIR is empty
            OUT_DIR.rmdir()
    manifest = run_manifest(lq, name, seed, seconds, trace, reps,
                            _parse(lq, configs, out_root))
    return Result(metrics=metrics, units=PER_LAYER if trace else END_TO_END,
                  log=log, manifest=manifest, notes=notes)


def run_manifest(lq, name, seed, seconds, trace, reps, parsed) -> dict:
    import numpy
    import scipy

    shapes = [f"{c.runs}x{c.model().n}" for c in parsed for _ in c.policies]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "repetitions": reps,
        "rollouts_runs_x_horizon": shapes,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "lqcoord": lq.__version__,
        "git_commit": git_commit(ROOT),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit from the .git directory, or 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(result: Result) -> str:
    """Human-readable lines, then the JSON result line."""
    log = result.log
    lines = [f"manifest {json.dumps(result.manifest)}"]
    lines += [f"check {'PASS' if ok else 'FAIL'} {name}: {detail}"
              for name, ok, detail in log.results]
    lines += [f"metric {k} = {v!r} {result.units[k]}"
              for k, v in result.metrics.items()]
    lines += result.notes
    attempted = log.attempted
    lines.append(f"failed_frac = {log.failed / attempted:g} "
                 f"({log.failed} failed of {attempted} checks and operations)")
    lines.append(json.dumps({
        "correct": log.failed == 0,
        "attempted": attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": result.units[k]}
                    for k, v in result.metrics.items()},
    }))
    return "\n".join(lines)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="target measuring time; repetitions stop when the next would overrun")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:      # must precede the first numpy import
        os.environ[var] = str(threads)
    try:
        import_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
