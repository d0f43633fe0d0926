"""CLI output matrix: run a fixed set of lqcoord CLI calls, or diff two runs.

    python tests/output_matrix.py run SRC OUT   # lqcoord from SRC/lqcoord
    python tests/output_matrix.py diff A B      # two OUT directories

`run` writes each call's outputs to OUT/<case>/: `compare` on both presets
x sampled / preset:A / fixed targets x seeds 0, 7 x 50 / 500 / 1100 runs
(1100 spans two Monte Carlo chunks), `compare` on both presets at a run
count whose draws exceed `simulate.DRAW_BUDGET_BYTES`, `simulate` of every
policy, `gains` and `optimize-power` on both presets, plus the fully
actuated design at n = 120 and n = 1000, epsilon = 1e-12, and at n = 1,
epsilon = 1e-100, and `compare` and `optimize-power` from a `--config`
file on both presets, whose designed policy is off the flags' defaults
(epsilon = 1e-6 on the fully actuated one, budget 40 on the other).
`run` also writes OUT/exact.json: `expected_total_cost` of the heuristic
at every theta of EXACT_THETAS and horizon of EXACT_HORIZONS on both
presets, and of the Lambda of every `optimize-power` case, so that a move
of the exact cost shows next to the CLI files.
`diff` lists each file that differs, with its largest relative deviation
over the numbers in it, and exits 1 if any file differs. `summary.json`
is compared with its `wall_time_s` values masked, as they vary from run
to run. This module is a tool, not a test module: pytest does not collect
it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
import time
from pathlib import Path

FA, UA = "fully-actuated-vi-a", "under-actuated-vi-b"
POLICIES = {FA: ["ex-comm", "leader-only", "im-comm-heu", "im-comm-opt"],
            UA: ["ex-comm", "no-comm", "im-comm-heu", "im-comm-num"]}
TARGETS = {"sampled": "sampled", "A": "preset:A", "fixed": "1,-2,0.5,2"}
# past the store's budget at the presets' 30 steps (124 doubles per run
# and 4 more for a sampled target): 20000 runs draw 20.5 MB
BUDGET_RUNS = 20000
# FA scalar designs off the CLI default: the benchmark's long design, a
# longer one whose solve on the target is the longest, and the overflow
# edge of one step
LONG_DESIGNS = (("120", "1e-12"), ("1000", "1e-12"), ("1", "1e-100"))
EXACT_THETAS, EXACT_HORIZONS = (0.5, 0.88, 1.0), (30, 120)
# case name -> (command, its config file without out_dir)
CONFIGS = {
    f"{command}-{tag}-config": (command, {
        "system": preset, "runs": 200, "master_seed": 3, "target": "preset:A",
        "policies": POLICIES[preset][:-1] + [{"name": POLICIES[preset][-1], **design}]})
    for command in ("compare", "optimize-power")
    for preset, tag, design in ((FA, "fa", {"epsilon": 1e-6}),
                                (UA, "ua", {"budget": 40}))}


def cases() -> dict[str, list[str]]:
    """Case name -> CLI argv, without --out."""
    out = {}
    for preset, tag in ((FA, "fa"), (UA, "ua")):
        for tname, target in TARGETS.items():
            for seed in (0, 7):
                for runs in (50, 500, 1100):
                    out[f"compare-{tag}-{tname}-s{seed}-r{runs}"] = [
                        "compare", "--preset", preset, "--target", target,
                        "--seed", str(seed), "--runs", str(runs)]
        out[f"compare-{tag}-sampled-s0-r{BUDGET_RUNS}"] = [
            "compare", "--preset", preset, "--runs", str(BUDGET_RUNS)]
        for pol in POLICIES[preset]:
            out[f"simulate-{tag}-{pol}"] = [
                "simulate", "--preset", preset, "--policy", pol, "--runs", "200"]
        out[f"optimize-power-{tag}"] = ["optimize-power", "--preset", preset]
        out[f"gains-{tag}"] = ["gains", "--preset", preset]
    for horizon, epsilon in LONG_DESIGNS:
        out[f"optimize-power-fa-n{horizon}-e{epsilon}"] = [
            "optimize-power", "--preset", FA, "--horizon", horizon,
            "--epsilon", epsilon]
    for name, (command, _) in CONFIGS.items():
        out[name] = [command, "--config"]
    return out


def run(src: Path, out: Path) -> None:
    sys.path.insert(0, str(src.resolve()))
    import lqcoord.cli
    import lqcoord.simulate
    if Path(lqcoord.__file__).resolve().parent != (src / "lqcoord").resolve():
        raise SystemExit(f"imported lqcoord from {lqcoord.__file__}, not {src}")
    budget = getattr(lqcoord.simulate, "DRAW_BUDGET_BYTES", None)
    if budget is not None and BUDGET_RUNS * 128 * 8 <= budget:
        raise SystemExit(f"{BUDGET_RUNS} runs no longer exceed the draw budget")
    with tempfile.TemporaryDirectory() as configs:
        for name, argv in cases().items():
            if name in CONFIGS:
                path = Path(configs) / f"{name}.json"
                path.write_text(json.dumps({**CONFIGS[name][1],
                                            "out_dir": str(out / name)}))
                argv = argv + [str(path)]
            else:
                argv = argv + ["--out", str(out / name)]
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = lqcoord.cli.main(argv)
            if code:
                raise SystemExit(f"{name}: exit code {code}")
            print(f"{name}: {time.perf_counter() - t0:.2f} s")
    (out / "exact.json").write_text(json.dumps(exact_costs(lqcoord, out),
                                               indent=2) + "\n")


def exact_costs(lq, out: Path) -> dict[str, float]:
    """Case name -> exact expected cost: the heuristic's on both presets,
    and each `optimize-power` case's, read back from its power.json."""

    def price(model, **power):
        kind = (lq.PolicyKind.IM_COMM_FA if model.leader_fully_actuated()
                else lq.PolicyKind.IM_COMM_UA)
        pol = lq.make_policy(kind, model, **power)
        return lq.expected_total_cost(pol.power, pol.gains, pol.setup, model,
                                      pol.block_order)

    costs = {}
    for preset, tag in ((FA, "fa"), (UA, "ua")):
        for n in EXACT_HORIZONS:
            model = lq.load_preset(preset, n)
            for theta in EXACT_THETAS:
                costs[f"heuristic-{tag}-n{n}-theta{theta}"] = price(model, theta=theta)
    for name, argv in cases().items():
        if argv[0] != "optimize-power":
            continue
        if name in CONFIGS:
            preset, horizon = CONFIGS[name][1]["system"], None
        else:
            opts = dict(zip(argv[1::2], argv[2::2]))
            preset, horizon = opts["--preset"], opts.get("--horizon")
        model = lq.load_preset(preset, None if horizon is None else int(horizon))
        Lambda = json.loads((out / name / "power.json").read_text())["Lambda"]
        costs[name] = price(model, power=lq.PowerSchedule(
            mode=lq.power.ScheduleMode.FULL_MATRIX, Lambda=Lambda))
    return costs


WALL_TIME = re.compile(r'"wall_time_s": [^,\n}]+')
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|-?inf")


def _numbers(text: str) -> list[float]:
    return [float(x) for x in NUMBER.findall(text)]


def deviation(a: str, b: str) -> float:
    """Largest relative deviation between the numbers of two texts; inf if
    their shapes (number of values or the text around them) differ."""
    xs, ys = _numbers(a), _numbers(b)
    if len(xs) != len(ys) or NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return math.inf
    worst = 0.0
    for x, y in zip(xs, ys):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _read(path: Path) -> str:
    """A file's text, with summary.json's wall times masked."""
    text = path.read_text()
    if path.name == "summary.json":
        text = WALL_TIME.sub('"wall_time_s": #', text)
    return text


def diff(a: Path, b: Path) -> int:
    names = sorted({p.relative_to(a) for p in a.rglob("*") if p.is_file()}
                   | {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    compared = differing = 0
    for rel in names:
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            print(f"{rel}: only in {a if pa.is_file() else b}")
            differing += 1
            continue
        compared += 1
        ta, tb = _read(pa), _read(pb)
        if ta != tb:
            differing += 1
            print(f"{rel}: differs, largest relative deviation "
                  f"{deviation(ta, tb):.3g}")
    print(json.dumps({"compared": compared, "differing": differing}))
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("run", "diff"):
        print(__doc__)
        return 2
    if argv[0] == "run":
        run(Path(argv[1]), Path(argv[2]))
        return 0
    return diff(Path(argv[1]), Path(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
