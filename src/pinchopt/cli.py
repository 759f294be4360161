"""Command-line front end.

Subcommands and the options each takes besides -h/--help:

    solve        one scenario: --metric -o/--out --eps-t --workers
    sweep        CSV sweep over up to two axes: --metric --axis --drops --out
                 --eps-t --seed --workers
    ccdf         analytic vs Monte-Carlo CCDF of one link: --user --x-pin
                 --t-min --t-max --t-points --t-scale --samples --out --seed
                 --workers
    verify       the oracle suite: --samples --eta-scale --report --eps-t --seed
    closed-form  exact max-min optimum when all users share one channel, at
                 any number of users: -o/--out

--eps-t overrides the scenario's relative tolerance on the level t.
--workers acts on sweep only; solve and ccdf ignore it. ccdf and verify
draw their Monte-Carlo blocks on every CPU the process may use, whatever
--workers says, and their output does not depend on the CPU count.

sweep --axis m: at a user count other than the file's, every user takes
user 0's channel and outage target, so the file's users must agree in
noise_dbm, mu_sq_db and, where the targets act (--metric outage, no epsilon
axis), outage.epsilons; else the sweep exits 2 before solving any point.

The argument parser is built once per process, on the first main() call.
sweep, ccdf, verify and closed-form load numpy when run; solve does not.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 solver error (no positive level is feasible), 4 internal error (an
unexpected exception; a bug in pinchopt).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
import time
import traceback
from dataclasses import replace

from . import __version__
from .maxmin import SolverAnomaly, Solution, fixed_antenna_baseline, solve_maxmin
from .model import InvalidScenario, Scenario, UnsupportedScenario, UserPosition, f_scalar, snr_std
from .outage import (
    OutageSpec,
    default_threshold_ceiling,
    fixed_antenna_outage_baseline,
    max_threshold_at,
    solve_outage,
)
from .scenario_io import ScenarioBundle, ScenarioFormatError, load_scenario
from .special import ccdf_inst_snr

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4

SWEEP_COLUMNS = [
    "scenario_id", "metric", "axis1", "value1", "axis2", "value2", "drops",
    "t_star", "x_star", "baseline_t_star", "gap", "iterations", "wall_time_s",
]
CCDF_COLUMNS = ["t", "ccdf_analytic", "ccdf_mc", "mc_std_err"]


_FLAGS = {
    "--eps-t": dict(type=float, help="override the relative outer tolerance on t"),
    "--seed": dict(type=int, default=0, help="base RNG seed (>= 0)"),
    "--workers": dict(type=int, default=1, help="worker processes (>= 1); acts on sweep only"),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str):
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchopt",
        description="Pinching-antenna placement under probabilistic LoS/NLoS channels",
    )
    parser.add_argument("--version", action="version", version=f"pinchopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--metric", choices=["avg-snr", "outage"], required=True)
    p.add_argument("-o", "--out", default=None, help="result JSON path (default stdout)")
    _add_flags(p, "--eps-t", "--workers")

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    p.add_argument("scenario")
    p.add_argument("--metric", choices=["avg-snr", "outage"], required=True)
    p.add_argument(
        "--axis", action="append", default=[], metavar="NAME=LO:HI:N[:log]",
        help="sweep axis (dx, beta, m, epsilon); repeat for two axes",
    )
    p.add_argument("--drops", type=int, default=100, help="random user drops per grid point")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_flags(p, "--eps-t", "--seed", "--workers")

    p = sub.add_parser("ccdf", help="CCDF table: analytic vs Monte Carlo")
    p.add_argument("scenario")
    p.add_argument("--user", type=int, default=0, help="user index")
    p.add_argument("--x-pin", type=float, required=True, help="antenna position")
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=None, help="default: threshold ceiling")
    p.add_argument("--t-points", type=int, default=40)
    p.add_argument("--t-scale", choices=["linear", "log"], default="linear")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_flags(p, "--seed", "--workers")

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("scenario")
    p.add_argument("--samples", type=int, default=200_000, help="Monte-Carlo samples per check")
    p.add_argument("--eta-scale", type=float, default=1.0,
                   help="negative control: scale eta on the analytic side only")
    p.add_argument("--report", default=None, help="also write a JSON report here")
    _add_flags(p, "--eps-t", "--seed")

    p = sub.add_parser("closed-form", help="exact max-min optimum of a shared-channel scenario")
    p.add_argument("scenario")
    p.add_argument("-o", "--out", default=None)

    return parser


def _apply_tol_overrides(bundle: ScenarioBundle, args) -> ScenarioBundle:
    if args.eps_t is None:
        return bundle
    try:
        return replace(bundle, tol=replace(bundle.tol, eps_t=args.eps_t))
    except ValueError as exc:
        raise ScenarioFormatError(f"--eps-t: {exc}") from exc


def _check_seed_and_workers(args):
    """--seed and --workers, where a subcommand takes them, must be in range."""
    for flag, least in (("seed", 0), ("workers", 1)):
        value = getattr(args, flag, least)
        if value < least:
            raise ScenarioFormatError(f"--{flag}: must be >= {least}, got {value}")


def _solution_dict(sol: Solution) -> dict:
    return {
        "t_star": sol.t_star,
        "x_star": sol.x_star,
        "feasible": {"lo": sol.feasible.lo, "hi": sol.feasible.hi},
        "outer_iterations": sol.outer_iterations,
    }


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _solve_pair(bundle: ScenarioBundle, metric: str):
    if metric == "avg-snr":
        pin = solve_maxmin(bundle.scenario, bundle.tol)
        fix = fixed_antenna_baseline(bundle.scenario)
    else:
        if bundle.outage is None:
            raise ScenarioFormatError("outage metric needs an 'outage' section in the scenario")
        pin = solve_outage(bundle.scenario, bundle.outage, bundle.tol)
        fix = fixed_antenna_outage_baseline(bundle.scenario, bundle.outage)
    return pin, fix


def cmd_solve(args) -> int:
    bundle = _apply_tol_overrides(load_scenario(args.scenario), args)
    pin, fix = _solve_pair(bundle, args.metric)
    doc = {
        "schema": 1,
        "metric": args.metric,
        "scenario_id": bundle.name,
        "pinching": dict(_solution_dict(pin), binding=list(pin.meta["binding"]),
                         bracket=[pin.meta["bracket_lo"], pin.meta["bracket_hi"]]),
        "fixed": _solution_dict(fix),
        "gap": (pin.t_star - fix.t_star) / pin.t_star if pin.t_star else 0.0,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


_AXES = ("dx", "beta", "m", "epsilon")


def _parse_axis(text: str):
    import numpy as np

    name, _, spec = text.partition("=")
    name = name.strip().lower()
    if name not in _AXES:
        raise ScenarioFormatError(f"axis '{name}' not one of {_AXES}")
    parts = spec.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ScenarioFormatError(f"axis spec '{text}' must be NAME=LO:HI:N[:log]")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ScenarioFormatError(f"axis spec '{text}': {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ScenarioFormatError(f"axis '{name}' needs finite bounds, got {lo}:{hi}")
    if n < 1:
        raise ScenarioFormatError(f"axis '{name}' needs at least 1 point")
    if len(parts) == 4:
        if lo <= 0 or hi <= 0:
            raise ScenarioFormatError(f"log axis '{name}' needs positive bounds")
        values = np.geomspace(lo, hi, n)
    else:
        values = np.linspace(lo, hi, n)
    if name == "m":
        values = np.unique(np.rint(values).astype(int))
    allowed, inside = {"dx": ("> 0", values > 0.0), "beta": (">= 0", values >= 0.0),
                       "m": (">= 1", values >= 1),
                       "epsilon": ("in (0, 1)", (values > 0.0) & (values < 1.0))}[name]
    if not np.all(inside):
        raise ScenarioFormatError(f"axis '{name}' values must be {allowed}, got {lo}:{hi}")
    return name, [float(v) if name != "m" else int(v) for v in values]


def _drop_scenario(bundle: ScenarioBundle, overrides: dict, seed_key: tuple,
                   redraw_users: bool) -> tuple[Scenario, OutageSpec | None]:
    base = bundle.scenario
    dx = overrides.get("dx", base.dx)
    n_users = int(overrides.get("m", base.n_users))
    channels = base.channels if n_users == base.n_users else base.channels[:1] * n_users
    if "beta" in overrides:
        channels = [replace(channel, beta=overrides["beta"]) for channel in channels]
    if redraw_users:
        import numpy as np
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=0, spawn_key=seed_key)))
        xs = rng.uniform(0.0, dx, n_users)
        ys = rng.uniform(-0.5 * base.dy, 0.5 * base.dy, n_users)
        users = tuple(UserPosition(float(x), float(y)) for x, y in zip(xs, ys))
    else:
        users = base.users
    scenario = Scenario(dx=dx, dy=base.dy, dv=base.dv, users=users, channels=channels)
    if "epsilon" in overrides:
        spec = OutageSpec.shared(float(overrides["epsilon"]), n_users)
    elif bundle.outage is not None and n_users != base.n_users:
        spec = OutageSpec.shared(bundle.outage.epsilons[0], n_users)
    else:
        spec = bundle.outage
    return scenario, spec


def _first_difference(bundle: ScenarioBundle, targets_act: bool = False):
    """(file field, m): the first field of a user m that differs from user 0's, or None.
    Only noise_dbm (rho), mu_sq_db (mu_sq) and outage.epsilons are per user."""
    channels = bundle.scenario.channels
    per_user = {"noise_dbm": [c.rho for c in channels], "mu_sq_db": [c.mu_sq for c in channels],
                "outage.epsilons": bundle.outage.epsilons if targets_act else ()}
    return next(((field, m) for field, values in per_user.items()
                 for m, value in enumerate(values) if value != values[0]), None)


def _check_user_counts(bundle: ScenarioBundle, counts, targets_act: bool):
    """Another user count gives every user user 0's channel and target: refuse it
    when the file's users differ in one of them."""
    differ = _first_difference(bundle, targets_act)
    if differ and any(count != bundle.scenario.n_users for count in counts):
        raise ScenarioFormatError(f"axis 'm' changes the user count, which needs one "
                                  f"{differ[0]} for every user; the file's users differ in it")


def _sweep_point(task: dict) -> list:
    bundle = task["bundle"]
    metric = task["metric"]
    start = time.perf_counter()
    t_sum = x_sum = base_sum = gap_sum = iter_sum = 0.0
    for drop in range(task["drops"]):
        scenario, spec = _drop_scenario(
            bundle, task["overrides"], (task["seed"], task["point_index"], drop),
            task["redraw_users"],
        )
        pin, fix = _solve_pair(replace(bundle, scenario=scenario, outage=spec), metric)
        t_sum += pin.t_star
        x_sum += pin.x_star
        base_sum += fix.t_star
        gap_sum += (pin.t_star - fix.t_star) / pin.t_star if pin.t_star else 0.0
        iter_sum += pin.outer_iterations
    n = task["drops"]
    wall = time.perf_counter() - start
    axes = task["axes"]
    return [
        f"{bundle.name}[{task['point_index']}]", metric,
        axes[0][0], axes[0][1], axes[1][0], axes[1][1], n,
        t_sum / n, x_sum / n, base_sum / n, gap_sum / n, iter_sum / n, wall,
    ]


def cmd_sweep(args) -> int:
    bundle = _apply_tol_overrides(load_scenario(args.scenario), args)
    if len(args.axis) == 0:
        raise ScenarioFormatError("sweep needs at least one --axis")
    if len(args.axis) > 2:
        raise ScenarioFormatError(f"--axis given {len(args.axis)} times; sweep takes at most two")
    if args.drops < 1:
        raise ScenarioFormatError("--drops must be >= 1")
    axes = [_parse_axis(text) for text in args.axis]
    names = [name for name, _ in axes]
    if len(set(names)) != len(names):
        raise ScenarioFormatError(f"axis '{names[0]}' given twice")
    redraw = args.drops > 1 or "m" in names or "dx" in names
    tasks = []
    for point_index, values in enumerate(itertools.product(*(grid for _, grid in axes))):
        overrides = dict(zip(names, values))
        tasks.append({
            "bundle": bundle,
            "metric": args.metric,
            "overrides": overrides,
            "axes": list(overrides.items()) + [("", "")] * (2 - len(axes)),
            "drops": args.drops,
            "seed": args.seed,
            "point_index": point_index,
            "redraw_users": redraw,
        })
    if args.metric == "outage" and bundle.outage is None and "epsilon" not in names:
        raise ScenarioFormatError("outage sweep needs an epsilon axis or outage section")
    if args.metric == "avg-snr" and "epsilon" in names:
        raise ScenarioFormatError("axis 'epsilon' does not act on --metric avg-snr")
    _check_user_counts(bundle, dict(axes).get("m", ()),
                       args.metric == "outage" and "epsilon" not in names)
    workers = min(args.workers, len(tasks))  # a fork pool starts every worker at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(task) for task in tasks]
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    return EXIT_OK


def cmd_ccdf(args) -> int:
    import numpy as np
    from .montecarlo import McConfig, estimate_ccdf_curve

    scenario = load_scenario(args.scenario).scenario
    if not 0 <= args.user < scenario.n_users:
        raise ScenarioFormatError(f"--user {args.user} outside [0, {scenario.n_users - 1}]")
    if not 0.0 <= args.x_pin <= scenario.dx:
        raise ScenarioFormatError(f"--x-pin {args.x_pin} outside [0, {scenario.dx}]")
    if args.t_points < 1:
        raise ScenarioFormatError("--t-points must be >= 1")
    if args.samples < 1:
        raise ScenarioFormatError("--samples must be >= 1")
    if not 0.0 <= args.t_min < math.inf:
        raise ScenarioFormatError(f"--t-min must be finite and >= 0, got {args.t_min}")
    t_max = args.t_max if args.t_max is not None else default_threshold_ceiling(scenario)
    if not args.t_min <= t_max < math.inf:
        raise ScenarioFormatError(f"--t-max must be finite and >= --t-min, got {t_max}")
    if args.t_scale == "log":
        if args.t_min <= 0.0:
            raise ScenarioFormatError("--t-scale log needs --t-min > 0")
        ts = np.geomspace(args.t_min, t_max, args.t_points)
    else:
        ts = np.linspace(args.t_min, t_max, args.t_points)
    params = scenario.channels[args.user]
    r_sq = scenario.r_sq(args.user, args.x_pin)
    cfg = McConfig(samples=args.samples, seed=args.seed)
    estimates = estimate_ccdf_curve(params, r_sq, ts, cfg, x_pin=args.x_pin)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CCDF_COLUMNS)
        for t, est in zip(ts, estimates):
            writer.writerow([t, ccdf_inst_snr(params, r_sq, float(t)), est.mean, est.std_error])
    return EXIT_OK


def _bonferroni_z(n: int) -> float:
    """Limit in std errors on the worst of n two-sided comparisons: any of them
    fails a correct formula as often as one does at 3 (Bonferroni). statistics
    is imported here: at module level it adds about 2 ms to every start-up."""
    from statistics import NormalDist

    return NormalDist().inv_cdf(1.0 - 0.5 * math.erfc(3.0 / math.sqrt(2.0)) / n)


def _verify_checks(bundle: ScenarioBundle, samples: int, seed: int, eta_scale: float):
    """Oracle suite; analytic formulas use eta*eta_scale, the simulator the true eta."""
    from .montecarlo import (_BATCH, McConfig, estimate_avg_snr, estimate_ccdf_curve,
                             grid_search_maxmin, grid_search_outage, shared_channel_optimum)

    scenario = bundle.scenario
    # Average SNR and CCDF (4 thresholds) vs Monte Carlo at each user's midpoint
    # distance. Error bars are analytic under the formula being checked, as a
    # small sample can miss the rare LoS draws that carry most of the variance:
    # the SNR's standard deviation, floored at the least double so that none is 0,
    # and a fraction's binomial sqrt(p(1-p)/n), floored at one sample count. Each
    # check holds its worst comparison to the Bonferroni limit over its M or 4M.
    z_mean, z_ccdf = _bonferroni_z(scenario.n_users), _bonferroni_z(4 * scenario.n_users)
    worst_mean = worst_ccdf = 0.0
    for m, params in enumerate(scenario.channels):
        r_sq = scenario.r_sq(m, 0.5 * scenario.dx)
        analytic = replace(params, eta=params.eta * eta_scale)
        # two seeds per user, disjoint across users: the checks draw independently
        est = estimate_avg_snr(params, r_sq, McConfig(samples=samples, seed=seed + 2 * m))
        std_error = max(snr_std(analytic, r_sq) / math.sqrt(samples), math.ulp(0.0))
        worst_mean = max(worst_mean, abs(f_scalar(analytic, r_sq) - est.mean) / (z_mean * std_error))
        mean_nlos = params.rho * params.mu_sq / r_sq
        los_limit = params.rho * params.eta / r_sq
        ts = [mean_nlos * math.log(2.0), 10.0 * mean_nlos, 0.5 * los_limit, 0.95 * los_limit]
        ests = estimate_ccdf_curve(params, r_sq, ts, McConfig(samples=samples, seed=seed + 2 * m + 1))
        for t, est in zip(ts, ests):
            p = ccdf_inst_snr(analytic, r_sq, t)
            std_error = math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
            worst_ccdf = max(worst_ccdf, abs(p - est.mean) / (z_ccdf * std_error))
    checks = [{"name": name, "pass": bool(worst <= 1.0),
               "detail": f"max |analytic-mc| = {worst:.3f} of {z:.2f} std errors"}
              for name, worst, z in (("avg-snr-formula-vs-mc", worst_mean, z_mean),
                                     ("ccdf-formula-vs-mc", worst_ccdf, z_ccdf))]

    # Bisection solver vs grid search on the scenario itself.
    sol = solve_maxmin(scenario, bundle.tol)
    grid = grid_search_maxmin(scenario, 20_001)
    slack = bundle.tol.eps_t + grid.meta["t_slack"] / sol.t_star + 1e-9
    rel = abs(sol.t_star - grid.t_star) / sol.t_star
    checks.append({"name": "maxmin-bisection-vs-grid", "pass": bool(rel <= slack),
                   "detail": f"relative gap {rel:.2e} vs slack {slack:.2e}"})

    # Both solvers vs the exact shared-channel optimum on the scenario's own
    # users, every channel set to the first user's and every target to the first.
    spec = bundle.outage or OutageSpec.shared(0.1, scenario.n_users)
    shared = replace(scenario, channels=(scenario.channels[0],) * scenario.n_users)
    shared_spec = OutageSpec.shared(spec.epsilons[0], scenario.n_users)
    gaps = [abs(opt.t_star - sol.t_star) / opt.t_star for opt, sol in (
        (shared_channel_optimum(shared), solve_maxmin(shared, bundle.tol)),
        (shared_channel_optimum(shared, shared_spec), solve_outage(shared, shared_spec, bundle.tol)))]
    checks.append({"name": "shared-channel-optimum-vs-solvers",
                   "pass": bool(max(gaps) <= 10.0 * bundle.tol.eps_t),
                   "detail": f"relative gaps {gaps[0]:.2e} (avg-snr), {gaps[1]:.2e} (outage) "
                             f"vs {10.0 * bundle.tol.eps_t:.2e}"})

    # Outage solver vs its grid oracle. The grid can trail the solver by one
    # t-grid step plus the x-discretization loss, measured exactly by the
    # continuous per-position optimum at the grid point nearest x_star.
    sol_o = solve_outage(scenario, spec, bundle.tol)
    grid_o = grid_search_outage(scenario, spec, 2_001, 501)
    x_near = round(sol_o.x_star / grid_o.meta["x_spacing"]) * grid_o.meta["x_spacing"]
    t_at_near = max_threshold_at(scenario, spec, min(x_near, scenario.dx))
    shortfall = sol_o.t_star - grid_o.t_star
    allowed = (sol_o.t_star - t_at_near) + grid_o.meta["t_spacing"] \
        + bundle.tol.eps_t * sol_o.t_star
    overshoot = grid_o.t_star - sol_o.t_star * (1.0 + bundle.tol.eps_t)
    ok_o = shortfall <= allowed + 1e-12 * sol_o.t_star and overshoot <= 0.0
    checks.append({"name": "outage-bisection-vs-grid", "pass": bool(ok_o),
                   "detail": f"shortfall {shortfall:.3e} vs allowed {allowed:.3e}"})

    # Determinism: identical seeds reproduce estimates bit for bit, over two
    # whole blocks and a ragged one, so a multi-CPU host draws them on the
    # calling thread and the sampler's pool.
    params = scenario.channels[0]
    r_sq = scenario.r_sq(0, 0.5 * scenario.dx)
    cfg = McConfig(samples=2 * _BATCH + 1, seed=seed)
    same = estimate_avg_snr(params, r_sq, cfg) == estimate_avg_snr(params, r_sq, cfg)
    checks.append({"name": "seed-determinism", "pass": bool(same),
                   "detail": "identical seeds give bit-identical estimates"})
    return checks


def cmd_verify(args) -> int:
    bundle = _apply_tol_overrides(load_scenario(args.scenario), args)
    if args.samples < 1000:
        raise ScenarioFormatError("--samples below 1000 cannot support the oracle checks")
    for m, params in enumerate(bundle.scenario.channels):
        if not 0.0 < params.eta * args.eta_scale < math.inf:
            raise ScenarioFormatError(f"--eta-scale {args.eta_scale}: users[{m}] eta * scale = "
                                      f"{params.eta * args.eta_scale} is not finite and > 0")
    checks = _verify_checks(bundle, args.samples, args.seed, args.eta_scale)
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        sys.stdout.write(f"{status} {check['name']}: {check['detail']}\n")
    all_pass = all(c["pass"] for c in checks)
    sys.stdout.write(f"{'OK' if all_pass else 'FAILED'} ({sum(c['pass'] for c in checks)}/{len(checks)} checks)\n")
    if args.report:
        report = {"schema": 1, "scenario_id": bundle.name, "all_pass": all_pass, "checks": checks}
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_closed_form(args) -> int:
    from .montecarlo import shared_channel_optimum

    bundle = load_scenario(args.scenario)
    if differ := _first_difference(bundle):
        raise ScenarioFormatError(f"users[{differ[1]}].{differ[0]} differs from users[0]")
    sol = shared_channel_optimum(bundle.scenario)
    doc = {
        "schema": 1,
        "metric": "avg-snr-closed-form",
        "scenario_id": bundle.name,
        "solution": _solution_dict(sol),
        "alpha_star": sol.meta["alpha_star"],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "ccdf": cmd_ccdf,
    "verify": cmd_verify,
    "closed-form": cmd_closed_form,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # one parser per process
    except SystemExit as exc:  # usage error (2), --help or --version (0)
        return exc.code
    try:
        _check_seed_and_workers(args)
        return _COMMANDS[args.command](args)
    except (ScenarioFormatError, InvalidScenario, UnsupportedScenario, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except SolverAnomaly as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER
    except Exception as exc:
        traceback.print_exc()
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
