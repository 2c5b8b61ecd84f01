"""Command-line interface: bound evaluation, Monte Carlo runs, reference
table/figure data, and the recovery demo. Emits CSV (default) or JSON for
external plotting; no rendering happens here.

Exit codes: 0 success, 2 usage/validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import bounds, montecarlo, recovery
from .masks import MaskConfig, generate_mask, worst_case_mask

DEFAULT_SEED = 1729
SEED_ENV_VAR = "MASKSPECTRA_SEED"

# Reference grid: (N, p) pairs of the comparison table. The mask length of
# the middle three rows is 1543 throughout (their printed support sizes
# 772/1235/155 only make sense for that length).
TABLE1_ROWS: tuple[tuple[int, float], ...] = (
    (127, 0.5),
    (127, 0.8),
    (127, 0.1),
    (1543, 0.5),
    (1543, 0.8),
    (1543, 0.1),
    (131071, 0.5),
    (131071, 0.8),
    (131071, 0.1),
)
_LARGE_N = 65536  # table1 runs rows at or above this N ...
_LARGE_N_TRIALS = 1000  # ... at no more than this many trials, unless --full-scale

_USAGE_ERROR = 2
_RUNTIME_ERROR = 3


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(records: list[dict], fmt: str) -> str:
    if fmt == "json":
        return montecarlo.records_to_json(records)
    return montecarlo.records_to_csv(records)


def cmd_bounds(args) -> int:
    report = bounds.bound_report(args.n, args.p, n_p=args.np, epsilon=args.eps, union=args.union)
    _emit(_render([report], args.format), args.out)
    return 0


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    thresholds = tuple(bounds.thresholds(args.n, args.p, epsilon=args.eps).items())
    spec = montecarlo.ExperimentSpec(MaskConfig(args.n, args.p, seed), args.trials, thresholds=thresholds)
    [(stats, _)] = montecarlo.run_experiment([spec], args.workers)
    payload = {"N": args.n, "p": args.p, "seed": seed, **stats.to_dict()}
    if args.format == "json":
        _emit(montecarlo.records_to_json(payload), args.out)
        return 0
    flat = {
        "N": args.n,
        "p": args.p,
        "seed": seed,
        "trials": stats.trials,
        "max_mean": stats.per_trial_max.mean,
        "max_variance": stats.per_trial_max.variance,
        "max_min": stats.per_trial_max.min,
        "max_max": stats.per_trial_max.max,
        "global_max": stats.global_max,
        "mean_abs_coeff": stats.mean_abs_coeff,
        "n_p_mean": stats.n_p_stats.mean,
        "n_p_variance": stats.n_p_stats.variance,
    }
    for label, _ in thresholds:
        flat[f"exceed_{label}"] = stats.exceedance_counts[label]
    _emit(montecarlo.records_to_csv([flat]), args.out)
    return 0


def cmd_table1(args) -> int:
    """Simulated maxima next to the worst-case bound per reference row.

    sim_max_mean is the mean over trials of the per-trial max; sim_ratio
    divides it by n_p = ceil(N*p). bound_ratio is bound/(N*p), the
    normalization the reference table prints.
    """
    seed = _resolve_seed(args.seed)
    large_n_trials = args.trials if args.full_scale else min(args.trials, _LARGE_N_TRIALS)
    specs = [
        montecarlo.ExperimentSpec(MaskConfig(n, p, seed), large_n_trials if n >= _LARGE_N else args.trials)
        for n, p in TABLE1_ROWS
    ]
    records = []
    for (n, p), (stats, _) in zip(TABLE1_ROWS, montecarlo.run_experiment(specs, args.workers)):
        n_p = math.ceil(n * p)
        bound = bounds.worst_case_bound(n, n_p)
        records.append(
            {
                "N": n,
                "p": p,
                "n_p": n_p,
                "sim_max_mean": stats.per_trial_max.mean,
                "sim_global_max": stats.global_max,
                "sim_ratio": stats.per_trial_max.mean / n_p,
                "bound_worst": bound,
                "bound_ratio": bound / (n * p),
            }
        )
    _emit(_render(records, args.format), args.out)
    return 0


def cmd_figure(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.mode == "bounds":
        # per-N bound and simulation curves at a fixed sampling rate
        ns = _parse_list(args.ns, "--ns", int, "integers")
        # every N's thresholds come first, so a bad --eps fails before any trial runs
        limits = [bounds.thresholds(n, args.rate, epsilon=args.eps) for n in ns]
        specs = [montecarlo.ExperimentSpec(MaskConfig(n, args.rate, seed), args.trials) for n in ns]
        records = [
            {
                "N": n,
                "sim_max_mean": stats.per_trial_max.mean,
                "sim_global_max": stats.global_max,
                "mean_abs": stats.mean_abs_coeff,
                **limit,
            }
            for n, limit, (stats, _) in zip(ns, limits, montecarlo.run_experiment(specs, args.workers))
        ]
    elif args.n is None:
        raise ValueError(f"--n is required for mode {args.mode!r}")
    elif args.mode == "ratio":
        ps = _parse_list(args.ps, "--ps", float, "numbers")
        names = [f"ratio_p{p:g}" for p in ps]
        if len(set(names)) != len(names):
            raise ValueError(f"--ps {args.ps!r} names a column twice: {', '.join(names)}")
        # per rate, the per-bin max over trials of |A_k|/(N*p): the
        # aliasing-noise level of the sampled spectrum against the signal line
        configs = [MaskConfig(args.n, p, seed) for p in ps]  # every rate is checked before the trial count
        specs = [montecarlo.ExperimentSpec(config, args.trials) for config in configs]
        curves = [
            bin_max / (args.n * p) for p, (_, bin_max) in zip(ps, montecarlo.run_experiment(specs, args.workers))
        ]
        records = [
            {"k": k, **{name: float(curve[k - 1]) for name, curve in zip(names, curves)}}
            for k in range(1, args.n)
        ]
    elif args.mode == "approx":
        # the approximation needs N*p >= 1 and a radicand >= 0; the radicand
        # leaves out low-p points at some N up to 114 (p = 0.01 at N = 100)
        ps = [
            p
            for p in (i / 100.0 for i in range(1, 100))
            if args.n * p >= 1.0 and bounds._ratio_radicand(args.n, p) >= 0.0
        ]
        if not ps:
            raise ValueError(f"n must be an integer >= 2, got {args.n!r}")
        records = []
        for p in ps:
            n_p = math.ceil(args.n * p)
            records.append(
                {
                    "p": p,
                    "n_p": n_p,
                    "exact_ratio": bounds.worst_case_bound(args.n, n_p) / n_p,
                    "approx_ratio": bounds.ratio_approximation(args.n, p),
                }
            )
    else:
        raise ValueError(f"unknown figure mode {args.mode!r}")
    _emit(_render(records, args.format), args.out)
    return 0


_HISTORY_COLUMNS = ("iteration", "threshold", "snr_db", "residual", "kept")


def cmd_recover(args) -> int:
    seed = _resolve_seed(args.seed)
    if not 0.0 < args.rate <= 1.0:
        raise ValueError(f"--rate must lie in (0, 1], got {args.rate!r}")
    signal_path = args.signal if args.signal else recovery.demo_signal_path()
    if not os.path.isfile(signal_path):
        raise ValueError(f"signal fixture not found: {signal_path}")
    x = recovery.read_signal_csv(signal_path)
    n = int(x.size)
    if args.rate == 1.0:
        mask = worst_case_mask(n, n)  # full sampling
    else:
        mask = generate_mask(MaskConfig(n, args.rate, seed), 0)
    xs = recovery.sample_random(x, mask)
    _, history = recovery.recover(
        xs, mask, iterations=args.iters, t0=args.t0, alpha=args.alpha, tol=args.tol, reference=x
    )
    csv_text = montecarlo.records_to_csv([dict(zip(_HISTORY_COLUMNS, row)) for row in history])
    _, _, final_snr, residual, _ = history[-1]
    summary = (
        f"recover: n={n} rate={args.rate:g} n_p={mask.n_p} seed={seed} "
        f"iterations={len(history)} residual={residual:.3g} final_snr_db={final_snr:.3f}\n"
    )
    if args.out:
        _emit(csv_text, args.out)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(summary)
    return 0


def _parse_list(text: str, flag: str, convert, kind: str) -> list:
    try:
        values = [convert(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated {kind}, got {text!r}") from exc
    if not values:
        raise ValueError(f"{flag} must list at least one value")
    return values


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. It names each
    subcommand only, and main looks its cmd_* function up per call."""
    parser = argparse.ArgumentParser(
        prog="maskspectra",
        description="Bounds and Monte Carlo validation for the peak DFT magnitude of Bernoulli sampling masks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_bounds = sub.add_parser("bounds", help="evaluate every bound family for one (N, p, eps)")
    p_bounds.add_argument("--n", type=int, required=True, help="mask length N")
    p_bounds.add_argument("--p", type=float, required=True, help="sampling rate in (0,1)")
    p_bounds.add_argument("--eps", type=float, default=1e-4, help="tail probability budget")
    p_bounds.add_argument("--np", type=int, default=None, help="support size (default ceil(N*p))")
    p_bounds.add_argument("--union", action="store_true", help="split eps over the N-1 bins")
    add_common(p_bounds)

    p_sim = sub.add_parser("simulate", help="Monte Carlo trial statistics for one (N, p)")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--eps", type=float, default=1e-4)
    p_sim.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p_sim.add_argument("--workers", type=int, default=1)
    add_common(p_sim)

    p_table = sub.add_parser("table1", help="simulated maxima vs worst-case bound for the reference grid")
    p_table.add_argument("--trials", type=int, default=10000)
    p_table.add_argument("--seed", type=int, default=None)
    p_table.add_argument("--workers", type=int, default=1)
    p_table.add_argument(
        "--full-scale",
        action="store_true",
        help="run N=131071 rows at the full trial count (long; default caps them at 1000)",
    )
    add_common(p_table)

    p_fig = sub.add_parser("figure", help="bound/simulation curves for external plotting")
    p_fig.add_argument(
        "--mode",
        choices=("bounds", "ratio", "approx"),
        default="bounds",
        help="approx: p = 0.01..0.99 where N*p >= 1 and the closed form is defined",
    )
    p_fig.add_argument("--rate", type=float, default=0.5, help="sampling rate (bounds mode)")
    p_fig.add_argument("--ns", default="127,1543,8191", help="comma-separated N list (bounds mode)")
    p_fig.add_argument("--n", type=int, default=None, help="mask length (ratio/approx modes)")
    p_fig.add_argument("--ps", default="0.1,0.2,0.5,0.8", help="comma-separated rates (ratio mode)")
    p_fig.add_argument("--eps", type=float, default=1e-4)
    p_fig.add_argument("--trials", type=int, default=1000)
    p_fig.add_argument("--seed", type=int, default=None)
    p_fig.add_argument("--workers", type=int, default=1)
    add_common(p_fig)

    p_rec = sub.add_parser("recover", help="iterative-thresholding recovery demo on a band-limited fixture")
    p_rec.add_argument("--signal", default=None, help="signal fixture CSV (default: bundled demo)")
    p_rec.add_argument("--rate", type=float, default=0.5, help="sampling rate; 1 keeps every sample")
    p_rec.add_argument("--seed", type=int, default=None)
    p_rec.add_argument("--iters", type=int, default=50, help="most iterations to run")
    p_rec.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="stop once the relative residual on the sampled positions is at most this (0: run every iteration)",
    )
    p_rec.add_argument("--alpha", type=float, default=0.1, help="threshold decay rate per iteration")
    p_rec.add_argument("--t0", type=float, default=None, help="initial threshold (default: bound-derived)")
    p_rec.add_argument("--out", default=None, help="history CSV file (default: stdout)")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return _RUNTIME_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
