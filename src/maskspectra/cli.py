"""Command-line interface: bound evaluation, Monte Carlo runs, reference
table/figure data, and the recovery demo. Emits CSV (default) or JSON for
external plotting; no rendering happens here, and no other module formats
or writes a report. Every command that draws masks takes the same --seed,
1729 by default, and nothing else sets it.

Exit codes: 0 success, 2 usage/validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import bounds, montecarlo, recovery
from .masks import _integer, _real, _seed, _support_size, generate_mask

DEFAULT_SEED = 1729

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
_LARGE_N_TRIALS = 1000  # ... at no more than this many trials

_USAGE_ERROR = 2
_RUNTIME_ERROR = 3


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_cell(value) -> str:
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def records_to_csv(records: list[dict]) -> str:
    """CSV of flat records: the header row is the first record's keys in
    their order, and every record is one row of those keys' values. Floats
    are written at 9 significant digits; lines end in LF. records_to_json
    writes the same records with the same keys."""
    if not records:
        raise ValueError("records must be non-empty")
    cols = list(records[0])
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(_format_cell(rec[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def records_to_json(payload) -> str:
    """JSON mirror of the CSV/report payloads. Non-finite floats (an
    infinite bound, an undefined SNR) become null, so the output is strict
    JSON that any parser accepts."""
    return json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n"


def _render(records: list[dict], fmt: str) -> str:
    return records_to_json(records) if fmt == "json" else records_to_csv(records)


def cmd_bounds(args) -> int:
    report = bounds.bound_report(args.n, args.p, n_p=args.np, epsilon=args.eps, union=args.union)
    _emit(_render([report], args.format), args.out)
    return 0


def _summary(stats: montecarlo.RunningStats) -> dict:
    return {key: getattr(stats, key) for key in ("count", "mean", "variance", "min", "max")}


def cmd_simulate(args) -> int:
    thresholds = tuple(bounds.thresholds(args.n, args.p, epsilon=args.eps).items())
    spec = montecarlo.ExperimentSpec(args.n, args.p, args.trials, args.seed, thresholds)
    [(stats, _)] = montecarlo.run_experiment([spec], args.workers)
    peaks = stats.per_trial_max
    head = {"N": args.n, "p": args.p, "seed": args.seed, "trials": peaks.count}
    if args.format == "json":
        record = {
            **head,
            "per_trial_max": _summary(peaks),
            "global_max": peaks.max,
            "mean_abs_coeff": stats.mean_abs.mean,
            "exceedance_counts": stats.exceedance_counts,
            "n_p_stats": _summary(stats.n_p_stats),
        }
        _emit(records_to_json(record), args.out)
        return 0
    record = {
        **head,
        **{f"max_{key}": value for key, value in _summary(peaks).items() if key != "count"},
        "global_max": peaks.max,
        "mean_abs_coeff": stats.mean_abs.mean,
        "n_p_mean": stats.n_p_stats.mean,
        "n_p_variance": stats.n_p_stats.variance,
        **{f"exceed_{label}": count for label, count in stats.exceedance_counts.items()},
    }
    _emit(records_to_csv([record]), args.out)
    return 0


def _bound_records(rows, seed: int, workers: int, epsilon: float) -> list[dict]:
    """The simulated peak beside the bounds, one record per (N, p, trials)
    row, from one run_experiment call: the record table1 and figure --mode
    bounds print. trials is the count the engine ran; sim_ratio divides
    sim_max_mean by n_p = ceil(N*p); the threshold columns are
    bounds.thresholds at (N, p, epsilon), and worst_case_ratio_np is
    worst_case / (N*p), as in bound_report."""
    limits = [bounds.thresholds(n, p, epsilon=epsilon) for n, p, _ in rows]
    specs = [montecarlo.ExperimentSpec(n, p, trials, seed) for n, p, trials in rows]
    records = []
    for (n, p, _), limit, (stats, _) in zip(rows, limits, montecarlo.run_experiment(specs, workers)):
        peaks, n_p = stats.per_trial_max, _support_size(n, p)
        records.append(
            {
                "N": n,
                "p": p,
                "n_p": n_p,
                "trials": peaks.count,
                "sim_max_mean": peaks.mean,
                "sim_global_max": peaks.max,
                "sim_ratio": peaks.mean / n_p,
                "mean_abs": stats.mean_abs.mean,
                **limit,
                "worst_case_ratio_np": limit["worst_case"] / (n * p),
            }
        )
    return records


def cmd_table1(args) -> int:
    """Simulated maxima next to the bounds per reference row, at
    bounds.thresholds' default eps of 1e-4.

    Rows at N >= 65536 run at most 1000 trials, and the trials column
    shows what each row ran; ``simulate`` with the row's N and p and the
    same --trials and --seed gives the same statistics at any trial count.
    """
    capped = min(args.trials, _LARGE_N_TRIALS)
    rows = [(n, p, capped if n >= _LARGE_N else args.trials) for n, p in TABLE1_ROWS]
    _emit(_render(_bound_records(rows, args.seed, args.workers, 1e-4), args.format), args.out)
    return 0


def cmd_figure(args) -> int:
    # every option is read here, once, before the mode is picked, so a bad
    # value of any option is an error in every mode, with one message: --ns,
    # --rate and --eps first (bounds.thresholds checks each N by
    # gaussian_bound first), then --n, --ps, --trials and --seed, then --workers
    ns = _parse_list(args.ns, "--ns", int, "integers")
    for n in ns:
        bounds.gaussian_bound(n, args.rate, epsilon=args.eps)
    if args.mode != "bounds" and args.n is None:
        raise ValueError(f"--n is required for mode {args.mode!r}")
    ps = _parse_list(args.ps, "--ps", float, "numbers")
    names = [f"ratio_p{p:g}" for p in ps]
    if len(set(names)) != len(names):
        raise ValueError(f"--ps {args.ps!r} names a column twice: {', '.join(names)}")
    # one spec per rate, each checking (N, p, seed) and then the trial count
    rate_specs = [
        montecarlo.ExperimentSpec(ns[0] if args.n is None else args.n, p, args.trials, args.seed) for p in ps
    ]
    _integer(args.workers, "workers", 1)  # as run_experiment checks it
    if args.mode == "bounds":
        # per-N bound and simulation curves at a fixed sampling rate
        records = _bound_records([(n, args.rate, args.trials) for n in ns], args.seed, args.workers, args.eps)
    elif args.mode == "ratio":
        # per rate, the per-bin max over trials of |A_k|/(N*p): the
        # aliasing-noise level of the sampled spectrum against the signal line
        curves = [
            bin_max / (args.n * spec.p)
            for spec, (_, bin_max) in zip(rate_specs, montecarlo.run_experiment(rate_specs, args.workers))
        ]
        records = [
            {"k": k, **{name: float(curve[k - 1]) for name, curve in zip(names, curves)}}
            for k in range(1, args.n)
        ]
    else:
        # the worst-case ratio against its closed form, which needs N*p >= 1
        # and a radicand >= 0; the radicand leaves out low-p points at some N
        # up to 114 (p = 0.01 at N = 100), and at every N >= 2 keeps some
        grid = [
            p
            for p in (i / 100.0 for i in range(1, 100))
            if args.n * p >= 1.0 and bounds._ratio_radicand(args.n, p) >= 0.0
        ]
        records = []
        for p in grid:
            n_p = _support_size(args.n, p)
            records.append(
                {
                    "p": p,
                    "n_p": n_p,
                    "exact_ratio": bounds.worst_case_bound(args.n, n_p) / n_p,
                    "approx_ratio": bounds.ratio_approximation(args.n, p),
                }
            )
    _emit(_render(records, args.format), args.out)
    return 0


_HISTORY_COLUMNS = ("iteration", "threshold", "snr_db", "residual", "kept")


def cmd_recover(args) -> int:
    _real(args.rate, "--rate", "(0, 1]")
    _seed(args.seed)  # as generate_mask checks it, even where no mask is drawn
    signal_path = args.signal if args.signal else recovery.demo_signal_path()
    if not os.path.isfile(signal_path):
        raise ValueError(f"signal fixture not found: {signal_path}")
    x = recovery.read_signal_csv(signal_path)
    n = int(x.size)
    if args.rate == 1.0:
        mask = np.ones(n, dtype=bool)  # full sampling
    else:
        mask = generate_mask(n, args.rate, args.seed)
    _, history = recovery.recover(x, mask, iterations=args.iters, tol=args.tol, reference=x)
    csv_text = records_to_csv([dict(zip(_HISTORY_COLUMNS, row)) for row in history])
    _, _, final_snr, residual, kept = history[-1]
    n_p = int(np.count_nonzero(mask))
    # the residual stop, or the iteration cap; and whether some bins were
    # kept and, as unknowns, number at most half the samples (Candes, Romberg
    # and Tao), or every sample was taken, when the samples are the signal
    stopped = "tol" if args.tol > 0 and residual <= args.tol else "cap"
    identified = "yes" if kept > 0 and (2 * kept <= n_p or n_p == n) else "no"
    summary = (
        f"recover: n={n} rate={args.rate:g} n_p={n_p} seed={args.seed} "
        f"iterations={len(history)} residual={residual:.3g} final_snr_db={final_snr:.3f} "
        f"stopped={stopped} identified={identified}\n"
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

    def add_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"RNG seed (default {DEFAULT_SEED})")

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
    add_seed(p_sim)
    p_sim.add_argument("--workers", type=int, default=1)
    add_common(p_sim)

    p_table = sub.add_parser("table1", help="simulated maxima vs worst-case bound for the reference grid")
    p_table.add_argument("--trials", type=int, default=10000)
    add_seed(p_table)
    p_table.add_argument("--workers", type=int, default=1)
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
    add_seed(p_fig)
    p_fig.add_argument("--workers", type=int, default=1)
    add_common(p_fig)

    p_rec = sub.add_parser("recover", help="iterative-thresholding recovery demo on a band-limited fixture")
    p_rec.add_argument("--signal", default=None, help="signal fixture CSV (default: bundled demo)")
    p_rec.add_argument("--rate", type=float, default=0.5, help="sampling rate; 1 keeps every sample")
    add_seed(p_rec)
    p_rec.add_argument("--iters", type=int, default=50, help="most iterations to run")
    p_rec.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="stop once the relative residual on the sampled positions is at most this (0: run every iteration)",
    )
    p_rec.add_argument("--out", default=None, help="history CSV file (default: stdout)")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # an --out that cannot be opened fails before the run, not after it
        if args.out and os.path.isdir(args.out):
            raise ValueError(f"--out {args.out!r} is a directory")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"--out {args.out!r} names a directory that does not exist")
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return _RUNTIME_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
