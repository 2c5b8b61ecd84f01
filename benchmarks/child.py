"""One benchmark process: import maskspectra, warm up, then time CLI calls.

Started by ``benchmarks/run.py`` as

    python3 benchmarks/child.py '<json spec>'

with ``src`` on ``PYTHONPATH``. The spec holds ``warmup`` (one CLI argv),
``calls`` (a list of CLI argvs, empty for a set-up probe) and ``mode``:

* ``plain`` -- time the calls, nothing else;
* ``count`` -- also count process pools and the tasks submitted to them,
  by wrapping ``montecarlo.ProcessPoolExecutor`` (constructor and submit
  only, so the timing stays that of an untraced run);
* ``trace`` -- also record a span around every call into the layers'
  public functions, wrapped where their callers look them up.

The process prints ``ready`` once the package, numpy and scipy are imported
and the warm-up call has filled the FFT plan and bound caches. After the
timed calls it prints one JSON line with their exit codes, captured stdout,
wall time, peak memory and, when asked for, counts and per-span totals.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time


def _call(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


class Tracer:
    """In-memory spans: [name, start, end, parent index] per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: {module.__name__}.{attr} not found; its spans read 0", file=sys.stderr)
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(module, attr, traced)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds
        (duration minus the time covered by direct child spans)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), child_s in zip(self.spans, covered):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s
        return out


def _install_tracer(bounds, cli, montecarlo, recovery) -> Tracer:
    tracer = Tracer()
    for module, attr, name in (
        (montecarlo, "run_experiment", "montecarlo.driver"),
        (montecarlo, "noise_ratio_curve", "montecarlo.driver"),
        (montecarlo, "generate_mask", "masks.generate_mask"),
        (cli, "generate_mask", "masks.generate_mask"),
        (montecarlo, "spectrum_of_mask", "spectrum.spectrum_of_mask"),
        (montecarlo, "max_nonzero_bin", "spectrum.max_nonzero_bin"),
        (bounds, "gaussian_bound", "bounds"),
        (bounds, "sigma_bound", "bounds"),
        (bounds, "worst_case_bound", "bounds"),
        (recovery, "recover", "recovery.recover"),
        (recovery, "recovery_step", "recovery.recovery_step"),
        (recovery, "default_initial_threshold", "recovery.default_initial_threshold"),
        (recovery, "snr_db", "recovery.snr_db"),
        (recovery, "read_signal_csv", "cli.read_signal_csv"),
        (montecarlo, "records_to_csv", "cli.render"),
        (montecarlo, "records_to_json", "cli.render"),
        (recovery, "history_to_csv", "cli.render"),
    ):
        tracer.wrap(module, attr, name)
    return tracer


def _install_pool_counter(montecarlo) -> dict[str, int]:
    counts = {"pools_started": 0, "chunks": 0}
    base = montecarlo.ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            counts["pools_started"] += 1
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            counts["chunks"] += 1
            return super().submit(*args, **kwargs)

    montecarlo.ProcessPoolExecutor = CountingPool
    return counts


def main() -> int:
    spec = json.loads(sys.argv[1])
    from maskspectra import bounds, cli, montecarlo, recovery

    code, _ = _call(cli, spec["warmup"])
    print("ready" if code == 0 else f"warm-up failed with exit code {code}", flush=True)
    if code != 0:
        return 1
    if not spec["calls"]:
        return 0

    tracer = _install_tracer(bounds, cli, montecarlo, recovery) if spec["mode"] == "trace" else None
    counts = _install_pool_counter(montecarlo) if spec["mode"] == "count" else None

    codes, stdout = [], []
    start = time.perf_counter()
    for argv in spec["calls"]:
        code, text = _call(cli, argv)
        codes.append(code)
        stdout.append(text)
    wall_s = time.perf_counter() - start

    # ru_maxrss is in KiB on Linux; the children figure is the largest
    # pool worker this process waited for.
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result = {"codes": codes, "stdout": stdout, "wall_s": wall_s, "peak_rss_mb": rss_kib / 1024.0}
    if counts is not None:
        result["counts"] = counts
    if tracer is not None:
        result["spans"] = tracer.totals()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
