"""maskspectra benchmark: trials/s and recoveries/s through the public CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload mc-n127 --seed 1 --seconds 20 --trace 0

``--trace 0`` times CLI invocations, each in a fresh interpreter, until
``--seconds`` have passed, and reports the end-to-end metrics. ``--trace 1``
runs the same problem once untraced at one worker, once untraced at the
full worker count (counting pools and chunks) and once traced at one
worker, and reports the per-layer metrics. Every invocation's output is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 1729  # the CLI's own default; references are stored for it
WORKERS = min(2, os.cpu_count() or 1)
RUN_BUDGET_S = 170.0  # a run must end within 180 s
MIN_SETUP_SAMPLES = 5
REL_TOL = 1e-9
NP_MEAN_REL_TOL = 1e-12  # n_p values are integers; this still catches one changed mask
SNR_BAR_DB = 40.0  # acceptance criterion 9


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class MonteCarlo:
    """A CLI call that runs its trials in 512-trial chunks on a process pool."""

    kind = "trials"
    parallel = True
    suffix = ""  # of the output file, which _load parses

    def prepare(self, seed: int, work: Path) -> None:
        pass

    def warmup(self, seed: int, work: Path) -> list[str]:
        return self._argv(seed, 1, 1, work / f"warmup{self.suffix}")

    def calls(self, seed: int, workers: int, work: Path) -> list[tuple[list[str], Path]]:
        out = work / f"out{self.suffix}"
        return [(self._argv(seed, self.trials, workers, out), out)]

    def reference(self, seed: int):
        path = REFERENCE / f"{self.name}{self.suffix}"
        return self._load(path.read_text()) if seed == DEFAULT_SEED else None


class Simulate(MonteCarlo):
    """``maskspectra simulate`` at one (N, p) with the four CLI thresholds."""

    suffix = ".json"
    _load = staticmethod(json.loads)

    def __init__(self, name: str, n: int, p: float, trials: int) -> None:
        self.name, self.n, self.p, self.trials = name, n, p, trials
        self.ops = trials

    def _argv(self, seed: int, trials: int, workers: int, out: Path) -> list[str]:
        return [
            "simulate", "--n", str(self.n), "--p", repr(self.p), "--trials", str(trials),
            "--seed", str(seed), "--workers", str(workers), "--format", "json", "--out", str(out),
        ]

    def check(self, seed: int, index: int, out: bytes, stdout: str, ref) -> list[str]:
        from maskspectra.masks import is_prime

        data = self._load(out.decode())
        problems = []
        if data["trials"] != self.trials:
            problems.append(f"trials {data['trials']} != {self.trials}")
        if is_prime(self.n) and data["exceedance_counts"]["worst_case"] != 0:
            problems.append(f"worst-case bound exceeded {data['exceedance_counts']['worst_case']} times")
        if ref is None:
            return problems
        if data["exceedance_counts"] != ref["exceedance_counts"]:
            problems.append(f"exceedance counts {data['exceedance_counts']} != {ref['exceedance_counts']}")
        got, want = data["n_p_stats"], ref["n_p_stats"]
        if (got["count"], got["min"], got["max"]) != (want["count"], want["min"], want["max"]) or not all(
            _rel_close(got[k], want[k], NP_MEAN_REL_TOL) for k in ("mean", "variance")
        ):
            problems.append(f"n_p stats {got} != {want}")
        for label, g, w in (
            ("per_trial_max mean", data["per_trial_max"]["mean"], ref["per_trial_max"]["mean"]),
            ("global_max", data["global_max"], ref["global_max"]),
        ):
            if not _rel_close(g, w, REL_TOL):
                problems.append(f"{label} {g!r} != reference {w!r}")
        return problems


class Ratio(MonteCarlo):
    """``maskspectra figure --mode ratio``: per-bin max of |A_k|/(N*p) per rate."""

    suffix = ".csv"

    def __init__(self, name: str, n: int, ps: tuple[float, ...], trials: int) -> None:
        self.name, self.n, self.ps, self.trials = name, n, ps, trials
        self.ops = trials * len(ps)

    def _argv(self, seed: int, trials: int, workers: int, out: Path) -> list[str]:
        return [
            "figure", "--mode", "ratio", "--n", str(self.n), "--ps", ",".join(repr(p) for p in self.ps),
            "--trials", str(trials), "--seed", str(seed), "--workers", str(workers), "--out", str(out),
        ]

    @staticmethod
    def _load(text: str) -> tuple[list[str], list[list[float]]]:
        lines = text.splitlines()
        return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]

    def check(self, seed: int, index: int, out: bytes, stdout: str, ref) -> list[str]:
        from maskspectra.bounds import worst_case_bound

        header, rows = self._load(out.decode())
        want_header = ["k"] + [f"ratio_p{p:g}" for p in self.ps]
        if header != want_header:
            return [f"header {header} != {want_header}"]
        if [int(row[0]) for row in rows] != list(range(1, self.n)):
            return [f"rows do not cover k = 1..{self.n - 1}"]
        problems = []
        for col, p in enumerate(self.ps, start=1):
            # The CSV prints 9 significant digits, so allow that rounding.
            ceiling = worst_case_bound(self.n, math.ceil(self.n * p)) / (self.n * p) * (1 + REL_TOL)
            worst = max(row[col] for row in rows)
            if worst > ceiling:
                problems.append(f"p={p:g}: ratio {worst!r} above the worst-case ratio {ceiling!r}")
        if ref is not None:
            off = sum(
                not _rel_close(g, w, REL_TOL)
                for row, ref_row in zip(rows, ref[1])
                for g, w in zip(row[1:], ref_row[1:])
            )
            if off:
                problems.append(f"{off} ratios differ from the reference by more than {REL_TOL:g} relative")
        return problems


class Recover:
    """``maskspectra recover`` on band-limited fixtures made from the seed."""

    kind = "recoveries"
    parallel = False

    def __init__(self, name: str, n: int, rate: float, fixtures: int, pairs: int) -> None:
        self.name, self.n, self.rate, self.fixtures, self.pairs = name, n, rate, fixtures, pairs
        self.ops = fixtures

    def _seeds(self, seed: int, i: int) -> tuple[int, int]:
        base = (seed * self.fixtures + i) * 2 % (1 << 63)
        return base, base + 1  # (signal seed, mask seed)

    def _fixture(self, work: Path, i: int) -> Path:
        return work / f"signal{i}.csv"

    def prepare(self, seed: int, work: Path) -> None:
        from maskspectra.recovery import random_band_signal, synthesize_signal, write_signal_csv

        for i in range(self.fixtures):
            spec = random_band_signal(self.n, self.pairs, seed=self._seeds(seed, i)[0])
            write_signal_csv(self._fixture(work, i), synthesize_signal(spec))

    def _argv(self, seed: int, i: int, iters: int, out: Path, work: Path) -> list[str]:
        return [
            "recover", "--signal", str(self._fixture(work, i)), "--rate", repr(self.rate),
            "--seed", str(self._seeds(seed, i)[1]), "--iters", str(iters), "--out", str(out),
        ]

    def warmup(self, seed: int, work: Path) -> list[str]:
        return self._argv(seed, 0, 1, work / "warmup.csv", work)

    def calls(self, seed: int, workers: int, work: Path) -> list[tuple[list[str], Path]]:
        calls = []
        for i in range(self.fixtures):
            out = work / f"history{i}.csv"
            calls.append((self._argv(seed, i, 50, out, work), out))
        return calls

    def reference(self, seed: int):
        return None  # the bar below applies to every seed

    def check(self, seed: int, index: int, out: bytes, stdout: str, ref) -> list[str]:
        fields = dict(part.split("=", 1) for part in stdout.split() if "=" in part)
        if "final_snr_db" not in fields:
            return [f"no final_snr_db in summary {stdout!r}"]
        snr = float(fields["final_snr_db"])
        if not snr >= SNR_BAR_DB:
            return [f"fixture {index}: final SNR {snr} dB below {SNR_BAR_DB} dB"]
        return []


# Why each workload exists: see README.md. Trial counts give each of the
# 2 workers at least two 512-trial chunks, so no parallel run silently
# runs serially.
WORKLOADS = {
    w.name: w
    for w in (
        Simulate("mc-n127", 127, 0.5, 81920),
        # Runnable by name, but not in BENCHMARK.json: one invocation takes
        # ~23 s, too few samples per run to be steady on a shared host.
        Simulate("mc-n131071", 131071, 0.1, 2048),
        Ratio("ratio-n1543", 1543, (0.1, 0.5, 0.8), 4096),
        Recover("recover-n8191", 8191, 0.5, 16, 8),
    )
}


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Invocation:
    """One fresh interpreter running child.py; timed from spawn to 'ready'.

    The child leads its own process group, so a run past the deadline is
    ended together with any pool workers it started.
    """

    def __init__(self, spec: dict, deadline: float, work: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        stderr_path = work / "stderr.txt"
        with open(stderr_path, "w") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True, start_new_session=True,
            )
            killer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc,))
            killer.start()
            try:
                first = proc.stdout.readline().strip()
                self.setup_s = time.perf_counter() - start
                rest = proc.stdout.read()
                proc.wait()
            finally:
                killer.cancel()
                if proc.poll() is None:
                    _kill_group(proc)
                    proc.wait()
                proc.stdout.close()
        self.ready = first == "ready"
        lines = rest.strip().splitlines()
        self.result = None
        if self.ready and proc.returncode == 0 and lines:
            with contextlib.suppress(ValueError):
                self.result = json.loads(lines[-1])
        self.error = None
        if not self.ready or (spec["calls"] and self.result is None):
            self.error = f"child exited {proc.returncode} ({first!r}): {stderr_path.read_text()[-2000:]}"


class Tally:
    """Operation accounting: one operation is one CLI invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def _evaluate(workload, seed: int, ref, calls, inv: Invocation, tally: Tally, expected=None, label=""):
    """Check every call of one invocation; return its outputs.

    ``expected`` holds the outputs of an earlier invocation of the same
    problem: the bytes must be identical.
    """
    if inv.result is None:
        for _ in calls:
            tally.record(False, inv.error)
        return None
    outputs = []
    for j, ((_, out_path), code, stdout) in enumerate(zip(calls, inv.result["codes"], inv.result["stdout"])):
        out = out_path.read_bytes() if out_path.exists() else b""
        out_path.unlink(missing_ok=True)
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                problems = workload.check(seed, j, out, stdout, ref)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"malformed output: {exc!r}"]
        if expected is not None and expected[j] != (out, stdout):
            problems.append(f"output bytes differ ({label})")
        tally.record(not problems, f"{workload.name} call {j}: {'; '.join(problems)}")
        outputs.append((out, stdout))
    return outputs


def end_to_end(workload, seed: int, seconds: int, work: Path, deadline: float, tally: Tally) -> dict:
    ref = workload.reference(seed)
    calls = workload.calls(seed, WORKERS, work)
    spec = {"warmup": workload.warmup(seed, work), "calls": [argv for argv, _ in calls], "mode": "plain"}
    rates, setups, rss, first = [], [], [], None
    start, invocations = time.monotonic(), 0
    while True:
        inv = Invocation(spec, deadline, work)
        invocations += 1
        if inv.ready:
            setups.append(inv.setup_s)
        outputs = _evaluate(workload, seed, ref, calls, inv, tally, first, "repeat invocation")
        if inv.result is not None:
            rates.append(workload.ops / inv.result["wall_s"])
            rss.append(inv.result["peak_rss_mb"])
            first = first or outputs
        elapsed = time.monotonic() - start
        each = elapsed / invocations
        # Stop where the run ends closest to --seconds, and never risk the deadline.
        if elapsed + each / 2 >= seconds or time.monotonic() + 2 * each > deadline:
            break
    probe = {"warmup": spec["warmup"], "calls": [], "mode": "plain"}
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() + 5 < deadline:
        inv = Invocation(probe, deadline, work)
        tally.record(inv.ready, f"set-up probe: {inv.error}")
        if not inv.ready:
            break
        setups.append(inv.setup_s)
    if not rates:
        raise RuntimeError("no invocation completed")
    print(f"samples: throughput {sorted(rates)}, setup {sorted(setups)}")
    return {
        "throughput_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }


def traced(workload, seed: int, work: Path, deadline: float, tally: Tally) -> dict:
    ref = workload.reference(seed)
    warmup = workload.warmup(seed, work)

    def run(workers: int, mode: str, expected=None, label=""):
        calls = workload.calls(seed, workers, work)
        inv = Invocation({"warmup": warmup, "calls": [a for a, _ in calls], "mode": mode}, deadline, work)
        return inv, _evaluate(workload, seed, ref, calls, inv, tally, expected, label)

    serial, serial_out = run(1, "plain")
    parallel = run(WORKERS, "count", serial_out, f"{WORKERS} workers vs 1")[0] if workload.parallel else None
    trace = run(1, "trace", serial_out, "traced vs untraced")[0]
    if trace.result is None or serial.result is None:
        raise RuntimeError("a serial or traced invocation did not complete")

    spans = trace.result["spans"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def us_per_call(name: str) -> float:
        calls = span(name, "calls")
        return span(name, "total_s") / calls * 1e6 if calls else 0.0

    counts = parallel.result["counts"] if parallel is not None and parallel.result else {}
    serial_wall = serial.result["wall_s"]
    efficiency = serial_wall / (WORKERS * parallel.result["wall_s"]) if counts else 0.0
    return {
        "masks.generate_mask.calls": (span("masks.generate_mask", "calls"), "count"),
        "masks.generate_mask.self_s": (span("masks.generate_mask", "self_s"), "s"),
        "masks.generate_mask.us_per_call": (us_per_call("masks.generate_mask"), "us"),
        "spectrum.spectrum_of_mask.calls": (span("spectrum.spectrum_of_mask", "calls"), "count"),
        "spectrum.spectrum_of_mask.self_s": (span("spectrum.spectrum_of_mask", "self_s"), "s"),
        "spectrum.spectrum_of_mask.us_per_call": (us_per_call("spectrum.spectrum_of_mask"), "us"),
        "spectrum.max_nonzero_bin.self_s": (span("spectrum.max_nonzero_bin", "self_s"), "s"),
        # Computed, not measured: one complex128 spectrum of length N per call.
        "spectrum.bytes_computed": (span("spectrum.spectrum_of_mask", "calls") * workload.n * 16, "bytes"),
        "montecarlo.driver.self_s": (span("montecarlo.driver", "self_s"), "s"),
        "montecarlo.chunks": (counts.get("chunks", 0), "count"),
        "montecarlo.pools_started": (counts.get("pools_started", 0), "count"),
        "montecarlo.parallel_efficiency": (efficiency, "ratio"),
        "bounds.self_s": (span("bounds", "self_s"), "s"),
        "recovery.recover.calls": (span("recovery.recover", "calls"), "count"),
        "recovery.iterations": (span("recovery.recovery_step", "calls"), "count"),
        "recovery.recovery_step.us_per_call": (us_per_call("recovery.recovery_step"), "us"),
        "recovery.default_initial_threshold.self_s": (span("recovery.default_initial_threshold", "self_s"), "s"),
        "recovery.snr_db.self_s": (span("recovery.snr_db", "self_s"), "s"),
        "cli.render.self_s": (span("cli.render", "self_s"), "s"),
        "cli.read_signal_csv.self_s": (span("cli.read_signal_csv", "self_s"), "s"),
        "trace.overhead_s": (trace.result["wall_s"] - serial_wall, "s"),
    }


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "maskspectra").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {
        "workload": workload.name,
        "seed": seed,
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "maskspectra" / "cli.py").is_file():
        print(f"error: no maskspectra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Turn a termination request into SystemExit so the cleanup below runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        workload.prepare(args.seed, work)
        info = provenance(workload, args.seed)
        print("provenance " + json.dumps(info, sort_keys=True))
        if args.trace:
            metrics = traced(workload, args.seed, work, deadline, tally)
        else:
            metrics = end_to_end(workload, args.seed, args.seconds, work, deadline, tally)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for name, (value, unit) in metrics.items():
        note = f"  ({workload.kind}_per_s)" if name == "throughput_per_s" else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"error_rate = {tally.failed / max(tally.attempted, 1):.6g}  ({tally.failed}/{tally.attempted} operations)")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
