import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import maskspectra
from maskspectra import bounds, cli, montecarlo, recovery
from maskspectra.cli import main
from maskspectra.masks import generate_mask
from maskspectra.recovery import (
    demo_signal_path,
    random_band_signal,
    read_signal_csv,
    recover,
    synthesize_signal,
    write_signal_csv,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_bounds_reference_row(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "127", "--p", "0.5", "--eps", "1e-4")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["worst_case"] == f"{bounds.worst_case_bound(127, 64):.9g}"
    assert float(rows[0]["worst_case"]) == pytest.approx(40.426, abs=1e-3)
    assert float(rows[0]["gaussian_T"]) == pytest.approx(31.0, abs=0.1)


def test_bounds_explicit_support(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "127", "--p", "0.5", "--np", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["worst_case"]) == 1.0


def test_bounds_invalid_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "0", "--p", "0.5")
    assert code == 2
    assert "n" in err


REPORT_COLUMNS = [
    (
        ("bounds", "--n", "1543", "--p", "0.8", "--eps", "1e-6"),
        ["n", "p", "n_p", "epsilon", "worst_case", "worst_case_ratio", "worst_case_ratio_np",
         "gaussian_T", "gaussian_T_approx", "sigma3", "sigma4", "ratio_approx"],
    ),
    (
        ("table1", "--trials", "2"),
        ["N", "p", "n_p", "sim_max_mean", "sim_global_max", "sim_ratio", "bound_worst", "bound_ratio"],
    ),
    (
        ("figure", "--ns", "127,131", "--trials", "20"),
        ["N", "sim_max_mean", "sim_global_max", "mean_abs", "gaussian_T", "sigma3", "sigma4", "worst_case"],
    ),
    (
        ("figure", "--mode", "ratio", "--n", "31", "--ps", "0.1,0.5", "--trials", "20"),
        ["k", "ratio_p0.1", "ratio_p0.5"],
    ),
    (("figure", "--mode", "approx", "--n", "127"), ["p", "n_p", "exact_ratio", "approx_ratio"]),
]


def test_reports_csv_json_cross_decode(capsys):
    # each report's CSV header is its records' keys in order, and its JSON
    # records carry exactly those keys, with the same values
    for args, columns in REPORT_COLUMNS:
        _, out_csv, _ = run_cli(capsys, *args)
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        header, rows = parse_csv(out_csv)
        records = json.loads(out_json)
        assert header == columns, args
        assert len(records) == len(rows), args
        for row, record in zip(rows, records):
            assert list(record) == header, args
            for key, text in row.items():
                assert float(text) == pytest.approx(float(record[key]), rel=1e-8), (args, key)
    # recover writes its history, which has no JSON form, through the same
    # writer: integer iterations, floats at 9 significant digits
    _, out, _ = run_cli(capsys, "recover", "--iters", "2")
    header, rows = parse_csv(out)
    assert header == ["iteration", "threshold", "snr_db", "residual", "kept"]
    assert out.endswith("\n")
    assert [row["iteration"] for row in rows] == ["0", "1"]
    x = read_signal_csv(demo_signal_path())
    t0 = recover(x, generate_mask(x.size, 0.5, cli.DEFAULT_SEED), iterations=1)[1][0][1]
    assert [row["threshold"] for row in rows] == [f"{t0:.9g}", f"{t0 * math.exp(-0.1):.9g}"]
    assert all(row["snr_db"] == f"{float(row['snr_db']):.9g}" for row in rows)
    assert all(row["residual"] == f"{float(row['residual']):.9g}" for row in rows)
    assert all(row["kept"] == str(int(row["kept"])) for row in rows)


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_json_output_is_strict(capsys):
    # eps = 1e-320 gives a subnormal eps' = eps / 126, whose reciprocal
    # overflows; the approximate bound stays finite and the JSON strict
    args = ("bounds", "--n", "127", "--p", "0.5", "--union", "--eps", "1e-320")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    record = json.loads(out, parse_constant=reject_constant)[0]
    assert record["gaussian_T_approx"] == pytest.approx(306.9, abs=0.1)
    assert record["gaussian_T_approx"] >= record["gaussian_T"]
    assert record["worst_case"] == pytest.approx(40.426, abs=1e-3)
    _, rows = parse_csv(run_cli(capsys, *args)[1])
    assert float(rows[0]["gaussian_T_approx"]) == pytest.approx(record["gaussian_T_approx"], rel=1e-8)


def test_bounds_rejects_eps_whose_tail_budget_underflows(capsys):
    # eps / (N - 1) / 2 rounds to 0 here, and so does 5e-324 / 2 without --union
    for args in (("--n", "131071", "--union", "--eps", "1e-320"), ("--n", "127", "--eps", "5e-324")):
        code, out, err = run_cli(capsys, "bounds", "--p", "0.5", *args)
        assert code == 2 and out == ""
        assert "epsilon" in err and "q_inverse" not in err


@pytest.mark.parametrize("n", ["1000000000000000003", str(10**300)], ids=["1e18+3", "1e300"])
def test_bounds_rejects_a_mask_length_beyond_the_limit_at_once(capsys, n):
    # the first ran past a 20 s timeout in is_prime; the second exited 3
    # from an overflow in the ratio approximation's radicand
    code, out, err = run_cli(capsys, "bounds", "--n", n, "--p", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: n must be an integer in [2, 4294967296], got ")


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--n", "127", "--p", "0.5", "--trials", "600"), ("figure", "--mode", "bounds", "--trials", "8")],
    ids=["simulate", "figure"],
)
def test_bad_eps_fails_before_any_trial(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(montecarlo, "run_experiment", lambda *args, **kwargs: calls.append(args))
    code, out, err = run_cli(capsys, *argv, "--eps", "0")
    assert code == 2 and out == ""
    assert "epsilon must lie in (0, 1)" in err
    assert calls == []


@pytest.mark.parametrize(
    "argv", [("simulate", "--n", "127", "--p", "0.5", "--trials", "10"), ("recover",)], ids=["simulate", "recover"]
)
def test_unwritable_out_fails_before_any_work(capsys, monkeypatch, tmp_path, argv):
    # a directory, or a file in a missing directory, is a usage error found
    # before any trial or recovery runs, not a failure after the whole run
    calls = []

    def called(*args, **kwargs):
        calls.append(args)
        raise AssertionError("no work may run before --out is checked")

    monkeypatch.setattr(montecarlo, "run_experiment", called)
    monkeypatch.setattr(recovery, "recover", called)
    for out in (tmp_path, tmp_path / "missing" / "x.csv"):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, ""), err
        assert err.startswith("error: --out "), err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_records_to_json_writes_non_finite_as_null():
    # strict JSON has no Infinity or NaN
    payload = [{"bound": math.inf, "low": -math.inf, "snr": math.nan, "n": 7, "x": 1.5}]
    text = cli.records_to_json(payload)
    assert json.loads(text, parse_constant=reject_constant) == [
        {"bound": None, "low": None, "snr": None, "n": 7, "x": 1.5}
    ]


def test_table1_shape_and_determinism(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ("table1", "--trials", "25", "--seed", "3", "--workers", "2")
    assert run_cli(capsys, *args, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header, rows = parse_csv(out_a.read_text())
    assert header == ["N", "p", "n_p", "sim_max_mean", "sim_global_max", "sim_ratio", "bound_worst", "bound_ratio"]
    assert len(rows) == 9
    assert rows[0]["bound_worst"] == f"{bounds.worst_case_bound(127, 64):.9g}"
    assert rows[3]["N"] == "1543" and rows[6]["N"] == "131071"


def test_figure_bounds_mode_layering(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "--rate", "0.5", "--ns", "127,521", "--trials", "400", "--seed", "7"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2
    for row in rows:
        worst, t = float(row["worst_case"]), float(row["gaussian_T"])
        gmax, mean = float(row["sim_global_max"]), float(row["sim_max_mean"])
        assert worst >= t >= gmax >= mean >= float(row["mean_abs"])


def test_figure_ratio_mode_rate_ordering(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "--mode", "ratio", "--n", "257", "--ps", "0.1,0.8",
        "--trials", "200", "--seed", "7",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k", "ratio_p0.1", "ratio_p0.8"]
    assert len(rows) == 256
    assert all(float(r["ratio_p0.8"]) < float(r["ratio_p0.1"]) for r in rows)


def test_figure_approx_mode_tracks_exact(capsys):
    # the closed form tracks the exact ratio on the mid-rate band; below
    # p ~ 0.03 at this length the approximation error exceeds 0.02
    code, out, _ = run_cli(capsys, "figure", "--mode", "approx", "--n", "1543")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 99
    spread = [
        abs(float(r["approx_ratio"]) - float(r["exact_ratio"]))
        for r in rows
        if 0.1 <= float(r["p"]) <= 0.9
    ]
    assert len(spread) == 81
    assert max(spread) <= 0.02


def test_figure_approx_mode_at_small_n(capsys):
    # the approximation needs N*p >= 1, so at N = 31 the grid starts at p = 0.04;
    # points where its radicand is negative are left out, not printed as 0:
    # p = 0.15..0.19 at N = 7 (exact ratio 0.90) and p = 0.01 at N = 100
    for n, first, count in (("31", "0.04", 96), ("7", "0.2", 80), ("100", "0.02", 98)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(capsys, "figure", "--mode", "approx", "--n", n)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["p"] == first and len(rows) == count, n
        assert all(float(row["approx_ratio"]) > 0.0 for row in rows)
        # worst_case_bound warns that N = 100 is composite; nothing is clamped
        assert all("composite" in str(w.message) for w in caught), [str(w.message) for w in caught]


def test_figure_approx_mode_support_sizes(capsys):
    # 100 * p lands just above an integer at p = 0.07, 0.14, 0.28, 0.55 and
    # 0.56; n_p is that integer there, not the next one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # N = 100 is composite
        _, out, _ = run_cli(capsys, "figure", "--mode", "approx", "--n", "100")
        _, rows = parse_csv(out)
        assert {"0.07", "0.14", "0.28", "0.55", "0.56"} <= {row["p"] for row in rows}
        for row in rows:
            n_p = round(100 * float(row["p"]))
            assert row["n_p"] == str(n_p), row
            assert row["exact_ratio"] == f"{bounds.worst_case_bound(100, n_p) / n_p:.9g}", row


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--n", "128", "--p", "0.5"),
        ("bounds", "--n", "7", "--p", "0.15"),
        ("simulate", "--n", "128", "--p", "0.5", "--trials", "4"),
        ("figure", "--mode", "approx", "--n", "100"),
    ],
    ids=["bounds-composite", "bounds-clamped", "simulate", "figure-approx"],
)
def test_bound_warnings_name_cli(capsys, argv):
    # a composite-N or clamped-radicand warning names the line of cli.py
    # that called into the bounds, not a line of bounds.py
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and caught
    assert {w.filename for w in caught} == {cli.__file__}


def test_figure_ratio_mode_rejects_colliding_rates(capsys):
    # both rates print as ratio_p0.1, and 0.5 twice would drop a JSON key
    for ps in ("0.1,0.1000001", "0.5,0.5"):
        code, out, err = run_cli(capsys, "figure", "--mode", "ratio", "--n", "31", "--ps", ps, "--trials", "10")
        assert code == 2 and out == ""
        assert "--ps" in err and "twice" in err


def test_figure_ratio_mode_checks_each_rate_with_its_trial_count(capsys):
    # the specs are made one rate at a time, each checking (N, p, seed) and
    # then the trial count: a bad count shows up at the first good rate,
    # before any later rate is read
    argv = ("figure", "--mode", "ratio", "--n", "31", "--trials", "0")
    for ps, message in (
        ("0.5,1.5", "error: trials must be an integer in [1, 18446744073709551616], got 0\n"),
        ("1.5,0.5", "error: sampling rate p must lie in (0, 1), got 1.5\n"),
    ):
        assert run_cli(capsys, *argv, "--ps", ps) == (2, "", message)


_UNREAD_OPTIONS = {
    f"{name}{option}": (mode, option)
    for name, mode, options in (
        ("approx", ("figure", "--mode", "approx", "--n", "127"), ("--seed", "--trials", "--workers", "--eps", "--rate")),
        ("ratio", ("figure", "--mode", "ratio", "--n", "127", "--trials", "4"), ("--eps", "--rate")),
        ("recover-rate-1", ("recover", "--rate", "1"), ("--seed",)),
    )
    for option in options
}
_BAD_VALUE = {"--seed": "-1", "--trials": "0", "--workers": "0", "--eps": "nan", "--rate": "7"}


@pytest.mark.parametrize("mode,option", _UNREAD_OPTIONS.values(), ids=_UNREAD_OPTIONS.keys())
def test_an_option_a_mode_does_not_read_is_checked_as_where_it_is_read(capsys, mode, option):
    # figure's bounds mode and recover at a rate below 1 read every one of
    # these options; a mode that does not read one still rejects a bad
    # value of it, with the same exit code and message
    reader = ("recover",) if mode[0] == "recover" else ("figure", "--ns", "127", "--trials", "4")
    want = run_cli(capsys, *reader, option, _BAD_VALUE[option])
    assert want[0] == 2 and want[2].startswith("error: ")
    assert run_cli(capsys, *mode, option, _BAD_VALUE[option]) == want


def test_figure_ratio_mode_requires_n(capsys):
    code, _, err = run_cli(capsys, "figure", "--mode", "ratio")
    assert code == 2
    assert "--n" in err


def test_recover_demo_meets_snr_target(capsys, tmp_path):
    out = tmp_path / "history.csv"
    code, stdout, _ = run_cli(
        capsys, "recover", "--rate", "0.5", "--seed", "11", "--iters", "50", "--out", str(out)
    )
    assert code == 0
    assert "final_snr_db=" in stdout
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "iteration,threshold,snr_db,residual,kept"
    final_snr = float(lines[-1].split(",")[2])
    assert final_snr >= 40.0


def _summary_fields(text):
    return dict(part.split("=", 1) for part in text.split() if "=" in part)


def test_recover_stops_on_the_sampled_residual(capsys, tmp_path):
    # --iters caps the loop and --tol stops it; the summary reports the last
    # iteration's residual on the sampled positions, on stdout with --out
    runs = {}
    for tol in ("0", "1e-6", "1e-3"):
        out = tmp_path / f"history_{tol}.csv"
        code, stdout, err = run_cli(
            capsys, "recover", "--rate", "0.5", "--seed", "11", "--iters", "50", "--tol", tol, "--out", str(out)
        )
        assert code == 0 and err == ""
        fields = _summary_fields(stdout)
        lines = out.read_text().strip().split("\n")
        assert int(fields["iterations"]) == len(lines) - 1
        assert float(fields["final_snr_db"]) == pytest.approx(float(lines[-1].split(",")[2]), abs=1e-3)
        runs[tol] = fields, lines
    assert len(runs["0"][1]) == 51
    assert float(runs["0"][0]["residual"]) > 0.0
    for tol in ("1e-6", "1e-3"):
        fields, lines = runs[tol]
        assert len(lines) < 51 and lines == runs["0"][1][: len(lines)], tol
        assert float(fields["residual"]) <= float(tol), tol
        assert float(fields["final_snr_db"]) >= 40.0, tol
    assert len(runs["1e-3"][1]) < len(runs["1e-6"][1])
    # the summary's residual is the last row's
    for fields, lines in runs.values():
        assert fields["residual"] == f"{float(lines[-1].split(',')[3]):.3g}"
    # without --out the summary goes to stderr, residual included
    code, stdout, err = run_cli(capsys, "recover", "--seed", "11")
    assert code == 0 and stdout.startswith("iteration,threshold,snr_db,residual,kept\n")
    assert _summary_fields(err)["residual"] == runs["1e-6"][0]["residual"]


def test_recover_says_why_it_stopped_and_whether_it_is_identified(capsys, tmp_path):
    # the summary ends with stopped=tol|cap and identified=yes|no, the
    # latter yes where the last row keeps at most half as many bins as
    # there are samples. At rate 0.2 demo seeds 5, 8 and 34 end on alias
    # bins at 2.7, 7.4 and 3.9 dB, and exactly these are flagged
    def summary(*argv):
        out = tmp_path / "history.csv"
        code, stdout, err = run_cli(capsys, "recover", *argv, "--out", str(out))
        assert code == 0 and err == ""
        last = out.read_text().strip().split("\n")[-1].split(",")
        return stdout, _summary_fields(stdout), int(last[4])

    for seed in (5, 8, 34):
        stdout, fields, kept = summary("--rate", "0.2", "--seed", str(seed))
        assert stdout.endswith(" stopped=cap identified=no\n"), seed
        assert 2 * kept > int(fields["n_p"]) and float(fields["final_snr_db"]) < 10.0, seed
    for seed in (4, 6):
        assert summary("--rate", "0.2", "--seed", str(seed))[1]["identified"] == "yes", seed
    stdout, fields, kept = summary()
    assert stdout.endswith(" stopped=tol identified=yes\n")
    assert float(fields["residual"]) <= 1e-6 and 2 * kept <= int(fields["n_p"])
    assert summary("--tol", "0")[0].endswith(" stopped=cap identified=yes\n")
    # full sampling counts every sample
    fields = summary("--rate", "1")[1]
    assert (fields["n_p"], fields["stopped"], fields["identified"]) == ("127", "tol", "yes")


def test_recover_rejects_bad_tol(capsys):
    for value in ("-1e-6", "nan", "inf"):
        code, out, err = run_cli(capsys, "recover", "--iters", "2", f"--tol={value}")
        assert code == 2 and out == "", value
        assert "tol" in err, value


def test_recover_full_sampling_one_iteration(capsys):
    code, out, err = run_cli(capsys, "recover", "--rate", "1", "--iters", "1")
    assert code == 0
    final_snr = float(out.strip().split("\n")[-1].split(",")[2])
    assert final_snr >= 100.0


def test_recover_rejects_out_of_range_inputs(capsys):
    # a rate above 1 used to sample everything
    for flag, value in (("--rate", "7"), ("--rate", "0"), ("--rate", "nan")):
        code, out, err = run_cli(capsys, "recover", "--iters", "2", flag, value)
        assert code == 2 and out == "", flag
        assert flag.lstrip("-") in err, flag


def test_recover_rejects_an_empty_mask(capsys):
    # at rate 0.001 seed 11 samples none of the 127 demo samples, and the
    # step N/n_p is undefined
    assert not generate_mask(127, 0.001, 11).any()
    code, out, err = run_cli(capsys, "recover", "--rate", "0.001", "--seed", "11")
    assert code == 2 and out == ""
    assert "nothing was sampled" in err


def test_recover_missing_fixture_exits_2(capsys, tmp_path):
    # a directory is no fixture either: a usage error, not a failed read
    for path in ("/no/such/file.csv", str(tmp_path)):
        code, _, err = run_cli(capsys, "recover", "--signal", path)
        assert code == 2, path
        assert "not found" in err, path


def test_simulate_csv_json_cross_decode(capsys):
    args = ("simulate", "--n", "127", "--p", "0.5", "--trials", "200", "--seed", "4")
    _, out_csv, _ = run_cli(capsys, *args)
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    _, rows = parse_csv(out_csv)
    flat = rows[0]
    payload = json.loads(out_json)
    assert int(flat["trials"]) == payload["trials"]
    assert float(flat["max_mean"]) == pytest.approx(payload["per_trial_max"]["mean"], rel=1e-8)
    assert float(flat["global_max"]) == pytest.approx(payload["global_max"], rel=1e-8)
    assert float(flat["mean_abs_coeff"]) == pytest.approx(payload["mean_abs_coeff"], rel=1e-8)
    assert int(flat["exceed_gaussian_T"]) == payload["exceedance_counts"]["gaussian_T"]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


ONE_DRIVER_CALL = [
    (("simulate", "--n", "127", "--p", "0.5", "--trials", "600"), 1),
    (("table1", "--trials", "16"), 1),
    (("figure", "--trials", "8"), 1),
    (("figure", "--mode", "ratio", "--n", "127", "--trials", "8"), 1),
    (("bounds", "--n", "127", "--p", "0.5"), 0),
    (("figure", "--mode", "approx", "--n", "127"), 0),
    (("recover",), 0),
]


@pytest.mark.parametrize("argv,driver_calls", ONE_DRIVER_CALL, ids=[" ".join(argv) for argv, _ in ONE_DRIVER_CALL])
def test_each_command_makes_at_most_one_driver_call(capsys, monkeypatch, argv, driver_calls):
    # a Monte Carlo command runs all its rows or rates in one call of the
    # driver, which the benchmark times by wrapping this module attribute
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    calls, driver = [], montecarlo.run_experiment

    def counting(*args, **kwargs):
        calls.append(args)
        return driver(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_experiment", counting)
    code, wrapped, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == driver_calls
    assert wrapped == plain


def test_cached_parser_matches_fresh_parsers(capsys, monkeypatch):
    # one parser serves every call of a process: successive calls, one of
    # them failing, print what they print on a freshly built parser
    calls = (
        ("bounds", "--n", "127", "--p", "0.5"),
        ("recover", "--iters", "3", "--seed", "11"),
        ("recover", "--rate", "7"),
        ("figure", "--mode", "approx", "--n", "127", "--format", "json"),
        ("bounds", "--n", "131", "--p", "0.25", "--union"),
    )
    cached = [run_cli(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0]
    assert cli._parser() is cli._parser()
    # the handler is looked up per call, not frozen into the parser
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: print(f"patched n={args.n}") or 0)
    assert run_cli(capsys, *calls[0])[:2] == (0, "patched n=127\n")


def test_internal_key_error_is_a_runtime_failure(capsys, monkeypatch):
    # no user input raises KeyError, so one from a command is a fault of the program, not a usage error
    def broken(args):
        raise KeyError("label")

    monkeypatch.setattr(cli, "cmd_bounds", broken)
    code, out, err = run_cli(capsys, "bounds", "--n", "127", "--p", "0.5")
    assert (code, out) == (3, "")
    assert err.startswith("runtime failure: ")


def test_python_dash_m_runs_the_cli(capsys):
    args = ["bounds", "--n", "127", "--p", "0.5"]
    src = str(Path(maskspectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "maskspectra", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == run_cli(capsys, *args)[1]


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule fails
from maskspectra.cli import main
codes = [main(argv.split()) for argv in sys.argv[1:]]
loaded = sorted(name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None)
print(codes, loaded)
"""


def test_no_subcommand_needs_scipy(tmp_path):
    # scipy is a test dependency only: every subcommand runs in a process
    # where importing it fails, pool workers included. Recovery runs
    # through numpy.fft at the demo's N = 127, and through a Rader plan,
    # padded at 509 (508 = 2^2 * 127) and plain at 1033
    out = tmp_path / "out.csv"
    fixtures = {}
    for n, seed in ((509, 3), (1033, 4)):
        fixtures[n] = tmp_path / f"signal_{n}.csv"
        write_signal_csv(fixtures[n], synthesize_signal(random_band_signal(n, 4, seed=seed)))
    calls = [
        "bounds --n 127 --p 0.5",
        "bounds --n 8191 --p 0.1 --union --format json",
        "simulate --n 127 --p 0.5 --trials 20000 --workers 2",  # 2.5M mask elements: a pool
        "table1 --trials 4",
        "figure --mode bounds --ns 127,131 --trials 8",
        "figure --mode ratio --n 1543 --trials 8",
        "figure --mode approx --n 127",
        f"recover --out {out}",
        f"recover --rate 0.3 --out {out}",
        f"recover --signal {fixtures[509]} --out {out}",
        f"recover --signal {fixtures[1033]} --out {out}",
    ]
    src = str(Path(maskspectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, *calls], capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{[0] * len(calls)} []", result.stderr


_POOL_MODULES = """
import sys
from maskspectra import montecarlo
from maskspectra.cli import main

def loaded():
    return [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]

out = sys.argv[1]
codes = [main(["recover", "--out", out]), main(["bounds", "--n", "127", "--p", "0.5"])]
print(codes, loaded())
simulate = ["simulate", "--n", "127", "--p", "0.5", "--trials", "20000", "--workers", "2", "--out", out]
codes = [main(simulate)]
print(codes, loaded())
methods, base = [], montecarlo.ProcessPoolExecutor

class Recording(base):
    def __init__(self, *args, mp_context, **kwargs):
        methods.append(mp_context.get_start_method())
        super().__init__(*args, mp_context=mp_context, **kwargs)

montecarlo.ProcessPoolExecutor = Recording
codes = [main(simulate)]
print(codes, methods)
"""


def test_pool_modules_load_only_with_a_pool(tmp_path):
    # recover and bounds start no pool, so they load neither multiprocessing
    # nor concurrent.futures; a 2-worker simulate of 2.5M mask elements
    # loads both and names its start method: fork on Linux, where the
    # package starts no thread before a pool forks, and elsewhere the
    # platform's default
    import multiprocessing

    src = str(Path(maskspectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _POOL_MODULES, str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    method = "fork" if sys.platform == "linux" else multiprocessing.get_start_method()
    assert result.stdout.splitlines()[-3:] == [
        "[0, 0] []",
        "[0] ['multiprocessing', 'concurrent.futures']",
        f"[0] [{method!r}]",
    ], result.stderr


_SKETCH_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
exec(sys.argv[1])
print(sorted(name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None))
"""


def test_readme_cli_lines_parse():
    # every command line in the README's CLI block parses, so a flag the
    # parser dropped cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("maskspectra ")]
    assert len(lines) >= 8
    for argv in lines:
        cli._parser().parse_args(argv)


def test_readme_library_sketch_runs(tmp_path):
    # the README's "Library sketch" block, run as written where scipy cannot be imported
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch\n\n```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(maskspectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _SKETCH_NO_SCIPY, sketch],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    printed, loaded = result.stdout.splitlines()
    assert loaded == "[]"
    global_max, worst_case, exceeded = printed.split()
    report = bounds.bound_report(127, 0.5, epsilon=1e-4)
    spec = montecarlo.ExperimentSpec(127, 0.5, 20_000, seed=7, thresholds=(("gaussian_T", report["gaussian_T"]),))
    [(stats, _)] = montecarlo.run_experiment([spec])  # one worker: the same bits as the sketch's two
    assert (float(global_max), float(worst_case), int(exceeded)) == (stats.per_trial_max.max, report["worst_case"], 0)
    assert stats.per_trial_max.max <= report["worst_case"]
