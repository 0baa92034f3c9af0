import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import fullgroup_lab
from fullgroup_lab import (
    ResourceLimit,
    canonical_point,
    fibonacci_generators,
    fibonacci_spec,
    uniform_measure,
)
from fullgroup_lab.cli import main
from fullgroup_lab.fileio import (
    check_cells,
    dumps_json,
    load_generator_set,
    load_spec,
    save_generator_set,
    save_spec,
    write_json,
    write_table,
)


FIB = {"variant": "substitution", "rules": {"a": "ab", "b": "a"}, "seed": "a"}
GENS = {"spec": "fib.json", "builtin": "fibonacci"}


@pytest.fixture()
def workdir(tmp_path):
    write_json(tmp_path / "fib.json",
               {"variant": "substitution", "rules": {"a": "ab", "b": "a"}, "seed": "a"})
    write_json(tmp_path / "sturmian.json",
               {"variant": "sturmian", "cf": [1], "swap_letters": False})
    write_json(tmp_path / "gens.json", {"spec": "fib.json", "builtin": "fibonacci"})
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# --- complexity -------------------------------------------------------------------


def test_complexity_sturmian_column(workdir):
    out = workdir / "out"
    assert run(["complexity", "--spec", workdir / "sturmian.json", "--n", 50, "--out", out]) == 0
    rows = read_rows(out / "complexity.csv")
    assert [int(r["rho"]) for r in rows] == [n + 1 for n in range(1, 51)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "complexity"
    assert "complexity.csv" in manifest["outputs"]


def test_complexity_full_shift_powers(workdir, tmp_path):
    write_json(tmp_path / "full.json", {"variant": "full_shift", "alphabet": ["a", "b"]})
    out = tmp_path / "out"
    assert run(["complexity", "--spec", tmp_path / "full.json", "--n", 12, "--out", out]) == 0
    rows = read_rows(out / "complexity.csv")
    assert [int(r["rho"]) for r in rows] == [2**n for n in range(1, 13)]


def test_complexity_past_the_float_range(tmp_path, capsys):
    # rho(n) = 2^n passes the largest float at n = 1024
    write_json(tmp_path / "full.json", {"variant": "full_shift", "alphabet": ["a", "b"]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["complexity", "--spec", tmp_path / "full.json", "--n", 1100,
                    "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert int(read_rows(out / "complexity.csv")[-1]["rho"]) == 2**1100
    fit = json.loads((out / "complexity_fit.json").read_text())
    assert math.isfinite(fit["loglog_slope"]) and math.isfinite(fit["loglog_intercept"])
    assert "complexity_fit.json" in json.loads((out / "manifest.json").read_text())["outputs"]


def test_complexity_past_the_integer_text_limit_exits_3(tmp_path, capsys):
    # rho(n) = 10^n has n + 1 digits: one more than Python writes at n = 4,300
    limit = sys.get_int_max_str_digits()
    write_json(tmp_path / "full.json", {"variant": "full_shift", "alphabet": list("abcdefghij")})
    out = tmp_path / "out"
    assert run(["complexity", "--spec", tmp_path / "full.json", "--n", limit,
                "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and "Traceback" not in err
    assert not out.exists()
    assert sys.get_int_max_str_digits() == limit
    assert list(check_cells([(limit - 1, 10**limit - 1)])) == [(limit - 1, 10**limit - 1)]
    with pytest.raises(ResourceLimit, match=f"more than {limit} decimal digits"):
        list(check_cells([(1, 2.0), (limit, -(10**limit))]))

    def rows():
        yield 1, 2.0
        yield limit, -(10**limit)
        raise AssertionError("a row past the refused one was computed")

    checked = check_cells(rows())
    assert next(checked) == (1, 2.0)
    with pytest.raises(ResourceLimit, match=f"more than {limit} decimal digits"):
        next(checked)


def test_factor_dump_past_the_cap_leaves_no_directory(tmp_path, capsys):
    write_json(tmp_path / "full.json", {"variant": "full_shift", "alphabet": ["a", "b"]})
    out = tmp_path / "out"
    assert run(["complexity", "--spec", tmp_path / "full.json", "--n", 4,
                "--dump-factors", 40, "--out", out]) == 3
    assert capsys.readouterr().err.startswith("resource limit: ")
    assert not out.exists()


def test_complexity_factor_dump(workdir):
    out = workdir / "dump"
    assert run(["complexity", "--spec", workdir / "fib.json", "--n", 6,
                "--dump-factors", 3, "--out", out]) == 0
    words = (out / "factors_3.txt").read_text().split()
    assert words == sorted(words)
    assert set(words) == {"aab", "aba", "baa", "bab"}


def test_negative_factor_dump_length_is_validation_error(workdir, capsys):
    out = workdir / "dump"
    assert run(["complexity", "--spec", workdir / "fib.json", "--n", 6,
                "--dump-factors", -1, "--out", out]) == 2
    assert "--dump-factors must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_complexity_json_format(workdir):
    out = workdir / "json_out"
    assert run(["complexity", "--spec", workdir / "sturmian.json", "--n", 8,
                "--out", out, "--format", "json"]) == 0
    doc = json.loads((out / "complexity.json").read_text())
    assert doc[0] == {"n": 1, "rho": 2}


@pytest.mark.parametrize("n", [1, 2])
def test_complexity_too_few_rows_to_fit(workdir, capsys, n):
    out = workdir / "short"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["complexity", "--spec", workdir / "fib.json", "--n", n, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert [int(r["n"]) for r in read_rows(out / "complexity.csv")] == list(range(1, n + 1))
    fit = json.loads((out / "complexity_fit.json").read_text())
    assert fit["n_range"] == [2, n]
    assert "at least two rows" in fit["insufficient_data"]
    assert "loglog_slope" not in fit and "loglog_intercept" not in fit
    assert "complexity_fit.json" in json.loads((out / "manifest.json").read_text())["outputs"]


def test_complexity_of_an_empty_language_writes_valid_json(tmp_path, capsys):
    write_json(tmp_path / "empty.json", {"variant": "explicit", "alphabet": ["a"],
                                         "forbidden": ["a"]})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["complexity", "--spec", tmp_path / "empty.json", "--n", 6,
                    "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert {int(r["rho"]) for r in read_rows(out / "complexity.csv")} == {0}

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    fit = json.loads((out / "complexity_fit.json").read_text(), parse_constant=reject)
    assert "empty" in fit["insufficient_data"]
    assert "loglog_slope" not in fit and "loglog_intercept" not in fit


def test_toeplitz_fit_sidecar(tmp_path):
    write_json(tmp_path / "toep.json", {"variant": "toeplitz", "pattern": "a*ab*a", "hole": "*"})
    out = tmp_path / "out"
    assert run(["complexity", "--spec", tmp_path / "toep.json", "--n", 30, "--out", out]) == 0
    fit = json.loads((out / "complexity_fit.json").read_text())
    assert "loglog_slope" in fit
    # p = 6, q = 2 is not coprime: no exponent is claimed
    assert "coprime_exponent" not in fit


def test_toeplitz_coprime_exponent_reported(tmp_path):
    write_json(tmp_path / "toep.json", {"variant": "toeplitz", "pattern": "ab*b*", "hole": "*"})
    out = tmp_path / "out"
    assert run(["complexity", "--spec", tmp_path / "toep.json", "--n", 30, "--out", out]) == 0
    fit = json.loads((out / "complexity_fit.json").read_text())
    assert fit["coprime_exponent"] == pytest.approx(math.log(5) / math.log(2.5))


# --- walk -------------------------------------------------------------------------


def test_walk_outputs_and_determinism(workdir):
    args = ["walk", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
            "--n", 60, "--trials", 3000, "--seed", 7]
    out1, out2 = workdir / "w1", workdir / "w2"
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    for name in ("walk_summary.csv", "tail.csv", "tail_fit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    fit = json.loads((out1 / "tail_fit.json").read_text())
    assert fit["dominates"] and fit["reflection_holds"]
    rows = read_rows(out1 / "walk_summary.csv")
    assert len(rows) == 61
    assert float(rows[0]["max_abs"]) == 0.0


def test_walk_single_trajectory(workdir):
    out = workdir / "single"
    assert run(["walk", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                "--n", 25, "--trials", 1, "--seed", 4, "--out", out]) == 0
    rows = read_rows(out / "walk_summary.csv")
    assert len(rows) == 26
    assert all(float(r["std"]) == 0.0 for r in rows)  # one trajectory, no spread
    fit = json.loads((out / "tail_fit.json").read_text())
    assert "insufficient_data" in fit
    assert not (out / "tail.csv").exists()


def test_walk_seed_changes_output(workdir):
    base = ["walk", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
            "--n", 40, "--trials", 1000]
    out1, out2 = workdir / "s1", workdir / "s2"
    assert run(base + ["--seed", 1, "--out", out1]) == 0
    assert run(base + ["--seed", 2, "--out", out2]) == 0
    assert (out1 / "walk_summary.csv").read_bytes() != (out2 / "walk_summary.csv").read_bytes()


REPLAY_ARGS = {
    "walk": ("--gens", "gens.json", "--n", 30, "--trials", 500, "--seed", 3),
    "entropy": ("--gens", "gens.json", "--n", 6, "--L", 4.5),
    "complexity": ("--n", 40, "--dump-factors", 5),
}


@pytest.mark.parametrize("command", list(REPLAY_ARGS))
def test_manifest_replay_reproduces_outputs(workdir, command):
    out1 = workdir / "r1"
    args = [workdir / a if str(a).endswith(".json") else a for a in REPLAY_ARGS[command]]
    assert run([command, "--spec", workdir / "fib.json", *args, "--out", out1]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay_argv = list(manifest["argv"])
    replay_argv[replay_argv.index(str(out1))] = str(workdir / "r2")
    assert main(replay_argv) == 0
    for name in manifest["outputs"]:
        if name != "manifest.json":
            assert (out1 / name).read_bytes() == (workdir / "r2" / name).read_bytes()


def test_entropy_takes_no_seed(workdir, capsys):
    out = workdir / "x"
    with pytest.raises(SystemExit) as exc:
        run(["entropy", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
             "--n", 4, "--seed", 1, "--out", out])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


def test_walk_with_large_shift_generators(workdir):
    write_json(workdir / "big.json", {"spec": "fib.json", "generators": {
        "down": {"depth": 0, "entries": [{"word": "a", "k": -128}, {"word": "b", "k": -128}]},
        "up": {"depth": 0, "entries": [{"word": "a", "k": 128}, {"word": "b", "k": 128}]},
    }})
    out = workdir / "big"
    assert run(["walk", "--spec", workdir / "fib.json", "--gens", workdir / "big.json",
                "--n", 12, "--trials", 50, "--seed", 1, "--out", out]) == 0
    rows = read_rows(out / "walk_summary.csv")
    assert all(int(r["max_abs"]) % 128 == 0 for r in rows)
    assert int(rows[-1]["max_abs"]) >= 128


@pytest.mark.parametrize("seed", [2, 11])
def test_walk_summary_equals_whole_matrix_columns(workdir, walk_matrix, seed):
    n, trials = 30, 2100
    spec = load_spec(workdir / "fib.json")
    gens, _ = load_generator_set(workdir / "gens.json", spec)
    # the summary as it was computed from the columns of the whole offset matrix
    oracle = walk_matrix(uniform_measure(gens), canonical_point(spec), n, trials, seed)
    (workdir / "oracle").mkdir()
    for fmt in ("json", "csv"):
        out = workdir / f"sum{seed}{fmt}"
        assert run(["walk", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                    "--n", n, "--trials", trials, "--seed", seed, "--format", fmt,
                    "--out", out]) == 0
        expected = write_table(workdir / "oracle" / "walk_summary",
                               ("j", "mean", "std", "mean_abs", "max_abs"), oracle.summary, fmt)
        assert (out / expected.name).read_bytes() == expected.read_bytes()
    rows = json.loads((workdir / f"sum{seed}json" / "walk_summary.json").read_text())
    assert rows == [dict(zip(("j", "mean", "std", "mean_abs", "max_abs"), r))
                    for r in oracle.summary]


def test_walk_too_large_is_resource_limit_before_allocating(workdir, capsys):
    out = workdir / "huge"
    tracemalloc.start()
    try:
        code = run(["walk", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                    "--n", 400, "--trials", 10**12, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "resource limit" in capsys.readouterr().err
    assert peak < 10 * 2**20
    assert not out.exists()


# --- entropy ----------------------------------------------------------------------


def test_entropy_report(workdir):
    out = workdir / "ent"
    assert run(["entropy", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                "--n", 6, "--out", out]) == 0
    rows = read_rows(out / "entropy.csv")
    assert len(rows) == 6
    assert all(float(r["slack"]) >= 0 for r in rows)
    rates = [float(r["H_over_n"]) for r in rows]
    assert rates[-1] < rates[0]
    fit = json.loads((out / "entropy_fit.json").read_text())
    assert fit["returns_monotone"]
    assert fit["return_probabilities"][0]["value"] == "1/3"


def test_entropy_minimum_two_rows(workdir):
    out = workdir / "ent2"
    assert run(["entropy", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                "--n", 2, "--out", out]) == 0
    assert len(read_rows(out / "entropy.csv")) == 2


def test_entropy_cap_writes_flagged_partial_results(workdir):
    out = workdir / "entcap"
    code = run(["entropy", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                "--n", 8, "--cap", 10, "--out", out])
    assert code == 3
    fit = json.loads((out / "entropy_fit.json").read_text())
    assert fit["partial"] is True
    assert "resource_limit" in fit
    assert (out / "entropy.csv").exists()


def test_entropy_depth_past_the_text_budget_writes_partial_results(workdir, capsys):
    # --L 1e300 asks for cylinders far longer than any generated text
    out = workdir / "deep"
    assert run(["entropy", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                "--n", 4, "--L", 1e300, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert "text budget" in err and "Traceback" not in err
    assert read_rows(out / "entropy.csv") == []
    assert json.loads((out / "entropy_fit.json").read_text())["partial"] is True


@pytest.mark.parametrize("case", ["dump-factors", "element-depth", "fixed-point-power"])
def test_huge_lengths_exit_3_before_any_output(workdir, capsys, fib_gens, case):
    out = workdir / "huge"
    if case == "dump-factors":
        args = ["complexity", "--spec", workdir / "fib.json", "--n", 4,
                "--dump-factors", 10**12]
    elif case == "element-depth":
        doc = fib_gens["gamma"].to_dict()
        doc["depth"] = 10**9
        write_json(workdir / "deep.json", {"spec": "fib.json", "generators": {"gamma": doc}})
        args = ["walk", "--spec", workdir / "fib.json", "--gens", workdir / "deep.json",
                "--n", 4, "--trials", 4]
    else:
        write_json(workdir / "fib.json", FIB | {"point": {
            "kind": "substitution_fixed_point", "left": "a", "right": "a", "power": 60}})
        args = ["walk", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                "--n", 4, "--trials", 4]
    assert run(args + ["--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert "text budget" in err
    assert not out.exists()


_BLOW_UP_INPUTS = {
    "sturmian-huge-coefficient": (
        {"variant": "sturmian", "cf": [100000], "swap_letters": False},
        ["complexity", "--n", "5"]),
    "full-shift-dump": (
        {"variant": "full_shift", "alphabet": ["a", "b"]},
        ["complexity", "--n", "4", "--dump-factors", str(10**12)]),
    "one-letter-full-shift-dump": (
        {"variant": "full_shift", "alphabet": ["a"]},
        ["complexity", "--n", "3", "--dump-factors", str(10**12)]),
    "one-path-sft-dump": (
        {"variant": "explicit", "alphabet": ["a", "b"], "forbidden": ["b"]},
        ["complexity", "--n", "3", "--dump-factors", str(10**12)]),
    # one table row per length: a huge --n is refused before any row is computed
    "one-path-sft-rows": (
        {"variant": "explicit", "alphabet": ["a", "b"], "forbidden": ["b"]},
        ["complexity", "--n", str(10**12)]),
    "one-letter-full-shift-rows": (
        {"variant": "full_shift", "alphabet": ["a"]},
        ["complexity", "--n", str(10**12)]),
    "sturmian-rows": (
        {"variant": "sturmian", "cf": [1], "swap_letters": False},
        ["complexity", "--n", str(10**12)]),
    "entropy-rows": (
        FIB, ["entropy", "--gens", "gens.json", "--n", str(10**9)]),
    # each row is checked as it is computed: 2^n passes 4,300 digits at
    # n = 14,285, and the golden-mean count at n = 20,576
    "full-shift-long-rows": (
        {"variant": "full_shift", "alphabet": ["a", "b"]},
        ["complexity", "--n", "2000000"]),
    "golden-mean-long-rows": (
        {"variant": "explicit", "alphabet": ["a", "b"], "forbidden": ["bb"]},
        ["complexity", "--n", "2000000"]),
    # the ball's byte budget refuses layer 22 before it joins the ball
    "entropy-huge-cap": (
        FIB, ["entropy", "--gens", "gens.json", "--n", "30", "--cap", str(10**12)]),
    "fixed-point-power": (
        FIB | {"point": {"kind": "substitution_fixed_point", "left": "a", "right": "a",
                         "power": 60}},
        ["walk", "--gens", "gens.json", "--n", "4", "--trials", "4"]),
}
# entropy writes its documented partial results when a limit stops the chain
_PARTIAL_RESULTS = {"entropy-huge-cap"}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_under_2_gib(workdir, args):
    """The CLI run `args` in a child process with 2 GiB of address space:
    a raw MemoryError there exits 1 with a traceback."""
    package_root = Path(fullgroup_lab.__file__).resolve().parents[1]
    env = os.environ | {"OPENBLAS_NUM_THREADS": "1",
                        "PYTHONPATH": os.pathsep.join(filter(None, [
                            str(package_root), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "fullgroup_lab.cli", args[0], "--spec", "fib.json", *args[1:],
         "--out", "out"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space)


@pytest.mark.parametrize("case", list(_BLOW_UP_INPUTS))
def test_blow_up_inputs_exit_3_under_a_2_gib_address_space(workdir, case):
    # a blow-up input exits 3 with a resource-limit line, not with a
    # MemoryError traceback
    spec, args = _BLOW_UP_INPUTS[case]
    write_json(workdir / "fib.json", spec)
    proc = _run_under_2_gib(workdir, args)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("resource limit: ")
    assert "Traceback" not in proc.stderr
    if case in _PARTIAL_RESULTS:
        fit = json.loads((workdir / "out" / "entropy_fit.json").read_text())
        assert fit["partial"] is True and fit["resource_limit"] in proc.stderr
    else:
        assert not (workdir / "out").exists()


def _constant_shifts_walk(workdir, shift):
    table = {c: [{"word": w, "k": c} for w in "ab"] for c in (shift, -shift)}
    write_json(workdir / "big.json", {"spec": "fib.json", "generators": {
        "up": {"depth": 0, "entries": table[shift]},
        "down": {"depth": 0, "entries": table[-shift]}}})
    return _run_under_2_gib(workdir, ["walk", "--gens", "big.json", "--n", "4",
                                      "--trials", "4"])


def test_constant_shifts_of_2000_walk_under_a_2_gib_address_space(workdir):
    # a constant shift inverts to its negative with no preimage search, and
    # the two-sided check reduces no product, so no level-by-level word
    # table of up to 4,001 letters is built
    proc = _constant_shifts_walk(workdir, 2000)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    # the 40,002 factors of 40,001 letters that a shift of 20,000 asks for
    # pass the letter cap, and are refused before they are spelled
    proc = _constant_shifts_walk(workdir, 20000)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("resource limit: ")
    assert "Traceback" not in proc.stderr


_NO_MASKED_ARRAYS = """
import sys
from fullgroup_lab.cli import main
for args in (
    ["complexity", "--spec", "toeplitz.json", "--n", "24", "--out", "c"],
    ["walk", "--spec", "fib.json", "--gens", "gens.json", "--n", "40", "--trials", "200",
     "--out", "w"],
    ["entropy", "--spec", "fib.json", "--gens", "gens.json", "--n", "8", "--out", "e"],
):
    assert main(args) == 0, args
assert "numpy.ma" not in sys.modules, "a CLI run imported numpy.ma"
"""


def test_cli_runs_never_import_numpy_ma(workdir):
    # a bare np.unique(x) imports numpy.ma (about 15 ms and 1.2 MB under
    # numpy 2.4); every np.unique on these paths asks for indices or counts
    write_json(workdir / "toeplitz.json", {"variant": "toeplitz", "pattern": "ab*b*"})
    package_root = Path(fullgroup_lab.__file__).resolve().parents[1]
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [
        str(package_root), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# --- validation and exit codes ------------------------------------------------------


def test_missing_spec_file_is_validation_error(workdir):
    assert run(["complexity", "--spec", workdir / "nope.json", "--n", 5,
                "--out", workdir / "x"]) == 2


def test_bad_substitution_spec_is_validation_error(tmp_path):
    write_json(tmp_path / "bad.json",
               {"variant": "substitution", "rules": {"a": "a"}, "seed": "a"})
    assert run(["complexity", "--spec", tmp_path / "bad.json", "--n", 5,
                "--out", tmp_path / "x"]) == 2


def test_weights_off_by_1e13_are_rejected(workdir):
    write_json(workdir / "skewed.json", {
        "spec": "fib.json", "builtin": "fibonacci",
        "weights": {"alpha": str(Fraction(1, 3) + Fraction(1, 10**13)),
                    "beta": "1/3", "gamma": "1/3"},
    })
    assert run(["entropy", "--spec", workdir / "fib.json", "--gens", workdir / "skewed.json",
                "--n", 2, "--out", workdir / "x"]) == 2


def test_gens_spec_cross_check(workdir, tmp_path):
    write_json(tmp_path / "other.json", {"variant": "sturmian", "cf": [2]})
    write_json(tmp_path / "gens.json", {"spec": str(workdir / "fib.json"), "builtin": "fibonacci"})
    code = run(["walk", "--spec", tmp_path / "other.json", "--gens", tmp_path / "gens.json",
                "--n", 10, "--trials", 10, "--out", tmp_path / "x"])
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--L", "nan"), ("--L", "inf"),
                                         ("--cap", 0), ("--cap", -1)])
def test_entropy_rejects_a_bad_depth_scale_or_cap(workdir, capsys, flag, value):
    out = workdir / "x"
    assert run(["entropy", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                "--n", 4, flag, value, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("spec", [FIB, {"variant": "full_shift", "alphabet": ["a", "b"]}],
                         ids=["fibonacci", "full-shift"])
@pytest.mark.parametrize("k", [2**63, -2**63, 10**30, -10**30])
@pytest.mark.parametrize("depth", [0, 1])
def test_shifts_past_int64_exit_3_before_any_output(tmp_path, capsys, spec, k, depth):
    # inverting a shift k reads windows of 2k + 1 letters, past every cap
    write_json(tmp_path / "spec.json", spec)
    words = sorted(load_spec(tmp_path / "spec.json").language.factors(2 * depth + 1))
    write_json(tmp_path / "gens.json", {"spec": "spec.json", "generators": {
        "tau": {"depth": depth, "entries": [{"word": w, "k": k} for w in words]}}})
    out = tmp_path / "x"
    assert run(["walk", "--spec", tmp_path / "spec.json", "--gens", tmp_path / "gens.json",
                "--n", 4, "--trials", 4, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_repeated_names_in_a_generator_document_exit_2(workdir, capsys, fib_gens):
    # if the last of two equal names won, both documents would load: one
    # gives gamma's first word twice, the second time with its own shift, and
    # the other gives "alpha" twice, the second time with beta's table
    docs = {name: g.to_dict() for name, g in fib_gens}
    word = docs["gamma"]["entries"][0]["word"]
    docs["gamma"]["entries"].insert(0, {"word": word, "k": 5})
    write_json(workdir / "word.json", {"spec": "fib.json", "generators": docs})
    alpha, beta, gamma = (json.dumps(fib_gens[name].to_dict())
                          for name in ("alpha", "beta", "gamma"))
    (workdir / "name.json").write_text('{"spec": "fib.json", "generators": {'
                                       f'"alpha": {alpha}, "alpha": {beta}, "gamma": {gamma}}}}}')
    for gens, message in (("word.json", f"word {word!r} is given twice"),
                          ("name.json", "key 'alpha' is given twice")):
        out = workdir / "x"
        assert run(["walk", "--spec", workdir / "fib.json", "--gens", workdir / gens,
                    "--n", 4, "--trials", 4, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()


@pytest.mark.parametrize("field, value", [("k", "x"), ("depth", -1), ("k", 1.5), ("k", True)])
def test_malformed_element_documents_are_validation_errors(workdir, capsys, fib_gens,
                                                           field, value):
    doc = fib_gens["gamma"].to_dict()
    if field == "depth":
        doc["depth"] = value
    else:
        doc["entries"][0]["k"] = value
    write_json(workdir / "bad.json", {"spec": "fib.json", "generators": {"gamma": doc}})
    out = workdir / "x"
    assert run(["entropy", "--spec", workdir / "fib.json", "--gens", workdir / "bad.json",
                "--n", 2, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: malformed element document")
    assert not out.exists()


@pytest.mark.parametrize("spec, gens, field", [
    ({"variant": "sturmian"}, GENS, "'cf'"),
    ({"variant": "sturmian", "cf": 5}, GENS, "'cf'"),
    ({"variant": "sturmian", "cf": [1], "swap_letters": "false"}, GENS, "'swap_letters'"),
    ({"variant": "toeplitz"}, GENS, "'pattern'"),
    ({"variant": "toeplitz", "pattern": "a**b", "hole": "**"}, GENS, "'hole'"),
    ({"variant": "toeplitz", "pattern": "a*b", "hole": ""}, GENS, "'hole'"),
    ({"variant": "substitution", "rules": ["ab"], "seed": "a"}, GENS, "'rules'"),
    (FIB | {"point": {"kind": "periodic"}}, GENS, "'word'"),
    (FIB | {"point": {"kind": "periodic", "word": "ab", "phase": "x"}}, GENS, "'phase'"),
    (FIB | {"point": {"kind": "explicit", "left_period": "a"}}, GENS, "'right_period'"),
    (FIB | {"point": {"kind": "periodic", "word": "b"}}, GENS, "is not admissible"),
    (FIB | {"point": {"kind": "substitution_fixed_point", "left": "a", "right": "a",
                      "power": "2"}}, GENS, "'power'"),
    (FIB | {"point": {"kind": "substitution_fixed_point", "left": "a", "right": "a",
                      "power": 0}}, GENS, "power"),
    (FIB, {"spec": "fib.json", "generators": []}, "'generators'"),
    (FIB, GENS | {"weights": "abc"}, "'weights'"),
    (FIB, GENS | {"weights": {"alpha": "1/0", "beta": "1/3", "gamma": "1/3"}}, "weights"),
    ({"variant": "full_shift", "alphabet": ["a", "b"]},
     {"generators": {"t": {"depth": 0, "entries": [{"word": "a", "k": 0}, {"word": "b", "k": 0}]}},
      "weights": {"t": True}}, "weights"),
    ({"variant": "full_shift", "alphabet": []}, GENS, "at least one letter"),
    ({"variant": "full_shift", "alphabet": ["a", "a"]}, GENS, "duplicate letters"),
    ({"variant": "full_shift", "alphabet": ["a", "bc"]}, GENS, "'bc'"),
    ({"variant": "explicit", "alphabet": [], "forbidden": []}, GENS, "at least one letter"),
    ({"variant": "explicit", "alphabet": ["a", "a"], "forbidden": []}, GENS, "duplicate letters"),
    ({"variant": "explicit", "alphabet": ["a", "bc"], "forbidden": []}, GENS, "'bc'"),
], ids=["sturmian-no-cf", "cf-not-a-list", "swap-letters-a-string", "toeplitz-no-pattern",
        "toeplitz-two-letter-hole", "toeplitz-empty-hole",
        "rules-not-an-object", "periodic-no-word", "phase-not-an-integer", "explicit-no-right-period",
        "periodic-point-outside-the-subshift",
        "power-a-string", "power-zero", "generators-a-list", "weights-a-string",
        "weight-over-zero", "weight-a-boolean", "full-shift-no-letter", "full-shift-duplicate-letter",
        "full-shift-two-character-letter", "explicit-no-letter", "explicit-duplicate-letter",
        "explicit-two-character-letter"])
def test_malformed_documents_exit_2_without_a_traceback(tmp_path, capsys, spec, gens, field):
    write_json(tmp_path / "fib.json", spec)
    write_json(tmp_path / "gens.json", gens)
    out = tmp_path / "x"
    assert run(["walk", "--spec", tmp_path / "fib.json", "--gens", tmp_path / "gens.json",
                "--n", 4, "--trials", 4, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert not out.exists()


# --- file formats ---------------------------------------------------------------------


def test_generator_set_file_round_trip(tmp_path, fib_spec, fib_gens):
    save_spec(tmp_path / "spec.json", fib_spec)
    weights = {"alpha": Fraction(1, 2), "beta": Fraction(1, 4), "gamma": Fraction(1, 4)}
    save_generator_set(tmp_path / "g.json", fib_gens, spec_ref="spec.json", weights=weights)
    loaded, w = load_generator_set(tmp_path / "g.json", fib_spec)
    assert {name: g for name, g in loaded.elements} == {name: g for name, g in fib_gens.elements}
    assert w == weights


def test_point_descriptor_in_spec_file(tmp_path):
    save_spec(tmp_path / "spec.json",
              fibonacci_spec(),
              point={"kind": "substitution_fixed_point"})
    spec = load_spec(tmp_path / "spec.json")
    assert spec == fibonacci_spec()
    from fullgroup_lab.fileio import load_point_descriptor, point_from_dict

    desc = load_point_descriptor(tmp_path / "spec.json")
    point = point_from_dict(spec, desc)
    assert point.window(0, 2) == "baaba"


def test_weights_must_be_exact(tmp_path, fib_spec):
    write_json(tmp_path / "g.json",
               {"builtin": "fibonacci",
                "weights": {"alpha": 0.5, "beta": 0.25, "gamma": 0.25}})
    with pytest.raises(Exception):
        load_generator_set(tmp_path / "g.json", fib_spec)


def test_dumps_json_deterministic():
    assert dumps_json({"b": 1, "a": 2}) == dumps_json({"a": 2, "b": 1}).replace('"a": 2', '"a": 2')
    assert dumps_json({"b": 1, "a": 2}).index('"a"') < dumps_json({"b": 1, "a": 2}).index('"b"')
