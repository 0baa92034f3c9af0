import json
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fullgroup_lab import (
    canonical_point,
    fibonacci_generators,
    fibonacci_spec,
    sample_orbit_walks,
    uniform_measure,
)
from fullgroup_lab.cli import main
from fullgroup_lab.fileio import (
    dumps_json,
    load_generator_set,
    load_spec,
    save_generator_set,
    save_spec,
    write_json,
)


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
    import math

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


def test_manifest_replay_reproduces_outputs(workdir):
    out1 = workdir / "r1"
    assert run(["walk", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                "--n", 30, "--trials", 500, "--seed", 3, "--out", out1]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay_argv = list(manifest["argv"])
    replay_argv[replay_argv.index(str(out1))] = str(workdir / "r2")
    assert main(replay_argv) == 0
    for name in manifest["outputs"]:
        if name != "manifest.json":
            assert (out1 / name).read_bytes() == (workdir / "r2" / name).read_bytes()


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
def test_walk_summary_equals_whole_matrix_columns(workdir, seed):
    n, trials = 30, 2100
    out = workdir / f"sum{seed}"
    assert run(["walk", "--spec", workdir / "fib.json", "--gens", workdir / "gens.json",
                "--n", n, "--trials", trials, "--seed", seed, "--format", "json",
                "--out", out]) == 0
    spec = load_spec(workdir / "fib.json")
    gens, _ = load_generator_set(workdir / "gens.json", spec)
    sample = sample_orbit_walks(uniform_measure(gens), canonical_point(spec), n, trials, seed)
    # the summary as it was computed from one float64 copy of the whole matrix
    offs = sample.offsets.astype(np.float64)
    expected = [
        {"j": j, "mean": float(offs[:, j].mean()), "std": float(offs[:, j].std()),
         "mean_abs": float(np.abs(offs[:, j]).mean()),
         "max_abs": int(np.abs(sample.offsets[:, j]).max())}
        for j in range(n + 1)
    ]
    assert json.loads((out / "walk_summary.json").read_text()) == expected


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
