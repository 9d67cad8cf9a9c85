"""CLI subcommands, exit codes, file formats."""

import hashlib
import json
import os
import random
import time
from fractions import Fraction

import pytest

from looptool import verify
from looptool.cli import main
from looptool.knots import FIELD_SQRT21, TaggedValue, fixture
from looptool.numberfield import QQ, NumberField
from looptool.powersum import CoverPolynomial
from looptool.synth import random_nz_data, random_vertex_table

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_avg_geometric(capsys):
    code, out, _ = run(["avg", "--f", os.path.join(DATA, "one_over_1_minus_2t.json"),
                        "--n", "3"], capsys)
    assert code == 0 and out.strip() == "-3/7"


def test_avg_constant(capsys):
    code, out, _ = run(["avg", "--f", os.path.join(DATA, "const_one.json"),
                        "--n", "5"], capsys)
    assert code == 0 and out.strip() == "5"


def test_avg_phi_table_with_unit(capsys):
    code, out, _ = run(["avg", "--f", os.path.join(DATA, "phi2_41.json"),
                        "--n", "1", "--numeric-check", "25"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "17/216 (unit sqrt(-3))"
    assert "numeric check" in lines[1]


def test_avg_pole_exit_code(tmp_path, capsys):
    bad = {"field": {"minpoly": ["0", "1"]},
           "num": {"0": "1"}, "den": {"0": "1", "1": "-1"}}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["avg", "--f", str(path), "--n", "4"], capsys)
    assert code == 2 and "domain" in err


def test_avg_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nonsense": 1}))
    code, _, _ = run(["avg", "--f", str(path), "--n", "2"], capsys)
    assert code == 1


def test_knot_41_mode_all(capsys):
    code, out, _ = run(["knot", "--knot", "4_1", "--loop", "2",
                        "--nmax", "6", "--mode", "all"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "1,17/216 (unit sqrt(-3))"


def test_knot_52_average(capsys):
    code, out, _ = run(["knot", "--knot", "5_2", "--loop", "2",
                        "--nmax", "3", "--mode", "average"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_knot_52_closed_unavailable(capsys):
    code, _, err = run(["knot", "--knot", "5_2", "--loop", "2",
                        "--nmax", "2", "--mode", "closed"], capsys)
    assert code == 1


def test_knot_nmax_zero_usage_error(capsys):
    code, _, _ = run(["knot", "--knot", "4_1", "--loop", "2", "--nmax", "0"],
                     capsys)
    assert code == 1


def test_knot_from_bundle_file(capsys):
    code, out, _ = run(["knot", "--knot",
                        os.path.join(DATA, "synthetic_theta_bundle.json"),
                        "--loop", "2", "--nmax", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    # n = 1 value is the plain theta weight plus zero vacuum term
    assert lines[0].startswith("1,")


@pytest.mark.parametrize("mode", ["average", "closed", "series"])
def test_knot_from_bundle_file_rejects_a_route(mode, capsys):
    # a bundle file has one route, so only the default mode applies to it
    code, out, err = run(["knot", "--knot",
                          os.path.join(DATA, "synthetic_theta_bundle.json"),
                          "--loop", "2", "--nmax", "3", "--mode", mode], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_reconstruct_roundtrip(tmp_path, capsys):
    fx = fixture("4_1")
    rows = []
    for n in range(1, 21):
        v = fx.phi_average(2, n)
        rows.append(f"{n},{v.value.coords[0]},0,sqrt(-3)")
    values = tmp_path / "values.csv"
    values.write_text("\n".join(rows) + "\n")
    out_path = tmp_path / "p.json"
    code, out, _ = run(["reconstruct", "--values", str(values),
                        "--roots", os.path.join(DATA, "roots_4_1.json"),
                        "--ell", "2", "--r", "1", "--holdout", "17",
                        "--out", str(out_path)], capsys)
    assert code == 0 and "17 holdout rows validated" in out
    obj = json.loads(out_path.read_text())
    assert obj["unit"] == "sqrt(-3)"
    from looptool.powersum import CoverPolynomial
    p = CoverPolynomial.from_json(obj, FIELD_SQRT21)
    from fractions import Fraction
    assert p.terms[((0,), 1)] == Fraction(55, 1512)


def test_reconstruct_holdout_mismatch_exit_5(tmp_path, capsys):
    fx = fixture("4_1")
    rows = []
    for n in range(1, 6):
        v = fx.phi_average(2, n)
        q = v.value.coords[0]
        if n == 5:
            q += 1
        rows.append(f"{n},{q},0,sqrt(-3)")
    values = tmp_path / "values.csv"
    values.write_text("\n".join(rows) + "\n")
    code, _, err = run(["reconstruct", "--values", str(values),
                        "--roots", os.path.join(DATA, "roots_4_1.json"),
                        "--ell", "2", "--r", "1"], capsys)
    assert code == 5
    # the planted disagreement: one line naming n, p(n) and the input value
    good = fx.phi_average(2, 5).value.coords[0]
    assert err.strip().splitlines() == [
        f"holdout mismatch: reconstruction fails at held-out n = 5: recovered "
        f"polynomial p(5) = {good}, input value = {good + 1}"]


def test_reconstruct_singular_exit_4(tmp_path, capsys):
    roots = {"field": {"minpoly": ["0", "1"]}, "roots": ["1"]}
    rpath = tmp_path / "roots.json"
    rpath.write_text(json.dumps(roots))
    values = tmp_path / "values.csv"
    values.write_text("\n".join(f"{n},{n}" for n in (1, 2, 3)) + "\n")
    code, _, _ = run(["reconstruct", "--values", str(values),
                      "--roots", str(rpath), "--ell", "2", "--r", "1"], capsys)
    assert code in (2, 4)  # resonance surfaces as domain or singular error


def test_avg_phi3_table(capsys):
    code, out, _ = run(["avg", "--f", os.path.join(DATA, "phi3_41.json"),
                        "--n", "1"], capsys)
    assert code == 0 and out.strip() == "-7/108"


def test_verify_suites_pass(capsys):
    code, out, _ = run(["verify", "--suite", "quadratic", "--seed", "1"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_verify_all_release_gate(capsys):
    code, out, _ = run(["verify", "--suite", "all"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_precision_env_var(capsys, monkeypatch):
    # precision is verify's --prec alone: avg ignores the environment
    monkeypatch.setenv("LOOPTOOL_PREC", "not-a-number")
    code, out, _ = run(["avg", "--f", os.path.join(DATA, "const_one.json"),
                        "--n", "2"], capsys)
    assert code == 0 and out == "2\n"
    code, _, err = run(["verify", "--suite", "quadratic", "--prec", "0"], capsys)
    _one_line_usage_error(code, err)


def test_verify_repro_line_runs(capsys, monkeypatch):
    real = verify.SUITES["quadratic"]

    def first_fails(seed, prec):
        (name, _, repro), *rest = real(seed, prec)
        return [(name, False, repro)] + rest

    monkeypatch.setitem(verify.SUITES, "quadratic", first_fails)
    code, out, _ = run(["verify", "--suite", "quadratic", "--seed", "3",
                        "--prec", "40"], capsys)
    repro = [line.split("repro: ")[1] for line in out.splitlines() if "repro: " in line]
    assert code == 1 and repro == ["looptool verify --suite quadratic --seed 3 --prec 40"]
    monkeypatch.undo()
    code, out, _ = run(repro[0].split()[1:], capsys)
    assert code == 0 and "FAIL" not in out


def test_deterministic_output(capsys):
    c1, out1, _ = run(["knot", "--knot", "4_1", "--loop", "3", "--nmax", "4",
                       "--mode", "all"], capsys)
    c2, out2, _ = run(["knot", "--knot", "4_1", "--loop", "3", "--nmax", "4",
                       "--mode", "all"], capsys)
    assert c1 == c2 == 0 and out1 == out2


def _one_line_usage_error(code, err):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_reconstruct_non_integer_n_exit_1(tmp_path, capsys):
    values = tmp_path / "values.csv"
    values.write_text("1,17/216,0,sqrt(-3)\n2.5,1,0,sqrt(-3)\n")
    code, _, err = run(["reconstruct", "--values", str(values),
                        "--roots", os.path.join(DATA, "roots_4_1.json"),
                        "--ell", "2", "--r", "1"], capsys)
    _one_line_usage_error(code, err)
    assert "'2.5'" in err


def test_reconstruct_n_below_one_exit_1(tmp_path, capsys):
    # n = 0 reached the solve and ended in a math domain error, and negative
    # n were reconstructed as if they were cover orders
    values = tmp_path / "values.csv"
    for first in (-1, 0):
        rows = [f"{n},17/216,0,sqrt(-3)" for n in range(first, first - 4, -1)]
        values.write_text("# n,coords\n" + "\n".join(rows) + "\n")
        code, out, err = run(["reconstruct", "--values", str(values),
                              "--roots", os.path.join(DATA, "roots_4_1.json"),
                              "--ell", "2", "--r", "1"], capsys)
        _one_line_usage_error(code, err)
        assert out == "" and f"{values} line 2 '{rows[0]}'" in err
        assert f"n must be at least 1, got {first}" in err


def test_reconstruct_repeated_n_exit_1(tmp_path, capsys):
    # a repeated n made the reconstruction system singular: exit 4, blaming
    # the roots or the window instead of the row
    fx = fixture("4_1")
    rows = [f"{n},{fx.phi_average(2, n).value.coords[0]},0,sqrt(-3)" for n in (1, 1, 2, 3, 4)]
    values = tmp_path / "values.csv"
    values.write_text("# n,coords\n" + "\n".join(rows) + "\n")
    code, out, err = run(["reconstruct", "--values", str(values),
                          "--roots", os.path.join(DATA, "roots_4_1.json"),
                          "--ell", "2", "--r", "1"], capsys)
    _one_line_usage_error(code, err)
    assert out == "" and f"{values} line 3 '{rows[1]}': n = 1 repeats line 2" in err


def test_reconstruct_bad_n_names_the_line(tmp_path, capsys):
    values = tmp_path / "values.csv"
    values.write_text("1,17/216,0,sqrt(-3)\n\nx,1,0,sqrt(-3)\n")
    code, out, err = run(["reconstruct", "--values", str(values),
                          "--roots", os.path.join(DATA, "roots_4_1.json"),
                          "--ell", "2", "--r", "1"], capsys)
    _one_line_usage_error(code, err)
    assert out == "" and f"{values} line 3 'x,1,0,sqrt(-3)': bad n 'x'" in err


def test_reconstruct_negative_holdout_exit_1(tmp_path, capsys):
    values = tmp_path / "values.csv"
    fx = fixture("4_1")
    values.write_text("".join(f"{n},{fx.phi_average(2, n).value.coords[0]},0,sqrt(-3)\n"
                              for n in range(1, 4)))
    code, out, err = run(["reconstruct", "--values", str(values),
                          "--roots", os.path.join(DATA, "roots_4_1.json"),
                          "--ell", "2", "--r", "1", "--holdout", "-5"], capsys)
    _one_line_usage_error(code, err)
    assert out == "" and "--holdout must be at least 0, got -5" in err


def test_reconstruct_ell_below_two_exit_1(tmp_path, capsys):
    values = tmp_path / "values.csv"
    values.write_text("1,17/216,0,sqrt(-3)\n")
    for ell in ("1", "0", "-3"):
        code, _, err = run(["reconstruct", "--values", str(values),
                            "--roots", os.path.join(DATA, "roots_4_1.json"),
                            "--ell", ell, "--r", "1"], capsys)
        _one_line_usage_error(code, err)
        assert "--ell" in err


def test_invalid_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": {"minpoly": ["0", "1"]},\n "num": ')
    values = tmp_path / "values.csv"
    values.write_text("1,1\n")
    for argv in (["avg", "--f", str(bad), "--n", "2"],
                 ["knot", "--knot", str(bad), "--loop", "2", "--nmax", "2"],
                 ["reconstruct", "--values", str(values), "--roots", str(bad),
                  "--ell", "2", "--r", "1"]):
        code, _, err = run(argv, capsys)
        _one_line_usage_error(code, err)
        assert "invalid JSON" in err


@pytest.mark.parametrize("case", ["avg-directory", "knot-directory", "avg-binary",
                                  "reconstruct-binary", "reconstruct-out-directory"])
def test_unreadable_input_or_output_exit_1(case, tmp_path, capsys):
    """A directory where a file is read or written, or a file that does not
    decode as text, ends in one `error:` line naming it, not a traceback."""
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"\xff\xfe{}\n")
    fx = fixture("4_1")
    values = tmp_path / "values.csv"
    values.write_text("".join(f"{n},{fx.phi_average(2, n).value.coords[0]},0,sqrt(-3)\n"
                              for n in (1, 2, 3)))
    reconstruct = ["reconstruct", "--roots", os.path.join(DATA, "roots_4_1.json"),
                   "--ell", "2", "--r", "1", "--values"]
    argv, named = {
        "avg-directory": (["avg", "--f", str(tmp_path), "--n", "3"], tmp_path),
        "knot-directory": (["knot", "--knot", str(tmp_path), "--loop", "2",
                            "--nmax", "3"], tmp_path),
        "avg-binary": (["avg", "--f", str(binary), "--n", "3"], binary),
        "reconstruct-binary": (reconstruct + [str(binary)], binary),
        "reconstruct-out-directory": (reconstruct + [str(values), "--out", str(tmp_path)],
                                      tmp_path),
    }[case]
    code, out, err = run(argv, capsys)
    _one_line_usage_error(code, err)
    assert str(named) in err and out == ""


def test_avg_zero_denominator_exit_1(tmp_path, capsys):
    for den in ({}, {"0": "0"}):
        path = tmp_path / "zero_den.json"
        path.write_text(json.dumps({"field": {"minpoly": ["0", "1"]},
                                    "num": {"0": "1"}, "den": den}))
        code, _, err = run(["avg", "--f", str(path), "--n", "3"], capsys)
        _one_line_usage_error(code, err)
        assert "zero denominator" in err


def _reconstruct_with_roots(tmp_path, capsys, roots_obj):
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps(roots_obj))
    values = tmp_path / "values.csv"
    values.write_text("1,17/216,0,sqrt(-3)\n")
    return run(["reconstruct", "--values", str(values), "--roots", str(roots),
                "--ell", "2", "--r", "1"], capsys)


def test_reconstruct_roots_without_field_exit_1(tmp_path, capsys):
    code, _, err = _reconstruct_with_roots(tmp_path, capsys, {"roots": ["2"]})
    _one_line_usage_error(code, err)
    assert "'field'" in err


def test_reconstruct_roots_without_roots_exit_1(tmp_path, capsys):
    with open(os.path.join(DATA, "roots_4_1.json")) as fh:
        obj = json.load(fh)
    del obj["roots"]
    code, _, err = _reconstruct_with_roots(tmp_path, capsys, obj)
    _one_line_usage_error(code, err)
    assert "'roots'" in err


def test_knot_diagrams_not_a_list_exit_1(tmp_path, capsys):
    with open(os.path.join(DATA, "synthetic_theta_bundle.json")) as fh:
        obj = json.load(fh)
    obj["diagrams"] = {"a": 1}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(["knot", "--knot", str(path), "--loop", "2",
                        "--nmax", "2"], capsys)
    _one_line_usage_error(code, err)
    assert "diagrams" in err


def test_bundle_table_golden(capsys):
    # exact outputs far beyond the n <= 3 reach of the weight_direct oracle
    code, out, _ = run(["knot", "--knot",
                        os.path.join(DATA, "synthetic_theta_bundle.json"),
                        "--loop", "2", "--nmax", "40"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "480867719df60f666a11f3a23bc6fc39b4691f8b274a032bb40ac7cae9e87ddb"


def _seeded_bundle(path, seed, N, nmax):
    """A knot file with seeded NZ data of N tetrahedra, regular at the n-th
    roots of unity for n <= nmax, and the theta, dumbbell and figure-eight
    diagrams with random vertex tables."""
    rng = random.Random(seed)
    data = random_nz_data(rng, N, regular_orders=range(1, nmax + 1))
    diagrams = []
    for edges, degrees, sigma in (([[0, 1]] * 3, [3, 3], "12"),
                                  ([[0, 0], [0, 1], [1, 1]], [3, 3], "8"),
                                  ([[0, 0]] * 2, [4], "8")):
        table = random_vertex_table(rng, N, set(degrees), {d: -1 for d in degrees})
        diagrams.append({"vertices": [{"degree": d} for d in degrees],
                         "edges": edges, "symmetry_factor": sigma,
                         **table.to_json()})
    diagrams[0]["gamma0"] = {"value": str(Fraction(rng.randint(-9, 9), 7)),
                             "grade": 1}
    path.write_text(json.dumps({"nz": data.to_json(), "diagrams": diagrams}))
    return str(path)


@pytest.mark.parametrize("seed, N, digest", [
    (5, 2, "fcf6b286d6828b3de703234764e41878fc7b1e1ee3f853d4d7bc1faa4c717291"),
    (6, 3, "a516387095cb7f2799a7f8c112f318c82b5cfcd0d207182ac4ca2395f742fdb0"),
], ids=["N2", "N3"])
def test_seeded_bundle_table_golden(tmp_path, capsys, seed, N, digest):
    path = _seeded_bundle(tmp_path / "bundle.json", seed, N, 40)
    code, out, _ = run(["knot", "--knot", path, "--loop", "2", "--nmax", "40"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["--knot", "5_2", "--loop", "3", "--nmax", "25", "--mode", "average"],
     "1636f6b4711efc3a137184069544eb6fbbb65f32cf6debcbf5314b29e367abf3"),
    (["--knot", "4_1", "--loop", "3", "--nmax", "60", "--mode", "all"],
     "a71ad6cd123753308f242513ace5c22daa6efb42c5870cda89b21961e3d1f8cc"),
    (["--knot", "5_2", "--loop", "3", "--nmax", "80", "--mode", "average"],
     "91ed99d0e5337464b6d66a914e2b96399a6f1f7df54820e0ca2669f407ffe8b2"),
    (["--knot", "4_1", "--loop", "3", "--nmax", "200", "--mode", "average"],
     "ba0f867107a5f39c32af914824ddce2d4c2ad17de1699ef5a1a2886dce1d9457"),
], ids=["5_2-average", "4_1-all", "5_2-average-80", "4_1-average-200"])
def test_knot_table_golden(argv, digest, capsys):
    code, out, _ = run(["knot"] + argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reconstruct_41_golden(tmp_path, monkeypatch, capsys):
    # the 4_1 l = 3, r = 1 reconstruction from the knot table's own values
    code, out, _ = run(["knot", "--knot", "4_1", "--loop", "3", "--nmax", "13",
                        "--mode", "average"], capsys)
    assert code == 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "values.csv").write_text(out)
    code, out, _ = run(["reconstruct", "--values", "values.csv",
                        "--roots", os.path.abspath(os.path.join(DATA, "roots_4_1.json")),
                        "--ell", "3", "--r", "1", "--holdout", "3",
                        "--out", "poly.json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0ea4356d96760daa858cec7f606d44fcaab779b3f88534cf88ceaf7dacfc9308"
    assert hashlib.sha256((tmp_path / "poly.json").read_bytes()).hexdigest() == \
        "e4daeb20ffa3105ebbe22b6dd641ea1114363b78c859811c63cee8936a25f1d3"


def test_avg_over_a_non_integral_field_golden(tmp_path, capsys):
    # xi / (1 - 3t) over xi^2 = 1/2 sums to -xi/20 over the fourth roots of
    # unity; the field's minimal polynomial is not integral
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"field": {"minpoly": ["-1/2", "0", "1"]},
                                "num": {"0": {"coords": ["0", "1"]}},
                                "den": {"0": "1", "1": "-3"}}))
    code, out, _ = run(["avg", "--f", str(path), "--n", "4", "--numeric-check", "20"],
                       capsys)
    assert code == 0
    assert out == ("0,-1/20\n"
                   "numeric check: (0.03535533905932737622 + 0.0j) (|err| = 0.0)\n")


def test_reconstruct_over_a_non_integral_field_golden(tmp_path, capsys):
    # a planted l = 3, r = 1 polynomial over xi^2 = 3/4 with the root xi + 2,
    # its values summed term by term in field arithmetic
    field = NumberField(["-3/4", 0, 1])
    lam = field.generator() + 2
    terms = {key: field.element([Fraction(key[0][0] + 1, key[1] + 2),
                                 Fraction(key[0][0] - key[1], 3)])
             for key in CoverPolynomial.basis(1, 3)}
    rows = []
    for n in range(1, 14):
        x = (field.one() - lam ** n).inverse()
        value = sum((c * n ** beta * x ** a for ((a,), beta), c in terms.items()),
                    field.zero())
        rows.append(",".join([str(n), *map(str, value.coords)]))
    values = tmp_path / "values.csv"
    values.write_text("\n".join(rows) + "\n")
    assert hashlib.sha256(values.read_bytes()).hexdigest() == \
        "b7145daa15700b32668f8a48b0ee3354de8165dc52864d47e9e6612daf153ad9"
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps({"field": field.to_json(), "roots": [lam.to_json()]}))
    code, out, _ = run(["reconstruct", "--values", str(values), "--roots", str(roots),
                        "--ell", "3", "--r", "1", "--out", str(tmp_path / "poly.json")],
                       capsys)
    assert code == 0 and out.startswith(
        "recovered 10 coefficients from 10 values; 3 holdout rows validated exactly\n")
    assert hashlib.sha256((tmp_path / "poly.json").read_bytes()).hexdigest() == \
        "dbcaafce49f0a59b3aac39c84322a0324fdb0a040b507a3b554fbe77dc073bae"


def test_knot_cross_check_failure_names_routes_and_values(monkeypatch, capsys):
    fx = fixture("4_1")
    real = fx.series_value

    def off_at_three(ell, n):
        value = real(ell, n)
        return TaggedValue(value.value * 2, value.sqrt_m3) if n == 3 else value

    monkeypatch.setattr(fx, "series_value", off_at_three)
    code, out, err = run(["knot", "--knot", "4_1", "--loop", "3",
                          "--nmax", "5", "--mode", "all"], capsys)
    assert code == 3
    assert len(out.strip().splitlines()) == 2
    good = fx.phi_average(3, 3).value
    assert err.strip().splitlines() == [
        f"cross-check failure: average and series disagree at n = 3: "
        f"average = {good.coords[0]}, series = {(good * 2).coords[0]}"]


def test_knot_all_compares_the_residue_route_on_every_row(monkeypatch, capsys):
    # 5_2 has two routes; --mode all checks the cover polynomial against the
    # M_u solve at each n
    fx = fixture("5_2")
    real = fx.phi_residue
    rows = []

    def off_at_four(ell, n):
        rows.append(n)
        value = real(ell, n)
        return TaggedValue(value.value * 2, value.sqrt_m3) if n == 4 else value

    monkeypatch.setattr(fx, "phi_residue", off_at_four)
    code, out, err = run(["knot", "--knot", "5_2", "--loop", "2",
                          "--nmax", "6", "--mode", "all"], capsys)
    assert code == 3 and rows == [1, 2, 3, 4]
    assert len(out.strip().splitlines()) == 3
    assert err.startswith("cross-check failure: average and residue disagree at n = 4")


def test_avg_phi_table_keeps_cancelling_root_of_unity_pole(tmp_path, capsys):
    # delta = (t - 1)^2 / t vanishes at t = 1, but delta / delta = 1
    path = tmp_path / "cancel.json"
    path.write_text(json.dumps({"delta": {"1": "1", "0": "-2", "-1": "1"},
                                "delta_powers": {"1": ["0"], "0": ["1"]}}))
    code, out, _ = run(["avg", "--f", str(path), "--n", "4"], capsys)
    assert code == 0 and out.strip() == "4"


#: (delta, delta_powers) -> stdout or stderr line of `avg` at n = 1..6: delta
#: vanishes at t = 1 (every n) or at t = -1 (even n); the rows with k > 0
#: vanish at every n in the first table and at n = 2 in the second
CANCELLING_TABLES = {
    "delta-over-delta": ({"1": "1", "0": "-2", "-1": "1"}, {"1": ["0"], "0": ["1"]},
                         ["1", "2", "3", "4", "5", "6"]),
    "1-2/n-over-1+t": ({"0": "1", "1": "1"}, {"1": ["1", "-2"]},
                       ["-1/2", "0", "1/2", "!4", "3/2", "!6"]),
}


@pytest.mark.parametrize("name", sorted(CANCELLING_TABLES))
def test_avg_phi_table_rows_cancelling_at_n(name, tmp_path, capsys):
    # the sum is that of the integrand reduced at n: a Laurent polynomial
    # where every row with k > 0 vanishes, a pole where one is left
    delta, powers, expect = CANCELLING_TABLES[name]
    path = tmp_path / "cancel.json"
    path.write_text(json.dumps({"delta": delta, "delta_powers": powers}))
    for n, line in enumerate(expect, 1):
        code, out, err = run(["avg", "--f", str(path), "--n", str(n)], capsys)
        if line.startswith("!"):
            assert (code, out) == (2, "") and err == (
                f"math domain error: denominator vanishes at an {line[1:]}-th "
                f"root of unity\n"), n
        else:
            assert (code, out, err) == (0, line + "\n", ""), n


def test_avg_prints_values_past_4300_digits(tmp_path, capsys):
    # sum over the n-th roots of unity of 1/(1 - 3t) is n / (1 - 3^n)
    path = tmp_path / "geometric.json"
    path.write_text(json.dumps({"num": {"0": "1"}, "den": {"0": "1", "1": "-3"}}))
    code, out, _ = run(["avg", "--f", str(path), "--n", "20000"], capsys)
    expect = str(Fraction(20000, 1 - 3 ** 20000))
    assert len(expect) == 9542
    assert code == 0 and out == expect + "\n"


def test_format_value_prints_a_rational_as_fraction_does():
    # a rational value prints from num and den, as str(Fraction) prints it
    row = fixture("4_1").phi_average(3, 2000).value
    assert row.field.degree == 1 and row.den > 1
    values = [row, -row, QQ.zero(), QQ.element(-7), FIELD_SQRT21.element(Fraction(-3, 4))]
    for value in values:
        assert str(TaggedValue(value)) == str(value.rational_value())
    assert str(TaggedValue(row, True)) == f"{row.rational_value()} (unit sqrt(-3))"


def test_reconstruct_reads_coordinates_past_4300_digits(tmp_path, capsys):
    # two rows where r = 1, ell = 2 needs three: the row count is the error
    values = tmp_path / "values.csv"
    values.write_text(f"1,{'7' * 5000}/3,0\n2,1,0\n")
    code, _, err = run(["reconstruct", "--values", str(values),
                        "--roots", os.path.join(DATA, "roots_4_1.json"),
                        "--ell", "2", "--r", "1"], capsys)
    _one_line_usage_error(code, err)
    assert err == "error: need 3 + 0 values, got 2\n"


def _avg_with_delta_powers(tmp_path, capsys, delta_powers):
    with open(os.path.join(DATA, "phi2_41.json")) as fh:
        obj = json.load(fh)
    obj["delta_powers"] = delta_powers
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(obj))
    return run(["avg", "--f", str(path), "--n", "3"], capsys)


def test_avg_delta_powers_non_integer_key_exit_1(tmp_path, capsys):
    code, _, err = _avg_with_delta_powers(tmp_path, capsys, {"x": ["1"]})
    _one_line_usage_error(code, err)
    assert "'x'" in err


def test_avg_delta_powers_list_exit_1(tmp_path, capsys):
    code, _, err = _avg_with_delta_powers(tmp_path, capsys, [["1"]])
    _one_line_usage_error(code, err)
    assert "delta_powers" in err


def test_avg_delta_powers_empty_exit_1(tmp_path, capsys):
    code, _, err = _avg_with_delta_powers(tmp_path, capsys, {})
    _one_line_usage_error(code, err)
    assert "delta_powers" in err


def test_avg_delta_powers_coefficients_not_a_list_exit_1(tmp_path, capsys):
    # a string would otherwise be read character by character
    code, _, err = _avg_with_delta_powers(tmp_path, capsys, {"1": "12"})
    _one_line_usage_error(code, err)
    assert "list" in err


def test_avg_delta_powers_negative_keys(tmp_path, capsys):
    # delta^1 = t - 5 + 1/t sums to 3 * (-5) over the cube roots of unity
    code, out, _ = _avg_with_delta_powers(tmp_path, capsys, {"-1": ["1"]})
    assert code == 0 and out.strip() == "-15 (unit sqrt(-3))"


@pytest.mark.parametrize("num, den, span", [
    ({"0": "1"}, {"1000000000": "1", "0": "-3"}, 1000000000),
    ({"1000000000": "1"}, {"0": "1", "1": "-3"}, 1000000000),
    ({"0": "1"}, {"1000000000": "1", "999999999": "-3"}, 1000000000),
], ids=["den", "far-numerator", "far-denominator"])
def test_avg_huge_exponent_span_exit_1(num, den, span, tmp_path, capsys):
    # dense lists over 10^9 exponents would exhaust memory: the span of the
    # integrand is rejected from the exponent keys, before anything is built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"num": num, "den": den}))
    start = time.perf_counter()
    code, _, err = run(["avg", "--f", str(path), "--n", "3"], capsys)
    assert time.perf_counter() - start < 1.0
    _one_line_usage_error(code, err)
    assert f"'num' and 'den' give exponents of t from 0 to {span}" in err
    assert f"a span of {span} above the bound of 4096" in err


@pytest.mark.parametrize("delta, powers, span", [
    (None, {"-1000000": ["1"]}, 2000000),
    ({"1000000000": "1", "1000000001": "1"}, {"1": ["1"]}, 1000000001),
], ids=["negative-key", "far-delta"])
def test_avg_delta_powers_huge_span_exit_1(delta, powers, span, tmp_path, capsys):
    with open(os.path.join(DATA, "phi2_41.json")) as fh:
        obj = json.load(fh)
    obj["delta"] = delta or obj["delta"]
    obj["delta_powers"] = powers
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, _, err = run(["avg", "--f", str(path), "--n", "3"], capsys)
    assert time.perf_counter() - start < 1.0
    _one_line_usage_error(code, err)
    assert f"delta_powers keys '{min(powers)}' to" in err
    assert f"a span of {span} above the bound of 4096" in err


def _set(path, value):
    """A mutation of the theta bundle: set the item at `path` to `value`, or
    replace the whole file's JSON by `value` when `path` is empty."""
    def mutate(obj):
        if not path:
            return value
        item = obj
        for key in path[:-1]:
            item = item[key]
        item[path[-1]] = value
        return obj
    return mutate


@pytest.mark.parametrize("mutate, fragment", [
    (_set(("nz", "A"), [5]), "{exp, matrix}"),
    (_set(("nz", "A", 0, "matrix"), 5), "wrong shape"),
    (_set(("nz", "A", 0, "exp"), "x"), "exp must be an integer"),
    (_set(("nz", "N"), "two"), "N must be an integer"),
    (_set(("nz", "shapes"), 5), "'shapes'"),
    (_set(("nz", "peripheral"), 3), "'peripheral'"),
    (_set(("diagrams", 0, "edges"), [[0, 1, 2]]), "'edges'"),
    (_set(("diagrams", 0, "vertices"), [1, 2]), "'vertices'"),
    (_set(("diagrams", 0, "gamma0"), 5), "'gamma0'"),
    (_set(("diagrams", 0, "vertex_factors"), {"3": "1/2"}), "must be a list"),
    # checked before the N x N coefficient matrices are allocated
    (_set(("nz", "N"), 10 ** 9), "number of shapes disagrees with N"),
    (_set((), 5), "expected a JSON object"),
    (_set((), None), "expected a JSON object"),
    (_set((), True), "expected a JSON object"),
    # "nz" in a string is a substring test
    (_set((), "nz diagrams"), "expected a JSON object"),
], ids=["A-item", "matrix", "exp", "N", "shapes", "peripheral", "edges",
        "vertices", "gamma0", "vertex-factors", "N-huge", "int", "null", "bool",
        "string"])
def test_knot_malformed_bundle_exit_1(mutate, fragment, tmp_path, capsys):
    with open(os.path.join(DATA, "synthetic_theta_bundle.json")) as fh:
        obj = mutate(json.load(fh))
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(["knot", "--knot", str(path), "--loop", "2",
                        "--nmax", "3"], capsys)
    _one_line_usage_error(code, err)
    assert fragment in err


def test_avg_numeric_check_below_one_exit_1(capsys):
    for digits in ("-5", "0"):
        code, out, err = run(["avg", "--f", os.path.join(DATA, "phi2_41.json"),
                              "--n", "2", "--numeric-check", digits], capsys)
        _one_line_usage_error(code, err)
        assert out == "" and "--numeric-check" in err


def test_reconstruct_r_below_one_exit_1(tmp_path, capsys):
    with open(os.path.join(DATA, "roots_4_1.json")) as fh:
        obj = json.load(fh)
    obj["roots"] = []
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps(obj))
    values = tmp_path / "values.csv"
    values.write_text("1,17/216,0,sqrt(-3)\n")
    code, _, err = run(["reconstruct", "--values", str(values), "--roots", str(roots),
                        "--ell", "2", "--r", "0"], capsys)
    _one_line_usage_error(code, err)
    assert "--r" in err


def test_reconstruct_root_index_not_an_integer_exit_1(tmp_path, capsys):
    with open(os.path.join(DATA, "roots_4_1.json")) as fh:
        obj = json.load(fh)
    obj["roots"][0]["root_index"] = "a"
    code, _, err = _reconstruct_with_roots(tmp_path, capsys, obj)
    _one_line_usage_error(code, err)
    assert "root_index" in err


def test_reconstruct_roots_not_a_list_exit_1(tmp_path, capsys):
    # a string would otherwise be read character by character
    with open(os.path.join(DATA, "roots_4_1.json")) as fh:
        obj = json.load(fh)
    obj["roots"] = "abc"
    code, _, err = _reconstruct_with_roots(tmp_path, capsys, obj)
    _one_line_usage_error(code, err)
    assert "'roots' must be a list" in err


@pytest.mark.parametrize("bad", ["2,sqrt(-3)", "2", "2,1,0,1,sqrt(-3)", "2,1,0,1",
                                 "sqrt(-3)"])
def test_reconstruct_row_without_one_to_degree_values_exit_1(bad, tmp_path, capsys):
    # a row with no value once read as 0; the field Q(sqrt21) has degree 2
    fx = fixture("4_1")
    rows = [f"{n},{fx.phi_average(2, n).value.coords[0]},0,sqrt(-3)" for n in (1, 2, 3)]
    rows[1] = bad
    values = tmp_path / "values.csv"
    values.write_text("# n, value, unit\n" + "\n".join(rows) + "\n")
    code, _, err = run(["reconstruct", "--values", str(values),
                        "--roots", os.path.join(DATA, "roots_4_1.json"),
                        "--ell", "2", "--r", "1", "--out", str(tmp_path / "p.json")],
                       capsys)
    _one_line_usage_error(code, err)
    assert str(values) in err and f"line 3 {bad!r}" in err
    assert not (tmp_path / "p.json").exists()
