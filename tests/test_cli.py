"""End-to-end runs of the command line interface."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from nto1 import Field, Poly, cli, field_from_spec, is_n_to_1, verify

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env_extra=None, timeout=600):
    env = os.environ.copy()
    env.pop("NTO1_NIGHTLY", None)
    # the child imports nto1 from this checkout, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "nto1.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def main_in_process(monkeypatch, capsys, *args):
    """cli.main(args) in this process: (exit code, stdout, stderr)."""
    monkeypatch.delenv("NTO1_NIGHTLY", raising=False)
    try:
        rc = cli.main(list(args))
    except SystemExit as e:  # argparse refuses bad usage with exit 2
        rc = e.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def data_rows(stdout):
    return [line for line in stdout.splitlines() if line and not line.startswith("#")]


def test_classify_cubic_over_gf7(monkeypatch, capsys):
    # the installed entry point, in a fresh interpreter
    r = run_cli("classify", "--field", "p=7,m=1", "--poly", "x^3")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == '{"domain_size":7,"exception":[0,1],"irregular":false,"n":3}'
    # a leading minus needs the = form, or argparse reads it as an option
    rc, out, err = main_in_process(monkeypatch, capsys, "classify", "--field", "p=7,m=1",
                                   "--poly=-x^2+1")
    assert rc == 0, err
    assert out.strip() == '{"domain_size":7,"exception":[1,1],"irregular":false,"n":2}'


def test_field_resolution_and_element_decode(monkeypatch, capsys):
    rc, out, err = main_in_process(monkeypatch, capsys, "field", "--field", "p=3,m=2")
    assert rc == 0, err
    assert json.loads(out) == {"beta": [1, 1], "m": 2, "modulus": [1, 0, 1], "p": 3}
    _, out, _ = main_in_process(monkeypatch, capsys, "field", "--field", "p=3,m=2", "--element", "5")
    assert json.loads(out) == {"code": 5, "coeffs": [2, 1], "order": 8}


def test_verify_theorem_with_field_filter(monkeypatch, capsys):
    rc, out, err = main_in_process(monkeypatch, capsys, "verify-theorem", "de3p3",
                                   "--field", "p=3,m=3")
    assert rc == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("#schema=de3p3.v1:q,a,b,predicate,brute")
    rows = [line.split(",") for line in data_rows(out)]
    assert len(rows) == 729
    assert all(row[3] == row[4] for row in rows)
    assert sum(row[3] == "1" for row in rows) == 13


def test_lowdeg_cubic_rows_match_the_verify_rows(monkeypatch, capsys):
    by_field = {}
    for q, a, b, pred, got in verify.run("de3p3").rows:
        by_field.setdefault(q, []).append((a, b, pred, got))
    for q, b, pred, got in verify.run("de3pne3").rows:
        by_field.setdefault(q, []).append((0, b, pred, got))
    for field, q in (("p=3,m=2", 9), ("p=7,m=1", 7), ("p=2,m=4", 16)):
        rc, out, err = main_in_process(monkeypatch, capsys, "lowdeg", "--degree", "3",
                                       "--field", field)
        assert rc == 0, err
        assert out.startswith("#schema=lowdeg3.v1:a,b,predicted,brute_force,agree\n")
        want = [f"{a},{b},{p},{g},{int(p == g)}" for a, b, p, g in by_field[q]]
        assert len(want) == (q * q if q == 9 else q)
        assert data_rows(out) == want


def test_sweep_rows_match_the_verify_rows(monkeypatch, capsys):
    sub, big = Field(3, 3), Field(3, 6)
    rc, out, err = main_in_process(monkeypatch, capsys, "sweep", "gouzao1", "--q1", "27")
    assert rc == 0, err
    rows = verify.run("gouzao1").rows
    assert f"#positives={sum(row[2] for row in rows)}\n" in out
    assert data_rows(out) == [
        f"{':'.join(map(str, sub.coeffs(t)))},{':'.join(map(str, big.coeffs(d)))},{p},{g},{int(p == g)}"
        for t, d, p, g in rows]
    for family, q, r_, count in (("miu2", 11, 3, 11 ** 2), ("miu2", 7, 5, 7 ** 2),
                                 ("miu3", 13, 5, 4 ** 3), ("nmiu3", 13, 5, 5 ** 4)):
        rc, out, err = main_in_process(monkeypatch, capsys, "sweep", family,
                                       "--field", f"p={q},m=1", "--r", str(r_))
        assert rc == 0, err
        want = [",".join(map(str, row[2:] + (int(row[-2] == row[-1]),)))
                for row in verify.run(family).rows if row[:2] == (q, r_)]
        assert len(want) == count
        assert data_rows(out) == want


def test_sweep_with_one_point_per_branch(monkeypatch, capsys):
    # s = (q-1)/ell = 1: ell-1 zero branch values make the map ell-to-1
    for args in (("miu2", "--field", "p=3,m=1"), ("nmiu3", "--field", "p=5,m=1"),
                 ("miu3", "--field", "p=2,m=2")):
        rc, out, err = main_in_process(monkeypatch, capsys, "sweep", *args, "--r", "1")
        assert rc == 0, err
        rows = data_rows(out)
        assert rows and all(row.endswith(",1") for row in rows), out


def test_construct_tower_family(monkeypatch, capsys):
    rc, out, err = main_in_process(monkeypatch, capsys, "construct", "gouzao1", "--q1", "27",
                                   "--delta", "1")
    assert rc == 0, err
    out = json.loads(out)
    assert out["family"] == "gouzao1"
    assert out["predicate"] is True
    assert out["brute_force"] is True
    assert out["agree"] is True
    assert (out["subfield"]["m"], out["field"]["m"]) == (3, 6)


def test_tower_subfield_has_one_door(monkeypatch, capsys):
    # --field gives the subfield when present, with q1 beside it
    rc, out, err = main_in_process(monkeypatch, capsys, "construct", "gouzao1", "--q1", "3",
                                   "--field", "p=3,m=2", "--delta", "1")
    assert rc == 0, err
    out = json.loads(out)
    assert (out["subfield"]["m"], out["field"]["m"], out["params"]["q1"]) == (2, 4, 3)
    # families decide alone which variants take q1
    for args, msg in ((("construct", "gouzao1", "--field", "p=3,m=3", "--delta", "1"),
                       "gouzao1 needs q1"),
                      (("construct", "gouzao3", "--q1", "27", "--delta", "1"), "gouzao3 takes no q1"),
                      (("sweep", "2gouzao2", "--field", "p=2,m=4", "--q1", "16"),
                       "2gouzao2 takes no q1")):
        assert main_in_process(monkeypatch, capsys, *args) == (2, "", f"nto1: {msg}\n"), args
    rc, _, err = main_in_process(monkeypatch, capsys, "construct", "gouzao1", "--q1", "27",
                                 "--m", "1", "--delta", "1")
    assert rc == 2 and "unrecognized arguments: --m 1" in err, err


@pytest.mark.parametrize("args", [("construct", "gouzao1", "--delta", "1"),
                                  ("sweep", "gouzao1")])
def test_tower_family_without_a_subfield_names_q1(monkeypatch, capsys, args):
    msg = "nto1: gouzao1 needs a subfield: --q1 <prime power>, --field p=..,m=.. or --spec file.json\n"
    assert main_in_process(monkeypatch, capsys, *args) == (2, "", msg)


@pytest.mark.parametrize("args,msg", [
    (("construct", "miu2", "--field", "p=7,m=1", "--r", "1", "--values", "1,1", "--q1", "7"),
     "nto1: miu2 takes no --q1\n"),
    (("construct", "nmiu3", "--field", "p=13,m=1", "--r", "1", "--values", "1,1,1,1", "--delta", "1"),
     "nto1: nmiu3 takes no --delta\n"),
    (("sweep", "miu3", "--field", "p=13,m=1", "--r", "1", "--q1", "13"),
     "nto1: miu3 takes no --q1\n"),
    (("construct", "gouzao1", "--q1", "27", "--delta", "1", "--r", "1"),
     "nto1: gouzao1 takes no --r\n"),
    (("construct", "2gouzao1", "--q1", "4", "--delta", "1", "--values", "1"),
     "nto1: 2gouzao1 takes no --values\n"),
    (("sweep", "gouzao2", "--q1", "27", "--r", "1"), "nto1: gouzao2 takes no --r\n"),
    (("classify", "--field", "p=7,m=1,foo=3", "--poly", "x^2"),
     "nto1: --field: unknown key 'foo'; the keys are p, m and modulus\n"),
    (("verify-theorem", "de3p3", "--field", "p=3,m=2,n=3"),
     "nto1: --field: unknown key 'n'; the keys are p, m and modulus\n"),
    (("walsh", "--field", "p=3,m=2", "--poly", "x^2", "--n", "4"),
     "nto1: phi needs n | q or n = 2, got n=4, q=9\n"),
])
def test_options_a_command_never_reads_exit_2(monkeypatch, capsys, args, msg):
    assert main_in_process(monkeypatch, capsys, *args) == (2, "", msg)


def test_diagram_in_takes_no_random_options(monkeypatch, capsys, tmp_path):
    _, out, _ = main_in_process(monkeypatch, capsys, "diagram", "--random")
    path = tmp_path / "square.json"
    path.write_text(json.dumps(json.loads(out)["spec"]))
    for args, name in ((("--n", "7", "--max-set", "3", "--seed", "9"), "n"),
                       (("--max-set", "3"), "max-set"), (("--seed", "9"), "seed")):
        got = main_in_process(monkeypatch, capsys, "diagram", "--in", str(path), *args)
        assert got == (2, "", f"nto1: diagram --in takes no --{name}\n"), args
    # the --random defaults are the ones a bare --random reads
    assert main_in_process(monkeypatch, capsys, "diagram", "--random", "--max-set", "100",
                           "--seed", str(verify.SEED))[1] == out


def test_spec_and_field_exclude_each_other(monkeypatch, capsys, tmp_path):
    path = tmp_path / "gf7.json"
    path.write_text(json.dumps(Field(7, 1).spec_dict()))
    rc, out, _ = main_in_process(monkeypatch, capsys, "classify", "--spec", str(path), "--poly", "x^2")
    assert rc == 0 and json.loads(out)["n"] == 2
    rc, out, err = main_in_process(monkeypatch, capsys, "classify", "--field", "p=5,m=1",
                                   "--spec", str(path), "--poly", "x^2")
    assert rc == 2 and not out and "argument --spec: not allowed with argument --field" in err, err


# malformed --spec files and the message each exits 2 with, after "--spec <path>"
_BAD_SPECS = {
    "beta_int.json": ('{"p":13,"m":1,"beta":6}', ": beta must be a list of digits, got 6"),
    "no_m.json": ('{"p":13}', ": missing key 'm'"),
    "list.json": ("[13,1]", ": a field spec is a JSON object with keys p, m, modulus and beta"),
    "modulus_int.json": ('{"p":13,"m":1,"modulus":5}', ": modulus must be a list of digits, got 5"),
    "p_float.json": ('{"p":13.5,"m":1}', ": p must be an integer, got 13.5"),
    "digit_7.json": ('{"p":5,"m":2,"modulus":[7,0,1]}', " modulus: digit 7 is outside [0, 5)"),
    "key_q.json": ('{"p":13,"m":1,"q":9}', ": unknown key 'q'; the keys are p, m, modulus and beta"),
}


@pytest.mark.parametrize("name", sorted(_BAD_SPECS))
def test_malformed_spec_files_exit_2(monkeypatch, capsys, tmp_path, name):
    """--spec is checked as --field is: no traceback, no silent int() or
    mod-p reduction, no ignored key."""
    text, msg = _BAD_SPECS[name]
    path = tmp_path / name
    path.write_text(text)
    got = main_in_process(monkeypatch, capsys, "field", "--spec", str(path))
    assert got == (2, "", f"nto1: --spec {path}{msg}\n")


def test_spec_file_with_a_beta_that_is_not_primitive_exit_2(monkeypatch, capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"p":13,"m":1,"beta":[3]}')  # 3 has order 3 mod 13
    assert main_in_process(monkeypatch, capsys, "field", "--spec", str(path)) == (
        2, "", "nto1: beta = [3] is not a primitive element of GF(13^1)\n")


@pytest.mark.parametrize("spec", [Field(3, 2).spec_dict(), Field(5, 2).spec_dict(),
                                  {"p": 5, "m": 2, "modulus": [2, 0, 1]}, {"p": 7, "m": 1}])
def test_valid_spec_files_resolve_as_before(monkeypatch, capsys, tmp_path, spec):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(spec))
    rc, out, err = main_in_process(monkeypatch, capsys, "field", "--spec", str(path))
    assert (rc, err) == (0, "")
    assert json.loads(out) == field_from_spec(spec).spec_dict()


def test_lowdeg_cubic_over_gf2_exits_1(monkeypatch, capsys):
    # x^3 + x is the zero map on GF(2), 3-to-1 by the definition (one fiber
    # of #A mod 3 = 2 preimages), while the criterion says no
    rc, out, err = main_in_process(monkeypatch, capsys, "lowdeg", "--degree", "3",
                                   "--field", "p=2,m=1")
    assert (rc, err) == (1, "b=1: predicate False, brute True\n")
    assert data_rows(out) == ["0,0,0,0,1", "0,1,0,1,0"]


def test_construct_branch_family(monkeypatch, capsys):
    rc, out, err = main_in_process(monkeypatch, capsys, "construct", "miu2", "--field", "p=7,m=1",
                                   "--r", "1", "--values", "1,1")
    assert rc == 0, err
    out = json.loads(out)
    assert out["agree"] is True


def test_walsh_table_smoke(monkeypatch, capsys):
    rc, out, err = main_in_process(monkeypatch, capsys, "walsh", "--field", "p=3,m=2",
                                   "--poly", "x^2")
    assert rc == 0, err
    assert "#verdict=1" in out and "#brute=1" in out
    assert len(data_rows(out)) == 9


# sha256 of `nto1 walsh` stdout per (field, poly, n), as the per-map
# walsh_zero_table and char_sum produced it; the blocked kernel must
# print the same bytes.
WALSH_STDOUT_SHA256 = {
    ("p=3,m=2", "x^2", 2):
        "6af7749645ebcce53781fe0d8369293dfe81480b25e261f774f5b5a7c1391aa7",
    ("p=3,m=2", "x^4 + x", 2):
        "baea4815c0861542fa02c678abd8a3dcead4724a4820ed0d06dcb7bf7aee87db",
    ("p=3,m=2", "x^3 + 2*x", 3):
        "bd1e7715c2983f6938d880f2bb2b89b53723ee6814aec6bb26729998e990fe33",
    ("p=3,m=2", "x^2", 9):
        "c1a8ed1b4eb2bdde1aca5d10535ed9d7d0c12ca38bbcb764715a974e2a9c1b0d",
    ("p=2,m=3", "x^2 + x", 2):
        "0fd5a59e56341f84212adc31805a07035b6dfe17a435dc770e6a79506c48f751",
    ("p=2,m=3", "x^3", 2):
        "42a079c87ab30241d5ffd9b935b3d013c4ab5d68f9ec2ca68988958b13c724ed",
    ("p=2,m=3", "x^6 + x^5 + 3*x", 8):
        "b60a3efdc1abc3ab4c939b2899228ec62301c6b8348f7537723ed8625faeb277",
    ("p=5,m=2", "x^2", 2):
        "258d82c4558bab8595cbf52be49347d41d4ca5d651bbf94988d5465e5add705c",
    ("p=5,m=2", "x^5 + 4*x", 5):
        "b44fb21c7b406ac936737fd8d967c26e60ecc67fa8125e8a53fe20f0e3dec633",
    ("p=5,m=2", "7*x^3 + x^2 + 11*x", 2):
        "9144cc0dc2367bab1490c168e9faab8326e2bfe00b0f8a3fc61be2d8ca57f5d5",
}


@pytest.mark.parametrize("field,poly,n", list(WALSH_STDOUT_SHA256))
def test_walsh_stdout_is_pinned(monkeypatch, capsys, field, poly, n):
    args = ["walsh", "--field", field, "--poly=" + poly]
    rc, out, err = main_in_process(monkeypatch, capsys, *args, "--n", str(n))
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == WALSH_STDOUT_SHA256[field, poly, n]
    if n == 2:  # the default
        assert main_in_process(monkeypatch, capsys, *args) == (rc, out, err)


@pytest.mark.parametrize("p,m,poly,terms", [(3, 2, "x^5", [(5, 1)]), (3, 2, "x^2", [(2, 1)]),
                                             (2, 3, "x^3", [(3, 1)]), (2, 3, "x^2 + x", [(2, 1), (1, 1)])])
def test_walsh_at_n_1_is_the_permutation_test(monkeypatch, capsys, p, m, poly, terms):
    perm = is_n_to_1(Poly(Field(p, m), terms), None, 1)
    assert perm == (poly in ("x^5", "x^3"))  # gcd(d, q - 1) = 1
    rc, out, err = main_in_process(monkeypatch, capsys, "walsh", "--field", f"p={p},m={m}",
                                   "--poly", poly, "--n", "1")
    assert (rc, err) == (0, "")
    assert out.startswith(f"#schema=walsh.v1:v,{','.join(f'c{j}' for j in range(p))}\n#n=1\n#char_sum=")
    assert f"#bound=0/1\n#verdict={int(perm)}\n#brute={int(perm)}\n" in out
    assert ("#char_sum=0/1\n" in out) == perm


def test_walsh_evaluates_the_map_once_and_builds_one_zero_table(monkeypatch, capsys):
    calls = {"zero_tables": 0, "eval_all": 0}

    def counted(key, fn):
        def wrapper(*a, **k):
            calls[key] += 1
            return fn(*a, **k)
        return wrapper

    walsh = importlib.import_module("nto1.walsh")  # the package's `walsh` is the function
    monkeypatch.setattr(walsh, "_zero_tables", counted("zero_tables", walsh._zero_tables))
    monkeypatch.setattr(Poly, "eval_all", counted("eval_all", Poly.eval_all))
    rc, out, err = main_in_process(monkeypatch, capsys, "walsh", "--field", "p=2,m=12",
                                   "--poly", "x^3 + 7*x^5")
    assert rc in (0, 1) and "#brute=" in out, err
    assert calls == {"zero_tables": 1, "eval_all": 1}


def test_walsh_and_quartic_lowdeg_answer_with_their_cap_past_the_gate(monkeypatch, capsys):
    """Their library caps (2^12, 343) sit below the gate, so q = 2^14 exits 2
    with the cap's message whether or not the gate is lifted."""
    walsh_args = ("walsh", "--field", "p=2,m=14", "--poly", "x^3")
    lowdeg_args = ("lowdeg", "--degree", "4", "--field", "p=2,m=14")
    walsh_cap = (2, "", "nto1: field order 16384 exceeds 2^12\n")
    lowdeg_cap = (2, "", "nto1: quartic search gated at q <= 343\n")
    assert main_in_process(monkeypatch, capsys, *walsh_args) == walsh_cap
    assert main_in_process(monkeypatch, capsys, *lowdeg_args) == lowdeg_cap
    assert main_in_process(monkeypatch, capsys, *lowdeg_args, "--nightly") == lowdeg_cap
    for args, cap in ((walsh_args, walsh_cap), (lowdeg_args, lowdeg_cap)):
        r = run_cli(*args, env_extra={"NTO1_NIGHTLY": "1"})
        assert (r.returncode, r.stdout, r.stderr) == cap
    rc, out, err = main_in_process(monkeypatch, capsys, *walsh_args, "--nightly")
    assert (rc, out) == (2, "") and "unrecognized arguments: --nightly" in err


def test_usage_errors_exit_2(monkeypatch, capsys):
    def rc(*args):
        return main_in_process(monkeypatch, capsys, *args)[0]

    assert rc("classify", "--field", "p=4,m=1", "--poly", "x") == 2
    assert rc("verify-theorem", "nosuch") == 2
    # r=3 shares a factor with (q-1)/2 = 3: outside the theorem, not a sweep row
    assert rc("sweep", "miu2", "--field", "p=7,m=1", "--r", "3") == 2
    # a malformed --field filter is refused with the field's own message
    for field, msg in (("p=3", "--field needs p=<prime>,m=<degree>"),
                       ("p=4,m=1", "p=4 is not a prime")):
        code, _, err = main_in_process(monkeypatch, capsys, "verify-theorem", "de3p3",
                                       "--field", field)
        assert code == 2 and msg in err, err
    # --all never filters, so a field filter beside it is a conflict, not
    # ignored; verify-theorem takes no --spec at all
    for extra, msg in ((("--field", "p=4,m=1"), "--all conflicts with --field"),
                       (("--field", "p=7,m=1"), "--all conflicts with --field"),
                       (("--spec", "f.json"), "unrecognized arguments: --spec")):
        code, out, err = main_in_process(monkeypatch, capsys, "verify-theorem", "--all", *extra)
        assert code == 2 and msg in err and not out, err
    for poly, msg in (("x^-1", "negative exponent in 'x^-1'"),
                      ("x^3-", "dangling '-' in 'x^3-'")):
        code, _, err = main_in_process(monkeypatch, capsys, "classify", "--field", "p=7,m=1",
                                       "--poly", poly)
        assert code == 2 and msg in err, err


def test_verify_all_conflicts_with_a_theorem_id(monkeypatch, capsys):
    # --all runs every sweep, so a theorem id beside it is a conflict, not ignored
    want = ("nto1: --all conflicts with the theorem id 'walsh': --all runs every sweep; "
            "give one or the other\n")
    for args in (("walsh", "--all"), ("--all", "walsh")):
        assert main_in_process(monkeypatch, capsys, "verify-theorem", *args) == (2, "", want)


def test_poly_coefficients_outside_the_field_exit_2(monkeypatch, capsys):
    # a coefficient is an element code in [0, q): refused, not reduced mod q
    for field, poly, msg in (("p=5,m=1", "x^2 + 5", "coefficient 5 is outside [0, 5)"),
                             ("p=5,m=1", "7*x", "coefficient 7 is outside [0, 5)"),
                             ("p=5,m=2", "25*x", "coefficient 25 is outside [0, 25)"),
                             ("p=5,m=2", "x - 32", "coefficient 32 is outside [0, 25)")):
        got = main_in_process(monkeypatch, capsys, "classify", "--field", field, "--poly", poly)
        assert got == (2, "", f"nto1: --poly: {msg}\n"), (field, poly)
    # the largest code is still an element
    rc, out, _ = main_in_process(monkeypatch, capsys, "classify", "--field", "p=5,m=2",
                                 "--poly", "24*x")
    assert rc == 0 and json.loads(out)["n"] == 1


def test_digits_outside_the_prime_field_exit_2(monkeypatch, capsys):
    # a digit is refused, not reduced mod p; Field itself stays lenient
    table = ",".join(["3:0"] + ["0"] * 8)
    for args, msg in (
            (("field", "--field", "p=5,m=2", "--element", "7:1"), "--element: digit 7 is outside [0, 5)"),
            (("field", "--field", "p=5,m=2", "--element=-1:0"), "--element: digit -1 is outside [0, 5)"),
            (("field", "--field", "p=5,m=2,modulus=7:0:1"), "--field modulus: digit 7 is outside [0, 5)"),
            (("classify", "--field", "p=3,m=2", "--table", table), "--table: digit 3 is outside [0, 3)"),
            (("construct", "miu2", "--field", "p=5,m=2", "--r", "1", "--values", "1:5,1"),
             "--values: digit 5 is outside [0, 5)"),
            (("construct", "gouzao1", "--q1", "3", "--delta", "0:3"), "--delta: digit 3 is outside [0, 3)")):
        rc, out, err = main_in_process(monkeypatch, capsys, *args)
        assert (rc, out, err) == (2, "", f"nto1: {msg}\n"), args
    assert Field(5, 2).element([7, 1]) == 7
    rc, out, _ = main_in_process(monkeypatch, capsys, "field", "--field", "p=5,m=2", "--element", "4:1")
    assert rc == 0 and json.loads(out) == {"code": 9, "coeffs": [4, 1], "order": 24}
    rc, out, _ = main_in_process(monkeypatch, capsys, "field", "--field", "p=5,m=2,modulus=2:0:1")
    assert rc == 0 and json.loads(out)["modulus"] == [2, 0, 1]


@pytest.mark.parametrize("command", ["classify", "walsh"])
def test_poly_and_table_exclude_each_other(monkeypatch, capsys, command):
    rc, out, err = main_in_process(monkeypatch, capsys, command, "--field", "p=3,m=1",
                                   "--poly", "x", "--table", "0,1,2")
    assert rc == 2 and not out and "argument --table: not allowed with argument --poly" in err, err
    rc, out, err = main_in_process(monkeypatch, capsys, command, "--field", "p=3,m=1")
    assert (rc, out, err) == (2, "", "nto1: a map is required: --poly or --table\n")
    rc, out, _ = main_in_process(monkeypatch, capsys, command, "--field", "p=3,m=1", "--table", "0,1,2")
    assert rc == 0 and out


def test_params_option_is_gone(monkeypatch, capsys):
    # argparse's own exit 2, once through a fresh interpreter
    r = run_cli("sweep", "miu2", "--field", "p=7,m=1", "--params", "r=1")
    assert r.returncode == 2 and "unrecognized arguments: --params" in r.stderr, r.stderr
    rc, _, err = main_in_process(monkeypatch, capsys, "construct", "gouzao1",
                                 "--params", "q1=27,delta=5")
    assert rc == 2 and "unrecognized arguments: --params" in err, err


@pytest.mark.parametrize("command", [("sweep",), ("construct", "--delta", "1")])
def test_q1_not_a_prime_power_exit_2(monkeypatch, capsys, command):
    for q1 in ("0", "1", "6"):
        rc, _, err = main_in_process(monkeypatch, capsys, command[0], "gouzao1", "--q1", q1,
                                     *command[1:])
        assert rc == 2 and err == f"nto1: --q1 {q1} is not a prime power\n", err


def test_diagram_needs_exactly_one_source(monkeypatch, capsys, tmp_path):
    rc, _, err = main_in_process(monkeypatch, capsys, "diagram", "--seed", "5")
    assert rc == 2 and "one of the arguments --in --random is required" in err
    path = tmp_path / "square.json"
    path.write_text("{}")
    rc, _, err = main_in_process(monkeypatch, capsys, "diagram", "--in", str(path), "--random")
    assert rc == 2 and "not allowed with argument" in err, err


def test_diagram_in_refuses_malformed_labels(monkeypatch, capsys, tmp_path):
    _, out, _ = main_in_process(monkeypatch, capsys, "diagram", "--random", "--seed", "3",
                                "--n", "2")
    spec = json.loads(out)["spec"]
    a = spec["A"][0]
    for key, value, msg in (
            ("A", [[0, 1], *spec["A"][1:]], "A: [0, 1] is not a label, an int in [0, 2^20)"),
            ("S", [-1, *spec["S"][1:]], "S: -1 is not a label, an int in [0, 2^20)"),
            ("Sbar", [1 << 20, *spec["Sbar"][1:]],
             "Sbar: 1048576 is not a label, an int in [0, 2^20)"),
            ("f", [pair for pair in spec["f"] if pair[0] != a], f"f has no pair for {a}")):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({**spec, key: value}))
        rc, out, err = main_in_process(monkeypatch, capsys, "diagram", "--in", str(path))
        assert (rc, out) == (2, ""), err
        assert err == f"nto1: --in {path}: {msg}\n"


@pytest.mark.parametrize("args,msg", [
    (("--n", "0"), "nto1: diagram needs n >= 1, got n=0\n"),
    (("--n", "-2"), "nto1: diagram needs n >= 1, got n=-2\n"),
    (("--max-set", "0"), "nto1: no random diagram with n=5 and at most max_set=0 points in 200 draws\n"),
    (("--max-set", "1"), "nto1: no random diagram with n=5 and at most max_set=1 points in 200 draws\n"),
    (("--n", "7", "--max-set", "3"),
     "nto1: no random diagram with n=7 and at most max_set=3 points in 200 draws\n"),
])
def test_random_diagram_refusals_exit_2(monkeypatch, capsys, args, msg):
    rc, out, err = main_in_process(monkeypatch, capsys, "diagram", "--random", *args)
    assert (rc, out, err) == (2, "", msg)


def test_random_diagram_refuses_a_large_n_before_building(monkeypatch, capsys):
    # #A >= #Sbar >= n here, so every draw is refused before any list is built
    start = time.perf_counter()
    got = main_in_process(monkeypatch, capsys, "diagram", "--random", "--n", "20000")
    assert time.perf_counter() - start < 1
    assert got == (2, "", "nto1: no random diagram with n=20000 and at most max_set=100 "
                          "points in 200 draws\n")


@pytest.mark.parametrize("seed", range(1, 7))
def test_random_diagram_at_n_1(monkeypatch, capsys, seed):
    """n = 1 draws only the strict and irregular shapes: no exceptional
    fiber size 1 <= t < n exists."""
    rc, out, err = main_in_process(monkeypatch, capsys, "diagram", "--random",
                                   "--seed", str(seed), "--n", "1")
    assert (rc, err) == (0, ""), err
    res = json.loads(out)
    assert res["verified"] and res["transfer"]["n"] == 1


def test_field_with_unfactorable_unit_order_exit_2(monkeypatch, capsys):
    """2^61 - 1 is prime and above 2^48: refused quickly, naming q."""
    start = time.perf_counter()
    rc, out, err = main_in_process(monkeypatch, capsys, "field", "--field", "p=2,m=61")
    assert time.perf_counter() - start < 2
    assert (rc, out) == (2, "")
    assert err.startswith("nto1: GF(2^61), q = 2305843009213693952: cannot factor "), err


def test_field_whose_modulus_search_would_not_end_exit_2():
    """GF(2^500): q - 1 is factored, and refused, before the degree-500
    modulus search; in a child, so a search that never ends fails the test."""
    r = run_cli("field", "--field", "p=2,m=500", timeout=60)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith(f"nto1: GF(2^500), q = {2 ** 500}: cannot factor "), r.stderr


def test_sweeps_are_gated_on_the_cases_they_enumerate(monkeypatch, capsys):
    # q^2 cases from q = 243 (cubic pairs (a, b)) and q = 97 (two-branch value pairs)
    msg = "nto1: {} over {} elements exceeds the gate 8192; pass --nightly or set NTO1_NIGHTLY=1\n"
    assert main_in_process(monkeypatch, capsys, "lowdeg", "--degree", "3",
                           "--field", "p=3,m=5") == (3, "", msg.format("lowdeg", 243 ** 2))
    rc, out, err = main_in_process(monkeypatch, capsys, "lowdeg", "--degree", "3",
                                   "--field", "p=3,m=4")
    assert rc == 0 and len(data_rows(out)) == 81 ** 2, err
    sweep = ("sweep", "miu2", "--field", "p=97,m=1", "--r", "1")
    assert main_in_process(monkeypatch, capsys, *sweep) == (3, "", msg.format("sweep", 97 ** 2))
    rc, out, err = main_in_process(monkeypatch, capsys, *sweep, "--nightly")
    assert rc == 0 and len(data_rows(out)) == 97 ** 2, err


def test_domain_gate_exit_3_and_nightly_override():
    # exit 3 and the NTO1_NIGHTLY=1 override, through a fresh interpreter
    args = ("classify", "--field", "p=2,m=14", "--poly", "x^3")
    assert run_cli(*args).returncode == 3
    assert run_cli(*args, env_extra={"NTO1_NIGHTLY": "1"}).returncode == 0


def test_quartic_hits_exit_1_with_witness():
    # exit 1 with its witness on stderr, through a fresh interpreter
    r = run_cli("lowdeg", "--field", "p=5,m=1", "--degree", "4")
    assert r.returncode == 1
    assert "#exhaustive=1" in r.stdout
    assert data_rows(r.stdout)  # the found coefficient triples
    assert r.stderr.strip()


def test_quartic_search_exhaustive_at_the_cap(monkeypatch, capsys):
    rc, out, err = main_in_process(monkeypatch, capsys, "lowdeg", "--field", "p=7,m=3",
                                   "--degree", "4")
    assert rc == 0, err
    assert "#exhaustive=1\n" in out and "#tried=40353607\n" in out
    assert not data_rows(out)
    rc, _, err = main_in_process(monkeypatch, capsys, "lowdeg", "--field", "p=7,m=3",
                                 "--degree", "4", "--seed", "3")
    assert rc == 2 and "unrecognized arguments: --seed 3" in err, err


def test_sweep_schema_line(monkeypatch, capsys):
    rc, out, err = main_in_process(monkeypatch, capsys, "sweep", "miu2", "--field", "p=7,m=1",
                                   "--r", "1")
    assert rc == 0, err
    assert out.splitlines()[0].startswith("#schema=")


def test_byte_determinism(monkeypatch, capsys):
    # one run in a fresh interpreter (its own hash seed, cold memo), one here
    a = run_cli("verify-theorem", "miu2")
    b_rc, b_out, _ = main_in_process(monkeypatch, capsys, "verify-theorem", "miu2")
    assert a.returncode == b_rc == 0
    assert a.stdout == b_out
    c = run_cli("diagram", "--random", "--seed", "5", "--n", "3")
    _, d_out, _ = main_in_process(monkeypatch, capsys, "diagram", "--random", "--seed", "5",
                                  "--n", "3")
    assert c.stdout == d_out and c.returncode == 0


@pytest.mark.parametrize("args,digest", [
    (("--seed", "3"), "4fee0ec29e6fe107caaac66387cdbdd15cfbe3de7e329d40b6a917a5ecd652c6"),
    (("--seed", "5"), "81abb214a773a2bfa7a6d36ad5c84ddc09ff61185de7843fe6f9ecc1f234bc78"),
    (("--seed", "3", "--n", "3"), "43149f04cb3f0420c873311ad9b99ef8a021cbfa795bfc403675ff555a80c92f"),
    (("--seed", "5", "--n", "3"), "2b659ec66ab63950f71f513db3e5396673c8b2359e169ce93893f734236716bc"),
])
def test_diagram_random_stdout_is_pinned(monkeypatch, capsys, args, digest):
    rc, out, err = main_in_process(monkeypatch, capsys, "diagram", "--random", *args)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_diagram_roundtrip(monkeypatch, capsys, tmp_path):
    rc, out, err = main_in_process(monkeypatch, capsys, "diagram", "--random", "--seed", "3",
                                   "--n", "2")
    assert rc == 0, err
    out = json.loads(out)
    assert out["verified"] is True
    path = tmp_path / "square.json"
    path.write_text(json.dumps(out["spec"]))
    rc2, out2, err2 = main_in_process(monkeypatch, capsys, "diagram", "--in", str(path))
    assert rc2 == 0, err2
    assert json.loads(out2)["verified"] is True


def test_verify_all_summary(monkeypatch, capsys):
    rc, out, err = main_in_process(monkeypatch, capsys, "verify-theorem", "--all")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0].startswith("#schema=verify-all.v1:id,rows,ok")
    rows = [line.split(",") for line in data_rows(out)]
    assert len(rows) == 18
    failing = sorted(row[0] for row in rows if row[2] == "0")
    assert failing == ["gouzao3", "quartic"]
    assert "quartic:" in err and "gouzao3:" in err


def test_sweeps_and_diagrams_never_import_numpy_ma(monkeypatch, capsys, tmp_path):
    # np.unique imports numpy.ma on its first call, at a cost in time and memory the package avoids
    _, out, _ = main_in_process(monkeypatch, capsys, "diagram", "--random", "--seed", "5")
    path = tmp_path / "square.json"
    path.write_text(json.dumps(json.loads(out)["spec"]))
    script = (
        "import contextlib, io, sys\n"
        "from nto1 import cli\n"
        "for argv in (['verify-theorem', 'agwcore2'], ['verify-theorem', 'gouzao1'],\n"
        f"             ['verify-theorem', 'zcriterion'], ['diagram', '--in', {str(path)!r}]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                       timeout=120)
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr


# -- fuzz: every argv ends in an exit code, never a traceback -------------------------

_FIELDS = ("p=2,m=1", "p=2,m=3", "p=2,m=4", "p=2,m=6", "p=3,m=2", "p=3,m=3", "p=5,m=1",
           "p=5,m=2", "p=7,m=1", "p=13,m=1", "p=3,m=2,modulus=1:0:1", "p=4,m=1", "p=3",
           "p=x,m=1", "p=3,m=0", "q=9", "")
_INTS = ("-2", "0", "1", "2", "3", "5", "x", "1.5")
_OPTIONS = {  # per command: (flag, values); a value None is a bare flag
    "field": (("--field", _FIELDS),
              ("--spec", ("missing.json", "spec.json", "bad.json", *sorted(_BAD_SPECS))),
              ("--element", ("0", "5", "1:1", "1:9", "x", "999", "-1"))),
    "classify": (("--field", _FIELDS), ("--poly", ("x^3", "x^2 + 1", "2*x - x^4", "x^-1", "-", "y")),
                 ("--table", ("0,1", "1,1,0,0,1,1,0,0,1", "a,b")), ("--nightly", (None,))),
    "walsh": (("--field", _FIELDS), ("--poly", ("x^2", "x^3 + x", "x^")), ("--table", ("0,1", "z")),
              ("--n", _INTS)),
    "lowdeg": (("--field", _FIELDS), ("--degree", ("3", "4", "5", "x"))),
    "diagram": (("--in", ("missing.json", "square.json", "bad.json")), ("--random", (None,)),
                ("--n", _INTS), ("--max-set", _INTS + ("40",)), ("--seed", _INTS)),
    "construct": (("--field", _FIELDS), ("--q1", ("2", "3", "4", "6", "9", "-3")),
                  ("--delta", ("0", "1", "5", "0:3", "1:1", "x")), ("--r", _INTS),
                  ("--values", ("1,1", "1,2,3", "1,1,1,1", "0,0", "1:5,1", "a", ""))),
    "sweep": (("--field", _FIELDS), ("--q1", ("2", "3", "4", "6", "9", "0")), ("--r", _INTS),
              ("--nightly", (None,))),
    "verify-theorem": (("--field", _FIELDS), ("--seed", _INTS)),
}
_HEADS = {  # positional words after the command; verify-theorem --all and the slow ids left out
    "construct": ("gouzao1", "gouzao2", "gouzao3", "2gouzao1", "2gouzao2", "miu2", "miu3",
                  "nmiu3", "nope"),
    "verify-theorem": ("monomial", "de3p3", "de3pne3", "quartic", "agwcore2", "miu2", "miu3",
                       "gouzao1", "gouzao3", "2gouzao1", "2gouzao2", "zcriterion", "nope", None),
}
_HEADS["sweep"] = _HEADS["construct"]
_LIKELY = {"--field", "--poly", "--degree", "--random", "--q1", "--delta", "--r", "--values"}


def test_cli_fuzz_ends_in_an_exit_code(monkeypatch, capsys, tmp_path):
    """Each command with each value of each of its flags, then random argv
    over all eight commands, small fields and malformed values: every run
    returns 0 to 3 or is argparse's exit 2, and every exit 2 says why on
    stderr.  tmp_path is one directory for every run."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(Field(3, 2).spec_dict()))
    (tmp_path / "bad.json").write_text("{")
    for name, (text, _) in _BAD_SPECS.items():
        (tmp_path / name).write_text(text)
    _, out, _ = main_in_process(monkeypatch, capsys, "diagram", "--random", "--seed", "5")
    (tmp_path / "square.json").write_text(json.dumps(json.loads(out)["spec"]))

    def ends_in_an_exit_code(argv):
        rc, out, err = main_in_process(monkeypatch, capsys, *argv)
        assert rc in (0, 1, 2, 3), (argv, rc)
        if rc == 2:
            assert err.strip(), argv

    # every value once, alone after the command's first head word: the draws
    # below reach a value only by chance, field --spec <file> without --field
    # (the two are exclusive) about once in 700 draws
    for command, options in sorted(_OPTIONS.items()):
        head = _HEADS.get(command, (None,))[0]
        for flag, values in options:
            for value in values:
                ends_in_an_exit_code([command, *[w for w in (head, flag, value) if w is not None]])

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def random_argv(data):
        command = data.draw(st.sampled_from(sorted(_OPTIONS)))
        argv = [command]
        if command in _HEADS:
            head = data.draw(st.sampled_from(_HEADS[command]))
            argv += [head] if head else []
        for flag, values in _OPTIONS[command]:
            if data.draw(st.integers(0, 2)) < (2 if flag in _LIKELY else 1):
                value = data.draw(st.sampled_from(values))
                argv += [flag] if value is None else [flag, value]
        ends_in_an_exit_code(argv)

    random_argv()


_PARSE_FIELDS = [Field(2, 1), Field(7, 1), Field(3, 2), Field(2, 4), Field(5, 2)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_poly_reads_back_what_repr_writes(data):
    """--poly text round-trips: _parse_poly of Poly's repr, without its
    'Poly(' and ')', is the polynomial, the zero polynomial included."""
    ctx = data.draw(st.sampled_from(_PARSE_FIELDS))
    q = ctx.order
    terms = data.draw(st.lists(st.tuples(st.integers(0, 3 * q), st.integers(0, q - 1)), max_size=6))
    for f in (Poly(ctx, terms), Poly.zero(ctx)):
        assert cli._parse_poly(ctx, repr(f)[5:-1]) == f
