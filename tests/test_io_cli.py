"""File formats, JSON encoding, and the command-line surface."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import permemc
from permemc import Family, family, make_hm_star_union, make_star_union, symmetric_group
from permemc.cli import main
from permemc.io import (
    ParseError,
    cells_json,
    format_family,
    fraction_json,
    load_family,
    load_matrix,
    parse_family,
    parse_integers,
    parse_matrix,
    parse_partial_permutation,
    save_family,
    save_matrix,
    save_report,
)


def test_family_round_trip(tmp_path):
    fam = family(4, [(2, 1, 4, 3), (1, 2, 3, 4), (3, 4, 1, 2)])
    path = tmp_path / "fam.txt"
    save_family(fam, path)
    assert load_family(path) == fam
    # canonical text round-trips byte-exactly
    text = format_family(fam)
    assert format_family(parse_family(text)) == text


def test_family_comments_and_blank_lines():
    text = "# a comment\n\nn=3\n# more\n1 2 3\n\n2 3 1\n"
    fam = parse_family(text)
    assert fam.members == ((1, 2, 3), (2, 3, 1))


def test_family_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_family("n=3\n1 2 2\n", path="bad.txt")
    assert "bad.txt:2" in str(err.value)
    with pytest.raises(ParseError):
        parse_family("1 2 3\n")  # missing header
    with pytest.raises(ParseError):
        parse_family("n=3\n1 2\n")  # wrong arity
    with pytest.raises(ParseError):
        parse_family("n=0\n")


def test_family_duplicate_warns_and_dedups():
    with pytest.warns(UserWarning):
        fam = parse_family("n=3\n1 2 3\n1 2 3\n")
    assert len(fam) == 1


def test_parse_family_equals_validated_family():
    rng = random.Random(31)
    members = list(symmetric_group(4).members)
    rng.shuffle(members)
    cases = [members[:10], members[:6] + members[2:5], []]
    for image in cases:
        text = "n=4\n" + "".join(" ".join(map(str, p)) + "\n" for p in image)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fam = parse_family(text)
        assert len(caught) == len(image) - len(set(image))
        assert fam == Family(4, tuple(image))


def test_matrix_round_trip(tmp_path):
    from permemc import ZeroOneMatrix

    m = ZeroOneMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    path = tmp_path / "m.txt"
    save_matrix(m, path)
    assert load_matrix(path) == m


def test_matrix_parse_errors():
    with pytest.raises(ParseError):
        parse_matrix("N=2\n0 1\n")  # missing row
    with pytest.raises(ParseError):
        parse_matrix("N=2\n0 2\n1 0\n")  # non-binary


@pytest.mark.parametrize(
    "parse, text, error, match",
    [
        (parse_matrix, "N=x\n1\n", ParseError, "bad N value"),
        (parse_matrix, "N=0\n", ParseError, "N must be positive"),
        (parse_matrix, "N=2\n1 a\n0 1\n", ParseError, "non-integer token"),
        (parse_matrix, "1 0\n0 1\n", ParseError, "expected header"),
        (parse_matrix, "# no header\n", ParseError, "missing 'N=<int>' header"),
        (parse_partial_permutation, "1:x", ValueError, "expected integers"),
        (parse_matrix, "N=1_0\n", ParseError, "bad N value '1_0'"),
        (parse_matrix, "N=\u0662\n1 0\n0 1\n", ParseError, "bad N value"),
        (parse_matrix, "N=2\n1 0\n0 \u0661\n", ParseError, "non-integer token"),
        (parse_partial_permutation, "1_0:1", ValueError, "expected integers"),
        (parse_partial_permutation, "\u0661:2", ValueError, "expected integers"),
        (parse_partial_permutation, "1 2:3", ValueError, "expected integers"),
    ],
    ids=[
        "matrix-bad-N",
        "matrix-N-0",
        "matrix-non-integer",
        "matrix-header-not-first",
        "matrix-no-header",
        "cell-non-integer",
        "matrix-underscore-N",
        "matrix-arabic-indic-N",
        "matrix-arabic-indic-entry",
        "cell-underscore",
        "cell-arabic-indic",
        "cell-two-integers-in-a-row",
    ],
)
def test_bad_inputs_fail_cleanly(parse, text, error, match, tmp_path, capsys):
    with pytest.raises(error, match=match):
        parse(text)
    if parse is parse_matrix:  # the permanent command reads matrix files
        path = tmp_path / "m.txt"
        path.write_text(text)
        code, out, err = _run(["permanent", "--matrix", str(path)], capsys)
        assert code == 3 and out == "" and match in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["counts", "--n", "\u0661\u0660"], "--n: not an integer: '\u0661\u0660'"),
        (["counts", "--n", "1_0"], "--n: not an integer: '1_0'"),
        (["extremal", "--kind", "hm", "--n", "4", "--sigma", "\u0662 1 4 3"], "--sigma: not a permutation"),
        (["extremal", "--kind", "hm", "--n", "4", "--s", "\uff12"], "--s: not an integer"),
        (["mc-spread", "--family", "f.txt", "--p", "1/2", "--samples", "1_000", "--seed", "0"], "--samples: not an integer"),
        (["mc-spread", "--family", "f.txt", "--p", "1/2", "--samples", "10", "--seed", "\u0667"], "--seed: not an integer"),
        (["spread", "--family", "f.txt", "--r", "\u0661/\u0662"], "--r: not a rational number"),
        (["spread", "--family", "f.txt", "--r", "1_0/3"], "--r: not a rational number"),
        (["verify", "--seed", "\u0660"], "--seed: not an integer"),
    ],
    ids=["n-arabic-indic", "n-underscore", "sigma-arabic-indic", "s-fullwidth", "samples-underscore", "seed-arabic-indic", "r-arabic-indic", "r-underscore", "verify-seed"],
)
def test_cli_refuses_integers_that_are_not_ascii_digits(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and flag in err and "Traceback" not in err


def test_parse_integers_agrees_with_int_on_ascii_text():
    rng = random.Random(17)
    for _ in range(5000):
        text = "".join(rng.choice("0123456789+- \t\x0bx._") for _ in range(rng.randint(0, 8)))
        try:
            expected = None if "_" in text else tuple(int(tok) for tok in text.split())  # int() takes "1_0"
        except ValueError:
            expected = None
        try:
            assert parse_integers(text) == expected, text
        except ValueError:
            assert expected is None, text
    for digit in "\u0661\u0967\uff11\U0001d7cf":  # Arabic-Indic, Devanagari, fullwidth, mathematical one
        assert int(digit) == 1
        with pytest.raises(ValueError, match="not integers"):
            parse_integers(f"2 {digit}")


def test_cli_reads_signed_and_padded_ascii_integers(capsys):
    code, out, _ = _run(["counts", "--n", "+07"], capsys)
    assert code == 0 and json.loads(out)["n"] == 7
    code, out, _ = _run(["extremal", "--kind", "hm", "--n", " 4 ", "--sigma", "2,1,4,3"], capsys)
    assert code == 0 and json.loads(out)["sigma"] == [2, 1, 4, 3]


def test_verify_unknown_suite_fails_cleanly(capsys):
    from permemc import verify

    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "invalid choice" in err and "Traceback" not in err


def test_partial_permutation_literal():
    cells = parse_partial_permutation("1:2,3:4")
    assert cells == frozenset({(1, 2), (3, 4)})
    assert parse_partial_permutation("") == frozenset()
    with pytest.raises(ValueError):
        parse_partial_permutation("1:2,1:3")
    with pytest.raises(ValueError):
        parse_partial_permutation("1-2")


def test_fraction_json():
    assert fraction_json(Fraction(5120, 81)) == "5120/81"
    assert fraction_json(Fraction(6)) == "6"
    assert fraction_json(None) is None
    assert fraction_json(0.5) == 0.5
    assert cells_json([(2, 1), (1, 2)]) == ["1:2", "2:1"]


def test_save_report(tmp_path):
    path = tmp_path / "report.json"
    save_report({"b": 1, "a": [1, 2]}, path)
    assert json.loads(path.read_text()) == {"a": [1, 2], "b": 1}


def _spill_name(name, fam):
    return f"{name}-{hashlib.sha256(format_family(fam).encode()).hexdigest()[:12]}.family.txt"


def test_family_json_inline_and_spill(tmp_path, monkeypatch):
    from permemc.io import family_json

    monkeypatch.chdir(tmp_path)
    fam = symmetric_group(3)
    inline = family_json(fam)
    assert inline["size"] == 6 and len(inline["members"]) == 6
    big = symmetric_group(7)
    spilled = family_json(big, name="big")
    assert spilled == {"n": 7, "size": 5040, "file": str(tmp_path / _spill_name("big", big))}
    assert load_family(spilled["file"]) == big
    assert family_json(symmetric_group(7), name="big") == spilled  # equal families share one file


def test_cli_extremal_spills_large_family_to_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(["extremal", "--kind", "stars", "--n", "7", "--s", "3"], capsys)
    assert code == 0
    spilled = json.loads(out)["family"]
    assert "members" not in spilled and spilled["size"] == 1440
    expected = make_star_union(7, [(1, 1), (1, 2)]).family
    assert spilled["file"] == str(tmp_path / _spill_name("family", expected))
    assert load_family(spilled["file"]) == expected


def test_cli_extremal_spills_of_two_runs_do_not_overwrite_each_other(tmp_path, monkeypatch, capsys):
    # two large families spilled in one directory under the same name
    monkeypatch.chdir(tmp_path)
    expected = {
        "stars": make_star_union(7, [(1, 1), (1, 2)]).family,
        "theorem3": make_hm_star_union(7, 3, (3, 1, 2, 4, 5, 6, 7)),
    }
    files = {}
    for kind in expected:
        code, out, _ = _run(["extremal", "--kind", kind, "--n", "7", "--s", "3"], capsys)
        assert code == 0
        files[kind] = json.loads(out)["family"]["file"]
    assert files["stars"] != files["theorem3"]
    for kind, path in files.items():
        assert load_family(path) == expected[kind], kind
    assert len(expected["theorem3"]) == 1132


def _python(*args):
    """A child interpreter that imports the same permemc as the tests, also
    when only pytest's ``pythonpath`` setting put ``src`` on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(permemc.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_counts(capsys):
    code, out, _ = _run(["counts", "--n", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 6, "d_n": 265, "d_n1": 53, "factorial": 720}


def test_cli_counts_prints_integers_past_the_str_digit_limit(capsys):
    # 2000! has 5,736 digits, past CPython's default limit of 4,300 on int-to-str conversion
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:
        previous = sys.get_int_max_str_digits()
        set_limit(4300)
    try:
        code, out, _ = _run(["counts", "--n", "2000"], capsys)
        assert code == 0
        if set_limit is not None:
            assert sys.get_int_max_str_digits() == 4300  # put back for the caller
            set_limit(0)
        payload = json.loads(out)
    finally:
        if set_limit is not None:
            set_limit(previous)
    d = [1, 0]
    for k in range(2, 2001):
        d.append((k - 1) * (d[-1] + d[-2]))
    assert payload["d_n"] == d[2000]
    assert payload["factorial"] == math.factorial(2000)


def test_cli_permanent(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("N=5\n" + "\n".join(" ".join("0" if i == j else "1" for j in range(5)) for i in range(5)) + "\n")
    code, out, _ = _run(["permanent", "--matrix", str(path), "--method", "ryser"], capsys)
    assert code == 0
    assert json.loads(out)["permanent"] == 44
    code, out, _ = _run(["permanent", "--matrix", str(path), "--method", "brute"], capsys)
    assert json.loads(out)["permanent"] == 44


def test_cli_nu_tau(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    save_family(symmetric_group(3), path)
    code, out, _ = _run(["nu", "--family", str(path)], capsys)
    assert code == 0 and json.loads(out)["nu"] == 3
    code, out, _ = _run(["tau", "--family", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 3 and payload["witness"] == ["1:1", "1:2", "1:3"]


def test_cli_spread(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    save_family(symmetric_group(3), path)
    code, out, _ = _run(["spread", "--family", str(path), "--r", "1.8"], capsys)
    assert code == 0 and json.loads(out)["is_spread"] is True
    code, out, _ = _run(["spread", "--family", str(path), "--r", "2"], capsys)
    payload = json.loads(out)
    assert payload["is_spread"] is False and len(payload["witness"]) == 3
    code, out, _ = _run(["spread", "--family", str(path), "--r", "1.2", "--q", "1"], capsys)
    assert json.loads(out)["is_spread"] is True


def test_cli_spread_over_budget_exits_two(tmp_path, capsys, monkeypatch):
    # the walk is refused while it runs, inside the command, not when it is called;
    # Σ_4 less one member walks, where Σ_4 itself is answered in closed form
    path, whole = tmp_path / "fam.txt", tmp_path / "sigma4.txt"
    save_family(family(4, symmetric_group(4).members[1:]), path)
    save_family(symmetric_group(4), whole)
    monkeypatch.setattr(permemc.spread, "_SUBSET_BUDGET", 10)
    for extra in (["--exact"], ["--q", "1"]):
        code, out, err = _run(["spread", "--family", str(path), "--r", "2", *extra], capsys)
        assert code == 2 and out == ""
        assert err == "error: family too large for exhaustive subset enumeration\n"
    code, out, _ = _run(["spread", "--family", str(whole), "--r", "3", "--exact"], capsys)
    assert code == 0 and json.loads(out)["witness"] == ["1:1", "2:2", "3:3", "4:4"]


def test_cli_approx(tmp_path, capsys):
    path = tmp_path / "star.txt"
    from permemc import make_star

    save_family(make_star(5, (1, 1)), path)
    code, out, _ = _run(
        ["approx", "--family", str(path), "--ambient", "sigma", "--r", "5/2", "--q", "4"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["supports"] == [["1:1"]]
    assert payload["verification"]["remainder_status"] == "pass"


def test_cli_approx_conditional_exits_zero(tmp_path, capsys):
    # a thin ambient family leaves the remainder bound conditional, which
    # is not a failure
    path = tmp_path / "two.txt"
    save_family(family(4, [(1, 2, 3, 4), (2, 1, 4, 3)]), path)
    code, out, _ = _run(
        ["approx", "--family", str(path), "--ambient", str(path), "--r", "3", "--q", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verification"]["remainder_status"] == "conditional"


def test_cli_approx_ambient_derangements(tmp_path, capsys):
    from permemc import derangement_star

    path = tmp_path / "derstar.txt"
    save_family(derangement_star(4, (1, 2)), path)
    code, out, _ = _run(
        ["approx", "--family", str(path), "--ambient", "derangements", "--r", "2", "--q", "3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verification"]["covering_ok"] is True


def test_cli_extremal(capsys):
    code, out, _ = _run(
        ["extremal", "--kind", "hm", "--n", "4", "--sigma", "2 1 4 3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["size"], payload["nu"], payload["tau"]) == (4, 1, 2)
    code, out, _ = _run(["extremal", "--kind", "theorem3", "--n", "5", "--s", "3"], capsys)
    payload = json.loads(out)
    assert (payload["size"], payload["nu"], payload["tau"]) == (38, 2, 3)
    code, out, _ = _run(["extremal", "--kind", "stars", "--n", "5", "--s", "3"], capsys)
    payload = json.loads(out)
    assert payload["size"] == 48 and payload["nu"] == 2 and payload["pairwise_disjoint"] is True
    code, out, _ = _run(["extremal", "--kind", "derstars", "--n", "5", "--s", "3"], capsys)
    payload = json.loads(out)
    assert payload["size"] == 22 and payload["nu"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--kind", "theorem3", "--n", "4", "--s", "5"], "error: no permutation of [4] maps 1 to 5\n"),
        (["--kind", "theorem3", "--n", "3", "--s", "7"], "error: no permutation of [3] maps 1 to 7\n"),
        (["--kind", "hm", "--n", "1"], "error: no permutation of [1] maps 1 to 2\n"),
    ],
)
def test_cli_extremal_default_sigma_names_the_missing_permutation(argv, message, capsys):
    # no sigma was given, so the error is about the default one that cannot exist
    code, out, err = _run(["extremal"] + argv, capsys)
    assert (code, out, err) == (2, "", message)


def test_cli_crossmatch(tmp_path, capsys):
    from permemc import derangement_star

    p1 = tmp_path / "f1.txt"
    p2 = tmp_path / "f2.txt"
    save_family(derangement_star(4, (1, 2)), p1)
    save_family(derangement_star(4, (2, 1)), p2)
    code, out, _ = _run(["crossmatch", "--families", str(p1), str(p2)], capsys)
    assert code == 0
    assert json.loads(out)["witness"] == [[2, 3, 4, 1], [4, 1, 2, 3]]


def test_cli_mc_spread(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    save_family(symmetric_group(2), path)
    code, out, _ = _run(
        ["mc-spread", "--family", str(path), "--p", "1/2", "--samples", "20000", "--seed", "0"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 7 / 16) <= 3 * payload["standard_error"]


def test_cli_verify_suite_deterministic(capsys):
    code, out1, _ = _run(["verify", "--suite", "counts", "--seed", "3"], capsys)
    assert code == 0
    code, out2, _ = _run(["verify", "--suite", "counts", "--seed", "3"], capsys)
    rep1, rep2 = json.loads(out1), json.loads(out2)
    rep1.pop("elapsed_ms")
    rep2.pop("elapsed_ms")
    assert rep1 == rep2
    assert rep1["seed"] == 3


def test_cli_verify_all_byte_identical_modulo_elapsed(capsys):
    def scrub(report):
        report.pop("elapsed_ms", None)
        for sub in report.get("suites", []):
            sub.pop("elapsed_ms", None)
        return report

    code, out1, _ = _run(["verify", "--suite", "all", "--seed", "1"], capsys)
    assert code == 0
    code, out2, _ = _run(["verify", "--suite", "all", "--seed", "1"], capsys)
    assert scrub(json.loads(out1)) == scrub(json.loads(out2))


def test_cli_verify_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(["verify", "--suite", "lemma16", "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["suite"] == "lemma16"


def test_cli_io_error_exit_code(capsys):
    code, _, err = _run(["nu", "--family", "/nonexistent/family.txt"], capsys)
    assert code == 3
    code, _, err = _run(["permanent", "--matrix", "/nonexistent/m.txt"], capsys)
    assert code == 3


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("n=3\n1 2 2\n")
    code, _, err = _run(["nu", "--family", str(path)], capsys)
    assert code == 3
    assert "bad.txt:2" in err


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    fam_path = tmp_path / "fam.txt"
    fam_path.write_bytes(b"n=2\n1 2\n\xff\xfe\n")
    mat_path = tmp_path / "m.txt"
    mat_path.write_bytes(b"N=2\n1 0\n0 1 \xe9\n")
    with pytest.raises(ParseError):
        load_family(fam_path)
    with pytest.raises(ParseError):
        load_matrix(mat_path)
    code, _, err = _run(["nu", "--family", str(fam_path)], capsys)
    assert code == 3 and "fam.txt:3" in err and "Traceback" not in err
    code, _, err = _run(["permanent", "--matrix", str(mat_path)], capsys)
    assert code == 3 and "m.txt:3" in err and "Traceback" not in err


def test_cli_mc_spread_wide_family(tmp_path, capsys):
    # the 8 cyclic shifts of [8] cover all 64 cells of the grid
    path = tmp_path / "shifts.txt"
    save_family(family(8, [tuple((i + k) % 8 + 1 for i in range(8)) for k in range(8)]), path)
    code, out, err = _run(
        ["mc-spread", "--family", str(path), "--p", "1/2", "--samples", "1000", "--seed", "1"],
        capsys,
    )
    assert code == 0 and "Traceback" not in err
    assert 0 <= json.loads(out)["value"] <= 1


def test_cli_spread_rejects_negative_q(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    save_family(symmetric_group(3), path)
    code, out, err = _run(["spread", "--family", str(path), "--r", "2", "--q", "-1"], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    code, out, _ = _run(["spread", "--family", str(path), "--r", "2", "--q", "0"], capsys)
    assert code == 0 and json.loads(out)["is_spread"] is False


def test_cli_mc_spread_rejects_p_outside_unit_interval(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    save_family(symmetric_group(2), path)
    code, out, err = _run(
        ["mc-spread", "--family", str(path), "--p", "3/2", "--samples", "100", "--seed", "0"],
        capsys,
    )
    assert code == 2 and out == "" and "Traceback" not in err


def test_cli_never_imports_numpy(tmp_path):
    path = tmp_path / "fam.txt"
    save_family(symmetric_group(3), path)
    script = (
        "import sys\n"
        "from permemc import cli\n"
        "assert 'numpy' not in sys.modules, 'import permemc.cli loaded numpy'\n"
        "from fractions import Fraction\n"
        "from permemc import containment_probability, symmetric_group\n"
        "containment_probability(symmetric_group(4), Fraction(1, 2))\n"
        "assert 'numpy' not in sys.modules, 'exact containment_probability loaded numpy'\n"
        "code = cli.main(sys.argv[1:])\n"
        "assert 'numpy' not in sys.modules, 'mc-spread loaded numpy'\n"
        "sys.exit(code)\n"
    )
    args = ["mc-spread", "--family", str(path), "--p", "1/2", "--samples", "100", "--seed", "0"]
    proc = _python("-c", script, *args)
    assert proc.returncode == 0, proc.stderr
    assert 0 <= json.loads(proc.stdout)["value"] <= 1


def test_cli_imports_verify_only_for_the_verify_command():
    script = (
        "import sys\n"
        "from permemc import cli\n"
        "assert 'permemc.verify' not in sys.modules, 'import permemc.cli loaded verify'\n"
        "assert cli.main(['counts', '--n', '4']) == 0\n"
        "assert 'permemc.verify' not in sys.modules, 'counts loaded verify'\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    proc = _python("-m", "permemc.cli", "verify", "--suite", "counts")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["suite"] == "counts"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # in a child, since pytest itself has loaded both here
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import permemc.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'}.intersection(set(sys.modules) - before))))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_verify_suite_names_are_the_cli_choices():
    # cli keeps its own copy of the names, so that parsing needs no import of verify
    from permemc import cli, verify

    assert tuple(verify._SUITE_FUNCS) == cli.SUITES


def test_cli_usage_error_exit_code():
    proc = _python("-m", "permemc.cli", "counts", "--bogus")
    assert proc.returncode == 2


def test_cli_json_only_on_stdout(capsys):
    code, out, err = _run(["counts", "--n", "5"], capsys)
    json.loads(out)  # stdout parses as JSON on its own
    assert err.strip()  # the human summary goes to stderr


def _fuzz_file(rng, path, kind):
    """A random family (n <= 5) or matrix (N <= 6) file, often mangled."""
    n = rng.randint(1, 5 if kind == "family" else 6)
    if kind == "family":
        rows = [" ".join(map(str, rng.sample(range(1, n + 1), n))) for _ in range(rng.randint(0, 12))]
        text = "\n".join([f"n={n}"] + rows) + "\n"
    else:
        rows = [" ".join(rng.choice("01") for _ in range(n)) for _ in range(n)]
        text = "\n".join([f"N={n}"] + rows) + "\n"
    roll = rng.random()
    if roll < 0.2:
        text = text[: rng.randint(0, len(text))]
    elif roll < 0.35:
        toks = text.split(" ")
        toks[rng.randrange(len(toks))] = rng.choice(["-1", "0", "99", "x", "1e400", "", "n=0", "3/2"])
        text = " ".join(toks)
    data = text.encode()
    if 0.35 <= roll < 0.45:
        data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
    path.write_bytes(data)
    return str(path)


@pytest.mark.filterwarnings("ignore:.*duplicate permutation ignored")
def test_cli_fuzz_exit_codes_without_traceback(tmp_path, capsys):
    rng = random.Random(606)

    def fam():
        return _fuzz_file(rng, tmp_path / f"{rng.randrange(10**9)}.txt", "family")

    ints = ["-7", "-1", "0", "1", "2", "3", "6", "x", "", "1.5", "1e3", "\u0661", "1_0"]
    fracs = ["1e400", "-1", "0", "1/0", "abc", "2", "3/2", "1e-400", "-2/3", "\u0661", "1_0"]
    qs = ["-3", "-1", "0", "1", "2", "4", "x", "\u0661", "1_0"]
    codes = set()
    for case in range(400):
        cmd = rng.choice(["counts", "permanent", "nu", "tau", "spread", "approx", "extremal", "crossmatch", "mc-spread"])
        if cmd == "counts":
            argv = [cmd, "--n", rng.choice(ints)]
        elif cmd == "permanent":
            matrix = _fuzz_file(rng, tmp_path / f"{case}.mat", "matrix")
            argv = [cmd, "--matrix", matrix, "--method", rng.choice(["ryser", "brute", "x"])]
        elif cmd in ("nu", "tau"):
            argv = [cmd, "--family", rng.choice([fam(), str(tmp_path / "missing.txt")])]
        elif cmd == "spread":
            argv = [cmd, "--family", fam(), "--r", rng.choice(fracs), "--q", rng.choice(qs)]
            argv = argv[:4] + rng.choice([[], argv[4:], ["--exact"]])
        elif cmd == "approx":
            ambient = rng.choice(["sigma", "derangements", fam()])
            argv = [cmd, "--family", fam(), "--r", rng.choice(fracs), "--q", rng.choice(qs), "--ambient", ambient]
        elif cmd == "extremal":
            kind = rng.choice(["stars", "hm", "theorem3", "derstars", "x"])
            argv = [cmd, "--kind", kind, "--n", rng.choice(ints), "--s", rng.choice(["-2", "0", "1", "3", "50", "x"])]
            argv += rng.choice([[], ["--sigma", rng.choice(["2 1 3", "1 2 3 4 5 6", "1 1", "x", "\u0662 1 3"])]])
        elif cmd == "crossmatch":
            argv = [cmd, "--families"] + [fam() for _ in range(rng.randint(1, 3))]
        else:
            argv = [cmd, "--family", fam(), "--p", rng.choice(["0", "1", "1/2", "-1", "3/2", "1e-9", "x"])]
            argv += ["--samples", rng.choice(["-1", "0", "1", "100", "x", "1_0"])]
            argv += ["--seed", rng.choice(["-1", "0", str(2**70), "7", "x", "\u0661"])]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed values with exit 2
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        codes.add(code)
    assert {0, 2, 3} <= codes
