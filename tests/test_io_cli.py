"""File formats, JSON encoding, and the command-line surface."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from permemc import family, symmetric_group
from permemc.cli import main
from permemc.io import (
    ParseError,
    cells_json,
    format_cells,
    format_family,
    fraction_json,
    load_family,
    load_matrix,
    parse_family,
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


def test_partial_permutation_literal():
    cells = parse_partial_permutation("1:2,3:4")
    assert cells == frozenset({(1, 2), (3, 4)})
    assert parse_partial_permutation("") == frozenset()
    assert format_cells(cells) == "1:2,3:4"
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


def test_family_json_inline_and_spill(tmp_path):
    from permemc.io import family_json

    fam = symmetric_group(3)
    inline = family_json(fam)
    assert inline["size"] == 6 and len(inline["members"]) == 6
    spilled = family_json(fam, inline_limit=2, spill_dir=str(tmp_path), name="big")
    assert "members" not in spilled
    assert load_family(spilled["file"]) == fam


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_counts(capsys):
    code, out, _ = _run(["counts", "--n", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 6, "d_n": 265, "d_n1": 53, "factorial": 720}


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


def test_cli_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "permemc.cli", "counts", "--bogus"],
        capture_output=True,
        text=True,
    )
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

    ints = ["-7", "-1", "0", "1", "2", "3", "6", "x", "", "1.5", "1e3"]
    fracs = ["1e400", "-1", "0", "1/0", "abc", "2", "3/2", "1e-400", "-2/3"]
    qs = ["-3", "-1", "0", "1", "2", "4", "x"]
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
            argv += rng.choice([[], ["--sigma", rng.choice(["2 1 3", "1 2 3 4 5 6", "1 1", "x"])]])
        elif cmd == "crossmatch":
            argv = [cmd, "--families"] + [fam() for _ in range(rng.randint(1, 3))]
        else:
            argv = [cmd, "--family", fam(), "--p", rng.choice(["0", "1", "1/2", "-1", "3/2", "1e-9", "x"])]
            argv += ["--samples", rng.choice(["-1", "0", "1", "100", "x"])]
            argv += ["--seed", rng.choice(["-1", "0", str(2**70), "7", "x"])]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed values with exit 2
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        codes.add(code)
    assert {0, 2, 3} <= codes
