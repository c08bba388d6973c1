"""End-to-end command-line behavior: files, messages, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropreal import iojson
from tropreal.cli import main, parse_target
from tropreal.errors import TropRealError
from tropreal.hyperfields import stv
from tropreal.parsing import (
    MAX_ALL_ORTHANT_VARS, MAX_EXPONENT, MAX_GRID, MAX_NESTING, MAX_VARS, parse_polyk,
)
from tropreal.polyhedra import point_polyhedron, trop_region, union_of
from tropreal.scenarios import get_scenario
from tropreal.troppoly import trop_r


@pytest.fixture
def circle_files(tmp_path):
    poly = tmp_path / "circle.txt"
    poly.write_text("(x-2)^2 + (y-2)^2 - 1\n")
    desc = tmp_path / "circle.json"
    desc.write_text(
        iojson.dumps(iojson.description_to_json(get_scenario("circle").description))
    )
    return poly, desc


def test_parse_target():
    assert parse_target("((+,1),(+,0))") == (stv(1, 1), stv(1, 0))
    assert parse_target("((-,3/2),(0,inf))") == (stv(-1, "3/2"), stv(0, "inf"))
    assert parse_target(" ( (+, 1) , (+,0) ) ") == (stv(1, 1), stv(1, 0))
    # text around, between or after the pairs was skipped: the unterminated
    # third coordinate here gave a witness for ((+,0),(+,0))
    for text in ["nonsense", "", "()", "(+,1)", "((+,0),(+,0),(+,2", "((+,1),(+,1)",
                 "junk ((+,1),(+,1)) junk", "((+,1),(+,1))junk", "((+,1) (+,1))",
                 "((+,1),,(+,1))", "((+,1),junk,(+,1))", "((+,1),(+,1),)", "(((+,1),(+,1)))"]:
        with pytest.raises(TropRealError, match="cannot parse target point"):
            parse_target(text)


def test_trop_command(circle_files, tmp_path, capsys):
    poly, _ = circle_files
    out = tmp_path / "trop.json"
    assert main(["trop", str(poly), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "X^2 (+) Y^2 (+) -X (+) -Y (+) 1" in captured.out
    data = json.loads(out.read_text())
    assert data["nvars"] == 2 and len(data["terms"]) == 5


@pytest.mark.parametrize("old", [b"x" * 10**5, b"{}", b""])
def test_out_rewrites_an_existing_file_to_exactly_the_new_bytes(circle_files, tmp_path, old):
    # a longer file keeps no stale tail, a shorter or empty one grows
    poly, _ = circle_files
    fresh, out = tmp_path / "fresh.json", tmp_path / "old.json"
    out.write_bytes(old)
    assert main(["trop", str(poly), "--out", str(fresh)]) == 0
    assert main(["trop", str(poly), "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert main(["trop", str(poly), "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_out_to_a_file_that_is_not_regular(circle_files, tmp_path, capsys):
    poly, _ = circle_files
    assert main(["trop", str(poly), "--out", "/dev/null"]) == 0
    capsys.readouterr()
    assert main(["trop", str(poly), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Is a directory" in _one_error_line(captured.err)


@pytest.mark.parametrize("out", ["/dev/stdout", "itself"])
def test_out_naming_the_file_stdout_writes_is_out_dash(tmp_path, out):
    # the JSON goes through stdout, and no human line overwrites its start
    halfplane = tmp_path / "halfplane.json"
    halfplane.write_text(
        iojson.dumps(iojson.description_to_json(get_scenario("halfplane").description))
    )
    argv = [sys.executable, "-m", "tropreal.cli", "witness", str(halfplane),
            "--target", "((+,1),(+,0))", "--seed", "1", "--out"]
    dash = subprocess.run(argv + ["-"], capture_output=True, check=True).stdout
    redirected = tmp_path / "f"
    with open(redirected, "wb") as fh:
        target = "/dev/stdout" if out == "/dev/stdout" else str(redirected)
        subprocess.run(argv + [target], stdout=fh, check=True)
    assert dash.startswith(b"{") and redirected.read_bytes() == dash


def test_input_files_are_read_as_utf8_under_any_locale(tmp_path):
    # the documented relation alias "≥" is two non-ASCII bytes in the file;
    # under the C locale they were decoded as ASCII and the command exited 2
    data = iojson.description_to_json(get_scenario("halfplane").description)
    ascii_desc, utf8_desc = tmp_path / "ascii.json", tmp_path / "utf8.json"
    ascii_desc.write_text(iojson.dumps(data))
    for disj in data["disjuncts"]:
        for cond in disj:
            cond["rel"] = {">=": "≥", "<=": "≤", "!=": "≠"}.get(cond["rel"], cond["rel"])
    utf8_desc.write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
    assert "≥".encode("utf-8") in utf8_desc.read_bytes()
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    outs = []
    for desc in (ascii_desc, utf8_desc):
        proc = subprocess.run(
            [sys.executable, "-m", "tropreal.cli", "sample", str(desc), "--seed", "1",
             "--count", "200", "--out", "-"],
            capture_output=True, env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        outs.append(proc.stdout)
    assert outs[0].startswith(b"{") and outs[0] == outs[1]


def test_figures_rerun_into_its_directory_matches_a_fresh_run(tmp_path):
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    for outdir in (again, again, fresh):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["figures", "--outdir", str(outdir), "--grid", "40"]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in again.iterdir()) == names and len(names) == 12
    for name in names:
        assert (again / name).read_bytes() == (fresh / name).read_bytes()


def test_region_command_and_svg(circle_files, tmp_path, capsys):
    poly, _ = circle_files
    trop = tmp_path / "trop.json"
    main(["trop", str(poly), "--out", str(trop)])
    region = tmp_path / "region.json"
    svg = tmp_path / "fig.svg"
    rc = main(
        [
            "region", str(trop), "--rel", "le", "--orthant", "all",
            "--out", str(region), "--svg", str(svg),
            "--window=-1.5,1.5,-1.5,1.5", "--grid", "24",
        ]
    )
    assert rc == 0
    data = json.loads(region.read_text())
    assert len(data["orthants"]) == 9
    text = svg.read_text()
    assert text.startswith("<svg") and "</svg>" in text


def test_sample_command_deterministic(circle_files, tmp_path):
    _, desc = circle_files
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["sample", str(desc), "--count", "4000", "--seed", "5",
                 "--out", str(out1)]) == 0
    assert main(["sample", str(desc), "--count", "4000", "--seed", "5",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["count"] == 1
    assert data["points"][0]["point"] == [
        {"sign": 1, "val": "0"}, {"sign": 1, "val": "0"}
    ]


def test_witness_command_messages(circle_files, tmp_path, capsys):
    _, desc = circle_files
    assert main(["witness", str(desc), "--target", "((+,1),(+,1))",
                 "--budget", "100", "--seed", "2"]) == 0
    assert "no witness (excluded by outer region)" in capsys.readouterr().out
    assert main(["witness", str(desc), "--target", "((+,0),(+,0))",
                 "--budget", "4000", "--seed", "2"]) == 0
    assert "witness: (" in capsys.readouterr().out


def test_basis_command(circle_files, tmp_path, capsys):
    _, desc = circle_files
    T = tmp_path / "T.json"
    T.write_text(iojson.dumps(iojson.union_to_json(union_of(2, [point_polyhedron((0, 0))]))))
    out = tmp_path / "basis.json"
    rc = main(["basis", str(desc), "--target-set", str(T), "--seed", "5",
               "--count", "40", "--out", str(out)])
    assert rc == 0
    assert "regions intersect to T: OK" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["verified"] and len(data["polys"]) >= 4


def test_basis_exits_0_under_an_ascii_stdout(circle_files, tmp_path):
    # its summary was the one non-ASCII text the CLI printed to stdout: under
    # the C locale, basis wrote its verified file, then failed to print the
    # summary and exited 2
    _, desc = circle_files
    T = tmp_path / "T.json"
    T.write_text(iojson.dumps(iojson.union_to_json(union_of(2, [point_polyhedron((0, 0))]))))
    out = tmp_path / "b.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = subprocess.run(
        [sys.executable, "-m", "tropreal.cli", "basis", str(desc), "--target-set", str(T),
         "--seed", "2", "--count", "40", "--out", str(out)],
        capture_output=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.endswith(b"regions intersect to T: OK\n")
    assert json.loads(out.read_text())["verified"]


def test_check_command_exit_codes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "report.json"
    rc = main(["check", "hyperfield-axioms", "--seed", "3", "--count", "300",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert "timing" not in json.dumps(report)  # reports stay byte-stable

    rc = main(["check", "definitely-not-a-suite"])
    assert rc == 2

    import tropreal.checks as checks
    from tropreal.checks import CheckOutcome

    def failing(seed):
        return CheckOutcome("doomed", False, ["FAIL: engineered"])

    monkeypatch.setitem(checks.SUITES, "doomed", (failing, None))
    rc = main(["check", "doomed"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("names", ["figures", "lift lift", "basis lift basis"])
def test_check_refuses_an_unknown_or_repeated_suite_before_running_any(
    capsys, monkeypatch, names
):
    import tropreal.checks as checks

    for name in ("basis", "lift"):
        monkeypatch.setitem(checks.SUITES, name, (None, None))  # running it raises
    assert main(["check", *names.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err)


def test_check_json_on_stdout_is_the_report_file(tmp_path, capsys):
    argv = ["check", "hyperfield-axioms", "--seed", "3", "--count", "10"]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", "-"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.encode() == out.read_bytes()
    assert json.loads(stdout)["passed"] is True


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["region"])  # missing input
    assert exc.value.code == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["trop", "/nonexistent/path.txt"]) == 2
    assert "error" in capsys.readouterr().err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tropreal.cli", "check", "region-coherence",
         "--seed", "1", "--count", "40"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "[PASS] region-coherence" in proc.stdout


def test_trop_constant_and_zero(tmp_path, capsys):
    const7 = tmp_path / "p.txt"
    const7.write_text("7")
    out = tmp_path / "t.json"
    assert main(["trop", str(const7), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["terms"] == [{"exps": [], "coeff": {"sign": 1, "val": "0"}}]

    zero = tmp_path / "z.txt"
    zero.write_text("x - x")
    assert main(["trop", str(zero), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "tropicalizes to zero" in captured.err
    assert json.loads(out.read_text())["terms"] == []


def test_figures_command(tmp_path):
    outdir = tmp_path / "figs"
    assert main(["figures", "--outdir", str(outdir), "--grid", "16"]) == 0
    names = {p.name for p in outdir.iterdir()}
    assert "circle.svg" in names and "rectangles.svg" in names
    assert "halfplane.json" in names


def test_region_all_orthants_reads_undefined_orthants_as_empty(tmp_path, capsys):
    # trop(x*y^-1 + z - 2) is undefined wherever y = 0
    G = tmp_path / "G.json"
    G.write_text(json.dumps({"nvars": 3, "terms": [
        {"exps": [1, -1, 0], "coeff": {"sign": 1, "val": "0"}},
        {"exps": [0, 0, 1], "coeff": {"sign": 1, "val": "0"}},
        {"exps": [0, 0, 0], "coeff": {"sign": -1, "val": "0"}},
    ]}))
    out = tmp_path / "region.json"
    assert main(["region", str(G), "--orthant", "all", "--rel", "ge", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    orthants = {o["sigma"]: o["region"] for o in json.loads(out.read_text())["orthants"]}
    assert len(orthants) == 27
    for sigma, region in orthants.items():
        if sigma[1] == "0":
            assert region == [], sigma
    # where y != 0 the region is the one the orthant alone gives
    assert orthants["+++"] == iojson.union_to_json(
        trop_region(iojson.troppoly_from_json(json.loads(G.read_text())), (1, 1, 1), "ge")
    )
    assert orthants["+++"]


def _x1_minus_1(tmp_path, nvars):
    F = tmp_path / "F.json"
    F.write_text(json.dumps({"nvars": nvars, "terms": [
        {"exps": [1] + [0] * (nvars - 1), "coeff": {"sign": 1, "val": "0"}},
        {"exps": [0] * nvars, "coeff": {"sign": -1, "val": "0"}},
    ]}))
    return F


def test_region_all_orthants_is_refused_beyond_its_width(tmp_path, capsys):
    # 3^n orthants: n = 12 took 18.5 s, and n = 20 ran out of memory
    F, out = _x1_minus_1(tmp_path, MAX_ALL_ORTHANT_VARS + 1), tmp_path / "r.json"
    assert main(["region", str(F), "--orthant", "all", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"MAX_ALL_ORTHANT_VARS={MAX_ALL_ORTHANT_VARS}" in _one_error_line(captured.err)


def test_region_on_one_orthant_is_allowed_at_every_width(tmp_path, capsys):
    F, out = _x1_minus_1(tmp_path, MAX_VARS), tmp_path / "r.json"
    assert main(["region", str(F), "--orthant", "+" * MAX_VARS, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(json.loads(out.read_text())["orthants"]) == 1


def _one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err
    return lines[0]


@pytest.mark.parametrize("command", [["sample"], ["witness", "--target", "((+,0))"]])
def test_malformed_description_is_usage_error(tmp_path, capsys, command):
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps({
        "nvars": 1,
        "disjuncts": [[{"poly": {"nvars": 1, "terms": 5}, "rel": ">="}]],
    }))
    assert main([command[0], str(desc), *command[1:]]) == 2
    assert "bad.json" in _one_error_line(capsys.readouterr().err)


_ONE_TERM = {"nvars": 1, "terms": [{"exps": [1], "coeff": {"terms": [{"exp": "0", "coeff": "1"}]}}]}


@pytest.mark.parametrize("terms, field, top", [
    pytest.param(5, "disjuncts[0][0].poly.terms", {}, id="5-disjuncts[0][0].poly.terms"),
    pytest.param([{"exps": "1", "coeff": {"terms": [{"exp": "0", "coeff": "1"}]}}],
                 "disjuncts[0][0].poly.terms[0].exps", {},
                 id="terms1-disjuncts[0][0].poly.terms[0].exps"),
    pytest.param([], "nvars", {"nvars": "x"}, id="nvars-string"),
    pytest.param([], "nvars", {"nvars": 65}, id="nvars-over-limit"),
    pytest.param([], "nvars", {"nvars": True}, id="nvars-boolean"),
    pytest.param([], "disjuncts", {"disjuncts": 5}, id="disjuncts-integer"),
    pytest.param([], "disjuncts[0]", {"disjuncts": [5]}, id="disjunct-integer"),
    pytest.param([], "disjuncts[0][1]", {"disjuncts": [[{"poly": _ONE_TERM, "rel": ">="}, "x"]]},
                 id="condition-string"),
    pytest.param([], "disjuncts[0][0].rel", {"disjuncts": [[{"poly": _ONE_TERM, "rel": "=>"}]]},
                 id="rel-unknown"),
    pytest.param([], "disjuncts[0][0].rel", {"disjuncts": [[{"poly": _ONE_TERM, "rel": 1}]]},
                 id="rel-integer"),
    pytest.param([], "disjuncts[0][0].poly.nvars",
                 {"disjuncts": [[{"poly": {"nvars": 1.5, "terms": []}, "rel": ">="}]]},
                 id="poly-nvars-number"),
])
def test_malformed_polynomial_field_is_named(tmp_path, capsys, terms, field, top):
    desc = tmp_path / "shape.json"
    desc.write_text(json.dumps({
        "nvars": 1,
        "disjuncts": [[{"poly": {"nvars": 1, "terms": terms}, "rel": ">="}]],
        **top,
    }))
    assert main(["sample", str(desc)]) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: {desc}: {field}: expected"), line


def _power_minus_one(exps):
    """The JSON description x^a * y^b - 1 >= 0, with (a, b) = exps."""
    poly = {"nvars": 2, "terms": [
        {"exps": exps, "coeff": {"terms": [{"exp": "0", "coeff": "1"}]}},
        {"exps": [0, 0], "coeff": {"terms": [{"exp": "0", "coeff": "-1"}]}},
    ]}
    return json.dumps({"nvars": 2, "disjuncts": [[{"poly": poly, "rel": ">="}]]})


@pytest.mark.parametrize("exps, rc", [([0, 2**70], 2), ([0, -2**70], 2),
                                      ([0, MAX_EXPONENT], 0)])
def test_json_exponent_is_bounded(tmp_path, capsys, exps, rc):
    # sampling with an exponent of 2**70 never ended
    desc = tmp_path / "big.json"
    desc.write_text(_power_minus_one(exps))
    assert main(["sample", str(desc), "--count", "20", "--seed", "3"]) == rc
    err = capsys.readouterr().err
    if rc:
        assert _one_error_line(err) == (
            f"error: {desc}: disjuncts[0][0].poly.terms[0].exps: "
            f"an exponent is beyond MAX_EXPONENT={MAX_EXPONENT}")


# Samples y^MAX_EXPONENT - 1 >= 0 at seeds 1-40 under 2 GB of address
# space, and prints the seeds whose run did not exit 0.
_SAMPLE_UNDER_2GB = """
import contextlib, io, resource, sys
from tropreal.cli import main
resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
desc, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    failed = [seed for seed in range(1, 41) if main(
        ["sample", desc, "--count", "20", "--seed", str(seed), "--out", out]) != 0]
print(failed)
"""


def test_sampling_at_the_exponent_bound_stays_small(tmp_path):
    # The exact sign of y^10000 - 1 at y = 1 + ... once built every power
    # y^d, d <= 10000, in full: a MemoryError under this limit.
    pytest.importorskip("resource")
    desc = tmp_path / "big.json"
    desc.write_text(_power_minus_one([0, MAX_EXPONENT]))
    proc = subprocess.run(
        [sys.executable, "-c", _SAMPLE_UNDER_2GB, str(desc), str(tmp_path / "out.json")],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _halfspace(normal=(1, 0), offset="0", strict=False):
    return {"normal": list(normal), "offset": offset, "strict": strict}


@pytest.mark.parametrize("target, field", [
    pytest.param({"dim": 2}, "input", id="not-a-list"),
    pytest.param([5], "[0]", id="piece-integer"),
    pytest.param([{"dim": 2, "constraints": 5}], "[0].constraints", id="constraints-integer"),
    pytest.param([{"dim": "a", "constraints": []}], "[0].dim", id="dim-string"),
    pytest.param([{"dim": -1, "constraints": []}], "[0].dim", id="dim-negative"),
    pytest.param([{"dim": 65, "constraints": []}], "[0].dim", id="dim-beyond-the-variable-limit"),
    pytest.param([{"dim": 3, "constraints": []}], "[0].dim", id="dim-not-the-orthant"),
    pytest.param([{"dim": 2, "constraints": [5]}], "[0].constraints[0]", id="constraint-integer"),
    pytest.param([{"dim": 2, "constraints": [_halfspace(), _halfspace(normal=(1,))]}],
                 "[0].constraints[1].normal", id="normal-short"),
    pytest.param([{"dim": 2, "constraints": [_halfspace(normal=("1", 0))]}],
                 "[0].constraints[0].normal", id="normal-string-entry"),
    pytest.param([{"dim": 2, "constraints": []}, {"dim": 2, "constraints": [_halfspace(offset=0.5)]}],
                 "[1].constraints[0].offset", id="offset-number"),
    pytest.param([{"dim": 2, "constraints": [_halfspace(offset="1/0")]}],
                 "[0].constraints[0].offset", id="offset-bad-rational"),
    pytest.param([{"dim": 2, "constraints": [_halfspace(strict=1)]}],
                 "[0].constraints[0].strict", id="strict-integer"),
])
def test_malformed_target_set_field_is_named(circle_files, tmp_path, capsys, target, field):
    _, desc = circle_files
    T = tmp_path / "T.json"
    T.write_text(json.dumps(target))
    assert main(["basis", str(desc), "--target-set", str(T)]) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: {T}: {field}: "), line


@pytest.mark.parametrize("coeff, field", [
    pytest.param({"sign": "a", "val": "0"}, "terms[0].coeff.sign", id="sign-letter"),
    pytest.param({"sign": "1", "val": "0"}, "terms[0].coeff.sign", id="sign-string"),
    pytest.param({"sign": 1.5, "val": "0"}, "terms[0].coeff.sign", id="sign-number"),
    pytest.param({"sign": True, "val": "0"}, "terms[0].coeff.sign", id="sign-boolean"),
    pytest.param({"sign": 2, "val": "0"}, "terms[0].coeff.sign", id="sign-two"),
    pytest.param({"val": "0"}, "terms[0].coeff.sign", id="sign-missing"),
    pytest.param([1], "terms[0].coeff", id="coeff-list"),
    pytest.param({"sign": 1, "val": 0.5}, "terms[0].coeff.val", id="val-number"),
    pytest.param({"sign": 1, "val": ["0"]}, "terms[0].coeff.val", id="val-list"),
    pytest.param({"sign": 1, "val": None}, "terms[0].coeff.val", id="val-null"),
    pytest.param({"sign": 1, "val": False}, "terms[0].coeff.val", id="val-boolean"),
    pytest.param({"sign": 1, "val": ""}, "terms[0].coeff.val", id="val-empty-string"),
    pytest.param({"sign": 1, "val": "1e100000"}, "terms[0].coeff.val", id="val-exponent"),
    pytest.param({"sign": 1, "val": "2E-3"}, "terms[0].coeff.val", id="val-exponent-upper"),
    pytest.param({"sign": 1, "val": "inf"}, "terms[0].coeff", id="sign-nonzero-val-inf"),
    pytest.param({"sign": 0, "val": "1"}, "terms[0].coeff", id="sign-zero-val-finite"),
])
def test_malformed_signed_value_is_named(circle_files, tmp_path, capsys, coeff, field):
    _, desc = circle_files
    data = iojson.troppoly_to_json(trop_r(get_scenario("circle").params["poly"]).neg())
    data["terms"][0]["coeff"] = coeff
    F = tmp_path / "F.json"
    F.write_text(json.dumps(data))
    assert main(["lift", str(desc), "--trop", str(F)]) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: {F}: {field}: expected"), line


@pytest.mark.parametrize("key, value", [
    pytest.param("exp", 0.5, id="exp-number"),
    pytest.param("exp", ["0"], id="exp-list"),
    pytest.param("exp", None, id="exp-null"),
    pytest.param("exp", {}, id="exp-object"),
    pytest.param("exp", True, id="exp-boolean"),
    pytest.param("exp", "1/x", id="exp-bad-string"),
    pytest.param("coeff", 1.5, id="coeff-number"),
    pytest.param("coeff", "1/0", id="coeff-zero-denominator"),
    pytest.param("coeff", "1e100000", id="coeff-exponent"),
    pytest.param("exp", "1E5", id="exp-exponent"),
    pytest.param("exp", "1_0", id="exp-underscore"),
    pytest.param("coeff", "1/2_0", id="coeff-underscore"),
])
def test_malformed_series_value_is_named(circle_files, tmp_path, capsys, key, value):
    _, desc = circle_files
    data = json.loads(desc.read_text())
    data["disjuncts"][0][0]["poly"]["terms"][0]["coeff"]["terms"][0][key] = value
    desc.write_text(json.dumps(data))
    assert main(["sample", str(desc), "--count", "5"]) == 2
    line = _one_error_line(capsys.readouterr().err)
    field = f"disjuncts[0][0].poly.terms[0].coeff.terms[0].{key}"
    assert line.startswith(f"error: {desc}: {field}: expected"), line


def _circle_without_rel():
    data = iojson.description_to_json(get_scenario("circle").description)
    del data["disjuncts"][0][0]["rel"]
    return data


# each command names its input file F; S is the circle's description
@pytest.mark.parametrize("command, data, field, key", [
    pytest.param(["sample", "F", "--count", "5"], {"nvars": 2}, "input", "disjuncts",
                 id="description"),
    pytest.param(["sample", "F", "--count", "5"], _circle_without_rel(), "disjuncts[0][0]", "rel",
                 id="description-rel"),
    pytest.param(["lift", "S", "--trop", "F"], {"nvars": 2, "terms": [{"exps": [1, 0]}]},
                 "terms[0]", "coeff", id="trop"),
    pytest.param(["basis", "S", "--target-set", "F"],
                 [{"dim": 2, "constraints": [{"normal": [1, 0], "offset": "0"}]}],
                 "[0].constraints[0]", "strict", id="target-set"),
])
def test_description_missing_key_is_named(circle_files, tmp_path, capsys, command, data, field, key):
    _, desc = circle_files
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data))
    argv = [{"F": str(path), "S": str(desc)}.get(arg, arg) for arg in command]
    assert main(argv) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert f"missing key '{key}'" in line
    assert line == f"error: {path}: {field}: missing key '{key}'"


# each command reads F as JSON; S is the circle's description
@pytest.mark.parametrize("command", [
    pytest.param(["witness", "F", "--target", "((+,0),(+,0))"], id="description"),
    pytest.param(["region", "F"], id="region"),
    pytest.param(["lift", "S", "--trop", "F"], id="trop"),
    pytest.param(["basis", "S", "--target-set", "F"], id="target-set"),
])
def test_deeply_nested_json_is_named(circle_files, tmp_path, capsys, command):
    # 100,000 nested arrays ended in a RecursionError traceback and exit 1
    _, desc = circle_files
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    argv = [{"F": str(path), "S": str(desc)}.get(arg, arg) for arg in command]
    assert main(argv) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == f"error: {path}: JSON nested too deeply to read"


@pytest.mark.parametrize("text", ["(" * 5000 + "x1" + ")" * 5000, "-" * 5000 + "x1"],
                         ids=["parentheses", "signs"])
def test_deeply_nested_text_is_a_usage_error(tmp_path, capsys, text):
    # both printed a RecursionError traceback of thousands of lines and exited 1
    poly = tmp_path / "deep.txt"
    poly.write_text(text)
    assert main(["trop", str(poly)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) == (
        f"error: parentheses and signs nest deeper than MAX_NESTING={MAX_NESTING}")


def test_cli_start_up_imports_no_dataclasses_renderer_or_checks():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, tropreal.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'tropreal.render', "
             "'tropreal.checks') if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == []


@pytest.mark.parametrize("poly, rel", [
    ({"nvars": 2, "terms": [{"exps": [1], "coeff": {"terms": [{"exp": "0", "coeff": "1"}]}}]},
     ">="),
    ({"nvars": 2, "terms": [{"exps": [1, 0], "coeff": {"terms": [{"exp": "0", "coeff": "1z"}]}}]},
     ">="),
    ({"nvars": 2, "terms": [{"exps": [1, 0], "coeff": {"terms": [{"exp": "0", "coeff": "1"}]}}]},
     "=>"),
])
def test_description_decode_error_names_the_file(tmp_path, capsys, poly, rel):
    desc = tmp_path / "short.json"
    desc.write_text(json.dumps({"nvars": 2, "disjuncts": [[{"poly": poly, "rel": rel}]]}))
    assert main(["sample", str(desc), "--count", "5"]) == 2
    assert _one_error_line(capsys.readouterr().err).startswith(f"error: {desc}: ")


def test_invalid_json_names_the_file(tmp_path, capsys):
    desc = tmp_path / "truncated.json"
    desc.write_text('{"nvars": 2, "disjuncts": [')
    assert main(["sample", str(desc)]) == 2
    assert _one_error_line(capsys.readouterr().err).startswith(f"error: {desc}: ")


def test_malformed_target_set_is_usage_error(circle_files, tmp_path, capsys):
    _, desc = circle_files
    T = tmp_path / "T.json"
    T.write_text(json.dumps([{"dim": 2, "constraints": 3}]))
    assert main(["basis", str(desc), "--target-set", str(T)]) == 2
    _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_nonpositive_count_is_usage_error(capsys, count):
    assert main(["check", "hyperfield-axioms", "--count", count]) == 2
    assert "positive" in _one_error_line(capsys.readouterr().err)


_NONNEGATIVE = "must be nonnegative"
_RATIONAL = "expected a rational such as '-1/2'"


# A rational flag value is read as a JSON input's rational is: a zero
# denominator (a ZeroDivisionError traceback before), exponent notation or
# an underscore is a usage error.
@pytest.mark.parametrize("command, message", [
    pytest.param(["sample", "--count", "-5"], _NONNEGATIVE, id="command0"),
    pytest.param(["witness", "--target", "((+,0),(+,0))", "--budget", "-3"], _NONNEGATIVE,
                 id="command1"),
    pytest.param(["basis", "--target-set", "T.json", "--count", "-2"], _NONNEGATIVE,
                 id="command2"),
    pytest.param(["lift", "--trop", "F.json", "--count", "-1"], _NONNEGATIVE, id="command3"),
    pytest.param(["lift", "--trop", "F.json", "--budget", "-4"], _NONNEGATIVE, id="command4"),
    pytest.param(["witness", "--target", "((+,1/0),(+,0))"], _RATIONAL, id="target-1/0"),
    pytest.param(["witness", "--target", "((+,1e5),(+,0))"], _RATIONAL, id="target-1e5"),
    pytest.param(["witness", "--target", "((+,1_0),(+,0))"], _RATIONAL, id="target-1_0"),
    pytest.param(["witness", "--target", "((0,1),(+,0))"], "sign 0 requires valuation inf",
                 id="target-sign-0"),
    pytest.param(["witness", "--target", "((+,0),(+,0),(+,2", "--budget", "50"],
                 "cannot parse target point", id="target-unterminated"),
    pytest.param(["region", "--svg", "x.svg", "--window", "1/0,1,0,1"], _RATIONAL,
                 id="window-1/0"),
    pytest.param(["region", "--svg", "x.svg", "--window", "1e5,1,0,1"], _RATIONAL,
                 id="window-1e5"),
    pytest.param(["region", "--svg", "x.svg", "--window", "1_0,1,0,1"], _RATIONAL,
                 id="window-1_0"),
])
def test_negative_count_or_budget_is_usage_error(circle_files, capsys, command, message):
    _, desc = circle_files
    assert main([command[0], str(desc), *command[1:]]) == 2
    assert message in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("poly, flags, message", [
    pytest.param("x + y + z - 1", [], "SVG output requires exactly two variables",
                 id="three-variables"),
    pytest.param("x + y - 1", ["--grid", "1"], "grid must be at least 2", id="grid-1"),
    pytest.param("x + y - 1", ["--window", "1,0,0,1"], "window must be a nondegenerate",
                 id="window-reversed"),
])
def test_region_refuses_its_raster_inputs_before_writing(tmp_path, capsys, poly, flags, message):
    # the regions were computed, printed and written before the raster's
    # inputs were read
    F = tmp_path / "F.json"
    F.write_text(iojson.dumps(iojson.troppoly_to_json(trop_r(parse_polyk(poly)))))
    out, svg = tmp_path / "r.json", tmp_path / "x.svg"
    capsys.readouterr()
    rc = main(["region", str(F), "--svg", str(svg), "--out", str(out), *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert message in _one_error_line(captured.err)
    assert not out.exists() and not svg.exists()


def _circle_trop_file(tmp_path):
    F = tmp_path / "F.json"
    F.write_text(iojson.dumps(iojson.troppoly_to_json(trop_r(get_scenario("circle").params["poly"]).neg())))
    return F


def test_region_svg_in_a_missing_directory_writes_nothing(tmp_path, capsys):
    # the regions were printed and --out written before the SVG target failed
    F = _circle_trop_file(tmp_path)
    out = tmp_path / "r.json"
    capsys.readouterr()
    rc = main(["region", str(F), "--svg", str(tmp_path / "nodir" / "x.svg"), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "No such file or directory" in _one_error_line(captured.err)
    assert not out.exists()


def test_region_out_in_a_missing_directory_leaves_no_svg(tmp_path, capsys):
    F = _circle_trop_file(tmp_path)
    svg = tmp_path / "x.svg"
    capsys.readouterr()
    rc = main(["region", str(F), "--svg", str(svg), "--out", str(tmp_path / "nodir" / "r.json")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "No such file or directory" in _one_error_line(captured.err)
    assert not svg.exists()


def test_region_failure_keeps_an_existing_svg(tmp_path, capsys):
    # a failing command leaves a file it did not create byte for byte
    F = _circle_trop_file(tmp_path)
    svg = tmp_path / "old.svg"
    svg.write_bytes(b"<svg>kept</svg>\n")
    capsys.readouterr()
    rc = main(["region", str(F), "--svg", str(svg), "--out", str(tmp_path / "nodir" / "r.json")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "No such file or directory" in _one_error_line(captured.err)
    assert svg.read_bytes() == b"<svg>kept</svg>\n"


def test_region_replaces_an_existing_svg(tmp_path, capsys):
    F = _circle_trop_file(tmp_path)
    fresh, svg = tmp_path / "fresh.svg", tmp_path / "old.svg"
    svg.write_text("x" * 10**6)
    assert main(["region", str(F), "--svg", str(fresh), "--grid", "8"]) == 0
    assert main(["region", str(F), "--svg", str(svg), "--grid", "8"]) == 0
    assert svg.read_bytes() == fresh.read_bytes()
    assert fresh.read_text().startswith("<svg")


@pytest.mark.parametrize("command", ["region", "figures"])
def test_a_grid_above_max_grid_is_refused_before_any_output(tmp_path, capsys, command):
    # the raster's work grows with grid squared: a grid just over the cap is
    # refused before a node is classified
    grid = str(MAX_GRID + 1)
    F, svg, out, outdir = (tmp_path / "F.json", tmp_path / "x.svg", tmp_path / "r.json",
                           tmp_path / "D")
    F.write_text(iojson.dumps(iojson.troppoly_to_json(trop_r(parse_polyk("x + y - 1")))))
    argv = {
        "region": ["region", str(F), "--svg", str(svg), "--out", str(out), "--grid", grid],
        "figures": ["figures", "--grid", grid, "--outdir", str(outdir)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"grid must be at most MAX_GRID={MAX_GRID}" in _one_error_line(captured.err)
    assert not any(p.exists() for p in (svg, out, outdir))


@pytest.mark.parametrize("grid", ["0", "1"])
def test_figures_refuses_a_small_grid_before_making_its_directory(tmp_path, capsys, grid):
    outdir = tmp_path / "D" / "E"
    assert main(["figures", "--grid", grid, "--outdir", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid must be at least 2" in _one_error_line(captured.err)
    assert not (tmp_path / "D").exists()


@pytest.mark.parametrize("option", ["--outdir", "--grid"])
def test_check_writes_no_figures(capsys, option):
    # `figures --outdir D --grid G` writes them
    with pytest.raises(SystemExit) as exc:
        main(["check", "all", option, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 2" in capsys.readouterr().err


def test_malformed_input_exits_without_traceback(tmp_path):
    desc = tmp_path / "bad.json"
    desc.write_text('{"nvars": 2, "disjuncts": [[{"poly": {"nvars": 2, "terms": 5}}]]}')
    proc = subprocess.run(
        [sys.executable, "-m", "tropreal.cli", "sample", str(desc)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    _one_error_line(proc.stderr)


def test_trop_negative_nvars_is_a_usage_error(tmp_path):
    poly = tmp_path / "p.txt"
    poly.write_text("x + 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tropreal.cli", "trop", str(poly), "--nvars", "-1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "nvars=-1" in _one_error_line(proc.stderr)


def test_trop_overlong_numeral_is_a_usage_error(tmp_path, capsys):
    poly = tmp_path / "long.txt"
    poly.write_text("x + " + "9" * 5000)
    assert main(["trop", str(poly)]) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == "error: numeral of 5000 digits is too long"


@pytest.mark.parametrize("text", ["(x+y+1)^80", "(x+1)^1000"])
def test_trop_over_the_term_budget_is_a_usage_error(tmp_path, capsys, text):
    poly = tmp_path / "power.txt"
    poly.write_text(text)
    assert main(["trop", str(poly)]) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line.startswith("error: a power ") and "more than" in line, line


@pytest.mark.parametrize("text", ["7^10000000", "(2/3)^3000000", "(2/3*t)^1000000"])
def test_trop_power_over_the_bit_bound_is_a_usage_error(tmp_path, capsys, text):
    poly = tmp_path / "power.txt"
    poly.write_text(text)
    assert main(["trop", str(poly)]) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line.startswith("error: a power ") and "bits" in line, line


def test_trop_product_over_the_bit_bound_is_a_usage_error(tmp_path, capsys):
    poly = tmp_path / "product.txt"
    poly.write_text("*".join(["7^3000"] * 200))
    assert main(["trop", str(poly)]) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line.startswith("error: a product ") and "bits" in line, line


def test_sampling_shortfall_is_a_failure_not_a_usage_error(circle_files, tmp_path, capsys):
    # the default sampler finds no circle member at this seed, so nothing
    # can verify the lifted inequalities
    _, desc = circle_files
    T = tmp_path / "T.json"
    T.write_text(iojson.dumps(iojson.union_to_json(union_of(2, [point_polyhedron((0, 0))]))))
    rc = main(["basis", str(desc), "--T", str(T), "--seed", "1", "--count", "40"])
    assert rc == 1
    line = _one_error_line(capsys.readouterr().err)
    assert line == "error: no verification samples of the set were found"


def test_basis_target_of_the_wrong_width_is_refused_before_any_draw(
    circle_files, tmp_path, capsys, monkeypatch
):
    # the target is decoded at the description's two variables, so a
    # one-variable target is a decode error before the command draws
    from tropreal import semialg

    def no_draw(*args):
        raise AssertionError("a candidate was drawn")

    monkeypatch.setattr(semialg, "_candidates", no_draw)
    _, desc = circle_files
    T = tmp_path / "T1.json"
    T.write_text(iojson.dumps(iojson.union_to_json(union_of(1, [point_polyhedron((0,))]))))
    rc = main(["basis", str(desc), "--target-set", str(T), "--seed", "1", "--count", "10"])
    assert rc == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: {T}: [0].dim: "), line


def test_lift_trop_of_the_wrong_width_is_refused_before_any_draw(
    circle_files, tmp_path, capsys, monkeypatch
):
    # F1 is the tropicalization of x - 1, in one variable; the circle has
    # two, and the widths are compared before the verification samples
    from tropreal import semialg

    def no_draw(*args):
        raise AssertionError("a candidate was drawn")

    monkeypatch.setattr(semialg, "_candidates", no_draw)
    _, desc = circle_files
    F = tmp_path / "F1.json"
    F.write_text(iojson.dumps(iojson.troppoly_to_json(trop_r(parse_polyk("x - 1", 1)))))
    rc = main(["lift", str(desc), "--trop", str(F), "--seed", "1"])
    assert rc == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == "error: F has 1 variable(s) and the description has 2"


def test_basis_target_that_misses_the_samples_is_named(circle_files, tmp_path, capsys):
    # the circle's samples tropicalize to (0, 0), which T = {(1, 1)} misses
    _, desc = circle_files
    T = tmp_path / "T11.json"
    T.write_text(iojson.dumps(iojson.union_to_json(union_of(2, [point_polyhedron((1, 1))]))))
    rc = main(["basis", str(desc), "--target-set", str(T), "--seed", "2", "--count", "40"])
    assert rc == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == "error: the target does not contain the sampled tropicalization"


def test_lift_of_another_width_names_both_widths(circle_files, tmp_path, capsys):
    # F1 is the tropicalization of x - 1, in one variable; the circle has two
    _, desc = circle_files
    F = tmp_path / "F1.json"
    F.write_text(iojson.dumps(iojson.troppoly_to_json(trop_r(parse_polyk("x - 1", 1)))))
    rc = main(["lift", str(desc), "--trop", str(F), "--seed", "2", "--count", "40"])
    assert rc == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == "error: F has 1 variable(s) and the description has 2"


def test_witness_target_of_another_width_names_both_widths(circle_files, capsys):
    _, desc = circle_files
    rc = main(["witness", str(desc), "--target", "((+,0),(+,0),(+,0))",
               "--budget", "10", "--seed", "2"])
    assert rc == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == "error: the target has 3 coordinate(s) and the description has 2 variable(s)"


def test_lift_with_no_negative_term_draws_no_candidate(
    circle_files, tmp_path, capsys, monkeypatch
):
    # X (+) 0 is positive on the whole orthant, so the outer region
    # certifies it and no sample is read
    from tropreal import semialg

    def no_draw(*args):
        raise AssertionError("a candidate was drawn")

    monkeypatch.setattr(semialg, "_candidates", no_draw)
    _, desc = circle_files
    F = tmp_path / "F.json"
    F.write_text(json.dumps({"nvars": 2, "terms": [
        {"coeff": {"sign": 1, "val": "0"}, "exps": [0, 0]},
        {"coeff": {"sign": 1, "val": "0"}, "exps": [1, 0]},
    ]}))
    out = tmp_path / "lift.json"
    assert main(["lift", str(desc), "--trop", str(F), "--seed", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["samples_checked"] == 0
    assert data["certificate"] == "outer-region"


@pytest.mark.parametrize("command", ["lift", "basis"])
def test_lift_and_basis_take_no_orthant(circle_files, command):
    _, desc = circle_files
    argv = [command, str(desc), "--trop" if command == "lift" else "--target-set", "x.json"]
    rc, out, err = _run_main(argv + ["--orthant", "++"])
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --orthant ++" in err


def test_lift_without_samples_is_a_shortfall(circle_files, tmp_path, capsys):
    # {X (+) -1 >= 0} does not cover the circle's outer region, so only
    # samples can certify it, and 40 draws at seed 1 keep no circle member
    _, desc = circle_files
    F = tmp_path / "F.json"
    F.write_text(json.dumps({"nvars": 2, "terms": [
        {"coeff": {"sign": -1, "val": "0"}, "exps": [0, 0]},
        {"coeff": {"sign": 1, "val": "0"}, "exps": [1, 0]},
    ]}))
    rc = main(["lift", str(desc), "--trop", str(F), "--seed", "1", "--count", "40"])
    assert rc == 1
    line = _one_error_line(capsys.readouterr().err)
    assert line == "error: no verification samples of the set were found"


_TEXT_TOKENS = "x y z t x1 x4 x64 x65 x2000000 q 0 1 2 3 4 5 6 7 8 9 + - * ^ ( ) /".split()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TEXT_TOKENS), max_size=12))
def test_trop_text_input_fuzz(tokens):
    # single spaces keep every numeral to one digit, which bounds the powers
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "poly.txt"
        path.write_text(" ".join(tokens))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["trop", str(path)])
    lines = err.getvalue().splitlines()
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    else:
        assert rc == 0
        assert lines in ([], ["warning: the polynomial tropicalizes to zero"]), lines


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_one_parser_serves_repeated_calls(circle_files, tmp_path, monkeypatch):
    from tropreal import cli

    _, desc = circle_files
    halfplane = tmp_path / "halfplane.json"
    halfplane.write_text(
        iojson.dumps(iojson.description_to_json(get_scenario("halfplane").description))
    )
    sample = ["sample", str(halfplane), "--count", "10", "--out", "-"]
    calls = [
        ["witness", str(desc), "--target", "((+,0),(+,0))", "--budget", "30",
         "--seed", "3", "--out", "-"],
        ["region"],
        ["--help"],
        sample + ["--seed", "2"],
        ["witness", "--help"],
        ["sample", str(desc), "--count", "-1"],
    ]
    cli._build_parser.cache_clear()
    shared = [_run_main(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_run_main(argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 2, 0, 0, 0, 2]
    # the seed default is read from the environment when the command runs
    monkeypatch.delenv("TROPREAL_SEED", raising=False)
    assert _run_main(sample) != shared[3]
    monkeypatch.setenv("TROPREAL_SEED", "2")
    assert _run_main(sample) == shared[3]
    # an empty value means 0, as an unset one does; one that is not an
    # integer is a usage error naming the variable, and writes nothing
    monkeypatch.setenv("TROPREAL_SEED", "")
    assert _run_main(sample) == _run_main(sample + ["--seed", "0"])
    for bad in ("abc", "1.5", "2 3", "0x10", "\n"):
        monkeypatch.setenv("TROPREAL_SEED", bad)
        rc, out, err = _run_main(sample)
        assert (rc, out) == (2, ""), bad
        assert err.startswith("error: ") and "TROPREAL_SEED" in err, bad
        assert err.count("\n") == 1, bad
    # an explicit --seed does not read the variable
    assert _run_main(sample + ["--seed", "2"]) == shared[3]


def _description_text(name):
    return iojson.dumps(iojson.description_to_json(get_scenario(name).description))


def test_a_rewritten_input_is_decoded_again(tmp_path):
    # the decoded inputs are kept by text, not by path: (-1, -1) lies
    # outside the circle's outer region and inside the halfplane's
    desc, out = tmp_path / "S.json", tmp_path / "w.json"
    argv = ["witness", str(desc), "--target", "((+,-1),(+,-1))", "--budget", "100",
            "--seed", "2", "--out", str(out)]
    desc.write_text(_description_text("circle"))
    assert _run_main(argv)[0] == 0
    assert json.loads(out.read_text())["excluded_by_outer"] is True
    desc.write_text(_description_text("halfplane"))
    assert _run_main(argv)[0] == 0
    assert json.loads(out.read_text())["witness"] is not None


def test_a_failed_decode_is_not_kept(circle_files, tmp_path):
    desc = tmp_path / "S.json"
    desc.write_text(json.dumps({"nvars": 2, "disjuncts": [[{"poly": {"nvars": 2}}]]}))
    argv = ["witness", str(desc), "--target", "((+,0),(+,0))", "--budget", "100",
            "--seed", "2"]
    for _ in range(2):
        rc, out, err = _run_main(argv)
        assert (rc, out) == (2, "")
        assert _one_error_line(err).startswith(f"error: {desc}: ")
    desc.write_text(_description_text("circle"))
    assert _run_main(argv)[0] == 0
    # one target-set text is decoded at each description's width
    _, circle = circle_files
    T = tmp_path / "T.json"
    T.write_text(iojson.dumps(iojson.union_to_json(union_of(2, [point_polyhedron((0, 0))]))))
    desc.write_text(json.dumps({"nvars": 3, "disjuncts": [[{
        "poly": iojson.polyk_to_json(parse_polyk("x1 - 1", 3)), "rel": ">=",
    }]]}))
    basis = ["--target-set", str(T), "--seed", "5", "--count", "40"]
    assert _run_main(["basis", str(circle), *basis])[0] == 0
    rc, _, err = _run_main(["basis", str(desc), *basis])
    assert (rc, _one_error_line(err)) == (2, f"error: {T}: [0].dim: expected 3, got 2")


def test_repeated_commands_decode_each_text_once(circle_files, tmp_path, monkeypatch):
    decode, decoded = iojson.description_from_json, []

    def spy(data):
        decoded.append(json.dumps(data, sort_keys=True))
        return decode(data)

    monkeypatch.setattr(iojson, "description_from_json", spy)
    _, circle = circle_files
    halfplane, F, T = tmp_path / "halfplane.json", tmp_path / "F.json", tmp_path / "T.json"
    halfplane.write_text(_description_text("halfplane"))
    F.write_text(json.dumps({"nvars": 2, "terms": [
        {"coeff": {"sign": 1, "val": "0"}, "exps": [0, 0]},
        {"coeff": {"sign": 1, "val": "0"}, "exps": [1, 0]},
    ]}))
    T.write_text(iojson.dumps(iojson.union_to_json(union_of(2, [point_polyhedron((0, 0))]))))
    commands = {
        "witness": ["witness", str(halfplane), "--target", "((+,-1),(+,-1))",
                    "--budget", "100"],
        "lift": ["lift", str(circle), "--trop", str(F)],
        "basis": ["basis", str(circle), "--target-set", str(T), "--count", "40"],
    }
    written = {name: set() for name in commands}
    for _ in range(3):
        for name, argv in commands.items():
            out = tmp_path / f"{name}.json"
            assert _run_main(argv + ["--seed", "5", "--out", str(out)])[0] == 0
            written[name].add(out.read_bytes())
    assert all(len(outputs) == 1 for outputs in written.values())
    assert len(decoded) == len(set(decoded)) == 2


# -- JSON-shape fuzz: mutated description, --trop and --target-set files -------

_CIRCLE_FILES = {
    "desc": iojson.description_to_json(get_scenario("circle").description),
    "F": iojson.troppoly_to_json(trop_r(get_scenario("circle").params["poly"]).neg()),
    "T": iojson.union_to_json(union_of(2, [point_polyhedron((0, 0))])),
}
_COMMANDS = {
    "sample": (["sample", "desc", "--count", "20"], ["desc"]),
    "witness": (["witness", "desc", "--target", "((+,0),(+,0))", "--budget", "20"], ["desc"]),
    "lift": (["lift", "desc", "--trop", "F", "--count", "3", "--budget", "20"], ["desc", "F"]),
    "basis": (["basis", "desc", "--target-set", "T", "--count", "3"], ["desc", "T"]),
}
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.5, -1.0, 1e300]),
    st.sampled_from([65, 2**70]),  # beyond MAX_VARS, as nvars or dim
    st.text(max_size=3), st.just([]), st.just({}),
)


def _json_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


@st.composite
def _mutated(draw, doc):
    """doc with one to three mutations: a dropped key, a value of another
    type, a value wrapped in a list, or a container replaced by an entry."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(doc))))
        parent, value = None, doc
        for key in path:
            parent, value = value, value[key]
        kind = draw(st.sampled_from(["drop", "swap", "wrap", "unwrap"]))
        if kind == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
            continue
        if kind == "unwrap" and isinstance(value, (dict, list)) and value:
            new = draw(st.sampled_from(list(value.values() if isinstance(value, dict) else value)))
        elif kind == "wrap":
            new = [value]
        else:
            new = draw(_JSON_VALUES)
        if parent is None:
            doc = new
        else:
            parent[path[-1]] = new
    return doc


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_COMMANDS)), st.data())
def test_json_shape_fuzz(command, data):
    argv, inputs = _COMMANDS[command]
    target = data.draw(st.sampled_from(inputs))
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, doc in _CIRCLE_FILES.items():
            if name == target:
                doc = data.draw(_mutated(doc))
            paths[name] = Path(d) / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        rc, _, err = _run_main([str(paths.get(a, a)) for a in argv] + ["--seed", "3"])
    assert rc in (0, 1, 2), (rc, err)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error:")), lines
