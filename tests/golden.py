"""Print the sha256 of every seeded output pinned in tests/golden.sha256.

The outputs are the CLI's files, the stdout of three demos, and rows of the
exact layers that no command prints.  The manifest is the only place a
digest is written down.

Run from the root of the checkout; it takes no arguments:

    PYTHONPATH=src python tests/golden.py | diff tests/golden.sha256 -

It builds its inputs in a temporary directory, runs every seeded command in
this interpreter (the CLI through ``tropreal.cli.main``, demos 02, 05 and
06 through ``runpy``, the library rows through ``complement_rows`` and
``region_rows``) and prints one ``<sha256>  <name>`` line per output.  It writes nothing into the checkout.
Any failure raises before a line is printed, so a failed run never matches
the manifest.  An exception that Python can only report and ignore, such
as the ResourceWarning of a file left unclosed under
``python -X dev -W error::ResourceWarning``, is such a failure too.

An intended output change is re-recorded with

    PYTHONPATH=src python tests/golden.py > tests/golden.sha256

and shows as a diff of the manifest.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import runpy
import sys
import tempfile
from pathlib import Path

from tropreal import checks, cli, iojson, parsing, polyhedra, scenarios, semialg, troppoly
from tropreal.errors import NegativeExponentAtZero
from tropreal.hyperfields import RELATIONS

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden.sha256"
DEMOS = ("02_puiseux_series.py", "05_inner_outer_sandwich.py", "06_lift_and_finite_basis.py")


def _condition(text: str, rel: str):
    return semialg.SignCondition(parsing.parse_polyk(text, 2), rel)


def inputs() -> dict:
    """The input files by name, as the JSON values they hold."""
    circle, halfplane, cubic = map(scenarios.get_scenario, ("circle", "halfplane", "cubic"))
    # trop of a 3-variable Laurent polynomial, undefined wherever y = 0
    G = iojson.troppoly_to_json(troppoly.trop_r(parsing.parse_polyk(
        "t^(1/2)*x^2*z - y^(-1)*z + t^(-1/3)*x*y - t^2*z^2 - t*x + t^(3/2)"
    )))
    return {
        "circle.json": iojson.description_to_json(circle.description),
        "F.json": iojson.troppoly_to_json(troppoly.trop_r(circle.params["poly"]).neg()),
        "halfplane.json": iojson.description_to_json(halfplane.description),
        "cubic.json": iojson.description_to_json(cubic.description),
        "T.json": iojson.union_to_json(
            polyhedra.union_of(2, [polyhedra.point_polyhedron((0, 0))])
        ),
        "G.json": G,
        # 1 + x + x^2 with every valuation 0: the cell of x is the point {0}, a thin cell
        "thin.json": iojson.troppoly_to_json(troppoly.trop_r(parsing.parse_polyk("1 + x + x^2"))),
        # a strict Laurent condition undefined where x = 0 beside a !=, or a
        # <=: the candidate filter's strict, != and undefined paths
        "laurent.json": iojson.description_to_json(semialg.SADescription(2, (
            (_condition("x^(-1)*y - 1", "gt"), _condition("x - y", "ne")),
            (_condition("x + y - 1", "le"),),
        ))),
        # y^MAX_EXPONENT - 1 >= 0: an exact sign at the exponent bound stays small
        "big.json": iojson.description_to_json(semialg.SADescription(2, (
            (_condition(f"y^{parsing.MAX_EXPONENT} - 1", "ge"),),
        ))),
        # G with every exponent made nonnegative: defined on every orthant
        "G3.json": {**G, "terms": [{**t, "exps": [abs(k) for k in t["exps"]]}
                                   for t in G["terms"]]},
        # two disjuncts; the first has a condition undefined where y = 0
        "laurent-union.json": iojson.description_to_json(semialg.SADescription(2, (
            (_condition("x*y^(-1) - 2", "gt"), _condition("x + y - 3", "le")),
            (_condition("y - x^2", "ge"), _condition("x - 1", "ne")),
        ))),
    }


def write_inputs(tmp: Path) -> None:
    for name, value in inputs().items():
        (tmp / name).write_text(iojson.dumps(value), encoding="utf-8")


CHEAP_CHECK = "check-connectivity-basis.json"

# each output by name, and the command that writes it to --out; "{d}" is
# the directory of the inputs
COMMANDS = {
    "sample-big.json": "sample {d}/big.json --seed 1 --count 2000",
    "check.json": "check all --seed 1",
    "sample-circle.json": "sample {d}/circle.json --seed 2 --count 2000",
    "sample-cubic.json": "sample {d}/cubic.json --seed 3 --count 2000",
    "sample-laurent.json": "sample {d}/laurent.json --seed 2 --count 2000",
    "lift-circle.json": "lift {d}/circle.json --trop {d}/F.json --seed 2 --count 200",
    "witness-halfplane.json": "witness {d}/halfplane.json --target ((+,1),(+,0)) --seed 1",
    "witness-circle.json": "witness {d}/circle.json --target ((+,0),(+,0)) --seed 2",
    # the Laurent union with its x - y != 0: a witness search, and the outer region when it finds none
    "witness-laurent.json":
        "witness {d}/laurent.json --target ((+,-1),(+,-1)) --budget 50 --seed 1",
    # with no search, the outer region alone: it holds the member (2t^-1 - 3, 3t^-1)
    "witness-laurent-outer.json":
        "witness {d}/laurent.json --target ((+,-1),(+,-1)) --budget 0 --seed 1",
    # with no search, a point the circle's outer region leaves out
    "witness-circle-outer.json": "witness {d}/circle.json --target ((+,-2),(+,-2)) --budget 0",
    # the cubic's segment probe: inside the outer region but not in trop(S),
    # so every draw of the search is refuted and none is a witness
    "witness-cubic-probe.json": "witness {d}/cubic.json --target ((+,1),(+,0)) --budget 1000",
    "basis-circle.json": "basis {d}/circle.json --target-set {d}/T.json --seed 2 --count 40",
    "region-F-ne.json": "region {d}/F.json --orthant all --rel ne",
    **{f"region-G-{rel}.json": f"region {{d}}/G.json --orthant all --rel {rel}"
       for rel in RELATIONS},
    # the weak relations read the thin cell {0} of x, each orthant of the support in turn
    **{f"region-thin-{rel}.json": f"region {{d}}/thin.json --orthant all --rel {rel}"
       for rel in ("le", "eq")},
    "sample-halfplane.json": "sample {d}/halfplane.json --seed 1 --count 2000",
    "sample-laurent-union.json": "sample {d}/laurent-union.json --seed 1 --count 2000",
    # G on an orthant where it is defined, G3 and F on all of them
    **{f"region-G+-+-{rel}.json": f"region {{d}}/G.json --orthant +-+ --rel {rel}"
       for rel in RELATIONS},
    **{f"region-G3-{rel}.json": f"region {{d}}/G3.json --orthant all --rel {rel}"
       for rel in RELATIONS},
    **{f"region-F-{rel}.json": f"region {{d}}/F.json --orthant all --rel {rel}"
       for rel in RELATIONS if rel != "ne"},
    # two quick suites: the report that --out - prints and that a rerun
    # writes over a longer file
    CHEAP_CHECK: "check connectivity basis --seed 1",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest() -> dict:
    """The committed digests by name."""
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return {name: sha for sha, name in (line.split("  ", 1) for line in lines)}


def run_cli(*argv: str) -> str:
    """Run one command in this interpreter; return what it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        rc = cli.main(list(argv))
    assert rc == 0, (argv, rc)
    return printed.getvalue()


def run_command(tmp: Path, name: str, out: Path | str | None = None) -> bytes:
    """The bytes that ``COMMANDS[name]`` writes to ``out`` (default: a
    fresh file named ``name`` in ``tmp``; ``"-"``: stdout)."""
    out = out or tmp / name
    printed = run_cli(*(arg.format(d=tmp) for arg in COMMANDS[name].split()), "--out", str(out))
    return printed.encode() if out == "-" else out.read_bytes()


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def order_free(basis: bytes) -> bytes:
    """A ``basis`` output with its polynomials, its region pieces and each
    piece's constraints sorted.  A reordering of the complement may reorder
    the basis, which changes its bytes but not these."""
    data = json.loads(basis)
    data["polys"] = sorted(map(_canonical, data["polys"]))
    data["region"] = sorted(
        _canonical({**piece, "constraints": sorted(map(_canonical, piece["constraints"]))})
        for piece in data["region"]
    )
    return _canonical(data).encode()


def complement_rows() -> dict:
    """Rows of the complements of 30 random closed unions, and of the pieces
    that pruning keeps of each complement small enough to prune quickly."""
    rng = random.Random(4)
    complements, kept = [], []
    for _ in range(30):
        out = polyhedra.complement_of_union(checks.random_closed_union(rng, max_pieces=6))
        complements.append(repr([p.rows for p in out]))
        if len(out) <= 30:
            kept.append(repr([p.rows for p in polyhedra.prune_covered_pieces(out)]))
    assert len(kept) == 24
    return {
        "library/complement-rows.txt": "".join(complements).encode(),
        "library/pruned-rows.txt": "".join(kept).encode(),
    }


def region_rows() -> dict:
    """The regions of 200 seeded tropical polynomials on every orthant, for
    every relation."""
    rng = random.Random(20261)
    regions = []
    for k in range(200):
        nvars = rng.randint(1, 3)
        F = checks.random_troppoly(rng, nvars, exp_lo=-1 if k % 2 else 0)
        for sigma in polyhedra.all_orthants(nvars):
            for rel in RELATIONS:
                try:
                    region = polyhedra.trop_region(F, sigma, rel)
                    regions.append(iojson.dumps(iojson.union_to_json(region)))
                except NegativeExponentAtZero:
                    regions.append("undefined\n")
    assert len(regions) == 14112
    return {"library/trop-regions.txt": "".join(regions).encode()}


def read_dir(path: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def outputs(tmp: Path) -> dict:
    """Every pinned output by name, in a fixed order, with its invariants checked."""
    found = {f"input/{name}": (tmp / name).read_bytes() for name in inputs()}
    for name in COMMANDS:
        found[name] = run_command(tmp, name)
    found["basis-circle-order-free.json"] = order_free(found["basis-circle.json"])
    # --out - prints exactly the bytes --out FILE writes
    found["check-stdout.json"] = run_command(tmp, CHEAP_CHECK, out="-")
    run_cli("figures", "--grid", "40", "--outdir", str(tmp / "figures"))
    figures = read_dir(tmp / "figures")
    found.update({f"figures/{name}": data for name, data in figures.items()})
    for demo in DEMOS:
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
        found[f"demo-{demo[:2]}.txt"] = printed.getvalue().encode()
    # reruns over existing files write the bytes of a fresh run: the quick
    # check report over the longer cubic sample, and the figures over themselves
    found["check-over-sample.json"] = run_command(
        tmp, CHEAP_CHECK, out=tmp / "sample-cubic.json"
    )
    run_cli("figures", "--grid", "40", "--outdir", str(tmp / "figures"))
    rerun = read_dir(tmp / "figures")
    found.update({f"figures-rerun/{name}": data for name, data in rerun.items()})
    found.update(complement_rows())
    found.update(region_rows())

    assert found["check-stdout.json"] == found[CHEAP_CHECK]
    assert found["check-over-sample.json"] == found[CHEAP_CHECK]
    assert rerun == figures
    assert len(figures) == 12, sorted(figures)
    # facts of the outer regions that a re-record must not flip
    assert json.loads(found["witness-laurent-outer.json"])["excluded_by_outer"] is False
    assert json.loads(found["witness-circle-outer.json"])["excluded_by_outer"] is True
    probe = json.loads(found["witness-cubic-probe.json"])
    assert probe["witness"] is None and probe["excluded_by_outer"] is False
    return found


def main() -> None:
    ignored: list[str] = []

    def report(unraisable) -> None:
        ignored.append(repr(unraisable.exc_value))
        sys.__unraisablehook__(unraisable)

    sys.unraisablehook = report
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        write_inputs(tmp)
        found = outputs(tmp)
    gc.collect()
    if ignored:
        raise SystemExit(f"{len(ignored)} exception(s) ignored during the run: {ignored[0]}")
    print("".join(f"{digest(data)}  {name}\n" for name, data in found.items()), end="")


if __name__ == "__main__":
    main()
