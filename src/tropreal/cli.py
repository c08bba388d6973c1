"""Command-line front end.

Subcommands: trop, region, sample, witness, basis, lift, check, figures.
All randomized commands take --seed (default: the TROPREAL_SEED environment
variable, else 0; a set value that is not an integer is a usage error) and
produce byte-identical JSON for identical inputs and seed.  Exit codes: 0
all good, 1 a check failed or a command could not verify its answer, 2
input or usage error.

Each JSON input is decoded once per process for each text it has (a file
rewritten with new text is decoded again), so a caller that runs ``main``
many times in one process, such as a test suite or a benchmark, reuses the
decoded objects and the kernels built on them; a fresh process per command
gains nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import stat
import sys

from . import iojson
from .errors import NoEpsilonFound, ParseError, TropRealError
from .hyperfields import RT_ZERO, SignedTropVal, as_val, normalize_rel, read_rational
from .parsing import MAX_ALL_ORTHANT_VARS, parse_polyk
from .polyhedra import (
    all_orthants,
    orthant_str,
    parse_orthant,
    trop_conjunction,
)
from .puiseux import SamplerConfig
from .semialg import (
    check_lift_width,
    collect_samples,
    finite_basis,
    lift_inequality,
    outer_contains_point,
    sa_sample_trop,
    witness_search,
)
from .troppoly import trop_r

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _default_seed() -> int:
    text = os.environ.get("TROPREAL_SEED", "")
    try:
        return int(text) if text else 0
    except ValueError:
        raise ValueError(f"TROPREAL_SEED is not an integer: {text!r}") from None


def _read_text(path: str) -> str:
    # UTF-8 whatever the locale: JSON is UTF-8 (RFC 8259)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _is_stdout(path: str) -> bool:
    """Whether ``path`` names the file that stdout already writes to.

    A stdout with no descriptor (an in-memory stream) names no file, and
    costs no ``stat``.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return False
    try:
        ours, theirs = os.fstat(fd), os.stat(path)
    except OSError:
        return False
    return (ours.st_dev, ours.st_ino) == (theirs.st_dev, theirs.st_ino)


def _emit(out: str | None, payload: str, human: str | None) -> None:
    """'-', or a path naming stdout's own file, sends JSON to stdout; any
    other path writes JSON there; the human text prints whenever stdout is
    not already carrying the JSON."""
    if out == "-" or (out is not None and _is_stdout(out)):
        sys.stdout.write(payload)
        return
    if out is not None:
        with open(out, "w") as fh:
            fh.write(payload)
    if human:
        print(human)


# a small bound: the memo serves a process that repeats a few inputs, and
# keeps each text and the objects decoded from it alive
_DECODED_MAX = 16


@functools.lru_cache(maxsize=_DECODED_MAX)
def _decoded(text: str, decode, *args):
    """``decode`` applied to the JSON ``text``, once per text, decoder and
    arguments; a failure is not kept, so it is raised on every call."""
    return decode(json.loads(text), *args)


def _decode(path: str, text: str, decode, *args):
    """Decode a JSON input; any failure is a ParseError that names the file."""
    try:
        return _decoded(text, decode, *args)
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed input: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to read") from None
    except (TropRealError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load(path: str, decode, *args):
    """The JSON input at ``path``, read and passed to ``decode(data, *args)``.

    Inputs with the same text are decoded once per process, and a changed
    file is read and decoded again; this gains only a caller that runs
    ``main`` many times in one process.
    """
    return _decode(path, _read_text(path), decode, *args)


def _load_polyk(path: str, nvars: int | None):
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return _decode(path, text, iojson.polyk_from_json)
    return parse_polyk(text, nvars=nvars)


_PAIR = r"\(\s*([+\-0])\s*,\s*([^()\s]+)\s*\)"
_PAIR_RE = re.compile(_PAIR)
# the whole text is one parenthesized, comma-separated list of pairs
_TARGET_RE = re.compile(rf"\s*\(\s*{_PAIR}(?:\s*,\s*{_PAIR})*\s*\)\s*")


def parse_target(text: str):
    """Parse a tropical point like '((+,1),(+,0))' or '((-,3/2),(0,inf))'."""
    if not _TARGET_RE.fullmatch(text):
        raise TropRealError(f"cannot parse target point {text!r}")
    coords = []
    try:
        for sign_ch, val_text in _PAIR_RE.findall(text):
            z = SignedTropVal({"+": 1, "-": -1, "0": 0}[sign_ch], as_val(val_text))
            coords.append(RT_ZERO if z.sign == 0 else z)
    except (ParseError, ValueError) as exc:
        raise ParseError(f"--target: {exc}") from None
    return tuple(coords)


def _require_nonnegative(**values: int) -> None:
    """Reject a negative count or budget as a usage error."""
    for name, value in values.items():
        if value < 0:
            raise TropRealError(f"--{name} must be nonnegative, not {value}")


def _parse_window(text: str):
    parts = [read_rational(p, "--window") for p in text.split(",")]
    if len(parts) != 4:
        raise TropRealError("window must be 'x0,x1,y0,y1'")
    return tuple(parts)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Its defaults are constants; ``main`` reads the seed default from the
    environment when a command runs, so sharing one parser is safe.
    """
    ap = argparse.ArgumentParser(
        prog="tropreal",
        description="exact signed tropicalization of polynomials and semialgebraic sets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trop", help="tropicalize a polynomial file")
    p.add_argument("input", help="polynomial file (text grammar or JSON)")
    p.add_argument("--nvars", type=int, default=None)
    p.add_argument("--out", default=None, help="write the tropical polynomial JSON here")

    p = sub.add_parser("region", help="exact region of a tropical polynomial")
    p.add_argument("input", help="tropical polynomial JSON file")
    p.add_argument("--rel", default="ge", help="eq|ge|gt|le|lt|ne")
    p.add_argument("--orthant", default="all", help="sign string like ++, +-0, or 'all'")
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None, help="also rasterize (2 variables only)")
    p.add_argument("--window", default="-3,3,-3,3")
    p.add_argument("--grid", type=int, default=160)

    p = sub.add_parser("sample", help="witnessed tropical sample cloud of a set")
    p.add_argument("input", help="semialgebraic description JSON file")
    p.add_argument("--count", type=int, default=10000, help="sampling attempts")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("witness", help="search a witness for a tropical point")
    p.add_argument("input", help="semialgebraic description JSON file")
    p.add_argument("--target", required=True, help="point like '((+,1),(+,0))'")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("basis", help="finite tropical description of a target set")
    p.add_argument("input", help="semialgebraic description JSON file")
    p.add_argument("--target-set", "--T", required=True,
                   help="polyhedral union JSON file")
    p.add_argument("--count", type=int, default=200, help="verification samples")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("lift", help="lift a valid tropical inequality to the set")
    p.add_argument("input", help="semialgebraic description JSON file")
    p.add_argument("--trop", required=True, help="tropical polynomial JSON file")
    p.add_argument("--count", type=int, default=200, help="verification samples")
    p.add_argument("--budget", type=int, default=1000, help="scale search depth")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="run named verification suites")
    p.add_argument("suites", nargs="+", help="suite names, or 'all'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None, help="override the main size")
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("figures", help="render the built-in scenarios to SVG")
    p.add_argument("--outdir", default="figures")
    p.add_argument("--grid", type=int, default=160)

    return ap


def _cmd_trop(args) -> int:
    f = _load_polyk(args.input, args.nvars)
    F = trop_r(f)
    if not F.terms:
        print("warning: the polynomial tropicalizes to zero", file=sys.stderr)
    _emit(args.out, iojson.dumps(iojson.troppoly_to_json(F)), F.text())
    return EXIT_OK


def _cmd_region(args) -> int:
    window = None if args.svg is None else _parse_window(args.window)
    F = _load(args.input, iojson.troppoly_from_json)
    rel = normalize_rel(args.rel)
    if args.svg is not None:
        # refuse the raster's inputs before anything is computed or written
        if F.nvars != 2:
            raise TropRealError("SVG output requires exactly two variables")
        from .render import RenderConfig, render_region_svg

        cfg = RenderConfig(grid=args.grid, window=window)
    if args.orthant == "all":
        if F.nvars > MAX_ALL_ORTHANT_VARS:
            raise TropRealError(f"--orthant all takes at most MAX_ALL_ORTHANT_VARS="
                                f"{MAX_ALL_ORTHANT_VARS} variables, not {F.nvars}")
        sigmas = all_orthants(F.nvars)
    else:
        sigmas = [parse_orthant(args.orthant)]
    with _svg_target(args.svg) as write_svg:
        # an orthant where F is undefined (a negative exponent at a zero
        # coordinate) holds nowhere, as in every conjunction of conditions
        regions = {sigma: trop_conjunction([(F, rel)], sigma) for sigma in sigmas}
        human = "\n".join(
            f"orthant {orthant_str(sigma)}: {len(regions[sigma].pieces)} pieces"
            for sigma in sigmas
        )
        if write_svg is not None:
            svg = render_region_svg([(F, rel)], cfg, title=f"{F.text()}  {args.rel} 0")
        # everything is computed; only writes follow
        _emit(args.out, iojson.dumps(iojson.regions_to_json(F.nvars, regions)), human)
        if write_svg is not None:
            write_svg(svg)
    return EXIT_OK


@contextlib.contextmanager
def _svg_target(path: str | None):
    """A writer for the SVG file at ``path``, or None without a path.

    The file is opened before anything is computed, without truncating it,
    so a path that cannot be written fails first.  The writer replaces the
    file's contents; the command calls it last, once everything else has
    succeeded.  If the command fails, a file that it created is removed, and
    a file that was there before keeps its bytes.
    """
    if path is None:
        yield None
        return
    try:
        fh, created = open(path, "x"), True
    except FileExistsError:
        fh, created = open(path, "a"), False

    def write(text: str) -> None:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(0)
        fh.write(text)

    try:
        with fh:
            yield write
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _cmd_sample(args) -> int:
    _require_nonnegative(count=args.count)
    S = _load(args.input, iojson.description_from_json)
    cfg = SamplerConfig(seed=args.seed)
    cloud = sa_sample_trop(S, args.count, cfg)
    human = f"{len(cloud)} distinct tropical points from {args.count} attempts"
    _emit(args.out, iojson.dumps(iojson.cloud_to_json(cloud)), human)
    return EXIT_OK


def _cmd_witness(args) -> int:
    _require_nonnegative(budget=args.budget)
    S = _load(args.input, iojson.description_from_json)
    z = parse_target(args.target)
    cfg = SamplerConfig(seed=args.seed)
    w = witness_search(S, z, args.budget, cfg)
    excluded = w is None and not outer_contains_point(S, z)
    payload = {
        "target": iojson.point_to_json(z),
        "witness": None if w is None else [iojson.series_to_json(c) for c in w],
        "excluded_by_outer": excluded,
        "budget": args.budget,
    }
    if w is not None:
        human = "witness: (" + ", ".join(c.text() for c in w) + ")"
    elif excluded:
        human = "no witness (excluded by outer region)"
    else:
        human = "no witness found within budget (inconclusive)"
    _emit(args.out, iojson.dumps(payload), human)
    return EXIT_OK


def _cmd_basis(args) -> int:
    _require_nonnegative(count=args.count)
    S = _load(args.input, iojson.description_from_json)
    T = _load(args.target_set, iojson.union_from_json, S.nvars)
    sigma = (1,) * S.nvars
    samples = collect_samples(S, SamplerConfig(seed=args.seed), args.count, sigma=sigma)
    res = finite_basis(T, S, samples)
    payload = {
        "orthant": orthant_str(sigma),
        "polys": [iojson.polyk_to_json(f) for f in res.polys],
        "region": iojson.union_to_json(res.region),
        "target": iojson.union_to_json(T),
        "verified": True,
    }
    _emit(
        args.out,
        iojson.dumps(payload),
        f"{len(res.polys)} polynomials; regions intersect to T: OK",
    )
    return EXIT_OK


def _cmd_lift(args) -> int:
    _require_nonnegative(count=args.count, budget=args.budget)
    S = _load(args.input, iojson.description_from_json)
    F = _load(args.trop, iojson.troppoly_from_json)
    check_lift_width(F, S)
    # an F with no negative term is lifted as it is, and reads no sample
    n = args.count if any(c.sign < 0 for _, c in F.terms) else 0
    samples = collect_samples(S, SamplerConfig(seed=args.seed), n, sigma=(1,) * S.nvars)
    res = lift_inequality(F, S, samples, eps_budget=args.budget)
    payload = {
        "poly": iojson.polyk_to_json(res.poly),
        "epsilon": str(res.epsilon),
        "samples_checked": res.samples_checked,
        "certificate": res.certificate,
    }
    _emit(
        args.out,
        iojson.dumps(payload),
        f"epsilon = {res.epsilon}; nonnegative on {res.samples_checked} samples "
        f"(certificate: {res.certificate})",
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    from .checks import SUITE_NAMES, run_suites

    names = list(args.suites)
    if names == ["all"]:
        names = list(SUITE_NAMES)
    report = run_suites(names, args.seed, size=args.count)
    _emit(args.out, report.to_json(), report.text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_figures(args) -> int:
    from .render import write_figures

    written = write_figures(args.outdir, grid=args.grid)
    for path in written:
        print(path)
    return EXIT_OK


_DISPATCH = {
    "trop": _cmd_trop,
    "region": _cmd_region,
    "sample": _cmd_sample,
    "witness": _cmd_witness,
    "basis": _cmd_basis,
    "lift": _cmd_lift,
    "check": _cmd_check,
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        return _DISPATCH[args.command](args)
    except (TropRealError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a command that ran but could not verify its answer is not a usage error
        return EXIT_CHECK_FAILED if isinstance(exc, NoEpsilonFound) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
