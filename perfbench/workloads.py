"""The benchmark's workloads: seeded inputs, timed operations, exact oracles.

Each workload function turns a seed into a fixed list of :class:`Op` (one round of
the workload).  ``Op.run`` is the timed call into tropreal; ``Op.check``
is the exact oracle and ``Op.canonical`` the canonical iojson bytes of the
answer, both evaluated after the timer stops.

Workloads (why each exists is in BENCHMARK.json):

* ``inner``: the CLI commands ``sample``, ``witness``, ``lift`` and
  ``basis`` on the paper's scenarios, in-process through
  ``tropreal.cli.main`` on description files written during set-up, all
  with the default sampler.
* ``regions``: one random tropical polynomial in 2 or 3 variables per
  operation (the two alternate); the operation computes ``trop_region``
  for every orthant and relation and evaluates ``trop_sat`` at seeded
  points of every orthant.  Five more operations run ``sa_outer_all`` and
  ``adjacency_connected`` on the scenarios that have a description.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

MODULES = (
    "hyperfields", "puiseux", "troppoly", "polyhedra", "semialg",
    "iojson", "cli", "checks", "scenarios",
)

# Sizes of one round, and the fixed number of rounds a run measures (about
# 40 s of work on a 2-vCPU x86-64 virtual machine).  The circle operations
# need about 8000 default-sampler candidates: the sampler accepts roughly one
# circle point in 800, and every one of these commands fails (or its oracle
# does) when it draws none.
SIZES = {
    "full": {
        "inner": dict(rounds=2, sample_circle=8000, sample_cubic=200, witnesses=120,
                      witness_budget=1000, probe_budget=200, lift_count=134,
                      basis_count=134, fresh=60),
        "regions": dict(rounds=5, polys=240, points=4),
    },
    "smoke": {
        "inner": dict(rounds=1, sample_circle=4000, sample_cubic=40, witnesses=2,
                      witness_budget=1000, probe_budget=20, lift_count=67,
                      basis_count=67, fresh=10),
        "regions": dict(rounds=1, polys=2, points=2),
    },
}

SCENARIO_OPS = ("circle", "cubic", "halfplane", "intersection_tight", "intersection_wide")
INTERSECTIONS = ("intersection_tight", "intersection_wide")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    canonical: Callable[[object], bytes]


@dataclass
class Workload:
    name: str
    ops: list
    # indices into ops in the order one round runs them; an operation may
    # appear more than once, to be timed at several moments of the round
    schedule: list
    # sa_outer_all seconds per scenario operation, recorded by the regions ops
    outer_times: dict


def library_modules() -> dict:
    """The imported tropreal modules, by name."""
    return {n: m for n, m in sys.modules.items() if n == "tropreal" or n.startswith("tropreal.")}


def import_library() -> SimpleNamespace:
    """Import tropreal afresh, dropping any earlier import of it first."""
    for name in library_modules():
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"tropreal.{m}") for m in MODULES})


def build(name: str, lib, seed: int, sizes: dict, workdir: str) -> Workload:
    return _WORKLOADS[name](lib, seed, sizes[name], workdir)


def _rand_point(rng: random.Random, dim: int, span: int, den: int):
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, den)) for _ in range(dim))


def _point_text(z) -> str:
    sign = {1: "+", -1: "-", 0: "0"}
    return "(" + ",".join(f"({sign[c.sign]},{c.val})" for c in z) + ")"


# ---------------------------------------------------------------------------
# inner: CLI commands end to end
# ---------------------------------------------------------------------------


def _inner(lib, seed: int, size: dict, workdir: str) -> Workload:
    io_, sc = lib.iojson, lib.scenarios
    rng = random.Random(seed)
    circle, cubic, halfplane = (sc.get_scenario(n) for n in ("circle", "cubic", "halfplane"))

    def write(fname: str, payload) -> str:
        path = os.path.join(workdir, fname)
        with open(path, "w") as fh:
            fh.write(io_.dumps(payload))
        return path

    files = {
        s.name: write(f"{s.name}.json", io_.description_to_json(s.description))
        for s in (circle, cubic, halfplane)
    }
    origin = lib.polyhedra.union_of(2, [lib.polyhedra.point_polyhedron((0, 0))])
    t_file = write("T.json", io_.union_to_json(origin))
    F = lib.troppoly.trop_r(circle.params["poly"]).neg()
    f_file = write("F.json", io_.troppoly_to_json(F))

    region = lib.semialg.sa_outer(halfplane.description, (1, 1))
    targets: list = []
    while len(targets) < size["witnesses"]:
        V = _rand_point(rng, 2, span=6, den=2)
        z = lib.polyhedra.embed_point((1, 1), V)
        if region.contains(V) and z not in targets:
            targets.append(z)

    def read_json(path: str):
        with open(path, "rb") as fh:
            return fh.read()

    def cli_op(label: str, argv: list, check: Callable[[dict], bool]) -> Op:
        out = os.path.join(workdir, f"out-{label}.json")
        argv = argv + ["--seed", str(rng.randrange(10**6)), "--out", out]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = lib.cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"tropreal {argv[0]} exited with {rc}")
            return read_json(out)

        return Op(label, run, lambda raw: check(json.loads(raw)), lambda raw: raw)

    def member_of(S, witness_json, z) -> bool:
        w = tuple(io_.series_from_json(c) for c in witness_json)
        return lib.semialg.sa_member(S, w) and lib.troppoly.trop_point(w) == z

    def cloud_ok(S, expect=None):
        def check(data) -> bool:
            points = set()
            for item in data["points"]:
                z = tuple(io_.stv_from_json(c) for c in item["point"])
                if not member_of(S, item["witness"], z):
                    return False
                points.add(z)
            return data["count"] == len(points) and (expect is None or points == expect)
        return check

    def witness_ok(S, z, expect_found: bool):
        def check(data) -> bool:
            if data["witness"] is None:
                return not expect_found
            return expect_found and member_of(S, data["witness"], z)
        return check

    fresh: list = []

    def lift_ok(data) -> bool:
        poly = io_.polyk_from_json(data["poly"])
        if lib.troppoly.trop_r(poly) != F:
            return False
        if not fresh:
            cfg = lib.puiseux.SamplerConfig(seed=seed)
            fresh.extend(lib.semialg.collect_samples(
                circle.description, cfg, size["fresh"], sigma=(1, 1),
                proposal=circle.proposal))
        return bool(fresh) and all(lib.troppoly.laurent_sign(poly, p) >= 0 for p in fresh)

    def basis_ok(data) -> bool:
        region = io_.union_from_json(data["region"], 2)
        return lib.polyhedra.union_equal(region, origin)

    unit = lib.hyperfields.stv(1, 0)
    ops = [
        cli_op("sample-circle",
               ["sample", files["circle"], "--count", str(size["sample_circle"])],
               cloud_ok(circle.description, {(unit, unit)})),
        cli_op("sample-cubic",
               ["sample", files["cubic"], "--count", str(size["sample_cubic"])],
               cloud_ok(cubic.description)),
    ]
    for i, z in enumerate(targets):
        ops.append(cli_op(
            f"witness-halfplane-{i}",
            ["witness", files["halfplane"], "--target", _point_text(z),
             "--budget", str(size["witness_budget"])],
            witness_ok(halfplane.description, z, True)))
    probe = cubic.params["segment_probe"]
    ops.append(cli_op(
        "witness-cubic-probe",
        ["witness", files["cubic"], "--target", _point_text(probe),
         "--budget", str(size["probe_budget"])],
        witness_ok(cubic.description, probe, False)))
    ops.append(cli_op(
        "lift-circle",
        ["lift", files["circle"], "--trop", f_file, "--count", str(size["lift_count"])],
        lift_ok))
    ops.append(cli_op(
        "basis-circle",
        ["basis", files["circle"], "--target-set", t_file, "--count", str(size["basis_count"])],
        basis_ok))
    # the witness commands take milliseconds, the circle commands seconds:
    # a pass over the witnesses follows each circle command, so that every
    # witness is timed three times per round, seconds apart
    witnesses = [i for i, op in enumerate(ops) if op.name.startswith("witness-halfplane")]
    schedule = []
    for i, op in enumerate(ops):
        if i not in witnesses:
            schedule.append(i)
        if op.name.endswith("-circle"):
            schedule += witnesses
    return Workload("inner", ops, schedule, {})


# ---------------------------------------------------------------------------
# regions: exact tropical regions against pointwise evaluation
# ---------------------------------------------------------------------------


def _regions(lib, seed: int, size: dict, workdir: str) -> Workload:
    P, io_, hf = lib.polyhedra, lib.iojson, lib.hyperfields
    rng = random.Random(seed)
    outer_times: dict = {name: [] for name in SCENARIO_OPS}

    def poly_op(i: int) -> Op:
        nvars = 2 + i % 2
        F = lib.checks.random_troppoly(rng, nvars)
        probes = {}
        for sigma in P.all_orthants(nvars):
            m = len(P.orthant_support(sigma))
            Vs = [_rand_point(rng, m, span=6, den=3) for _ in range(size["points"])]
            probes[sigma] = [(V, P.embed_point(sigma, V)) for V in Vs]
        keys = [(sigma, rel) for sigma in probes for rel in hf.RELATIONS]

        def run():
            regions = {k: P.trop_region(F, *k) for k in keys}
            sat = {
                (sigma, rel): [lib.troppoly.trop_sat(F, z, rel) for _, z in probes[sigma]]
                for sigma, rel in keys
            }
            return regions, sat

        def check(result) -> bool:
            regions, sat = result
            return all(
                regions[k].contains(V) == s
                for k in keys
                for (V, _), s in zip(probes[k[0]], sat[k])
            )

        def canonical(result) -> bytes:
            regions, sat = result
            parts = [
                io_.dumps(io_.regions_to_json(nvars, {s: regions[(s, rel)] for s in probes}))
                for rel in hf.RELATIONS
            ]
            parts.append("".join("1" if b else "0" for k in keys for b in sat[k]))
            return "".join(parts).encode()

        return Op(f"regions-{i}", run, check, canonical)

    def scenario_op(name: str) -> Op:
        scen = lib.scenarios.get_scenario(name)

        def run():
            t0 = time.perf_counter()
            regions = lib.semialg.sa_outer_all(scen.description)
            outer_times[name].append(time.perf_counter() - t0)
            return regions, lib.semialg.adjacency_connected(regions)

        def check(result) -> bool:
            regions, connected = result
            if len(regions) != 9:
                return False
            if name not in INTERSECTIONS:
                return connected  # the connectivity suite's known answer
            return _recession_facts(P, scen, regions)

        def canonical(result) -> bytes:
            regions, connected = result
            return (io_.dumps(io_.regions_to_json(2, regions)) + str(connected)).encode()

        return Op(f"outer-{name}", run, check, canonical)

    ops = [poly_op(i) for i in range(size["polys"])]
    ops += [scenario_op(name) for name in SCENARIO_OPS]
    return Workload("regions", ops, list(range(len(ops))), outer_times)


def _recession_facts(P, scen, regions) -> bool:
    """Criterion 11: the tight family has no outward ray, the wide one has both."""
    neg_conditions = ([P.constraint((1, 0), 0, "<")], [P.constraint((0, 1), 0, "<")])
    has_negative = any(
        P.poly_has_recession_direction(piece, conds)
        for sigma, region in regions.items()
        if len(P.orthant_support(sigma)) == 2
        for piece in region.pieces
        for conds in neg_conditions
        if not P.poly_is_empty(piece)
    )
    if scen.name == "intersection_tight":
        return not has_negative
    ray = scen.params["ray_direction"]
    rays_present = all(
        any(P.poly_recession_contains(piece, ray) and not P.poly_is_empty(piece)
            for piece in regions[sigma].pieces)
        for sigma in scen.params["ray_orthants"]
    )
    return has_negative and rays_present


_WORKLOADS = {"inner": _inner, "regions": _regions}
NAMES = tuple(_WORKLOADS)
