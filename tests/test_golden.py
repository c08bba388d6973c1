"""tests/golden.py in this interpreter, all but its slow outputs.

tests/golden.py prints the digest of every output pinned in
tests/golden.sha256.  These tests check its inputs, every command but the
five-second ``check all``, the quick check report on stdout and over a
longer file, the order-free basis line and the library rows,
so every tier-1 run compares them with the manifest under its own random
hash seed.
"""

import pytest

import golden

PINNED = golden.manifest()
CHEAP = [name for name in golden.COMMANDS if name != "check.json"]


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    golden.write_inputs(tmp)
    return tmp


def test_manifest_names_every_input_and_command():
    names = {f"input/{name}" for name in golden.inputs()} | set(golden.COMMANDS)
    assert names <= set(PINNED), sorted(names - set(PINNED))


def test_inputs_match_the_manifest(inputs_dir):
    for name in golden.inputs():
        assert golden.digest((inputs_dir / name).read_bytes()) == PINNED[f"input/{name}"], name


@pytest.mark.parametrize("name", CHEAP)
def test_output_matches_the_manifest(inputs_dir, tmp_path, name):
    data = golden.run_command(inputs_dir, name, out=tmp_path / name)
    assert golden.digest(data) == PINNED[name]


def test_check_report_on_stdout_and_over_a_longer_file_matches_the_manifest(
    inputs_dir, tmp_path
):
    printed = golden.run_command(inputs_dir, golden.CHEAP_CHECK, out="-")
    assert golden.digest(printed) == PINNED["check-stdout.json"]
    longer = tmp_path / "longer.json"
    longer.write_bytes(b" " * 100_000)
    rewritten = golden.run_command(inputs_dir, golden.CHEAP_CHECK, out=longer)
    assert golden.digest(rewritten) == PINNED["check-over-sample.json"]


def test_basis_output_matches_the_manifest_up_to_order(inputs_dir, tmp_path):
    data = golden.run_command(inputs_dir, "basis-circle.json", out=tmp_path / "basis.json")
    assert golden.digest(golden.order_free(data)) == PINNED["basis-circle-order-free.json"]


def test_complement_and_prune_rows_match_the_manifest():
    for name, data in golden.complement_rows().items():
        assert golden.digest(data) == PINNED[name], name


def test_regions_of_seeded_polynomials_match_the_manifest():
    for name, data in golden.region_rows().items():
        assert golden.digest(data) == PINNED[name], name
