"""A cheap subset of tests/golden.py, run in this interpreter.

tests/golden.py runs every seeded command pinned in tests/golden.sha256.
These tests run the inputs and the commands that take well under a second,
so every tier-1 run compares them with the manifest under its own random
hash seed.
"""

import pytest

import golden

PINNED = golden.manifest()
SUBSET = [
    "witness-halfplane.json",
    "lift-circle.json",
    *(f"region-G-{rel}.json" for rel in golden.RELATIONS),
    "region-thin-le.json",
    "region-thin-eq.json",
]


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


@pytest.mark.parametrize("name", SUBSET)
def test_output_matches_the_manifest(inputs_dir, tmp_path, name):
    data = golden.run_command(inputs_dir, name, out=tmp_path / name)
    assert golden.digest(data) == PINNED[name]
