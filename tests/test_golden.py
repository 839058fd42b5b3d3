"""Byte identity of whole runs: SHA-256 digests of every file a run writes.

The digests below were recorded with one bump profile per partition,
each cutoff evaluating it at its offset over its own radius.  Against
one profile per radius that moved values in their last digits wherever
a radius is not a power of two: ``boundary_d1``'s ``partition_range``
and its two CSVs of cutoff and partition values, and ``small_d2``'s
``partition_sum``, ``partition_range`` and ``partition_derivative_bound``
numbers and CSVs.  ``schwartz_d1`` and ``unit_weights_d1``, whose
radii are powers of two, kept every digest.  A refactor that keeps every value bitwise equal keeps
every digest.  ``report.json`` is digested without its
``generated_at`` line, the one field that changes from run to run.

The ``report.json`` digests were re-recorded when the radius chain moved
from samples per pair of balls to every lattice cell that two balls hold:
its ``resolutions`` lost ``samples_per_pair`` and gained
``lattice_cells``, the number of cells checked.  Every other byte of
every file, the chain's verdict and margin included, stayed the same.

``schwartz_d1``'s ``report.json`` digest was re-recorded when the
multiplicity certificate moved from a sample of at most 4000 check points
to the whole check lattice: its ``overlap`` certificate's
``check_points`` grew from 2667 to 8001.  Its measured count, bound,
slack and tightest point stayed the same, and so did every other digest.

Every ``report.json`` digest was re-recorded when the samples of the
check lattice above a cap (2,500 points for the omega and membership
certificates, 12,000 for the partition's) became sub-lattices of every
s-th index per axis, and each certificate read on a sample gained a
``stride`` key in its ``resolutions``: the s of its sample, 1 where the
whole check lattice is read.  The omega, membership, partition sum,
range and derivative-bound certificates carry it; the support
certificate reads probes and does not.  These four configs are 1-D and
unmasked or below every cap, where the sub-lattice is the flat stride's
sample or the whole lattice, so the ``stride`` keys are the only bytes
that moved.  ``boundary_d2`` is d=2 and above the omega cap (stride 2,
1,444 of 5,776 check points).

``small_d3`` is ``small_d2`` in d=3, on a box small enough for a unit
test; its partition reads fill incidence blocks up to the pair budget,
so its digests hold the engine's 3-D grid stacks, slabs and both figure
exports.  It is not shipped.
"""

import contextlib
import hashlib
import io
import json

import pytest

from covercert.cli import main, shipped_config_path

# boundary_d2 on a small truncation box: a d=2 partition with many blockers
SMALL_D2 = {
    "name": "small_d2",
    "domain": {"kind": "bounded_box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "family": {"kind": "boundary"},
    "n": 1,
    "m": 1,
    "smoothness_order": 6,
    "alpha_max": 2,
    "offset_count": 5,
    "tolerance": 1e-9,
    "truncation": {"lower": [0.2, 0.2], "upper": [0.45, 0.45]},
    "resolutions": {"candidate": 0.01, "check": 0.01, "quadrature": 0.01},
    "suite": ["omega", "psi", "radii", "cover", "partition"],
    "figures": True,
}

# the same in d=3 on a smaller box: stacks of 3-D grids, and incidence
# blocks up to the pair budget
SMALL_D3 = dict(
    SMALL_D2, name="small_d3",
    domain={"kind": "bounded_box", "lower": [0.0] * 3, "upper": [1.0] * 3},
    truncation={"lower": [0.25] * 3, "upper": [0.45] * 3},
    resolutions={"candidate": 0.0125, "check": 0.0125, "quadrature": 0.0125})

# configs that are not shipped, by name
INLINE = {"small_d2": SMALL_D2, "small_d3": SMALL_D3}

FILES = ("stdout", "report.json", "cover.csv", "cutoffs.csv", "pullback.csv")

GOLDEN = {
    "boundary_d1": {
        "stdout":
            "ab0a5b19bb3c7ce5972dba3fd876afb2bb19a59f63d2708238f6ff10a6ff4274",
        "report.json":
            "99f5efd4c9031e2b31924b7ac63bd9fec911bc5e9971ab9dca37c32c045aa437",
        "cover.csv":
            "8257db85055e4b68ddb4adf171035906f9208cee1745d0fd10a3cc860377c50e",
        "cutoffs.csv":
            "e184c719e661939b2691ba113db7a2c49f5e454a667d083202ea5e51ba521ed0",
        "pullback.csv":
            "a509ba565659263051c0a140332dd2220612b5b1fc6c274a73b9512ca06ab5d0",
    },
    "schwartz_d1": {
        "stdout":
            "f811d990df890e82cc6f19839bafe6329ad5bd1b20f685244533c969154abf1a",
        "report.json":
            "b12f70918324c20579bb394407bf7ad136ae5c64252ae42601862582d08b705f",
        "cover.csv":
            "e9c5bd4dfb539aeb51df43c7a2612922c86ab04ed8c2d7e7d9f266007accf0fe",
        "cutoffs.csv":
            "2e80a50db1dd87433c9e887da6b96c8246c91e6321be89491a942f371820a56c",
        "pullback.csv":
            "76792b586b0340874e1e0ca61443fcbecd37d1326d5f5379780eba0f4ea8775d",
    },
    "unit_weights_d1": {
        "stdout":
            "9de7a2ce50c25b285c96147ef7c4391fc1091afdd4774733ca7da91bb6ebf9d5",
        "report.json":
            "840bc57ba06b4f893ae1d4ddaf014d44d84d7f8922bf3f18c8d0428ad50661f4",
        "cover.csv":
            "492bfece185d23bba23588486000b2e79b81073fd603174189267223923c580f",
        "cutoffs.csv":
            "8e5be8bba65ac71f24bcfb12c862bd59c5e8fd5c004bf682b23e08ad63090e61",
        "pullback.csv":
            "68d8452ad2abf50f515f5a03564c04ac7cef619bd01a8dab3689a6577dc40760",
    },
    "boundary_d2": {
        "stdout":
            "d1dd5cf17559dc850d7d6d43c62c2861364afe8cc862c5d4ad2e08c802b40101",
        "report.json":
            "20e2d3b934b2d1c432d3c2c2f31cf7134d40e16b3f1a75781ba4ab9352113d5c",
        "cover.csv":
            "8536abc542dc14a002631b6a34cba01d0d38536085e714c49f1200e1a048b169",
        "cutoffs.csv":
            "52c4603120e458d5d1ddea6ad0248e3f98e2ca91e0bcc09236cca005fe327a47",
        "pullback.csv":
            "a96c1739e008a4925cba1304f6334b86073a45bd0ca36c89c712c64c306efe60",
    },
    "small_d2": {
        "stdout":
            "fffea37d29a5ba79179e77fdadbf2216c6b0a9ffb7b3da0b42e3c4ef444eddb2",
        "report.json":
            "4f82613e254c9a7c090c0e1c213b1b5882da18f1045c859a8628872b5e433ced",
        "cover.csv":
            "c252ef5150cae1b96cb9c6fdbd53d0dfa38f6e201a5828bf5e0eebc0a3ef0bb1",
        "cutoffs.csv":
            "790402b63f4dd86676d027017a9f5ac28d6d93ed24d0290e7ab18f604b9a963d",
        "pullback.csv":
            "4d8d29d02937877171722182a8785996ec4c673a4307eb43c118c88248760761",
    },
    "small_d3": {
        "stdout":
            "f9268dcf34b3623d562330de2c7cfbd4eedcb8493cf738551e8b5f070a3e8910",
        "report.json":
            "a5c13b062848b4a7f6d2694e495cf1db88ab67dc9fcbbfa064b093d80f6d4565",
        "cover.csv":
            "ba3492712c2ef8fb9b5887b760ae2dfe13859e1d0767e02464b221d47642a43a",
        "cutoffs.csv":
            "7714749d14e5ab60d923105dd21d4fb2910a69242952d541715c2d50c2e97d54",
        "pullback.csv":
            "ce111341b285952b48c5c0344c8dae1fd6b77b0f8da1e10dc9aa875f6ea969c3",
    },
}


def run_digests(name: str, tmp_path) -> dict:
    out = tmp_path / name
    if name in INLINE:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(INLINE[name]))
    else:
        config = shipped_config_path(f"{name}.json")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--config", str(config), "--out", str(out)])
    assert code == 0
    report = "".join(line for line in
                     (out / "report.json").read_text().splitlines(keepends=True)
                     if '"generated_at"' not in line)
    blobs = {"stdout": stdout.getvalue().encode(),
             "report.json": report.encode()}
    for f in FILES[2:]:
        blobs[f] = (out / f).read_bytes()
    return {f: hashlib.sha256(blobs[f]).hexdigest() for f in FILES}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_is_byte_identical(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]
