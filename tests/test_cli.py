import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from covercert import cli
from covercert.cli import SUITES, main, shipped_config_path

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/covercert/schemas/report-v1.json").read_text())


def small_config(**overrides):
    config = {
        "name": "unit_small",
        "domain": {"kind": "expanding_boxes", "dimension": 1},
        "family": {"kind": "constant"},
        "n": 1,
        "m": 1,
        "truncation": {"lower": [-1.0], "upper": [1.0]},
        "resolutions": {"candidate": 0.01, "check": 0.005, "quadrature": 0.002},
        "smoothness_order": 5,
        "alpha_max": 2,
        "suite": ["omega", "radii", "cover", "partition"],
        "figures": True,
    }
    config.update(overrides)
    return config


# a small boundary_d1 whose suites read every field the malformed-config
# cases change (offset_count in omega, psi and psi_box in psi)
_BOUNDARY_RES = {"candidate": 0.01, "check": 0.01, "quadrature": 0.01}
_BOUNDARY_D1 = small_config(
    domain={"kind": "bounded_box", "lower": [0.0], "upper": [1.0]},
    family={"kind": "boundary"},
    truncation={"lower": [0.125], "upper": [0.875]},
    resolutions=_BOUNDARY_RES, alpha_max=3, offset_count=9,
    suite=["omega", "psi", "radii", "cover", "partition"], figures=False)


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


class TestExitCodes:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "certificates passed" in out
        assert "FAIL" not in out

    @staticmethod
    def one_row_config(lower):
        # ring 1 holds one row of the check lattice, 3,222 points, at index
        # (0.336 - lower) / 0.003 of its second axis
        return small_config(
            domain={"kind": "shrinking_boxes", "lower": [0.0, 0.0],
                    "upper": [20.0, 0.67]},
            truncation={"lower": [0.0, lower], "upper": [10.0, 0.34]},
            resolutions={"candidate": 0.003, "check": 0.003,
                         "quadrature": 0.003},
            suite=["omega"], figures=False)

    @pytest.mark.parametrize("lower", [0.303, 0.333], ids=["index11", "index1"])
    def test_one_row_ring_is_thinned_from_its_row(self, tmp_path, lower):
        # the sample starts at the row, wherever it sits on the second axis,
        # and stride 2 keeps every other one of its 3,222 points
        path = write_config(tmp_path, self.one_row_config(lower))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [(c["resolutions"]["stride"], c["resolutions"]["points"])
                for c in report["certificates"]] == [(2, 1611)] * 3

    def test_order_error_exits_two(self, tmp_path, capsys):
        config = small_config(alpha_max=7)  # beyond smoothness budget 4
        path = write_config(tmp_path, config)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "order error" in capsys.readouterr().err

    def test_chain_with_m_zero_rejected(self, tmp_path, capsys):
        config = small_config(m=0, suite=["chain"])
        path = write_config(tmp_path, config)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_missing_file_exits_two(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_suite_name_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(suite=["covers"]))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "suite" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        # lattice radius oracle: the truncation box misses the bounded ring
        {"domain": {"kind": "bounded_box", "lower": [0.0], "upper": [1.0]},
         "family": {"kind": "boundary"}, "suite": ["radii", "cover"]},
        # closed-form radius: the check lattice has no ring points
        {"suite": ["omega", "cover"]},
    ])
    def test_truncation_outside_ring_exits_two(self, tmp_path, capsys,
                                               overrides):
        config = small_config(truncation={"lower": [2.0], "upper": [3.0]},
                              **overrides)
        path = write_config(tmp_path, config)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "ring" in err

    @pytest.mark.parametrize("overrides", [
        {"alpha_max": "2"},
        {"alpha_max": -1},
        {"offset_count": "x"},
        {"offset_count": 4},
        {"tolerance": "x"},
        {"resolutions": {**_BOUNDARY_RES, "psi": "0.05"}},
        {"resolutions": {**_BOUNDARY_RES, "psi": -0.05}},
        {"domain": {"kind": "full_space"}},
        {"truncation": {"lower": [0.125, 0.125], "upper": [0.875, 0.875]}},
        {"psi_box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}},
        {"resolutions": {**_BOUNDARY_RES, "candidate": math.nan}},
        {"resolutions": {**_BOUNDARY_RES, "check": math.nan}},
        {"resolutions": {**_BOUNDARY_RES, "quadrature": math.nan}},
        {"resolutions": {**_BOUNDARY_RES, "psi": math.nan}},
        # the closed-form radius of an expanding box reads no lattice, so
        # the first grid is the check grid on the truncation box
        {"domain": {"kind": "expanding_boxes", "dimension": 1},
         "family": {"kind": "constant"},
         "truncation": {"lower": [0.125], "upper": [math.inf]}},
        {"psi_box": {"lower": [0.125], "upper": [math.inf]}},
        # JSON booleans are no numbers, though Python counts them as ints
        {"n": True},
        {"m": True},
        {"smoothness_order": True, "alpha_max": 0},
        {"alpha_max": True},
        {"tolerance": True},
        {"resolutions": {**_BOUNDARY_RES, "check": True}},
        {"resolutions": {**_BOUNDARY_RES, "quadrature": True}},
        {"resolutions": {**_BOUNDARY_RES, "psi": True}},
        {"domain": {"kind": "expanding_boxes", "dimension": True},
         "family": {"kind": "constant"},
         "truncation": {"lower": [-1.0], "upper": [1.0]}},
        {"figures": "no"},
        # the chain's order check falls back on the truncation's dimension
        {"suite": ["chain"], "truncation": {"lower": 5, "upper": [0.875]}},
    ], ids=["alpha_max_string", "alpha_max_negative", "offset_count_string",
            "offset_count_even", "tolerance_string", "psi_string",
            "psi_negative", "full_space_without_dimension",
            "truncation_2d_on_1d", "psi_box_2d_on_1d", "candidate_nan",
            "check_nan", "quadrature_nan", "psi_nan",
            "truncation_upper_infinite", "psi_box_upper_infinite",
            "n_bool", "m_bool", "smoothness_order_bool", "alpha_max_bool",
            "tolerance_bool", "check_bool", "quadrature_bool", "psi_bool",
            "dimension_bool", "figures_string", "chain_lower_not_a_list"])
    def test_malformed_field_exits_two(self, tmp_path, capsys, overrides):
        config = {**_BOUNDARY_D1, **overrides}
        path = write_config(tmp_path, config)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("overrides", [
        {"domain": {"kind": "expanding_boxes", "dimension": "x"}},
        {"domain": {"kind": "expanding_boxes", "dimension": "x"},
         "suite": ["chain"]},
        {"domain": {"kind": "bounded_box", "lower": ["a"], "upper": [1.0]}},
        {"family": {"kind": "constant", "radius": "x"}},
        {"family": {"kind": "exp", "a": {"scale": "x"}}},
        {"family": {"kind": "exp", "mu": {"variant": "power"}}},
        {"family": {"kind": "exp", "a": ["x"]}},
        {"test_functions": 3},
        {"suite": 3},
    ], ids=["dimension_string", "dimension_string_chain",
            "bounded_box_lower_string", "constant_radius_string",
            "exp_scale_string", "exp_unknown_mu_variant",
            "exp_zero_mu_sequence_string",
            "test_functions_not_a_list", "suite_not_a_list"])
    def test_wrong_typed_field_exits_two(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, small_config(**overrides))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_overflowing_constant_exits_two(self, tmp_path, capsys):
        # the chain composes A1 at index 50 of the constant-radius |x|^2
        # family, exp(a_1250), which overflows
        config = small_config(
            domain={"kind": "full_space", "dimension": 2},
            family={"kind": "exp", "mu": {"variant": "power_abs", "power": 2},
                    "constant_radius": True},
            n=2, truncation={"lower": [-0.5, 0.0], "upper": [0.5, 0.5]},
            resolutions={"candidate": 0.1, "check": 0.05, "quadrature": 0.05},
            smoothness_order=6, alpha_max=1, suite=["chain"])
        path = write_config(tmp_path, config)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "overflows a float" in capsys.readouterr().err

    def test_unexpected_crash_exits_three(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "run", crash)
        path = write_config(tmp_path, small_config())
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "internal error: ZeroDivisionError('boom')" in err


@st.composite
def run_configs(draw):
    """Small run configurations in d = 1..3 on coarse lattices, valid or not."""
    d = draw(st.sampled_from([1, 2, 3]))
    domain = draw(st.sampled_from([
        {"kind": "full_space", "dimension": d},
        {"kind": "expanding_boxes", "dimension": d},
        {"kind": "bounded_box", "lower": [0.0] * d, "upper": [1.0] * d},
        {"kind": "shrinking_boxes", "lower": [0.0] * d, "upper": [1.0] * d},
    ]))
    family = draw(st.sampled_from([
        {"kind": "schwartz"}, {"kind": "boundary"}, {"kind": "constant"},
        {"kind": "exp", "mu": {"variant": "power_abs", "power": 1}},
        {"kind": "exp", "mu": {"variant": "power_abs", "power": 2},
         "constant_radius": True},
    ]))
    lower = [draw(st.sampled_from([-1.0, -0.5, 0.0, 0.1, 0.25]))
             for _ in range(d)]
    upper = [lo + draw(st.sampled_from([0.25, 0.5, 1.0])) for lo in lower]
    steps = {1: [0.02, 0.05, 0.1], 2: [0.05, 0.1], 3: [0.1, 0.25]}[d]
    coarse = [0.05, 0.1] if d < 3 else [0.1, 0.25]
    config = {
        "name": "generated",
        "domain": domain,
        "family": family,
        "n": draw(st.integers(1, 2)),
        "m": draw(st.integers(0, 2)),
        "truncation": {"lower": lower, "upper": upper},
        "resolutions": {"candidate": draw(st.sampled_from(steps)),
                        "check": draw(st.sampled_from(coarse)),
                        "quadrature": draw(st.sampled_from(coarse))},
        "smoothness_order": draw(st.integers(3, 6)),
        "alpha_max": draw(st.integers(0, 3)),
        "suite": draw(st.lists(st.sampled_from(SUITES), min_size=1,
                               max_size=3, unique=True)),
        "figures": draw(st.booleans()),
    }
    control = draw(st.sampled_from([None, "drop_center", "shrink_separation",
                                    "deflate_a1"]))
    if control is not None:
        config["negative_control"] = control
    return config


@settings(max_examples=25, deadline=None)
@given(run_configs())
def test_exit_codes_keep_their_meaning(config):
    """Exit 1 always leaves a report; any other failure exits 2, never 3."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(path), "--out", str(Path(tmp) / "out")])
        report = Path(tmp) / "out" / "report.json"
        # exit 3 is an internal error: a crash on a generated config is a bug
        assert code in (0, 1, 2), err.getvalue()
        if code in (0, 1):
            assert report.exists()
            summary = json.loads(report.read_text())["summary"]
            assert (summary["fail"] > 0) == (code == 1)


_FIGURE_FILES = ("cover.csv", "cutoffs.csv", "pullback.csv")


@settings(max_examples=25, deadline=None)
@given(run_configs().map(lambda config: {
    **config, "figures": True,
    "suite": sorted({*config["suite"], "partition"})}))
def test_figures_equal_the_csv_module_export(config):
    """The figure files are byte for byte those that ``csv.writer`` writes
    from Python numbers, with the pullback probes built one core box at a
    time."""
    export = cli.export_figures
    written = []

    def both(run_config, built_cover, partition, out_dir):
        export(run_config, built_cover, partition, out_dir)
        (out_dir / "reference").mkdir()
        oracles.export_figures(run_config, built_cover, partition,
                               out_dir / "reference")
        written.append(out_dir)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with mock.patch.object(cli, "export_figures", both), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        assert bool(written) == (code != 2)
        for out in written:
            for name in _FIGURE_FILES:
                assert (out / name).read_bytes() == \
                    (out / "reference" / name).read_bytes(), name


_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5,
           0.1 + 0.2]
_INTS = [0, -1, -(2 ** 63), 2 ** 53 + 1, 2 ** 63 - 1]


@st.composite
def csv_columns(draw):
    """Float and int columns of one length (maybe zero) that mix signed
    zeros, NaN, infinities, subnormals and ints past 2^53."""
    rows = draw(st.integers(0, 30))
    columns = []
    for kind in draw(st.lists(st.sampled_from("fi"), min_size=1, max_size=4)):
        if kind == "f":
            values, dtype = st.one_of(st.sampled_from(_FLOATS), st.floats()), float
        else:
            values, dtype = st.one_of(st.sampled_from(_INTS), st.integers(
                -(2 ** 63), 2 ** 63 - 1)), np.int64
        columns.append(np.array(draw(st.lists(values, min_size=rows,
                                              max_size=rows)), dtype=dtype))
    return columns


@settings(max_examples=200, deadline=None)
@given(csv_columns(), st.integers(1, 8))
def test_csv_writer_equals_the_csv_module(columns, block):
    # small row blocks, so that values repeat across blocks
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(cli, "_CSV_ROWS", block):
            cli._write_csv(got, header, columns)
        with want.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(zip(*[column.tolist() for column in columns]))
        assert got.read_bytes() == want.read_bytes()


class TestNegativeControls:
    def test_dropped_center_fails_covering(self, tmp_path):
        config = small_config(negative_control="drop_center",
                              suite=["cover"])
        path = write_config(tmp_path, config)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out/report.json").read_text())
        failing = [c for c in report["certificates"] if c["verdict"] == "fail"]
        assert any("witness_uncovered_point" in c["details"] for c in failing)

    def test_shrunk_separation_fails_disjointness(self, tmp_path):
        config = small_config(negative_control="shrink_separation",
                              suite=["cover", "partition", "chain"],
                              smoothness_order=5, m=1,
                              test_functions=["gaussian"])
        path = write_config(tmp_path, config)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out/report.json").read_text())
        claims = {c["claim"]: c for c in report["certificates"]}
        bad = claims["chain.disjoint_rescaled_supports"]
        assert bad["verdict"] == "fail"
        assert "witness_overlap" in bad["details"]

    def test_deflated_constant_fails_omega(self, tmp_path):
        config = small_config(negative_control="deflate_a1", suite=["omega"])
        path = write_config(tmp_path, config)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out/report.json").read_text())
        failing = [c for c in report["certificates"] if c["verdict"] == "fail"]
        assert len(failing) == 1
        assert failing[0]["details"]["negative_control"] == "deflate_a1"
        assert "witness_point" in failing[0]["details"]


class TestReport:
    def test_schema_validates(self, tmp_path):
        path = write_config(tmp_path, small_config())
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out/report.json").read_text())
        jsonschema.validate(report, SCHEMA)

    def test_determinism_modulo_timestamp(self, tmp_path):
        path = write_config(tmp_path, small_config())
        main(["--config", str(path), "--out", str(tmp_path / "a")])
        main(["--config", str(path), "--out", str(tmp_path / "b")])
        a = json.loads((tmp_path / "a/report.json").read_text())
        b = json.loads((tmp_path / "b/report.json").read_text())
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b

    def test_suite_override(self, tmp_path):
        path = write_config(tmp_path, small_config())
        main(["--config", str(path), "--out", str(tmp_path / "out"),
              "--suite", "cover"])
        report = json.loads((tmp_path / "out/report.json").read_text())
        claims = {c["claim"] for c in report["certificates"]}
        assert claims == {"cover.separation", "cover.covering",
                          "cover.overlap_bound", "cover.neighbor_bound",
                          "radii.chain_on_overlaps"}


class TestFigures:
    def test_cover_csv_golden_rows(self, tmp_path):
        path = write_config(tmp_path, small_config())
        main(["--config", str(path), "--out", str(tmp_path / "out")])
        with (tmp_path / "out/cover.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["k", "z1", "rho", "r1"]
        assert len(rows) - 1 == 8   # greedy packing of (-1, 1) at radius 1/2
        assert float(rows[1][1]) == pytest.approx(-0.99)

    def test_cutoff_and_pullback_files(self, tmp_path):
        path = write_config(tmp_path, small_config())
        main(["--config", str(path), "--out", str(tmp_path / "out")])
        with (tmp_path / "out/cutoffs.csv").open() as handle:
            header = next(csv.reader(handle))
        assert header == ["x1", "k", "value"]
        with (tmp_path / "out/pullback.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["zeta1", "k", "value"]
        assert len(rows) > 8

    def test_two_dimensional_cover_csv(self, tmp_path):
        config = small_config(
            name="plane",
            domain={"kind": "expanding_boxes", "dimension": 2},
            truncation={"lower": [-0.5, -0.5], "upper": [0.5, 0.5]},
            resolutions={"candidate": 0.02, "check": 0.02, "quadrature": 0.02},
            suite=["cover"])
        path = write_config(tmp_path, config)
        main(["--config", str(path), "--out", str(tmp_path / "out")])
        with (tmp_path / "out/cover.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["k", "z1", "z2", "rho", "r1"]
        assert len(rows) > 1


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["schwartz_d1.json", "schwartz_d2.json",
                                      "boundary_d1.json", "boundary_d2.json",
                                      "unit_weights_d1.json"])
    def test_configs_parse(self, name):
        from covercert.cli import RunConfig
        data = json.loads(shipped_config_path(name).read_text())
        config = RunConfig.from_dict(data)
        assert config.name == name.removesuffix(".json")

    def test_schwartz_d1_golden_run(self, tmp_path):
        code = main(["--config", str(shipped_config_path("schwartz_d1.json")),
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["fail"] == 0
        assert report["summary"]["pass"] == report["summary"]["total"]
        jsonschema.validate(report, SCHEMA)
