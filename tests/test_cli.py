import csv
import json
from pathlib import Path

import pytest

from covercert import cli
from covercert.cli import main, shipped_config_path

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

    def test_unexpected_crash_exits_three(self, tmp_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(cli, "run", crash)
        path = write_config(tmp_path, small_config())
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "internal error: ZeroDivisionError('boom')" in err


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
