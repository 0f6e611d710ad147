import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

from admitlab.cli import main
from admitlab.config import load_config
from admitlab.errors import ConfigError

BASE_CONFIG = {
    "seed": 42,
    "geometry": {
        "box": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]},
        "patch": {"face": "z+", "rect_lo": [0.2, 0.2], "rect_hi": [0.8, 0.8]},
        "eta": 0.25,
        "tau_grid": {"ratio": 0.5, "count": 3},
    },
    "family": {"template": "scalar-times-identity", "k": 0.05,
               "params": {"imag": 1.0}},
    "apriori": {"e1": 2.0, "e2": 1.0},
    "fields": {
        "a1": {"kind": "constant", "value": 1.0},
        "a2": {"kind": "constant", "value": 1.1},
    },
    "discretization": {"h": 0.125, "x0": [0.5, 0.5, 1.0]},
    "sweep": {"scales": [0.05, 0.1], "delta": {"kind": "constant", "value": 1.0}},
    "output": {"formats": ["csv", "json", "svg"]},
}


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for path, value in (overrides or {}).items():
        node = cfg
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    out = tmp_path / name
    out.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return out


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        assert cfg.seed == 42
        assert cfg.h == 0.125
        assert cfg.k == 0.05
        assert cfg.tau_grid == pytest.approx((0.015625, 0.0078125, 0.00390625))

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, seed=7, mesh_h=0.0625)
        assert cfg.seed == 7 and cfg.h == 0.0625

    def test_missing_section(self, tmp_path):
        path = write_config(tmp_path)
        data = yaml.safe_load(path.read_text())
        del data["fields"]
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("geometry: [unbalanced", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(bad)

    @pytest.mark.parametrize("bad", [0.0, float("nan")], ids=["zero", "nan"])
    def test_sweep_scale_rejected(self, tmp_path, capsys, bad):
        path = write_config(tmp_path, {"sweep.scales": [bad, 0.05]})
        with pytest.raises(ConfigError, match=rf"sweep\.scales .* got {bad!r}"):
            load_config(path)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"got {bad!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("sweep.scales", ["abc", 0.05]),
        ("geometry.eta", "quarter"),
        ("discretization.h", "fine"),
        ("discretization.x0", [0.5, "mid", 1.0]),
        ("geometry.tau_grid.count", "five"),
        ("apriori.e1", "two"),
        ("fields.a2", {"kind": "constant", "value": "big"}),
    ])
    def test_non_numeric_value_named(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, {key: value})
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, named", [
        ({"family.template": "rotated-anisotropic", "family.params": {"eps": "abc"}},
         r"'family\.params\.eps'"),
        ({"family.params.bogus": 1}, r"'family\.params'.*'bogus'"),
        ({"family.params": None}, r"'family\.params'"),
        ({"apriori": None}, r"'apriori'"),
        ({"discretization": None}, r"'discretization'"),
    ], ids=["eps-abc", "bogus-param", "null-params", "null-apriori",
            "null-discretization"])
    def test_malformed_section_named(self, tmp_path, capsys, overrides, named):
        path = write_config(tmp_path, overrides)
        with pytest.raises(ConfigError, match=named):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 2
        assert re.search(named, capsys.readouterr().err)

    def test_auto_frequency(self, tmp_path):
        path = write_config(tmp_path, {"family.k": "auto", "apriori.e2": 1.25})
        cfg = load_config(path)
        assert cfg.k_was_auto and cfg.k == pytest.approx(0.9 * cfg.window.k_max)

    def test_auto_frequency_empty_window(self, tmp_path):
        path = write_config(tmp_path, {"family.k": "auto"})  # e2 = 1: empty
        with pytest.raises(ConfigError):
            load_config(path)


class TestExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["validate", "--config", str(path)]) == 0
        assert "validation PASSED" in capsys.readouterr().out

    def test_validate_failure(self, tmp_path, capsys):
        path = write_config(tmp_path, {"apriori.e1": 1.0})
        assert main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "real-part-upper" in out and "FAIL" in out

    def test_unparseable_config(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(":::", encoding="utf-8")
        assert main(["validate", "--config", str(bad)]) == 2

    def test_missing_config_flag(self):
        assert main(["validate"]) == 2

    def test_enforced_window_refusal(self, tmp_path, capsys):
        path = write_config(tmp_path, {"family.enforce_window": True})
        out_dir = tmp_path / "out"
        code = main(["stability", "--config", str(path), "--out", str(out_dir)])
        assert code == 2
        assert "enforce_window" in capsys.readouterr().err

    def test_io_failure(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        # A directory squatting on a target file makes the write fail.
        (out / "dtn_gram.csv").mkdir(parents=True)
        assert main(["dtn", "--config", str(path), "--out", str(out)]) == 4

    def test_sign_violation_is_numeric_failure(self, tmp_path):
        path = write_config(tmp_path, {
            "family.template": "rotated-anisotropic",
            "family.k": 2.0,
            "family.params": {"eps": 0.3, "imag": 1.1, "imag_eps": 0.4},
            "fields.a1": {"kind": "constant", "value": 1.3},
            "fields.a2": {"kind": "constant", "value": 1.0},
        })
        out_dir = tmp_path / "out"
        assert main(["stability", "--config", str(path), "--out", str(out_dir)]) == 3


class TestDtnCommand:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["dtn", "--config", str(path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "DtN difference norm" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "run-manifest/1"
        listed = set(manifest["files"])
        written = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert listed == written
        assert "dtn_pairing_a1.csv" in listed and "dtn_gram.csv" in listed

    def test_deterministic_bytes(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["dtn", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["dtn", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("dtn_pairing_a1.csv", "dtn_pairing_a2.csv", "dtn_gram.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_is_crlf_with_header(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        main(["dtn", "--config", str(path), "--out", str(out)])
        raw = (out / "dtn_gram.csv").read_bytes()
        assert raw.startswith(b"i,j,value\r\n")


    def test_meshes_only_the_box(self, tmp_path, monkeypatch):
        import admitlab.cli
        import admitlab.estimator
        import admitlab.fem
        from admitlab.geometry import BoxDomain

        domains = []
        real = admitlab.fem.build_mesh

        def recording(domain, *args, **kwargs):
            domains.append(domain)
            return real(domain, *args, **kwargs)

        for module in (admitlab.fem, admitlab.cli, admitlab.estimator):
            monkeypatch.setattr(module, "build_mesh", recording)
        path = write_config(tmp_path)
        assert main(["dtn", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(domains) == 1 and isinstance(domains[0], BoxDomain)

    @pytest.mark.parametrize("overrides", [
        {"geometry.eta": 0.35},
        {"geometry.patch.rect_lo": [0.25, 0.25], "geometry.patch.rect_hi": [0.75, 0.75],
         "geometry.eta": 0.2},
    ], ids=["empty-eta-set", "bump-touches-patch"])
    def test_geometry_checks_kept(self, tmp_path, overrides):
        path = write_config(tmp_path, overrides)
        assert main(["dtn", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


class TestStabilityCommand:
    def test_report_schema_and_recovery(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "stability_report.json").read_text())
        assert report["schema"] == "stability-report/1"
        assert report["gap"]["extrapolated"] == pytest.approx(-0.1, abs=0.01)
        assert (out / "gap_tau.csv").exists()
        svg = (out / "gap_tau.svg").read_text()
        assert svg.startswith("<svg") and "estimate" in svg

    def test_manifest_stages_carry_peak_rss(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["stability", "--config", str(path), "--out", str(out)]) == 0
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert [stage["name"] for stage in stages][0] == "frame"
        peaks = [stage["peak_rss_mb"] for stage in stages]
        assert all(peak > 0.0 for peak in peaks)
        assert peaks == sorted(peaks)

    def test_recovery_factors_only_the_enlarged_systems(self, tmp_path, factor_calls):
        # Both fields are constant under the scalar family: the Gram and the
        # two Omega systems take the sine-transform solve, and only the two
        # Omega_eta systems are factored.
        config = Path(__file__).resolve().parents[1] / "configs" / "recovery.yaml"
        assert main(["stability", "--config", str(config), "--mesh-h", "0.125",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(factor_calls) == 2

    def test_missing_second_field(self, tmp_path):
        path = write_config(tmp_path)
        data = yaml.safe_load(path.read_text())
        del data["fields"]["a2"]
        path.write_text(yaml.safe_dump(data))
        assert main(["stability", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2


class TestSweepCommand:
    def test_lipschitz_sweep(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "sweep_lipschitz_report.json").read_text())
        assert 0.8 <= report["loglog_slope"] <= 1.2
        assert report["ratio_spread"] < 3.0
        assert (out / "sweep_lipschitz.csv").exists()
        assert (out / "sweep_lipschitz.svg").exists()

    def test_gap_vanishing_on_patch_fails_loudly(self, tmp_path):
        # The coefficient gap sup is zero at every point, so there is no
        # log-log fit: a numeric failure, not a traceback.
        path = write_config(tmp_path, {
            "sweep.delta": {"kind": "affine", "offset": -1.0,
                            "gradient": [0.0, 0.0, 1.0]},
        })
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 3

    def test_derivative_sweep(self, tmp_path):
        path = write_config(tmp_path, {
            "fields.a2": {"kind": "affine", "offset": 0.95,
                          "gradient": [0.0, 0.0, 0.05]},
            "sweep.scales": [0.05, 0.1],
            "sweep.delta": {"kind": "affine", "offset": -1.0,
                            "gradient": [0.0, 0.0, 1.0]},
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--mode", "derivative"]) == 0
        report = json.loads((out / "sweep_derivative_report.json").read_text())
        ests = [e["derivative_estimate"] for e in report["entries"]]
        assert ests[0] == pytest.approx(-0.05, abs=0.0125)
        assert ests[1] == pytest.approx(-0.1, abs=0.025)
        assert report["loglog_slope"] >= report["delta_1"] - 0.15


    def test_derivative_sweep_reuses_reference_passes(self, tmp_path, probe_calls):
        config = Path(__file__).resolve().parents[1] / "configs" / "derivative.yaml"
        assert main(["sweep", "--mode", "derivative", "--config", str(config),
                     "--mesh-h", "0.125", "--out", str(tmp_path / "out")]) == 0
        # Two passes (orders 0 and 2) for the reference field, two for each
        # of the four perturbed fields.
        assert probe_calls == [5] * (2 + 4 * 2)

    @pytest.mark.parametrize("mode", ["lipschitz", "derivative"])
    def test_reference_dtn_before_perturbed_assembly(self, tmp_path, assembly_log, mode):
        # The derivative sweep needs a gap that vanishes on the patch.
        path = write_config(tmp_path, {} if mode == "lipschitz" else {
            "fields.a2": {"kind": "affine", "offset": 0.95,
                          "gradient": [0.0, 0.0, 0.05]},
            "sweep.delta": {"kind": "affine", "offset": -1.0,
                            "gradient": [0.0, 0.0, 1.0]},
        })
        assert main(["sweep", "--mode", mode, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        log = assembly_log
        reference = log[0][1]
        assert log[:3] == [("assemble", reference)] * 2 + [("dtn", reference)]
        assert all(a is not reference for _, a in log[3:])


class TestProbeCommand:
    def test_point_cloud_written(self, tmp_path, capsys):
        path = write_config(tmp_path, {"discretization.order": 1})
        out = tmp_path / "out"
        assert main(["probe", "--config", str(path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "sphere min" in stdout
        for m in (0, 1):
            lines = (out / f"probe_m{m}.csv").read_text().splitlines()
            assert lines[0] == "x,y,z,re,im,grad_abs,h"
            assert len(lines) == 2001


class TestImportGraph:
    """Commands that never assemble a matrix do not import scipy.sparse."""

    SCRIPT = textwrap.dedent("""
        import sys
        import admitlab.cli
        layers = ("config", "admittivity", "geometry", "fem", "dtn", "singular",
                  "gegenbauer", "estimator", "reportio", "svgplot")
        missing = [m for m in layers if f"admitlab.{m}" not in sys.modules]
        assert not missing, missing
        assert "scipy.sparse" not in sys.modules, "import"
        config, out = sys.argv[1], sys.argv[2]
        for command in ("validate", "probe"):
            rc = admitlab.cli.main([command, "--config", config, "--out", out])
            assert rc == 0, (command, rc)
            assert "scipy.sparse" not in sys.modules, command
        assert admitlab.cli.main(["dtn", "--config", config, "--out", out]) == 0
        assert "scipy.sparse" in sys.modules, "dtn"
        print("import graph ok")
    """)

    def test_scipy_sparse_only_on_first_assembly(self, tmp_path):
        path = write_config(tmp_path)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(path), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "import graph ok" in result.stdout
