import gc
import json
import os
import re
import subprocess
import sys
import textwrap
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import admitlab.estimator
from admitlab.cli import main
from admitlab.config import load_config
from admitlab.errors import ConfigError
from admitlab.estimator import build_forward
from admitlab.families import constant_field
from admitlab.fem import BlockSystem, SubstructuredSystem
from admitlab.geometry import BoxDomain

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


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def mesh_domains(monkeypatch):
    """The domain of every mesh `build_mesh` builds, in call order."""
    import admitlab.fem

    domains = []
    real = admitlab.fem.build_mesh

    def recording(domain, *args, **kwargs):
        domains.append(domain)
        return real(domain, *args, **kwargs)

    for module in (admitlab.fem, admitlab.estimator):
        monkeypatch.setattr(module, "build_mesh", recording)
    return domains


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


def oblique_config(tmp_path):
    """derivative.yaml with a2's gradient tilted off the patch normal, to
    (0.02, 0, 0.1): a2 then varies along two axes, so its systems take
    box-cocg, and its derivative estimate still passes."""
    data = yaml.safe_load((CONFIG_DIR / "derivative.yaml").read_text())
    data["fields"]["a2"]["gradient"] = [0.02, 0.0, 0.1]
    path = tmp_path / "oblique.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def config_path(tmp_path, name):
    """A shipped config by name, or the `oblique_config`."""
    return oblique_config(tmp_path) if name == "oblique" else CONFIG_DIR / f"{name}.yaml"


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

    @pytest.mark.parametrize("scales", [[0.04], [0.05, 0.05], [0.05, 0.05, 0.05]],
                             ids=["one", "two-equal", "three-equal"])
    def test_sweep_needs_two_distinct_scales(self, tmp_path, capsys, scales):
        path = write_config(tmp_path, {"sweep.scales": scales})
        with pytest.raises(ConfigError, match=r"'sweep\.scales' .* two distinct"):
            load_config(path)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "'sweep.scales'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("has_section", [True, False])
    def test_mesh_override_leaves_caller_data(self, tmp_path, has_section):
        data = yaml.safe_load(write_config(tmp_path).read_text())
        if not has_section:
            del data["discretization"]
        before = json.loads(json.dumps(data))
        cfg = load_config(data=data, mesh_h=0.0625)
        assert cfg.h == 0.0625 and cfg.raw["discretization"]["h"] == 0.0625
        assert data == before

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
        # Values of the right type out of range (eta = 0.25, so eta/4 = 0.0625).
        ("discretization.x0", [0.5, 0.5]),
        ("discretization.x0", [0.5, 0.5, 1.0, 0.0]),
        ("discretization.order", -1),
        ("discretization.rho", 0.0),
        ("discretization.rho", -0.05),
        ("discretization.rho", 0.07),
        ("output.formats", "csv"),
        ("output.formats", ["csv", "pdf"]),
        # Integer keys take neither fractions nor booleans.
        ("discretization.order", 1.5),
        ("discretization.order", True),
        ("geometry.tau_grid.count", 2.7),
        ("seed", 1.5),
        ("seed", True),
        # The mesh pitch is finite and positive.
        ("discretization.h", 0.0),
        ("discretization.h", -0.125),
        ("discretization.h", float("nan")),
        ("discretization.h", float("inf")),
        # Every config number is finite.
        ("family.k", float("nan")),
        ("apriori.e1", float("inf")),
        ("apriori.alpha", float("-inf")),
        ("geometry.eta", float("nan")),
        ("geometry.box.hi", [1.0, float("inf"), 1.0]),
        ("geometry.patch.rect_lo", [float("nan"), 0.2]),
        ("geometry.tau_grid.start", float("inf")),
        ("geometry.tau_grid.ratio", float("nan")),
        ("geometry.tau_grid.count", float("inf")),
        ("discretization.rho", float("nan")),
        ("discretization.x0", [0.5, float("nan"), 1.0]),
        ("discretization.order", float("nan")),
        ("seed", float("nan")),
        ("family.params.imag", float("inf")),
        ("fields.a2", {"kind": "constant", "value": float("nan")}),
        ("fields.a1", {"kind": "affine", "offset": 1.0, "gradient": [0.0, float("inf"), 0.0]}),
        ("sweep.delta", {"kind": "constant", "value": float("inf")}),
        # A switch is a YAML boolean, not a string that reads as one.
        ("family.enforce_window", "false"),
        ("family.enforce_window", 0),
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

    @pytest.mark.parametrize("mesh_h", ["nan", "inf", "0", "-0.125"])
    def test_mesh_h_override_named(self, tmp_path, capsys, mesh_h):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="'discretization.h'"):
            load_config(path, mesh_h=float(mesh_h))
        assert main(["validate", "--config", str(path), "--mesh-h", mesh_h]) == 2
        assert "'discretization.h'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "bogus", "geometry.bogus", "geometry.box.bogus", "geometry.patch.bogus",
        "geometry.tau_grid.bogus", "discretization.hh", "family.bogus", "apriori.lamda",
        "fields.a3", "sweep.bogus", "output.bogus",
    ])
    def test_unknown_key_named(self, tmp_path, capsys, key):
        path = write_config(tmp_path, {key: 3})
        with pytest.raises(ConfigError, match=rf"unknown config key '{re.escape(key)}'"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, spec, bad", [
        ("fields.a2", {"kind": "affine", "offset": 0.9, "gradient": [0.0, 0.0, 0.1],
                       "gradiant": [0.0, 0.0, 5.0]}, "gradiant"),
        ("fields.a2", {"kind": "constant", "value": 1.1, "offset": 2.0}, "offset"),
        ("sweep.delta", {"kind": "constant", "value": 1.0, "valeu": 2.0}, "valeu"),
    ], ids=["affine-gradiant", "constant-offset", "delta-valeu"])
    def test_unknown_field_key_named(self, tmp_path, capsys, key, spec, bad):
        # A typo in a field spec used to be dropped silently.
        path = write_config(tmp_path, {key: spec})
        name = f"{key}.{bad}"
        with pytest.raises(ConfigError, match=rf"unknown config key '{re.escape(name)}'"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 2
        assert f"'{name}'" in capsys.readouterr().err

    def test_range_limits_accepted(self, tmp_path):
        # eta = 0.25, so rho = eta/4 is the largest allowed.  An integral
        # float is an integer, and every optional key is a known one.
        path = write_config(tmp_path, {"discretization.rho": 0.0625,
                                       "discretization.order": 0,
                                       "output.formats": ["svg", "csv"],
                                       "geometry.tau_grid.count": 3.0,
                                       "geometry.tau_grid.start": 0.01,
                                       "family.enforce_window": False,
                                       "apriori.r0": 0.4, "apriori.L": 2.0})
        cfg = load_config(path)
        assert cfg.rho == 0.0625 and cfg.order == 0 and cfg.formats == ("svg", "csv")
        assert len(cfg.tau_grid) == 3 and cfg.apriori.r0 == 0.4 and cfg.apriori.L == 2.0

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

    @pytest.mark.parametrize("key", ["apriori.e1", "apriori.e2"])
    def test_ellipticity_constant_below_one(self, tmp_path, capsys, key):
        path = write_config(tmp_path, {key: 0.5})
        assert main(["validate", "--config", str(path)]) == 2
        assert "must be >= 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, config", [
        ("validate", "recovery"), ("stability", "recovery"), ("derivative", "derivative"),
        ("sweep", "derivative"),
    ])
    def test_probe_point_on_a_mesh_vertex_refused_up_front(self, tmp_path, capsys,
                                                           monkeypatch, command, config):
        # At h = 1/64 the first tau, eta / 16 = 1/64, puts z = x0 + tau nu on
        # a lattice vertex: refused before any mesh is built.
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(admitlab.estimator, "build_mesh", no_mesh)
        out = tmp_path / "out"
        extra = ["--mode", "derivative"] if command == "sweep" else []
        assert main([command, "--config", str(CONFIG_DIR / f"{config}.yaml"),
                     "--mesh-h", "0.015625", "--out", str(out), *extra]) == 2
        assert "probe point at tau=0.015625 is a mesh vertex" in capsys.readouterr().err
        assert not out.exists()

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


    def test_meshes_only_the_box(self, tmp_path, mesh_domains):
        # dtn reads no Omega_eta system, so it builds no bump mesh.
        path = write_config(tmp_path)
        assert main(["dtn", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(mesh_domains) == 1 and isinstance(mesh_domains[0], BoxDomain)

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
        # Both fields are constant under the scalar family: the Gram, the
        # two Omega systems and their bump systems take the layered solve,
        # and each Omega_eta system, substructured through them,
        # inverts only its dense footprint interface: no sparse LU.
        config = Path(__file__).resolve().parents[1] / "configs" / "recovery.yaml"
        out = tmp_path / "out"
        assert main(["stability", "--config", str(config), "--mesh-h", "0.125",
                     "--out", str(out)]) == 0
        solvers = json.loads((out / "manifest.json").read_text())["solvers"]
        # The footprint: the 3 x 3 patch-face vertices inside the bump base.
        assert [s["factored_dofs"] for s in solvers if s["domain"] == "Omega_eta"] == [9, 9]
        assert factor_calls == []

    def test_one_cell_bump(self, tmp_path, factor_calls):
        # At h = 0.25 recovery.yaml's eta is one pitch, so the bump is one
        # cell thick: its system has no interior, and each Omega_eta system
        # inverts only its one footprint dof.
        out = tmp_path / "out"
        assert main(["stability", "--config", str(CONFIG_DIR / "recovery.yaml"),
                     "--mesh-h", "0.25", "--out", str(out)]) == 0
        solvers = json.loads((out / "manifest.json").read_text())["solvers"]
        assert [s["factored_dofs"] for s in solvers if s["domain"] == "Omega_eta"] == [1, 1]
        assert factor_calls == []

    @pytest.mark.parametrize("command, config, kinds", [
        ("stability", "recovery.yaml",
         {"a1": ("layered", "via-core"), "a2": ("layered", "via-core")}),
        ("derivative", "derivative.yaml",
         {"a1": ("layered", "via-core"), "a2": ("layered", "via-core")}),
    ], ids=["stability", "derivative"])
    def test_manifest_reports_solvers(self, tmp_path, factor_calls, command, config, kinds):
        config = Path(__file__).resolve().parents[1] / "configs" / config
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            assert main([command, "--config", str(config), "--mesh-h", "0.125",
                         "--out", str(out)]) == 0
        solvers = json.loads((outs[0] / "manifest.json").read_text())["solvers"]
        assert [(s["field"], s["domain"]) for s in solvers] == [
            ("a1", "Omega"), ("a1", "Omega_eta"), ("a2", "Omega"), ("a2", "Omega_eta")]
        for s in solvers:
            assert s["kind"] == kinds[s["field"]][s["domain"] == "Omega_eta"]
            # An Omega_eta system inverts only its dense footprint interface.
            assert s["factored_dofs"] == (9 if s["domain"] == "Omega_eta" else 0)
            assert 0.0 < s["worst_residual"] <= 1e-10
        assert factor_calls == []
        for csv in sorted(p.name for p in outs[0].glob("*.csv")):
            assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes()

    @pytest.mark.parametrize("command, config", [
        ("stability", "recovery.yaml"), ("derivative", "derivative.yaml"),
        ("dtn", "default.yaml"),
    ])
    def test_manifest_solver_counters(self, tmp_path, command, config):
        config = Path(__file__).resolve().parents[1] / "configs" / config
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            assert main([command, "--config", str(config), "--mesh-h", "0.125",
                         "--out", str(out)]) == 0
        solvers = json.loads((outs[0] / "manifest.json").read_text())["solvers"]
        domains = ["Omega"] if command == "dtn" else ["Omega", "Omega_eta"]
        assert [(s["field"], s["domain"]) for s in solvers] == [
            (field, domain) for field in ("a1", "a2") for domain in domains]
        for s in solvers:
            assert 1 <= s["solve_calls"] <= s["rhs_columns"]
            assert 0.0 < s["worst_residual"] <= 1e-10
            if s["kind"] == "layered":
                assert s["krylov_iterations"] == s["krylov_iterations_max"] == 0
            else:
                # COCG, in the interior or on the footprint interface.
                assert 1 <= s["krylov_iterations_max"] <= s["krylov_iterations"]
        if command == "dtn":
            # Each Omega system's one Schur complement onto the basis: a
            # column per basis dof under box-cocg, and under the layered
            # closed form only the columns of its check.
            d = json.loads((outs[0] / "dtn_norm.json").read_text())["basis_size"]
            assert all(s["rhs_columns"] == (d if s["kind"] == "box-cocg" else 3)
                       for s in solvers)
        for csv in sorted(p.name for p in outs[0].glob("*.csv")):
            assert (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes()

    def test_manifest_krylov_counters(self, tmp_path):
        # The oblique a2 varies along two axes: its Omega system runs COCG
        # and factors nothing, and its Omega_eta system solves through it.
        config = oblique_config(tmp_path)
        out = tmp_path / "out"
        assert main(["derivative", "--config", str(config), "--mesh-h", "0.125",
                     "--out", str(out)]) == 0
        solvers = json.loads((out / "manifest.json").read_text())["solvers"]
        entry = {(s["field"], s["domain"]): s for s in solvers}
        cocg, via = entry["a2", "Omega"], entry["a2", "Omega_eta"]
        assert cocg["kind"] == "box-cocg" and cocg["factored_dofs"] == 0
        assert via["kind"] == "via-core"
        assert 1 <= cocg["krylov_iterations_max"] <= 50
        assert (cocg["krylov_iterations_max"] <= cocg["krylov_iterations"]
                <= cocg["krylov_iterations_max"] * cocg["rhs_columns"])
        # a2's interface is preconditioned by the closed form of the box
        # preconditioner's Schur complement: a few interface iterations.
        assert 2 <= via["krylov_iterations_max"] <= 10
        assert (via["krylov_iterations_max"] <= via["krylov_iterations"]
                <= via["krylov_iterations_max"] * via["rhs_columns"])
        for s in solvers:
            if s["kind"] == "layered":
                assert s["krylov_iterations"] == s["krylov_iterations_max"] == 0
        # a1's interface is preconditioned exactly: one step per column.
        exact = entry["a1", "Omega_eta"]
        assert exact["krylov_iterations_max"] == 1
        assert exact["krylov_iterations"] == exact["rhs_columns"]

    def test_cocg_iteration_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        import admitlab.fem

        monkeypatch.setattr(admitlab.fem, "_COCG_MAX_ITERATIONS", 2)
        config = oblique_config(tmp_path)
        assert main(["derivative", "--config", str(config), "--mesh-h", "0.125",
                     "--out", str(tmp_path / "out")]) == 3
        assert "COCG did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("stability", "recovery"), ("derivative", "oblique"),
    ], ids=["sine-transform", "box-cocg"])
    def test_manifest_reports_stored_bytes(self, tmp_path, monkeypatch, command, config):
        # An Omega entry stores the bytes of its three blocks, and a
        # via-core entry those of its inverted footprint preconditioner
        # and S_bump(f), complex or real.
        omega = []
        real = admitlab.estimator.assemble

        def keeping(mesh, *args):
            system = real(mesh, *args)
            if mesh.sigma_mask.any():
                omega.append(system)
            return system

        monkeypatch.setattr(admitlab.estimator, "assemble", keeping)
        out = tmp_path / "out"
        assert main([command, "--config", str(config_path(tmp_path, config)),
                     "--mesh-h", "0.125", "--out", str(out)]) == 0
        solvers = json.loads((out / "manifest.json").read_text())["solvers"]
        blocks = [sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                      for m in (system._K_ii, system._K_ib, system._K_b)) for system in omega]
        assert [s["stored_bytes"] for s in solvers if s["domain"] == "Omega"] == blocks
        assert {s["kind"] for s in solvers if s["domain"] == "Omega"} >= {
            "layered" if command == "stability" else "box-cocg"}
        for s in solvers:
            if s["domain"] == "Omega_eta":
                f = s["factored_dofs"]
                assert s["stored_bytes"] in (16 * f * f + 8 * f * f, 32 * f * f)

    @pytest.mark.parametrize("command, config, exact", [
        ("stability", "recovery", {"a1": True, "a2": True}),
        ("derivative", "oblique", {"a1": True, "a2": False}),
        ("derivative", "derivative", {"a1": True, "a2": True}),
    ], ids=["sine-transform", "box-cocg", "layered"])
    def test_via_core_reports_interface_iterations(self, tmp_path, command, config, exact):
        # A layered core, constant or not, preconditions its interface
        # exactly, by its closed form: one step per column.  The oblique a2
        # is box-cocg and computes no DtN, so its interface is
        # preconditioned by the closed form of the box preconditioner: a
        # few steps.
        out = tmp_path / "out"
        assert main([command, "--config", str(config_path(tmp_path, config)),
                     "--mesh-h", "0.125", "--out", str(out)]) == 0
        solvers = json.loads((out / "manifest.json").read_text())["solvers"]
        for s in solvers:
            if s["domain"] != "Omega_eta":
                continue
            assert s["kind"] == "via-core" and s["factored_dofs"] == 9
            if exact[s["field"]]:
                assert s["krylov_iterations_max"] == 1
                assert s["krylov_iterations"] == s["rhs_columns"]
            else:
                assert 2 <= s["krylov_iterations_max"] <= 10
                assert (s["rhs_columns"] < s["krylov_iterations"]
                        <= s["krylov_iterations_max"] * s["rhs_columns"])

    @pytest.mark.parametrize("config, kinds", [
        ("derivative", {"layered", "via-core"}),
        ("oblique", {"layered", "box-cocg", "via-core"}),
    ])
    def test_manifest_reports_solve_seconds(self, tmp_path, config, kinds):
        # Every entry, of every kind, reports the wall time of its solves:
        # a float, positive once it has solved a column.
        out = tmp_path / "out"
        assert main(["derivative", "--config", str(config_path(tmp_path, config)),
                     "--mesh-h", "0.125", "--out", str(out)]) == 0
        solvers = json.loads((out / "manifest.json").read_text())["solvers"]
        assert {s["kind"] for s in solvers} == kinds
        for s in solvers:
            assert isinstance(s["solve_seconds"], float)
            assert (s["solve_seconds"] > 0.0) == (s["rhs_columns"] > 0)

    def test_derivative_runs_no_krylov_inside_omega(self, tmp_path):
        # derivative.yaml's a2 varies along the patch normal only: its
        # Omega system is layered, solves directly, and preconditions its
        # Omega_eta interface exactly, so each column takes one step.
        out = tmp_path / "out"
        assert main(["derivative", "--config", str(CONFIG_DIR / "derivative.yaml"),
                     "--mesh-h", "0.125", "--out", str(out)]) == 0
        solvers = json.loads((out / "manifest.json").read_text())["solvers"]
        entry = {(s["field"], s["domain"]): s for s in solvers}
        omega = entry["a2", "Omega"]
        assert omega["kind"] == "layered" and omega["krylov_iterations"] == 0
        for s in solvers:
            if s["domain"] == "Omega":
                assert s["krylov_iterations"] == 0
            else:
                assert s["kind"] == "via-core"
                assert s["krylov_iterations"] == s["rhs_columns"]
                assert s["krylov_iterations_max"] == 1

    def test_stalled_interface_exits_3(self, tmp_path, monkeypatch, capsys):
        import admitlab.fem

        # recovery.yaml runs no interior COCG: a cap of two iterations and a
        # poor footprint preconditioner stall the interface iteration alone.
        monkeypatch.setattr(admitlab.fem, "_COCG_MAX_ITERATIONS", 2)
        monkeypatch.setattr(BlockSystem, "_preconditioner_schur",
                            lambda self, sigma: 1e3 * np.eye(len(sigma)))
        assert main(["stability", "--config", str(CONFIG_DIR / "recovery.yaml"),
                     "--mesh-h", "0.125", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "interface COCG did not converge after 2 iterations" in err
        assert "relative residual" in err

    def test_missing_second_field(self, tmp_path):
        path = write_config(tmp_path)
        data = yaml.safe_load(path.read_text())
        del data["fields"]["a2"]
        path.write_text(yaml.safe_dump(data))
        assert main(["stability", "--config", str(path), "--out",
                     str(tmp_path / "out")]) == 2


    def test_stability_footprint_needs_no_memo(self, tmp_path, monkeypatch):
        # At h = 1/20 the footprint f holds 81 of the 121 basis dofs.  Each
        # layered Omega system preconditions its Omega_eta interface
        # by the closed-form Schur complement onto f, not by restricting its
        # DtN's: with the restriction switched off, no system solves a
        # column more, and the outputs keep their bytes.
        config = CONFIG_DIR / "recovery.yaml"
        outs = [tmp_path / "memo", tmp_path / "fresh"]

        def run(out):
            assert main(["stability", "--config", str(config), "--mesh-h", "0.05",
                         "--out", str(out)]) == 0
            return json.loads((out / "manifest.json").read_text())["solvers"]

        memo = run(outs[0])
        monkeypatch.setattr(BlockSystem, "_subset_positions", lambda self, sigma: None)
        fresh = run(outs[1])
        assert [(s["field"], s["domain"]) for s in memo] == [
            (s["field"], s["domain"]) for s in fresh]
        for m, f in zip(memo, fresh):
            assert f["rhs_columns"] == m["rhs_columns"]
            if m["domain"] == "Omega":
                # The check of the basis closed form and 3 probe passes of
                # 5 columns: the DtN basis is never solved column by column.
                assert m["kind"] == "layered" and m["rhs_columns"] == 3 + 3 * 5
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.json")
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_manifest_lists_built_systems_only(self, frame16):
        fwd1 = build_forward(frame16, constant_field(1.0))
        fwd2 = build_forward(frame16, constant_field(1.1))
        fwd1.dtn

        def entries():
            return fwd1.solver_entries("a1") + fwd2.solver_entries("a2")

        assert [(s["field"], s["domain"]) for s in entries()] == [("a1", "Omega"), ("a2", "Omega")]
        # Reading the entries assembled no Omega_eta system.
        assert not any("system_eta" in vars(fwd) for fwd in (fwd1, fwd2))
        fwd2.system_eta
        listed = entries()
        assert [(s["field"], s["domain"]) for s in listed] == [
            ("a1", "Omega"), ("a2", "Omega"), ("a2", "Omega_eta")]
        # Plain entries: the field, the domain and the system's counters.
        assert listed[2] == {"field": "a2", "domain": "Omega_eta",
                             **fwd2.system_eta.counters()}
        assert all(isinstance(v, (str, int, float)) for s in listed for v in s.values())


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

    def test_lipschitz_sweep_meshes_only_the_box(self, tmp_path, mesh_domains):
        # A Lipschitz sweep pairs DtN maps only: no bump mesh.
        path = write_config(tmp_path)
        assert main(["sweep", "--mode", "lipschitz", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(mesh_domains) == 1 and isinstance(mesh_domains[0], BoxDomain)

    def test_gap_vanishing_on_patch_fails_loudly(self, tmp_path, capsys, assembly_log):
        # The coefficient gap sup is zero at every point, so there is no
        # log-log fit: a config error naming sweep.delta and the scales,
        # raised before any forward is assembled.
        path = write_config(tmp_path, {
            "sweep.delta": {"kind": "affine", "offset": -1.0,
                            "gradient": [0.0, 0.0, 1.0]},
        })
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "sweep.delta" in err and "[0.05, 0.1]" in err
        assert assembly_log == []

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


    @pytest.mark.parametrize("mode, config, scales", [
        ("lipschitz", "anisotropic", (0.02, 0.04, 0.08, 0.16)),
        ("derivative", "derivative", (0.05, 0.1, 0.2, 0.4)),
    ])
    def test_manifest_records_every_system(self, tmp_path, factor_calls, mode, config,
                                           scales):
        out = tmp_path / "out"
        assert main(["sweep", "--mode", mode, "--config", str(CONFIG_DIR / f"{config}.yaml"),
                     "--mesh-h", "0.125", "--out", str(out)]) == 0
        solvers = json.loads((out / "manifest.json").read_text())["solvers"]
        # The reference's systems, then each point's, labelled by point.
        points = [("reference", "a1")] + [(f"s={s}", "a2") for s in scales]
        domains = ["Omega"] if mode == "lipschitz" else ["Omega", "Omega_eta"]
        assert [(s["point"], s["field"], s["domain"]) for s in solvers] == [
            point + (domain,) for point in points for domain in domains]
        for s in solvers:
            # Plain copies of the counters, none a sparse LU.
            assert all(isinstance(v, (str, int, float)) for v in s.values())
            assert s["kind"] != "sparse-lu"
            assert 1 <= s["solve_calls"] <= s["rhs_columns"]
            assert 0.0 < s["worst_residual"] <= 1e-10
            if s["domain"] == "Omega_eta":
                assert s["kind"] == "via-core" and s["factored_dofs"] == 9
            else:
                assert s["factored_dofs"] == 0
        assert factor_calls == []

    def test_derivative_sweep_has_no_box_cocg_system(self, tmp_path):
        # Each point's delta is affine along the patch normal, so every
        # system of the sweep solves directly and every interface takes one
        # step per column.
        out = tmp_path / "out"
        assert main(["sweep", "--mode", "derivative", "--config",
                     str(CONFIG_DIR / "derivative.yaml"), "--mesh-h", "0.125",
                     "--out", str(out)]) == 0
        solvers = json.loads((out / "manifest.json").read_text())["solvers"]
        assert {s["kind"] for s in solvers} == {"layered", "via-core"}
        for s in solvers:
            if s["kind"] == "via-core":
                assert s["krylov_iterations"] == s["rhs_columns"]
            else:
                assert s["krylov_iterations"] == 0

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
        # The reference Omega system and its DtN come before any perturbed
        # field; a derivative sweep builds the reference Omega_eta system
        # once, at its first probe pass.
        assert log[:2] == [("assemble", reference), ("dtn", reference)]
        assert log[2][1] is not reference
        assert [e for e in log[2:] if e[1] is reference] == (
            [] if mode == "lipschitz" else [("assemble", reference)])


def _admitlab_objects(objects) -> list:
    """Names of the admitlab class instances and functions among objects."""
    names = []
    for obj in objects:
        if isinstance(obj, types.FunctionType):
            module, name = obj.__module__ or "", obj.__qualname__
        else:
            module, name = getattr(type(obj), "__module__", ""), type(obj).__qualname__
        if module.startswith("admitlab"):
            names.append(f"{module}.{name}")
    return names


class TestLifetimes:
    """Every object a command builds is freed by reference counting alone."""

    def test_dtn_frees_a1_system_before_a2_is_assembled(self, tmp_path, monkeypatch):
        systems = []
        alive = []
        real = admitlab.estimator.assemble

        def assemble_logged(*args, **kwargs):
            alive.append([ref() is not None for ref, _ in systems])
            system = real(*args, **kwargs)
            systems.append((weakref.ref(system), system.solver_kind))
            return system

        monkeypatch.setattr(admitlab.estimator, "assemble", assemble_logged)
        gc.disable()
        try:
            assert main(["dtn", "--config", str(CONFIG_DIR / "anisotropic.yaml"),
                         "--mesh-h", "0.125", "--out", str(tmp_path / "out")]) == 0
        finally:
            gc.enable()
        assert [kind for _, kind in systems] == ["box-cocg", "box-cocg"]
        assert alive == [[], [False]]

    def test_every_system_freed_bumps_included(self, tmp_path, monkeypatch):
        # Each Omega_eta system's bump system is freed with it when the
        # command returns, by reference counting alone.
        systems, bumps = [], []
        real_inits = {cls: cls.__init__ for cls in (BlockSystem, SubstructuredSystem)}

        def init_logged(system, *args, **kwargs):
            real_inits[type(system)](system, *args, **kwargs)
            systems.append(weakref.ref(system))
            if isinstance(system, SubstructuredSystem):
                bumps.append((weakref.ref(system.bump), system.bump.solver_kind))

        for cls in real_inits:
            monkeypatch.setattr(cls, "__init__", init_logged)
        gc.disable()
        try:
            assert main(["derivative", "--config", str(CONFIG_DIR / "derivative.yaml"),
                         "--mesh-h", "0.125", "--out", str(tmp_path / "out")]) == 0
            alive = [ref() is not None for ref in systems + [ref for ref, _ in bumps]]
        finally:
            gc.enable()
        # a1 is constant and a2 affine along the patch normal: their bumps
        # take the layered solve, as their Omega systems do.
        assert [kind for _, kind in bumps] == ["layered", "layered"]
        assert not any(alive)

    @pytest.mark.parametrize("args", [
        ("validate", "default"), ("probe", "default"), ("dtn", "anisotropic"),
        ("stability", "anisotropic"), ("derivative", "derivative"),
        ("sweep", "anisotropic"), ("sweep", "derivative", "--mode", "derivative"),
    ], ids=lambda args: "-".join(args[:2]))
    def test_no_cyclic_garbage(self, tmp_path, args):
        command, config, *extra = args
        gc.collect()
        gc.disable()
        try:
            assert main([command, "--config", str(CONFIG_DIR / f"{config}.yaml"),
                         "--mesh-h", "0.125", "--out", str(tmp_path / "out"), *extra]) == 0
            # Keep what a collector pass finds unreachable, to look at it.
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            garbage = _admitlab_objects(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert garbage == []


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


def _run_fresh(script: str, *args: str):
    """Run a script in a fresh interpreter with src on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)


class TestImportGraph:
    """Commands that never assemble a matrix do not import scipy.sparse, and
    no command imports scipy.sparse.linalg: none makes a sparse LU."""

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
        assert "scipy.sparse.linalg" not in sys.modules, "dtn"
        print("import graph ok")
    """)

    ESTIMATOR_SCRIPT = textwrap.dedent("""
        import sys
        import admitlab.cli
        configs, out = sys.argv[1], sys.argv[2]
        for command, config, *extra in (
                ("stability", "recovery"), ("derivative", "derivative"),
                ("sweep", "derivative", "--mode", "derivative")):
            rc = admitlab.cli.main([command, "--config", f"{configs}/{config}.yaml",
                                    "--mesh-h", "0.125", "--out", out, *extra])
            assert rc == 0, (command, rc)
            assert "scipy.sparse.linalg" not in sys.modules, command
        print("import graph ok")
    """)

    def test_scipy_sparse_only_on_first_assembly(self, tmp_path):
        path = write_config(tmp_path)
        result = _run_fresh(self.SCRIPT, str(path), str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert "import graph ok" in result.stdout

    def test_estimators_never_import_sparse_linalg(self, tmp_path):
        result = _run_fresh(self.ESTIMATOR_SCRIPT, str(CONFIG_DIR), str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        assert "import graph ok" in result.stdout

    def test_no_source_file_names_sparse_linalg(self):
        # The sparse LU is the tests' oracle only, and so is a general CSR
        # pattern: every assembled mesh is a box, summed into its stencil.
        src = Path(admitlab.estimator.__file__).parent
        texts = {path.name: path.read_text(encoding="utf-8")
                 for path in sorted(src.glob("*.py"))}
        for name in ("scipy.sparse.linalg", "csr_pattern", "CsrPattern",
                     "stiffness_pattern", "assemble_csr"):
            assert not [file for file, text in texts.items() if name in text], name
