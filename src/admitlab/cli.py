"""Batch front-end: validate configs, assemble DtN data, run experiments.

Exit codes: 0 success, 2 validation/config failure, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from .admittivity import (check_parameter_field, default_samples,
                          frequency_window, validate_class_H)
from .config import ExperimentConfig, load_config
from .dtn import dtn_star_norm
from .errors import (AdmitLabError, ConfigError, EstimatorRefusal,
                     GeometryError, NumericError, SolverError)
from .estimator import (GapEstimate, boundary_gap_estimate, build_forward,
                        build_frame, coefficient_gap_sup, delta_h,
                        derivative_gap_estimate, lipschitz_ratio,
                        lipschitz_sweep, loglog_slope)
from .families import shifted_field
from .geometry import (build_enlarged_domain, build_eta_sets, check_probe_points_off_lattice,
                       probe_point, ProbePath)
from .reportio import RunManifest, write_csv, write_json
from .singular import (fibonacci_sphere, h_function, leading_gradient,
                       leading_term, make_probe, sphere_min_h)
from .svgplot import render_scatter

REPORT_SCHEMA = "stability-report/1"


def _config_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="experiment config (YAML)")(fn)
    fn = click.option("--out", "out_dir", default="out", show_default=True,
                      type=click.Path(file_okay=False), help="output directory")(fn)
    fn = click.option("--seed", default=None, type=int,
                      help="override the config seed")(fn)
    fn = click.option("--mesh-h", default=None, type=float,
                      help="override the mesh pitch")(fn)
    return fn


@click.group()
def cli():
    """Numerical laboratory for local boundary determination of admittivities."""


def _load(config_path, seed, mesh_h) -> ExperimentConfig:
    return load_config(config_path, seed=seed, mesh_h=mesh_h)


def _validation_suite(cfg: ExperimentConfig):
    """Class membership, parameter range and geometry checks."""
    samples = default_samples(
        cfg.box.lo, cfg.box.hi, cfg.apriori.t_range, count=80, seed=cfg.seed
    )
    family_report = validate_class_H(cfg.family, cfg.apriori, samples)
    rng = np.random.default_rng(cfg.seed + 1)
    pts = cfg.box.lo_arr + rng.random((256, 3)) * (cfg.box.hi_arr - cfg.box.lo_arr)
    field_reports = [("a1", check_parameter_field(cfg.a1, cfg.apriori, pts))]
    if cfg.a2 is not None:
        field_reports.append(("a2", check_parameter_field(cfg.a2, cfg.apriori, pts)))
    build_enlarged_domain(cfg.box, cfg.patch, cfg.eta, grid_h=cfg.h)
    _check_probe_points(cfg)
    return family_report, field_reports


def _check_probe_points(cfg: ExperimentConfig) -> None:
    """GeometryError naming the first tau whose probe point is a vertex of
    the mesh lattice, before any mesh is built."""
    path = ProbePath(build_eta_sets(cfg.patch, cfg.eta), cfg.x0, cfg.tau_grid)
    check_probe_points_off_lattice(path, cfg.h, cfg.box.lo_arr)


def _window_banner(cfg: ExperimentConfig):
    fixed = frequency_window(cfg.apriori.e1, cfg.apriori.e2, 3)
    lines = [
        f"frequency window: k_max = {cfg.window.k_max:.6g} "
        f"(best partition {tuple(round(p, 2) for p in cfg.window.partition)}), "
        f"equal-partition k_max = {fixed.k_max:.6g}",
        f"configured k = {cfg.k:.6g}" + (" (auto)" if cfg.k_was_auto else ""),
    ]
    out_of_window = cfg.window.empty or cfg.k > cfg.window.k_max + 1e-15
    if out_of_window:
        lines.append(
            "WARNING: k lies outside the admissible window; estimator runs "
            "are gated by the sign condition"
        )
    return lines, out_of_window


def _estimator_frame(cfg: ExperimentConfig, command: str, out_dir,
                     banner: bool = True):
    """Gate an estimator command on the frequency window, open its manifest
    and build its LabFrame in the manifest's "frame" stage."""
    lines, out_of_window = _window_banner(cfg)
    if out_of_window and cfg.enforce_window:
        raise ConfigError(
            "k outside the frequency window and family.enforce_window is set; "
            "refusing estimator run"
        )
    manifest = RunManifest(command, cfg.raw, cfg.seed, out_dir)
    if banner:
        for line in lines:
            click.echo(line)
    manifest.start("frame")
    frame = build_frame(cfg.box, cfg.patch, cfg.eta, cfg.h, cfg.family,
                        window=cfg.window)
    return manifest, frame


@cli.command()
@_config_options
def validate(config_path, out_dir, seed, mesh_h):
    """Class membership, frequency window and geometry checks."""
    cfg = _load(config_path, seed, mesh_h)
    family_report, field_reports = _validation_suite(cfg)
    click.echo(f"family template: {cfg.family_template} (branch {family_report.branch})")
    for line in family_report.summary_lines():
        click.echo(line)
    ok = family_report.passed
    for name, rep in field_reports:
        for line in rep.summary_lines():
            click.echo(f"  {name}{line}")
        ok = ok and rep.passed
    for line in _window_banner(cfg)[0]:
        click.echo(line)
    click.echo("geometry checks passed (patch, shrunken sets, enlarged domain)")
    if not ok:
        raise ConfigError("validation failed; see condition margins above")
    click.echo("validation PASSED")


@cli.command()
@_config_options
def dtn(config_path, out_dir, seed, mesh_h):
    """Assemble the local DtN matrices and write pairing/Gram CSV files."""
    cfg = _load(config_path, seed, mesh_h)
    manifest = RunManifest("dtn", cfg.raw, cfg.seed, out_dir)
    out = Path(out_dir)
    manifest.start("frame")
    # The frame checks the geometry; its Omega_eta objects, never read
    # here, are never built.
    frame = build_frame(cfg.box, cfg.patch, cfg.eta, cfg.h, cfg.family, window=cfg.window)
    manifest.start("assemble")
    fields = [("a1", cfg.a1)] + ([("a2", cfg.a2)] if cfg.a2 is not None else [])
    dtns = []
    for label, a in fields:
        fwd = build_forward(frame, a)
        dtns.append((label, fwd.dtn))
        for entry in fwd.solver_entries(label):
            manifest.add_solver(entry)
        # Frees this field's system before the next is assembled.
        del fwd
    manifest.start("write")
    d = frame.basis.count
    i, j = np.divmod(np.arange(d * d), d)
    for label, dtn_matrix in dtns:
        pairing = dtn_matrix.pairing.ravel()
        manifest.record(write_csv(out / f"dtn_pairing_{label}.csv",
                                  ("i", "j", "re", "im"),
                                  (i, j, pairing.real, pairing.imag)))
    manifest.record(write_csv(out / "dtn_gram.csv", ("i", "j", "value"),
                              (i, j, frame.gram.ravel())))
    click.echo(f"basis size d = {d}; files in {out}")
    if len(dtns) == 2:
        norm = dtn_star_norm(dtns[0][1], dtns[1][1])
        click.echo(f"DtN difference norm = {norm:.8g}")
        manifest.record(write_json(out / "dtn_norm.json", {
            "schema": REPORT_SCHEMA, "kind": "dtn-difference-norm",
            "value": norm, "basis_size": d,
        }))
    manifest.write()


@cli.command()
@_config_options
def probe(config_path, out_dir, seed, mesh_h):
    """Evaluate singular probes and export point clouds."""
    cfg = _load(config_path, seed, mesh_h)
    manifest = RunManifest("probe", cfg.raw, cfg.seed, out_dir)
    out = Path(out_dir)
    manifest.start("evaluate")
    eta_sets = build_eta_sets(cfg.patch, cfg.eta)
    path = ProbePath(eta_sets, cfg.x0, cfg.tau_grid)
    z = probe_point(path, cfg.tau_grid[0])
    dirs = fibonacci_sphere(2000)
    for m in range(cfg.order + 1):
        pr = make_probe(cfg.family, cfg.a1, z, m)
        pts = pr.z_arr[None, :] + dirs
        vals = leading_term(pr, pts)
        grads = leading_gradient(pr, pts)
        hvals = h_function(pr, pts)
        # Row by row: an axis norm sums in another order and moves digits.
        grad_abs = np.array([np.linalg.norm(g) for g in grads])
        manifest.record(write_csv(
            out / f"probe_m{m}.csv",
            ("x", "y", "z", "re", "im", "grad_abs", "h"),
            (pts[:, 0], pts[:, 1], pts[:, 2], vals.real, vals.imag, grad_abs, hvals),
        ))
        click.echo(f"m={m}: sphere min of gradient weight = {sphere_min_h(pr, 4096):.6g}")
    manifest.write()


def _gap_payload(est: GapEstimate):
    payload = {
        "mode": est.mode, "x0": list(est.x0), "order": est.order, "rho": est.rho,
        "extrapolated": est.extrapolated, "fit_slope": est.fit_slope,
        "observed_tau_rate": est.observed_tau_rate,
        "extrapolation": "least-squares linear fit in tau (first-order removal)",
        "per_tau": [
            {
                "tau": r.tau, "estimate": r.estimate,
                "pairing_re": r.pairing.real, "pairing_im": r.pairing.imag,
                "n_full": r.n_full, "n_ball": r.n_ball,
                "m_full": r.m_full, "m_ball": r.m_ball,
                "trace_norm_1": r.trace_norm_1, "trace_norm_2": r.trace_norm_2,
            }
            for r in est.records
        ],
    }
    if est.sign_report is not None:
        sr = est.sign_report
        payload["sign_condition"] = {
            "passed": sr.passed, "degenerate": sr.degenerate, "swapped": sr.swapped,
            "margin_positive": sr.margin_positive,
            "margin_dominance": sr.margin_dominance, "samples": sr.samples,
        }
    return payload


def _write_gap_outputs(manifest, out, cfg, est: GapEstimate, stem: str):
    rows = [
        (r.tau, r.estimate, r.pairing.real, r.pairing.imag,
         r.n_full, r.n_ball, r.m_full, r.m_ball, r.trace_norm_1, r.trace_norm_2)
        for r in est.records
    ]
    if "csv" in cfg.formats:
        manifest.record(write_csv(
            out / f"{stem}_tau.csv",
            ("tau", "estimate", "pairing_re", "pairing_im",
             "n_full", "n_ball", "m_full", "m_ball",
             "trace_norm_1", "trace_norm_2"),
            list(zip(*rows)),
        ))
    if "svg" in cfg.formats:
        taus = list(est.taus)
        fit = [est.extrapolated + est.fit_slope * t for t in taus]
        manifest.record(render_scatter(
            out / f"{stem}_tau.svg",
            series=[("per-tau estimate", taus, list(est.per_tau))],
            lines=[(f"fit, intercept {est.extrapolated:.4g}", taus, fit)],
            title=f"{est.mode} gap estimate vs tau",
            xlabel="tau", ylabel="estimate",
        ))


@cli.command()
@_config_options
def stability(config_path, out_dir, seed, mesh_h):
    """Single-pair Lipschitz ratio and boundary-value recovery."""
    cfg = _load(config_path, seed, mesh_h)
    if cfg.a2 is None:
        raise ConfigError("stability needs fields.a2")
    _check_probe_points(cfg)
    manifest, frame = _estimator_frame(cfg, "stability", out_dir)
    out = Path(out_dir)
    manifest.start("forwards")
    fwd1 = build_forward(frame, cfg.a1)
    fwd2 = build_forward(frame, cfg.a2)
    manifest.start("estimates")
    record = lipschitz_ratio(fwd1, fwd2, label="a1-vs-a2")
    est = boundary_gap_estimate(
        fwd1, fwd2, cfg.x0, tau_grid=cfg.tau_grid, m=cfg.order, rho=cfg.rho,
        seed=cfg.seed,
    )
    for entry in fwd1.solver_entries("a1") + fwd2.solver_entries("a2"):
        manifest.add_solver(entry)
    manifest.start("write")
    payload = {
        "schema": REPORT_SCHEMA, "mode": "stability",
        "family": cfg.family_template, "k": cfg.k,
        "window": {"k_max": cfg.window.k_max, "empty": cfg.window.empty},
        "alpha": cfg.apriori.alpha,
        "delta_h": {str(h): delta_h(cfg.apriori.alpha, h) for h in (0, 1)},
        "pair": {"lhs": record.lhs, "rhs": record.rhs, "ratio": record.ratio,
                 "violation": record.violation},
        "gap": _gap_payload(est),
    }
    if "json" in cfg.formats:
        manifest.record(write_json(out / "stability_report.json", payload))
    _write_gap_outputs(manifest, out, cfg, est, "gap")
    manifest.write()
    click.echo(f"coefficient gap sup = {record.lhs:.6g}, DtN norm = {record.rhs:.6g}"
               + (f", ratio = {record.ratio:.6g}" if record.ratio else ""))
    click.echo(f"boundary gap at x0: extrapolated = {est.extrapolated:.6g}")
    if record.violation:
        raise NumericError("stability violation: zero DtN difference with nonzero gap")


@cli.command()
@_config_options
def derivative(config_path, out_dir, seed, mesh_h):
    """Normal-derivative recovery at the anchor (first-order estimate)."""
    cfg = _load(config_path, seed, mesh_h)
    if cfg.a2 is None:
        raise ConfigError("derivative needs fields.a2")
    _check_probe_points(cfg)
    manifest, frame = _estimator_frame(cfg, "derivative", out_dir, banner=False)
    out = Path(out_dir)
    manifest.start("forwards")
    fwd1 = build_forward(frame, cfg.a1)
    fwd2 = build_forward(frame, cfg.a2)
    manifest.start("estimates")
    boundary = boundary_gap_estimate(
        fwd1, fwd2, cfg.x0, tau_grid=cfg.tau_grid, m=0, rho=cfg.rho, seed=cfg.seed,
    )
    est = derivative_gap_estimate(
        fwd1, fwd2, cfg.x0, tau_grid=cfg.tau_grid, rho=cfg.rho,
        boundary=boundary, seed=cfg.seed,
    )
    d1 = delta_h(cfg.apriori.alpha, 1)
    for entry in fwd1.solver_entries("a1") + fwd2.solver_entries("a2"):
        manifest.add_solver(entry)
    manifest.start("write")
    payload = {
        "schema": REPORT_SCHEMA, "mode": "derivative",
        "family": cfg.family_template, "k": cfg.k,
        "alpha": cfg.apriori.alpha, "delta_1": d1,
        "boundary_gap": _gap_payload(boundary),
        "derivative_gap": _gap_payload(est),
    }
    if "json" in cfg.formats:
        manifest.record(write_json(out / "derivative_report.json", payload))
    _write_gap_outputs(manifest, out, cfg, est, "derivative")
    manifest.write()
    click.echo(f"normal-derivative estimate at x0: {est.extrapolated:.6g} "
               f"(probe order m = {est.order}, delta_1 = {d1:.4g})")


@cli.command()
@_config_options
@click.option("--mode", type=click.Choice(["lipschitz", "derivative"]),
              default="lipschitz", show_default=True)
def sweep(config_path, out_dir, seed, mesh_h, mode):
    """One-parameter perturbation sweeps with log-log slope fits."""
    cfg = _load(config_path, seed, mesh_h)
    if not cfg.sweep_scales or cfg.sweep_delta is None:
        raise ConfigError("sweep needs sweep.scales and sweep.delta")
    if mode == "derivative":
        _check_probe_points(cfg)
    manifest, frame = _estimator_frame(cfg, f"sweep-{mode}", out_dir)
    out = Path(out_dir)
    manifest.start("sweep")
    derivative = None
    if mode == "derivative":
        derivative = dict(x0=cfg.x0, tau_grid=cfg.tau_grid, rho=cfg.rho, seed=cfg.seed)
    points = [(s, shifted_field(cfg.a1, cfg.sweep_delta, s)) for s in cfg.sweep_scales]
    if derivative is None:
        # A Lipschitz point with no coefficient gap on the patch cannot
        # enter the log-log fit, so it is refused before any forward is built.
        flat = [s for s, a2 in points if coefficient_gap_sup(frame, cfg.a1, a2) == 0.0]
        if flat:
            raise ConfigError(f"sweep.delta vanishes on the shrunken patch: the coefficient "
                              f"gap is 0 at scales {flat}, so a lipschitz sweep has nothing to fit")
    solvers = []
    records = lipschitz_sweep(
        frame, cfg.a1, [(f"s={s}", a2) for s, a2 in points],
        derivative=derivative, solvers=solvers,
    )
    for entry in solvers:
        manifest.add_solver(entry)
    entries = []
    for s, rec in zip(cfg.sweep_scales, records):
        entry = {"scale": s, "lhs": rec.lhs, "rhs": rec.rhs, "ratio": rec.ratio}
        if derivative is not None:
            entry["derivative_estimate"] = rec.derivative_estimate
        entries.append(entry)
        click.echo(f"{rec.label}: lhs={rec.lhs:.6g} rhs={rec.rhs:.6g}"
                   + ("" if derivative is None else f" dnu={rec.derivative_estimate:.6g}"))
    manifest.start("write")
    rhs = [e["rhs"] for e in entries]
    if derivative is None:
        yvals = [e["lhs"] for e in entries]
    else:
        yvals = [abs(e["derivative_estimate"]) for e in entries]
    slope = loglog_slope(rhs, yvals)
    payload = {
        "schema": REPORT_SCHEMA, "mode": f"sweep-{mode}",
        "family": cfg.family_template, "k": cfg.k, "alpha": cfg.apriori.alpha,
        "entries": entries, "loglog_slope": slope,
    }
    if derivative is None:
        ratios = [e["ratio"] for e in entries]
        spread = max(ratios) / min(ratios)
        payload["ratio_spread"] = spread
        ylab, ref_label, ref_slope = "coefficient gap sup", "slope 1 (Lipschitz)", 1.0
    else:
        spread = None
        d1 = delta_h(cfg.apriori.alpha, 1)
        payload["delta_1"] = d1
        ylab, ref_label, ref_slope = "normal-derivative gap", f"slope delta_1 = {d1:.3g}", d1
    if "json" in cfg.formats:
        manifest.record(write_json(out / f"sweep_{mode}_report.json", payload))
    if "csv" in cfg.formats:
        header = ("scale", "lhs", "rhs", "ratio") + (
            () if derivative is None else ("derivative_estimate",)
        )
        columns = [[e[k] for e in entries] for k in header]
        manifest.record(write_csv(out / f"sweep_{mode}.csv", header, columns))
    if "svg" in cfg.formats:
        anchor_x = rhs[0]
        anchor_y = yvals[0]
        line_x = [min(rhs), max(rhs)]
        line_y = [anchor_y * (x / anchor_x) ** ref_slope for x in line_x]
        fit_y = [anchor_y * (x / anchor_x) ** slope for x in line_x]
        manifest.record(render_scatter(
            out / f"sweep_{mode}.svg",
            series=[("sweep", rhs, yvals)],
            lines=[(f"fit slope {slope:.3g}", line_x, fit_y),
                   (ref_label, line_x, line_y)],
            logx=True, logy=True,
            title=f"{mode} sweep", xlabel="DtN difference norm", ylabel=ylab,
        ))
    manifest.write()
    click.echo(f"log-log slope = {slope:.4g}"
               + (f", ratio spread = {spread:.3g}" if spread else ""))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.ClickException as exc:
        exc.show()
        return 2
    except click.exceptions.Abort:
        return 2
    except (ConfigError, GeometryError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (NumericError, SolverError, EstimatorRefusal) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3
    except OSError as exc:
        click.echo(f"i/o failure: {exc}", err=True)
        return 4
    except AdmitLabError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
