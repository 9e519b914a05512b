"""Named experiments mapping the figure suite to CSV + provenance emitters.

Every experiment follows the same recipe: calibrate the double-well dipole
once, escalate cutoffs until its convergence target settles, sweep the
coupling grid (optionally across a worker pool), and write one CSV per panel
plus a JSON provenance sidecar.  `EXPERIMENTS` declares each figure as one
`Experiment` record and `run_experiment` is the one runner that carries out
the recipe, so adding a figure means adding one record.  All pipelines are
deterministic: re-running with an identical config reproduces the files byte
for byte.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import __version__, analysis, gauge, lindblad
from .analysis import (DIPOLE_TRUNCATED, NAIVE_COULOMB, ROTATED_AS_COULOMB,
                       FrameContext, exact_gauge)
from .config import CEILINGS, ExperimentConfig
from .errors import GaugelabError
from .fockspace import CompositeSpace, ModeSpec, lift
from .matter1d import MatterSpec, auto_spec, calibrate_potential, solve_double_well


def base_matter_spec(config: ExperimentConfig) -> MatterSpec:
    """Explicit well parameters from the config, or the calibrated default."""
    if config.matter_spec is not None:
        fields = dict(config.matter_spec)
        fields.setdefault("n_mat", config.n_mat)
        return MatterSpec(**fields)
    return calibrate_potential(config.target_mu, 1.0, n_mat=config.n_mat)


# ---------------------------------------------------------------------------
# Workbench: shared calibrated system + cached Hamiltonian blocks
# ---------------------------------------------------------------------------

class Workbench:
    """Per-config lazy cache of bases, Hamiltonian blocks and eigensystems.

    `spec` is the base matter spec; it defaults to `base_matter_spec(config)`.
    Passing it skips the calibration (the worker pool does this).
    """

    def __init__(self, config: ExperimentConfig, spec: MatterSpec | None = None):
        self.config = config
        self.spec = base_matter_spec(config) if spec is None else spec
        self._bases: dict[int, object] = {}
        self._blocks: dict[tuple, tuple] = {}
        self.omega = self.basis_for(config.n_mat).omega0

    def basis_for(self, n_mat: int):
        """Solved basis with `n_mat` levels.

        An explicit `matter_spec` keeps its box and grid at every n_mat; only
        the calibrated spec gets a box re-sized for the level count.
        """
        if n_mat not in self._bases:
            spec = self.spec
            if n_mat != spec.n_mat:
                if self.config.matter_spec is not None:
                    spec = replace(spec, n_mat=n_mat)
                else:
                    spec = auto_spec(spec.theta, spec.phi, n_mat=n_mat,
                                     n_grid=spec.n_grid, mass=spec.mass,
                                     stencil_order=spec.stencil_order)
            self._bases[n_mat] = solve_double_well(spec)
        return self._bases[n_mat]

    def space(self, eta: float, cutoffs: tuple[int, int]) -> CompositeSpace:
        n_mat, n_ph = cutoffs
        basis = self.basis_for(n_mat)
        mode = ModeSpec(omega=self.omega, volume=1.0, n_ph=n_ph)
        return CompositeSpace.create(n_mat=n_mat, mode=mode,
                                     m_levels=self.config.m_trunc + 1,
                                     eta=eta, x10=basis.x10)

    def context(self, eta: float, cutoffs: tuple[int, int]) -> FrameContext:
        n_mat, _ = cutoffs
        return FrameContext(self.basis_for(n_mat), self.space(eta, cutoffs))

    def _blocks_for(self, alpha: float, cutoffs: tuple[int, int]):
        key = (alpha, *cutoffs)
        if key not in self._blocks:
            basis = self.basis_for(cutoffs[0])
            space = self.space(0.0, cutoffs)
            self._blocks[key] = gauge.hamiltonian_blocks(alpha, basis, space)
        return self._blocks[key]

    def exact_eigensystem(self, alpha: float, eta: float,
                          cutoffs: tuple[int, int], k: int) -> analysis.EigenSystem:
        space = self.space(eta, cutoffs)
        op = gauge.build_h_alpha(alpha, self.basis_for(cutoffs[0]), space,
                                 blocks=self._blocks_for(alpha, cutoffs))
        return analysis.eigensolve(op, k=k)

    def model_eigensystem(self, kind: str, alpha: float, eta: float,
                          cutoffs: tuple[int, int], k: int | None = None,
                          alpha_target: float | None = None) -> analysis.EigenSystem:
        space = self.space(eta, cutoffs)
        model = gauge.build_model(kind, self.basis_for(cutoffs[0]), space,
                                  alpha, alpha_target=alpha_target)
        return analysis.eigensolve(model, k=k)

    def thermal_eigensystem(self, alpha: float, eta: float,
                            cutoffs: tuple[int, int], t_max: float):
        """Exact eigensystem with enough levels for Gibbs sums at t_max."""
        k = self.config.boltzmann_levels
        dim = cutoffs[0] * cutoffs[1]
        while True:
            es = self.exact_eigensystem(alpha, eta, cutoffs, k=min(k, dim))
            span = es.energies[-1] - es.energies[0]
            if t_max == 0 or span / t_max > 23.0 or k >= dim or k >= CEILINGS["boltzmann_levels"]:
                return es
            k *= 2


def converged_cutoffs(wb: Workbench, target, label: str):
    """Escalate (n_mat, n_ph) from the config base until `target` settles."""
    cfg = wb.config
    schedule = []
    nm, nph = cfg.n_mat, cfg.n_ph
    for step in range(5):
        schedule.append((min(nm + (10 if step >= 3 else 0), CEILINGS["n_mat"]),
                         min(nph + 20 * step, CEILINGS["n_ph"])))
    report = analysis.converge(target, schedule, rtol=cfg.converge_rtol)
    # The target is evaluated at the top of the sweep; photon occupation only
    # grows with coupling, so the settled cutoffs cover the whole grid.
    return report.cutoffs[-2], {
        "target": label,
        "cutoffs_tried": [list(c) for c in report.cutoffs],
        "values": report.values,
        "rtol": report.rtol,
        "converged_cutoffs": list(report.cutoffs[-2]),
    }


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------

@dataclass
class Panel:
    name: str
    columns: list
    units: dict
    rows: list


@dataclass
class ExperimentResult:
    name: str
    panels: list
    provenance: dict
    flags: list = field(default_factory=list)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_result(result: ExperimentResult, outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for panel in result.panels:
        path = os.path.join(outdir, f"{result.name}_{panel.name}.csv")
        units_line = "# units: " + " ".join(
            f"{c}={panel.units.get(c, 'dimensionless')}" for c in panel.columns)
        lines = [units_line, ",".join(panel.columns)]
        for row in panel.rows:
            lines.append(",".join(_fmt(v) for v in row))
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    prov_path = os.path.join(outdir, f"{result.name}_provenance.json")
    prov = dict(result.provenance)
    prov["experiment"] = result.name
    prov["package_version"] = __version__
    prov["panels"] = [os.path.basename(p) for p in paths]
    prov["degeneracy_flags"] = result.flags
    with open(prov_path, "w") as fh:
        json.dump(prov, fh, sort_keys=True, indent=2)
        fh.write("\n")
    paths.append(prov_path)
    return paths


# ---------------------------------------------------------------------------
# Convergence targets and sweep points.  A target (wb, eta, cutoffs) returns
# one float; a point returns (row, flags) with row = [eta, *values].
# ---------------------------------------------------------------------------

def _flagged(es: analysis.EigenSystem, omega: float, eta: float, upto: int) -> list:
    flags = es.degenerate_flags(omega)[:upto]
    return [[float(eta), int(i)] for i in np.nonzero(flags)[0]]


def _ground_bound(alpha: float, wb: Workbench, eta: float, cutoffs) -> float:
    """Fidelity ceiling of the exact alpha-gauge ground state."""
    es = wb.exact_eigensystem(alpha, eta, cutoffs, k=1)
    return analysis.cs_bound(es.state(0), wb.space(eta, cutoffs))


def _point_fig1b(wb: Workbench, eta: float, cutoffs):
    return [eta, _ground_bound(0.0, wb, eta, cutoffs),
            _ground_bound(1.0, wb, eta, cutoffs)], []


def _fig2_temperatures(cfg: ExperimentConfig) -> list:
    temps = [0.0]
    for t in cfg.temperatures:
        if float(t) not in temps:
            temps.append(float(t))
    return temps


def _fig2_columns(cfg: ExperimentConfig) -> list:
    return [f"{model}_T{t:g}" for t in _fig2_temperatures(cfg)
            for model in ("exact", "qrm", "h10c", "h0sq")]


def _target_fig2(wb: Workbench, eta: float, cutoffs) -> float:
    t = max(_fig2_temperatures(wb.config))
    es = wb.thermal_eigensystem(0.0, eta, cutoffs, t)
    return analysis.thermal_average("n_et", exact_gauge(0.0),
                                    wb.context(eta, cutoffs), es, t)


def _point_fig2(wb: Workbench, eta: float, cutoffs):
    temps = _fig2_temperatures(wb.config)
    ctx = wb.context(eta, cutoffs)
    es_exact = wb.thermal_eigensystem(0.0, eta, cutoffs, max(temps))
    models = ((exact_gauge(0.0), es_exact),
              (DIPOLE_TRUNCATED, wb.model_eigensystem("standard", 1.0, eta, cutoffs)),
              (ROTATED_AS_COULOMB, wb.model_eigensystem("rotated", 1.0, eta, cutoffs,
                                                        alpha_target=0.0)),
              (NAIVE_COULOMB, wb.model_eigensystem("standard", 0.0, eta, cutoffs)))
    series = [analysis.thermal_average("n_et", frame, ctx, es, temps)
              for frame, es in models]
    row = [eta] + [s[i] for i in range(len(temps)) for s in series]
    return row, _flagged(es_exact, wb.omega, eta, 8)


def _target_fig3(wb: Workbench, eta: float, cutoffs) -> float:
    es = wb.exact_eigensystem(0.0, eta, cutoffs, k=4)
    return float(analysis.transition_energies(es, 3, wb.omega)[-1])


def _point_fig3(wb: Workbench, eta: float, cutoffs):
    ctx = wb.context(eta, cutoffs)
    es_exact = wb.exact_eigensystem(0.0, eta, cutoffs, k=4)
    es_qrm = wb.model_eigensystem("standard", 1.0, eta, cutoffs, k=4)
    es_h10 = wb.model_eigensystem("rotated", 1.0, eta, cutoffs, k=4,
                                  alpha_target=0.0)
    tr_exact = analysis.transition_energies(es_exact, 3, wb.omega)
    tr_qrm = analysis.transition_energies(es_qrm, 3, wb.omega)
    # "treated as Coulomb": energy expectation values of P H_0 P in the
    # rotated model's eigenstates, relative to its ground state
    vals = [analysis.average("energy", ROTATED_AS_COULOMB, ctx, es_h10.state(i))
            for i in range(4)]
    tr_h10 = [(vals[i] - vals[0]) / wb.omega for i in (1, 2, 3)]
    return [eta, *tr_exact, *tr_qrm, *tr_h10], _flagged(es_exact, wb.omega, eta, 4)


# side: (alpha of the exact reference, the two models as (kind, alpha, alpha_target))
_FIDELITY_MODELS = {
    "dipole": (1.0, (("standard", 1.0, None), ("projected", 1.0, None))),
    "coulomb": (0.0, (("standard", 0.0, None), ("rotated", 1.0, 0.0))),
}


def _fidelity_row(wb: Workbench, eta: float, cutoffs, side: str) -> list:
    """[eta, fidelity of each model's ground state, ceiling] on one side."""
    ref_alpha, models = _FIDELITY_MODELS[side]
    space = wb.space(eta, cutoffs)
    ref = wb.exact_eigensystem(ref_alpha, eta, cutoffs, k=1).state(0)
    fids = [analysis.fidelity(lift(wb.model_eigensystem(
                kind, alpha, eta, cutoffs, k=1, alpha_target=target).state(0), space), ref)
            for kind, alpha, target in models]
    return [eta, *fids, analysis.cs_bound(ref, space)]


def _point_figs1(wb: Workbench, eta: float, cutoffs):
    return _fidelity_row(wb, eta, cutoffs, "dipole"), []


def _point_figs2(wb: Workbench, eta: float, cutoffs):
    row = _fidelity_row(wb, eta, cutoffs, "coulomb")
    f_h10, bound = row[2], row[3]
    return row + [f_h10 / bound if bound > 0 else float("nan")], []


def _point_figs3(wb: Workbench, eta: float, cutoffs):
    dvar = analysis.delta_variation(wb.basis_for(cutoffs[0]), wb.space(eta, cutoffs), 3)
    return [eta, *dvar], []


def _target_figs3(wb: Workbench, eta: float, cutoffs) -> float:
    return float(_point_figs3(wb, eta, cutoffs)[0][3])


def _exact_population(wb: Workbench, eta: float, cutoffs) -> float:
    """Excited bare-matter population of the exact Coulomb ground state."""
    es = wb.exact_eigensystem(0.0, eta, cutoffs, k=1)
    return analysis.average("gamma", exact_gauge(0.0), wb.context(eta, cutoffs),
                            es.state(0))


def _point_figs4(wb: Workbench, eta: float, cutoffs):
    ctx = wb.context(eta, cutoffs)
    models = ((DIPOLE_TRUNCATED, "standard", 1.0, None),
              (DIPOLE_TRUNCATED, "projected", 1.0, None),
              (ROTATED_AS_COULOMB, "rotated", 1.0, 0.0),
              (NAIVE_COULOMB, "standard", 0.0, None))
    row = [eta, _exact_population(wb, eta, cutoffs)]
    for frame, kind, alpha, target in models:
        es = wb.model_eigensystem(kind, alpha, eta, cutoffs, k=1, alpha_target=target)
        row.append(analysis.average("gamma", frame, ctx, es.state(0)))
    return row, []


def _target_figs5(wb: Workbench, eta: float, cutoffs) -> float:
    return float(wb.exact_eigensystem(0.0, eta, cutoffs, k=6).energies[5])


def _point_figs5(wb: Workbench, eta: float, cutoffs):
    es_exact = wb.exact_eigensystem(0.0, eta, cutoffs, k=6)
    es_ph1p = wb.model_eigensystem("projected", 1.0, eta, cutoffs, k=6)
    es_qrm = wb.model_eigensystem("standard", 1.0, eta, cutoffs, k=6)
    row = [eta]
    for es in (es_exact, es_ph1p, es_qrm):
        row.extend(np.asarray(es.energies[:6]) / wb.omega)
    for es in (es_exact, es_ph1p, es_qrm):
        row.extend(analysis.transition_energies(es, 5, wb.omega))
    return row, _flagged(es_exact, wb.omega, eta, 6)


# --- open-system experiments ------------------------------------------------

# (label, model as (kind, alpha, alpha_target) or None for exact, frame)
_FIG4_MODELS = (("exact", None, exact_gauge(0.0)),
                ("qrm", ("standard", 1.0, None), DIPOLE_TRUNCATED),
                ("h10c", ("rotated", 1.0, 0.0), ROTATED_AS_COULOMB))


def _fig4_system(wb: Workbench, ctx: FrameContext, eta: float, cutoffs,
                 channel: str, model, frame):
    """(LindbladSystem, its retained eigenvectors) for one `_FIG4_MODELS` entry."""
    cfg = wb.config
    if model is None:
        n_lev = min(cfg.n_lev, cutoffs[0] * cutoffs[1])
        es = wb.exact_eigensystem(0.0, eta, cutoffs, k=n_lev)
    else:
        n_lev = min(cfg.n_lev, 2 * cutoffs[1])
        kind, alpha, target = model
        es = wb.model_eigensystem(kind, alpha, eta, cutoffs, k=n_lev,
                                  alpha_target=target)
    sys = lindblad.from_eigensystem(es, ctx.represent(channel, frame), cfg.kappa,
                                    n_lev, gap_tol=cfg.gap_tol_factor * wb.omega)
    return sys, es.states[:, :n_lev]


def _target_fig4(channel: str, wb: Workbench, eta: float, cutoffs) -> float:
    _, model, frame = _FIG4_MODELS[0]
    sys, _ = _fig4_system(wb, wb.context(eta, cutoffs), eta, cutoffs, channel,
                          model, frame)
    return lindblad.decay_rate(sys, 1)


def _point_fig4(channel: str, wb: Workbench, eta: float, cutoffs):
    ctx = wb.context(eta, cutoffs)
    systems = [_fig4_system(wb, ctx, eta, cutoffs, channel, model, frame)[0]
               for _, model, frame in _FIG4_MODELS]
    return ([eta] + [lindblad.decay_rate(s, 1) for s in systems]
            + [lindblad.decay_rate_fit(s, 1) for s in systems]), []


def _trajectory_fig4(channel: str, wb: Workbench, cutoffs) -> Panel:
    """Photon number after starting in the first excited eigenstate, at eta_fig4."""
    cfg = wb.config
    eta = cfg.eta_fig4
    ctx = wb.context(eta, cutoffs)
    times = cfg.time_grid()
    columns, series = ["t"], []
    for label, model, frame in _FIG4_MODELS:
        sys, v = _fig4_system(wb, ctx, eta, cutoffs, channel, model, frame)
        n_read = v.conj().T @ ctx.represent("n_et", frame) @ v
        rho0 = np.zeros((sys.n_lev, sys.n_lev), dtype=complex)
        rho0[1, 1] = 1.0
        traj = lindblad.evolve(sys, rho0, times, observables={"n": n_read})
        columns.append(f"n_{label}")
        series.append(traj.expectations["n"])
    rows = [[times[i]] + [s[i] for s in series] for i in range(len(times))]
    return Panel("trajectory", columns,
                 {"t": "1/omega", **{c: "photons" for c in columns[1:]}}, rows)


# ---------------------------------------------------------------------------
# The experiment table and its runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One figure of the suite, declared for `run_experiment`.

    The cutoff ladder converges `target(wb, eta, cutoffs)` at the config
    value named `target_eta`.  `point(wb, eta, cutoffs)` then gives one row
    [eta, *values] and its degeneracy flags per coupling of the config grid
    method named `sweep`.  `panels` cuts the values after eta, in order, into
    CSV panels of (name, columns, unit); columns may be a function of the
    config, and a unit of None means dimensionless.  `extras` go into the
    provenance, and `trajectory(wb, cutoffs)`, if set, builds a panel that
    precedes the sweep panels.
    """

    description: str
    target_label: str
    target: Callable
    point: Callable
    panels: tuple
    target_eta: str = "eta_max"
    sweep: str = "eta_grid"
    extras: dict = field(default_factory=dict)
    trajectory: Callable | None = None


def _fig4(channel: str, description: str) -> Experiment:
    rate_columns = ([f"rate_{m}" for m, _, _ in _FIG4_MODELS]
                    + [f"rate_fit_{m}" for m, _, _ in _FIG4_MODELS])
    return Experiment(
        description, "exact decay rate at eta_fig4", partial(_target_fig4, channel),
        partial(_point_fig4, channel), (("rates", rate_columns, "omega"),),
        target_eta="eta_fig4", sweep="rate_eta_grid",
        extras={"channel": channel, "initial_state": "first excited eigenstate"},
        trajectory=partial(_trajectory_fig4, channel))


_TRANSITIONS = [f"{m}_{i}" for m in ("exact", "qrm", "h10c") for i in (1, 2, 3)]
_FIGS5_MODELS = ("exact", "ph1p", "qrm")

EXPERIMENTS = {
    "fig1b": Experiment(
        "ground-state fidelity ceilings vs coupling, Coulomb and dipole truncation",
        "coulomb ground bound at eta_max", partial(_ground_bound, 0.0), _point_fig1b,
        (("bounds", ["bound_coulomb", "bound_dipole"], None),)),
    "fig2": Experiment(
        "thermal transverse-photon number vs coupling per model/frame",
        "exact thermal photon number", _target_fig2, _point_fig2,
        (("thermal", _fig2_columns, "photons"),),
        extras={"temperature_units": "mode frequency omega"}),
    "fig3": Experiment(
        "first three normalized transition energies, exact vs two-level models",
        "third exact transition at eta_max", _target_fig3, _point_fig3,
        (("transitions", _TRANSITIONS, "omega"),)),
    "fig4a": _fig4("q_et", "open-system photon decay and rates, field-quadrature loss channel"),
    "fig4b": _fig4("p_over_omega",
                   "open-system photon decay and rates, matter-momentum loss channel"),
    "figS1": Experiment(
        "dipole-side ground fidelities against the subspace ceiling",
        "dipole ground bound at eta_max", partial(_ground_bound, 1.0), _point_figs1,
        (("fidelities", ["f_qrm", "f_ph1p", "bound_dipole"], None),)),
    "figS2": Experiment(
        "Coulomb-side ground fidelities, ceiling, and optimality ratio",
        "coulomb ground bound at eta_max", partial(_ground_bound, 0.0), _point_figs2,
        (("fidelities", ["f_h0sq", "f_h10", "bound_coulomb", "ratio_h10_bound"], None),)),
    "figS3": Experiment(
        "eigenstate variation of the photon-number discrepancy operator",
        "delta variation i=3 at eta_max", _target_figs3, _point_figs3,
        (("variation", ["dvar_1", "dvar_2", "dvar_3"], None),)),
    "figS4": Experiment(
        "bare-matter excited population vs coupling per model/frame",
        "exact excited population at eta_max", _exact_population, _point_figs4,
        (("population", ["exact", "qrm", "ph1p", "h10c", "h0sq"], None),)),
    "figS5": Experiment(
        "six lowest energies and normalized transitions per model",
        "sixth exact energy at eta_max", _target_figs5, _point_figs5,
        (("energies", [f"{m}_e{i}" for m in _FIGS5_MODELS for i in range(6)], "omega"),
         ("transitions", [f"{m}_t{i}" for m in _FIGS5_MODELS for i in range(1, 6)],
          "omega"))),
}


_POOL_WB: Workbench | None = None


def _pool_init(config_dict: dict, spec: MatterSpec) -> None:
    global _POOL_WB
    _POOL_WB = Workbench(ExperimentConfig.from_dict(config_dict), spec)


def _pool_call(args):
    name, eta, cutoffs = args
    return EXPERIMENTS[name].point(_POOL_WB, eta, cutoffs)


def _map_points(wb: Workbench, name: str, etas, cutoffs) -> list:
    if wb.config.workers <= 1:
        return [EXPERIMENTS[name].point(wb, eta, cutoffs) for eta in etas]
    jobs = [(name, float(eta), cutoffs) for eta in etas]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=wb.config.workers, initializer=_pool_init,
            initargs=(wb.config.to_dict(), wb.spec)) as pool:
        return list(pool.map(_pool_call, jobs))


def run_experiment(name: str, config: ExperimentConfig) -> list[str]:
    """Run one named experiment and write its output files; returns the paths."""
    if name not in EXPERIMENTS:
        raise GaugelabError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}")
    issues = config.validate()
    if issues:
        raise GaugelabError("invalid config: " + "; ".join(issues))
    exp = EXPERIMENTS[name]
    wb = Workbench(config)
    eta = getattr(config, exp.target_eta)
    cutoffs, conv = converged_cutoffs(
        wb, lambda nm, nph: exp.target(wb, eta, (nm, nph)), exp.target_label)
    panels = [exp.trajectory(wb, cutoffs)] if exp.trajectory else []
    points = _map_points(wb, name, getattr(config, exp.sweep)(), cutoffs)
    start = 1
    for panel, columns, unit in exp.panels:
        columns = list(columns(config) if callable(columns) else columns)
        end = start + len(columns)
        panels.append(Panel(panel, ["eta"] + columns,
                            {c: unit for c in columns} if unit else {},
                            [row[:1] + row[start:end] for row, _ in points]))
        start = end
    provenance = {"convergence": conv, "config": config.to_dict(),
                  "config_sha256": config.sha256(), **exp.extras}
    flags = [f for _, point_flags in points for f in point_flags]
    return write_result(ExperimentResult(name, panels, provenance, flags), config.outdir)
