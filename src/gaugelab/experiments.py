"""Named experiments mapping the figure suite to CSV + provenance emitters.

Every experiment follows the same recipe: calibrate the double-well dipole
once, escalate cutoffs until its whole CSV row at eta_max settles, sweep the
coupling grid (optionally across a worker pool), and write one CSV per panel
plus a JSON provenance sidecar.  `MODELS` names each model once, with the
kind it solves and the frame its states are read in; `EXPERIMENTS` declares
each figure as one `Experiment` record over those labels, and
`run_experiment` carries out the recipe, so adding a figure means adding one
record.  All pipelines are deterministic: re-running with an identical config
reproduces the files byte for byte.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analysis, gauge
from .analysis import COULOMB_TRUNCATED, DIPOLE_TRUNCATED, EXACT_COULOMB, FrameContext
from .config import CEILINGS, ExperimentConfig
from .errors import ConfigError, CutoffCeiling, DegenerateGapAmbiguity, SpaceMismatch
from .fockspace import CompositeSpace, lift
from .matter1d import MatterSpec, auto_spec, calibrate_potential, solve_double_well


def base_matter_spec(config: ExperimentConfig) -> MatterSpec:
    """The calibrated well of `config.target_mu` with `config.n_mat` levels."""
    return calibrate_potential(config.target_mu, n_mat=config.n_mat)


class Model(NamedTuple):
    """A `gauge.MODEL_KINDS` Hamiltonian and the frame its states are read in."""

    kind: str
    alpha: float
    frame: str | None  # an `analysis.FRAME_TAGS` label; None: no figure reads its states


# Every model the figures solve, under the label its CSV columns carry.  The
# pairing is the point: the rotated model h10c (see `Workbench.eigensystem`)
# is read as a Coulomb-gauge one.
MODELS = {
    "exact": Model("exact", 0.0, EXACT_COULOMB),
    "exact_dipole": Model("exact", 1.0, None),
    "qrm": Model("standard", 1.0, DIPOLE_TRUNCATED),
    "ph1p": Model("projected", 1.0, DIPOLE_TRUNCATED),
    "h10c": Model("standard", 1.0, COULOMB_TRUNCATED),
    "h0sq": Model("standard", 0.0, COULOMB_TRUNCATED),
}


# ---------------------------------------------------------------------------
# Workbench: shared calibrated system + cached Hamiltonian blocks
# ---------------------------------------------------------------------------

class Workbench:
    """Per-config lazy cache of matter bases (per n_mat) and of the
    coupling-independent `gauge.hamiltonian_blocks` of every model kind (per
    kind, alpha and cutoffs, so qrm and h10c share one entry); each
    eigensystem call assembles its kind at the call's eta and solves it.

    `spec` is the base matter spec; it defaults to `base_matter_spec(config)`.
    Passing it skips the calibration (the worker pool does this), and it is
    the one way to run a well other than the calibrated one.
    """

    def __init__(self, config: ExperimentConfig, spec: MatterSpec | None = None):
        self.config = config
        self.spec = base_matter_spec(config) if spec is None else spec
        self._bases: dict[int, object] = {}
        self._blocks: dict[tuple, tuple] = {}
        self.omega = self.basis_for(config.n_mat).omega0

    def basis_for(self, n_mat: int):
        """Solved basis with `n_mat` levels.

        Up to the base spec's `n_mat` the levels are solved in the base box,
        which holds them all; above it `auto_spec` sizes a box for the
        larger level count.
        """
        if n_mat not in self._bases:
            spec = self.spec
            if n_mat > spec.n_mat:
                spec = auto_spec(spec.theta, spec.phi, n_mat=n_mat, n_grid=spec.n_grid)
            self._bases[n_mat] = solve_double_well(replace(spec, n_mat=n_mat))
        return self._bases[n_mat]

    def space(self, eta: float, cutoffs: tuple[int, int]) -> CompositeSpace:
        n_mat, n_ph = cutoffs
        return CompositeSpace.create(n_mat=n_mat, n_ph=n_ph, omega=self.omega,
                                     m_levels=self.config.m_trunc + 1, eta=eta,
                                     x10=self.basis_for(n_mat).x10)

    def context(self, eta: float, cutoffs: tuple[int, int]) -> FrameContext:
        return FrameContext(self.basis_for(cutoffs[0]), self.space(eta, cutoffs))

    def eigensystem(self, label: str, eta: float, cutoffs: tuple[int, int],
                    k: int | None = None) -> analysis.EigenSystem:
        """Lowest k eigenpairs (all of them for k None) of the model `MODELS[label]`."""
        kind, alpha, _ = MODELS[label]
        basis, space = self.basis_for(cutoffs[0]), self.space(eta, cutoffs)
        key = (kind, alpha, *cutoffs)
        if key not in self._blocks:
            self._blocks[key] = gauge.hamiltonian_blocks(kind, alpha, basis, space)
        es = analysis.eigensolve(gauge.assemble(self._blocks[key], space), k=k)
        if label != "h10c":
            return es
        # h10c = T_10 H_qrm T_10^T, rotated inside the truncated space: qrm's energies
        t = gauge.rotation(alpha, 0.0, basis, space, truncated=True)
        return analysis.EigenSystem(es.energies, analysis._fix_phases(t @ es.states))


def _cutoff_ladder(config: ExperimentConfig) -> list:
    """(n_mat, n_ph) rungs up from the config's cutoffs, each once: rungs capped at
    the ceilings repeat, and a repeat compared with itself would settle."""
    nm, nph = config.n_mat, config.n_ph
    return list(dict.fromkeys(
        (min(nm + (10 if step >= 3 else 0), CEILINGS["n_mat"]),
         min(nph + 20 * step, CEILINGS["n_ph"])) for step in range(5)))


def converged_cutoffs(wb: Workbench, row, columns: list):
    """Escalate (n_mat, n_ph) from the config base until every cell of
    `row(n_mat, n_ph)`, the values of `columns` at eta_max, settles."""
    cfg = wb.config
    try:
        report = analysis.converge(row, _cutoff_ladder(cfg), rtol=cfg.converge_rtol)
    except CutoffCeiling as exc:
        raise CutoffCeiling(f"{columns[exc.cell]} at eta_max: {exc}") from None
    # The row is evaluated at eta_max only, the top of every sweep; nothing
    # checks that the settled cutoffs cover the rest of the grid.
    return report.cutoffs[-2], {
        "target": "row at eta_max",
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
# Sweep points.  A point (wb, eta, cutoffs) returns (row, flags) with
# row = [eta, *values], the values in the order of the record's panel
# columns; the cutoff ladder compares the values of the same row at eta_max.
# ---------------------------------------------------------------------------

# The models of each figure, in column order.  figS1 and figS2 take the exact
# reference of their side first; its ground state is not a column.
_FIG2_MODELS = ("exact", "qrm", "h10c", "h0sq")
_FIG3_MODELS = _FIG4_MODELS = ("exact", "qrm", "h10c")
_FIDELITY_MODELS = {"dipole": ("exact_dipole", "qrm", "ph1p"),
                    "coulomb": ("exact", "h0sq", "h10c")}
_FIGS4_MODELS = ("exact", "qrm", "ph1p", "h10c", "h0sq")
_FIGS5_MODELS = ("exact", "ph1p", "qrm")


def _flagged(es: analysis.EigenSystem, omega: float, eta: float, upto: int) -> list:
    # a partial set's top level cannot see the gap above it, so level upto must be solved
    if es.count < es.dim and es.count <= upto:
        raise SpaceMismatch(f"flagging {upto} levels needs {upto + 1} eigenpairs, "
                            f"have {es.count}")
    flags = es.degenerate_flags(omega)[:upto]
    return [[float(eta), int(i)] for i in np.nonzero(flags)[0]]


def _bound(label: str, wb: Workbench, eta: float, cutoffs) -> float:
    """Fidelity ceiling of the ground state of `label`, an exact model."""
    es = wb.eigensystem(label, eta, cutoffs, k=1)
    return analysis.cs_bound(es.state(0), wb.space(eta, cutoffs))


def _point_fig1b(wb: Workbench, eta: float, cutoffs):
    return [eta, _bound("exact", wb, eta, cutoffs),
            _bound("exact_dipole", wb, eta, cutoffs)], []


def _fig2_temperatures(cfg: ExperimentConfig) -> list:
    return list(dict.fromkeys([0.0, *map(float, cfg.temperatures)]))


def _fig2_columns(cfg: ExperimentConfig) -> list:
    return [f"{label}_T{t:g}" for t in _fig2_temperatures(cfg) for label in _FIG2_MODELS]


def _fig2_issues(config: ExperimentConfig) -> list:
    """Temperatures whose column labels coincide would write duplicate columns."""
    seen, issues = {}, []
    for t in _fig2_temperatures(config):
        label = f"T{t:g}"
        if label in seen:
            issues.append(f"temperatures: {seen[label]!r} and {t!r} share the column "
                          f"label {label}")
        seen.setdefault(label, t)
    return issues


def _point_fig2(wb: Workbench, eta: float, cutoffs):
    temps = _fig2_temperatures(wb.config)
    ctx = wb.context(eta, cutoffs)
    solved = [wb.eigensystem(label, eta, cutoffs) for label in _FIG2_MODELS]
    series = [analysis.thermal_average("n_et", MODELS[label].frame, ctx, es, temps)
              for label, es in zip(_FIG2_MODELS, solved)]
    row = [eta] + [s[i] for i in range(len(temps)) for s in series]
    return row, _flagged(solved[0], wb.omega, eta, 8)


def _point_fig3(wb: Workbench, eta: float, cutoffs):
    ctx = wb.context(eta, cutoffs)
    # the flagged exact model solves one level more than it reports
    es_exact, es_qrm, es_h10 = (wb.eigensystem(label, eta, cutoffs, k=k)
                                for label, k in zip(_FIG3_MODELS, (5, 4, 4)))
    tr_exact = analysis.transition_energies(es_exact, 3, wb.omega)
    tr_qrm = analysis.transition_energies(es_qrm, 3, wb.omega)
    # "treated as Coulomb": energy expectation values of P H_0 P in the
    # rotated model's eigenstates, relative to its ground state
    vals = es_h10.expectations(ctx.represent("energy", MODELS["h10c"].frame))
    tr_h10 = (vals[1:] - vals[0]) / wb.omega
    return [eta, *tr_exact, *tr_qrm, *tr_h10], _flagged(es_exact, wb.omega, eta, 4)


def _fidelity_row(wb: Workbench, eta: float, cutoffs, side: str) -> list:
    """[eta, fidelity of each model's ground state, ceiling] on one side."""
    space = wb.space(eta, cutoffs)
    ref, *models = [wb.eigensystem(label, eta, cutoffs, k=1).state(0)
                    for label in _FIDELITY_MODELS[side]]
    fids = [analysis.fidelity(lift(state, space), ref) for state in models]
    return [eta, *fids, analysis.cs_bound(ref, space)]


def _point_figs1(wb: Workbench, eta: float, cutoffs):
    return _fidelity_row(wb, eta, cutoffs, "dipole"), []


def _point_figs2(wb: Workbench, eta: float, cutoffs):
    row = _fidelity_row(wb, eta, cutoffs, "coulomb")
    f_h10, bound = row[2], row[3]
    return row + [f_h10 / bound if bound > 0 else float("nan")], []


def _point_figs3(wb: Workbench, eta: float, cutoffs):
    # <Delta>_i - <Delta>_0 over qrm's lowest four states
    vals = wb.eigensystem("qrm", eta, cutoffs, k=4).expectations(
        gauge.delta_operator(wb.basis_for(cutoffs[0]), wb.space(eta, cutoffs)))
    return [eta, *(vals[1:] - vals[0])], []


def _population(label: str, wb: Workbench, ctx: FrameContext, eta: float,
                cutoffs) -> float:
    """Excited bare-matter population of `label`'s ground state, read in its frame."""
    es = wb.eigensystem(label, eta, cutoffs, k=1)
    return float(es.expectations(ctx.represent("gamma", MODELS[label].frame))[0])


def _point_figs4(wb: Workbench, eta: float, cutoffs):
    ctx = wb.context(eta, cutoffs)
    return [eta] + [_population(label, wb, ctx, eta, cutoffs)
                    for label in _FIGS4_MODELS], []


def _point_figs5(wb: Workbench, eta: float, cutoffs):
    # the flagged exact model solves one level more than it reports
    solved = [wb.eigensystem(label, eta, cutoffs, k=k)
              for label, k in zip(_FIGS5_MODELS, (7, 6, 6))]
    row = [eta]
    for es in solved:
        row.extend(np.asarray(es.energies[:6]) / wb.omega)
    for es in solved:
        row.extend(analysis.transition_energies(es, 5, wb.omega))
    return row, _flagged(solved[0], wb.omega, eta, 6)


# --- open-system experiments ------------------------------------------------

# Transition gaps closer than this, in units of omega, count as one Bohr
# frequency of the fig4 dissipator.
_FIG4_GAP_TOL = 1e-8

# Eigenpairs every fig4 model solves: levels 0 and 1 carry the decay of the
# first excited eigenstate, and level 2 shows whether level 1 has a
# degenerate partner (which would make that decay ambiguous).
_FIG4_LEVELS = 3


def first_excited_rate(es: analysis.EigenSystem, channel: np.ndarray, kappa: float,
                       gap_tol: float) -> float:
    """Gamma_1 = kappa |<0|C|1>|^2, the decay rate of the first excited eigenstate.

    The fig4 dissipator resolves the loss channel C into eigenbasis jumps
    per Bohr frequency (gaps within `gap_tol` count as one) and keeps only
    the downward ones, at rate kappa.  A non-degenerate |1> then jumps only
    to |0>, so its population is exp(-Gamma_1 t), and Gamma_1 is 0 when
    E_1 - E_0 <= gap_tol.  Raises DegenerateGapAmbiguity when
    E_2 - E_1 <= gap_tol: level 1 is then not unique, and a gap cluster
    couples it to its partner.  The master equation this closes is the
    test reference in tests/reference.py.
    """
    if channel.shape != (es.dim, es.dim):
        raise SpaceMismatch(f"eigensystem dim {es.dim} vs channel shape {channel.shape}")
    e = es.energies
    if e[2] - e[1] <= gap_tol:
        raise DegenerateGapAmbiguity(
            f"levels 1 and 2 are {e[2] - e[1]:.3g} apart, within gap_tol = "
            f"{gap_tol:.3g}; the first excited eigenstate is not unique")
    if e[1] - e[0] <= gap_tol:
        return 0.0
    v = es.states
    c = v.conj().T @ channel @ v
    c = (c + c.conj().T) / 2
    return float(kappa * np.abs(c[0, 1]) ** 2)


def _fig4_rate(wb: Workbench, ctx: FrameContext, eta: float, cutoffs, channel: str,
               label: str):
    """(Gamma_1, its eigensystem) of the model `label` on the loss `channel`."""
    es = wb.eigensystem(label, eta, cutoffs, k=_FIG4_LEVELS)
    rate = first_excited_rate(es, ctx.represent(channel, MODELS[label].frame),
                              wb.config.kappa, _FIG4_GAP_TOL * wb.omega)
    return rate, es


def _point_fig4(channel: str, wb: Workbench, eta: float, cutoffs):
    ctx = wb.context(eta, cutoffs)
    return [eta] + [_fig4_rate(wb, ctx, eta, cutoffs, channel, label)[0]
                    for label in _FIG4_MODELS], []


def _trajectory_fig4(channel: str, wb: Workbench, cutoffs) -> Panel:
    """Photon number after starting in the first excited eigenstate, at eta_fig4."""
    cfg = wb.config
    eta = cfg.eta_fig4
    ctx = wb.context(eta, cutoffs)
    times = cfg.time_grid()
    series = []
    for label in _FIG4_MODELS:
        rate, es = _fig4_rate(wb, ctx, eta, cutoffs, channel, label)
        n0, n1, _ = es.expectations(ctx.represent("n_et", MODELS[label].frame))
        p1 = np.exp(-rate * np.asarray(times, dtype=float))  # rho = diag(1 - p1, p1)
        series.append(n0 * (1 - p1) + n1 * p1)
    columns = [f"n_{label}" for label in _FIG4_MODELS]
    rows = [[times[i]] + [s[i] for s in series] for i in range(len(times))]
    return Panel("trajectory", ["t", *columns],
                 {"t": "1/omega", **{c: "photons" for c in columns}}, rows)


# ---------------------------------------------------------------------------
# The experiment table and its runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """One figure of the suite, declared for `run_experiment`.

    `point(wb, eta, cutoffs)` gives one row [eta, *values] and its degeneracy
    flags per coupling of the config grid method named `sweep`.  `panels`
    cuts the values after eta, in order, into CSV panels of (name, columns,
    unit); columns may be a function of the config, and a unit of None means
    dimensionless.  The cutoff ladder evaluates `point`'s row at eta_max, the
    top of every sweep, and settles when every value in it does; the sweep
    reuses the settled rung's row for eta_max.  `extras` go into the
    provenance, and `trajectory(wb, cutoffs)`, if set, builds a panel that
    precedes the sweep panels.  `issues(config)` lists the figure's own
    config rules that the config-wide `ExperimentConfig.validate` cannot see.
    """

    description: str
    point: Callable
    panels: tuple
    sweep: str = "eta_grid"
    extras: dict = field(default_factory=dict)
    trajectory: Callable | None = None
    issues: Callable = lambda config: []


def _two_levels_only(config: ExperimentConfig) -> list:
    return [] if config.m_trunc == 1 else [
        f"m_trunc: needs two retained levels (m_trunc 1), got {config.m_trunc}"]


def _rate_grid_issues(config: ExperimentConfig) -> list:
    """fig4's couplings: at eta = 0, resonance makes levels 1 and 2 degenerate."""
    issues = [] if config.rate_eta_min <= config.eta_max else [
        f"rate_eta_min: the rate sweep runs from rate_eta_min up to eta_max, "
        f"got {config.rate_eta_min} > {config.eta_max}"]
    if config.eta_fig4 == 0:
        issues.append("eta_fig4: the first excited state is degenerate at eta = 0")
    if config.eta_fig4 > config.eta_max:
        issues.append(f"eta_fig4: the cutoff ladder settles couplings up to eta_max, "
                      f"got {config.eta_fig4} > {config.eta_max}")
    if max(config.eta_min, config.rate_eta_min) == 0:
        issues.append("rate_eta_min: the rate sweep starts at max(eta_min, rate_eta_min) "
                      "= 0, where the first excited state is degenerate")
    return issues


def _fig4(channel: str, description: str) -> Experiment:
    return Experiment(
        description, partial(_point_fig4, channel),
        (("rates", [f"rate_{label}" for label in _FIG4_MODELS], "omega"),),
        sweep="rate_eta_grid",
        extras={"channel": channel, "initial_state": "first excited eigenstate"},
        trajectory=partial(_trajectory_fig4, channel), issues=_rate_grid_issues)


EXPERIMENTS = {
    "fig1b": Experiment(
        "ground-state fidelity ceilings vs coupling, Coulomb and dipole truncation",
        _point_fig1b,
        (("bounds", ["bound_coulomb", "bound_dipole"], None),)),
    "fig2": Experiment(
        "thermal transverse-photon number vs coupling per model/frame", _point_fig2,
        (("thermal", _fig2_columns, "photons"),),
        extras={"temperature_units": "mode frequency omega"}, issues=_fig2_issues),
    "fig3": Experiment(
        "first three normalized transition energies, exact vs two-level models",
        _point_fig3,
        (("transitions", [f"{m}_{i}" for m in _FIG3_MODELS for i in (1, 2, 3)], "omega"),)),
    "fig4a": _fig4("q_et", "open-system photon decay and rates, field-quadrature loss channel"),
    "fig4b": _fig4("p_over_omega",
                   "open-system photon decay and rates, matter-momentum loss channel"),
    "figS1": Experiment(
        "dipole-side ground fidelities against the subspace ceiling", _point_figs1,
        (("fidelities", ["f_qrm", "f_ph1p", "bound_dipole"], None),)),
    "figS2": Experiment(
        "Coulomb-side ground fidelities, ceiling, and optimality ratio", _point_figs2,
        (("fidelities", ["f_h0sq", "f_h10", "bound_coulomb", "ratio_h10_bound"], None),)),
    "figS3": Experiment(
        "eigenstate variation of the photon-number discrepancy operator",
        _point_figs3, (("variation", ["dvar_1", "dvar_2", "dvar_3"], None),),
        issues=_two_levels_only),
    "figS4": Experiment(
        "bare-matter excited population vs coupling per model/frame", _point_figs4,
        (("population", _FIGS4_MODELS, None),)),
    "figS5": Experiment(
        "six lowest energies and normalized transitions per model", _point_figs5,
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


def _map_points(wb: Workbench, name: str, etas, cutoffs, known: dict) -> list:
    """(row, flags) of each eta; an eta in `known` takes its entry unsolved."""
    todo = [float(eta) for eta in etas if eta not in known]
    if wb.config.workers <= 1:
        solved = [EXPERIMENTS[name].point(wb, eta, cutoffs) for eta in todo]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=wb.config.workers, initializer=_pool_init,
                initargs=(wb.config.to_dict(), wb.spec)) as pool:
            solved = list(pool.map(_pool_call, [(name, eta, cutoffs) for eta in todo]))
    rows = dict(zip(todo, solved)) | known
    return [rows[eta] for eta in etas]


def config_issues(config: ExperimentConfig, names) -> list[str]:
    """Config-wide issues (the cutoff ladder's room among them); once there are
    none, each named experiment's own rules."""
    for name in names:
        if name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}")
    issues = config.validate()
    if not issues and len(_cutoff_ladder(config)) < 2:
        issues = [f"n_mat, n_ph: the cutoff ladder from ({config.n_mat}, {config.n_ph}) "
                  f"has one distinct rung under the ceilings"]
    return issues or [f"{name}: {issue}" for name in names
                      for issue in EXPERIMENTS[name].issues(config)]


def run_experiment(name: str, config: ExperimentConfig) -> list[str]:
    """Run one named experiment and write its output files; returns the paths."""
    issues = config_issues(config, [name])
    if issues:
        raise ConfigError("invalid config: " + "; ".join(issues))
    exp = EXPERIMENTS[name]
    layout = [(panel, list(columns(config) if callable(columns) else columns), unit)
              for panel, columns, unit in exp.panels]
    wb = Workbench(config)
    rungs = {}

    def row(n_mat, n_ph):
        rungs[n_mat, n_ph] = exp.point(wb, config.eta_max, (n_mat, n_ph))
        return rungs[n_mat, n_ph][0][1:]

    cutoffs, conv = converged_cutoffs(
        wb, row, [c for _, columns, _ in layout for c in columns])
    panels = [exp.trajectory(wb, cutoffs)] if exp.trajectory else []
    points = _map_points(wb, name, getattr(config, exp.sweep)(), cutoffs,
                         {config.eta_max: rungs[cutoffs]})
    start = 1
    for panel, columns, unit in layout:
        end = start + len(columns)
        panels.append(Panel(panel, ["eta"] + columns,
                            {c: unit for c in columns} if unit else {},
                            [row[:1] + row[start:end] for row, _ in points]))
        start = end
    provenance = {"convergence": conv, "config": config.to_dict(),
                  "config_sha256": config.sha256(), "matter_spec": asdict(wb.spec),
                  **exp.extras}
    flags = [f for _, point_flags in points for f in point_flags]
    return write_result(ExperimentResult(name, panels, provenance, flags), config.outdir)
