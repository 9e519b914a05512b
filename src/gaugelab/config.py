"""Experiment configuration: one JSON document, CLI flags override keys."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError

# Hard ceilings documented for validate(); dense-matrix memory and the
# desk-scale runtime budget set them.
CEILINGS = {
    "n_mat": 60,
    "n_ph": 160,
    "eta_points": 2001,
    "time_points": 20001,
    "rate_eta_points": 201,
    "workers": 16,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A real number other than nan and +-inf (json.load and float() accept both)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _type_issues(obj) -> list[str]:
    """One message per dataclass field whose value has the wrong type or is not
    finite (never coerced)."""
    issues = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int":
            ok, want = _is_int(value), "an integer"
        elif f.type == "float":
            ok, want = _is_finite(value), "a finite number"
        elif f.type == "list":
            ok = isinstance(value, list) and all(_is_finite(v) for v in value)
            want = "a list of finite numbers"
        else:
            ok, want = isinstance(value, str), "a string"
        if not ok:
            issues.append(f"{f.name}: must be {want}, got {value!r}")
    return issues


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment; defaults reproduce the figure suite.

    The dipole is always the well that `calibrate_potential` finds for
    `target_mu` (unit mass, lowest transition equal to the mode frequency);
    `experiments.Workbench(config, spec=...)` runs any other well.
    Temperatures are in units of the mode frequency; kappa and times in units
    of omega and 1/omega.  The T = 0 (ground state) column is always emitted
    in addition to `temperatures`.  The kappa and time-window values are
    artifact choices (documented defaults), as is the temperature list.
    """

    target_mu: float = 70.0
    m_trunc: int = 1                 # M: retained levels = M+1
    n_mat: int = 30
    n_ph: int = 40
    eta_min: float = 0.0
    eta_max: float = 1.0
    eta_points: int = 101
    temperatures: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    kappa: float = 0.05
    time_max: float = 200.0
    time_points: int = 201
    eta_fig4: float = 0.5
    rate_eta_min: float = 0.05
    rate_eta_points: int = 21
    converge_rtol: float = 1e-6
    outdir: str = "out"
    workers: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def sha256(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def eta_grid(self):
        return np.linspace(self.eta_min, self.eta_max, self.eta_points)

    def rate_eta_grid(self):
        lo = max(self.eta_min, self.rate_eta_min)
        return np.linspace(lo, self.eta_max, self.rate_eta_points)

    def time_grid(self):
        return np.linspace(0.0, self.time_max, self.time_points)

    def validate(self) -> list[str]:
        """Invariant check; returns one message per violation (empty = valid)."""
        issues = _type_issues(self)
        if issues:
            return issues  # the range checks below assume the right types
        if not self.target_mu > 0:
            issues.append("target_mu: must be positive")
        if self.m_trunc < 1:
            issues.append("m_trunc: must be at least 1")
        if self.m_trunc + 1 > self.n_mat:
            issues.append("m_trunc: M+1 exceeds n_mat")
        if self.eta_min < 0:
            issues.append("eta_min: grid must be nonnegative")
        if self.eta_max < self.eta_min:
            issues.append("eta_max: grid must be ascending (eta_max >= eta_min)")
        if self.eta_points < 1:
            issues.append("eta_points: grid must be non-empty")
        if self.n_ph < 8:
            issues.append("n_ph: Fock cutoff must be at least 8")
        if self.n_mat < 2:
            issues.append("n_mat: need at least two matter levels")
        if any(t < 0 for t in self.temperatures):
            issues.append("temperatures: must be nonnegative")
        if self.kappa < 0:
            issues.append("kappa: must be nonnegative")
        if self.time_max <= 0:
            issues.append("time_max: must be positive")
        if self.time_points < 2:
            issues.append("time_points: need at least two samples")
        if not 0 <= self.eta_fig4:
            issues.append("eta_fig4: must be nonnegative")
        if self.rate_eta_points < 2:
            issues.append("rate_eta_points: need at least two points")
        if self.converge_rtol <= 0:
            issues.append("converge_rtol: must be positive")
        if self.workers < 1:
            issues.append("workers: must be at least 1")
        if not self.outdir:
            issues.append("outdir: must name a directory, got an empty string")
        elif os.path.exists(self.outdir) and not os.path.isdir(self.outdir):
            issues.append(f"outdir: {self.outdir!r} names a file, not a directory")
        for key, ceiling in CEILINGS.items():
            if getattr(self, key) > ceiling:
                issues.append(
                    f"{key}: {getattr(self, key)} above ceiling {ceiling}; "
                    f"reduce it (dense solver budget)")
        return issues
