"""Verification of one experiment's output directory.

An op counts as verified only when every check here passes:

* the directory holds exactly the expected CSV panels and the provenance
  sidecar, and these are the paths `run_experiment` returned;
* each CSV has a `# units:` line naming every header column, the header,
  the expected number of rows, and only finite values;
* physics sanity: fidelity ceilings (`bound_*`) in [0, 1], each fidelity
  (`f_*`) at most its panel's ceiling, photon numbers (unit `photons`) and
  rates (`rate*`) non-negative -- each to within TOL, which absorbs
  last-digit rounding and nothing more;
* the sidecar names the experiment and its panels, records the config that
  was sent and its SHA-256, computed here independently of the program.

`verify_outputs` returns the number of coupling-sweep points and a digest
of every file, so repeats within a run and runs on two commits can be
compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import PANELS

TOL = 1e-10


class OutputError(Exception):
    """An output file failed verification."""


def config_sha256(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def digest_dir(outdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def read_csv(path: str, expected_rows: int):
    """Parse one panel; returns (columns, units, rows)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# units: "):
        raise OutputError(f"{path}: missing '# units:' line")
    columns = lines[1].split(",")
    pairs = [tok.split("=", 1) for tok in lines[0][len("# units: "):].split(" ")]
    if any(len(p) != 2 for p in pairs) or [p[0] for p in pairs] != columns:
        raise OutputError(f"{path}: units line does not match header {columns}")
    units = dict(pairs)
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise OutputError(f"{path}:{lineno}: non-numeric value") from None
        if len(row) != len(columns):
            raise OutputError(f"{path}:{lineno}: {len(row)} values, {len(columns)} columns")
        if not all(math.isfinite(v) for v in row):
            raise OutputError(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    if len(rows) != expected_rows:
        raise OutputError(f"{path}: {len(rows)} rows, expected {expected_rows}")
    return columns, units, rows


def check_physics(path: str, columns: list, units: dict, rows: list) -> None:
    bounds = [i for i, c in enumerate(columns) if c.startswith("bound_")]
    fids = [i for i, c in enumerate(columns) if c.startswith("f_")]
    if fids and len(bounds) != 1:
        raise OutputError(f"{path}: fidelity columns need exactly one ceiling column")
    nonneg = [i for i, c in enumerate(columns)
              if units[c] == "photons" or c.startswith("rate")]
    for row in rows:
        for i in bounds:
            if not -TOL <= row[i] <= 1 + TOL:
                raise OutputError(f"{path}: ceiling {columns[i]}={row[i]!r} outside [0, 1]")
        for i in fids:
            if row[i] > row[bounds[0]] + TOL:
                raise OutputError(
                    f"{path}: fidelity {columns[i]}={row[i]!r} above ceiling {row[bounds[0]]!r}")
        for i in nonneg:
            if row[i] < -TOL:
                raise OutputError(f"{path}: {columns[i]}={row[i]!r} is negative")


def verify_outputs(exp: str, outdir: str, paths: list, config: dict):
    """Check one op's files; returns (coupling-sweep points, digest)."""
    panels = PANELS[exp]
    csv_names = {f"{exp}_{panel}.csv" for panel in panels}
    prov_name = f"{exp}_provenance.json"
    returned = [os.path.basename(p) for p in paths]
    if sorted(returned) != sorted(csv_names | {prov_name}):
        raise OutputError(f"{exp}: returned paths {returned}")
    if sorted(os.listdir(outdir)) != sorted(returned):
        raise OutputError(f"{exp}: {outdir} holds {sorted(os.listdir(outdir))}")

    points = None
    for panel, rows_key in panels.items():
        path = os.path.join(outdir, f"{exp}_{panel}.csv")
        columns, units, rows = read_csv(path, config[rows_key])
        check_physics(path, columns, units, rows)
        if points is None:
            points = len(rows)

    with open(os.path.join(outdir, prov_name)) as fh:
        try:
            prov = json.load(fh)
        except json.JSONDecodeError as exc:
            raise OutputError(f"{prov_name}: invalid JSON ({exc})") from None
    if not isinstance(prov, dict):
        raise OutputError(f"{prov_name}: top level is not an object")
    if prov.get("experiment") != exp:
        raise OutputError(f"{prov_name}: experiment {prov.get('experiment')!r}")
    if sorted(prov.get("panels", [])) != sorted(csv_names):
        raise OutputError(f"{prov_name}: panels {prov.get('panels')!r}")
    if prov.get("config") != config:
        raise OutputError(f"{prov_name}: recorded config differs from the config sent")
    if prov.get("config_sha256") != config_sha256(config):
        raise OutputError(f"{prov_name}: config_sha256 does not match the config sent")
    return points, digest_dir(outdir)
