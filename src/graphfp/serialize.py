"""File formats: density text files, trajectory and path CSVs, JSON reports.

All floating-point values are printed with shortest-round-trip formatting,
so files reproduce bitwise for identical inputs and parse back to the exact
binary values.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .graph import MAX_VERTICES, GraphSpec, WeightSequence
from .simplex import Density

SCHEMA_VERSION = 1


def fmt(x) -> str:
    """Shortest representation that round-trips the binary value."""
    return repr(float(x))


def jsonify(obj):
    """Recursively coerce numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        # JSON has no inf/nan literals; keep them readable and parseable.
        return repr(obj)
    return obj


def write_report(path, payload: dict) -> None:
    """JSON report with a schema-version field, deterministic key order."""
    body = {"schema": SCHEMA_VERSION}
    body.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonify(body), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_density(path, rho: Density, spec: GraphSpec) -> None:
    """Text format: header ``N beta`` then one ``i m_i phi_i rho_i`` row per
    vertex (1-based indices)."""
    m = spec.m
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{spec.N} {fmt(spec.beta)}\n")
        for i in range(spec.N):
            fh.write(f"{i + 1} {fmt(m[i])} {fmt(spec.phi[i])} {fmt(rho.rho[i])}\n")


def load_density(path) -> tuple[Density, GraphSpec]:
    """Read back a density file; its weights carry no tail."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header 'N beta'")
        n, beta = int(header[0]), float(header[1])
        if n > MAX_VERTICES:
            raise ValueError(f"{path}: header N={n} exceeds {MAX_VERTICES} vertices")
        m = np.empty(n)
        phi = np.empty(n)
        rho = np.empty(n)
        for k in range(n):
            parts = fh.readline().split()
            if len(parts) != 4:
                raise ValueError(f"{path}: row {k + 1} malformed")
            idx = int(parts[0])
            if idx != k + 1:
                raise ValueError(f"{path}: row index {idx} out of order")
            m[k], phi[k], rho[k] = (float(p) for p in parts[1:])
    weights = WeightSequence(m=m, raw_tail_mass=0.0)
    spec = GraphSpec(weights=weights, phi=phi, beta=beta)
    return Density(rho, weights), spec


def _csv_header_comment(meta: dict | None) -> str:
    if not meta:
        return ""
    return "# " + json.dumps(jsonify(meta), sort_keys=True, separators=(",", ":")) + "\n"


def trajectory_to_csv(path, traj, meta: dict | None = None) -> None:
    """Scalar time series of a trajectory: t, mass, F, L, inf_rho, sup_rho."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_header_comment(meta))
        fh.write("t,mass,F,L,inf_rho,sup_rho\n")
        states = traj.states
        for row in zip(traj.times, states.mass(), traj.F_values, traj.L_values, states.inf,
                       states.sup):
            fh.write(",".join(fmt(v) for v in row) + "\n")


def snapshots_to_csv(outdir, traj, meta: dict | None = None) -> list:
    """Per-vertex snapshot files state_<k>.csv with rows ``i, rho_i``, one
    per row of the stacked ``traj.states``."""
    header = _csv_header_comment(meta) + "i,rho_i\n"
    states = traj.states.rho
    # One row template for all files: %r of a Python float is fmt's repr.
    rows = "".join(f"{i},%r\n" for i in range(1, states.shape[-1] + 1))
    paths = []
    for k, rho in enumerate(states):
        p = os.path.join(outdir, f"state_{k}.csv")
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + rows % tuple(rho.tolist()))
        paths.append(p)
    return paths


def path_to_csv(path, geodesic_path: Density, meta: dict | None = None) -> None:
    """Geodesic path knots, one per row of the stacked ``geodesic_path``:
    rows ``knot, i, rho_i``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_header_comment(meta))
        fh.write("knot,i,rho_i\n")
        for k, rho in enumerate(geodesic_path.rho):
            for i, v in enumerate(rho):
                fh.write(f"{k},{i + 1},{fmt(v)}\n")
