"""Every file format: density text files, CSV tables (trajectory, sweep),
per-vertex CSVs (snapshots, geodesic path) and JSON reports.

All floating-point values are printed with shortest-round-trip formatting,
so files reproduce bitwise for identical inputs and parse back to the exact
binary values.
"""

from __future__ import annotations

import functools
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
    """Recursively coerce numpy scalars and arrays, and dataclass instances
    (a dataclass's fields are its keys, except those declared with
    ``metadata={"report": False}``), so json can serialize them. A
    non-finite float, numpy or not, becomes its text "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        # JSON has no inf/nan literals; keep them readable and parseable.
        return obj if math.isfinite(obj) else repr(obj)
    if hasattr(type(obj), "__dataclass_fields__"):
        from dataclasses import fields   # already loaded: obj is a dataclass
        return {f.name: jsonify(getattr(obj, f.name)) for f in fields(obj)
                if f.metadata.get("report", True)}
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
    """Read back a density file; its weights carry no tail. Only blank lines
    may follow the N vertex rows."""
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
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: text after the {n} vertex rows the header declares")
    weights = WeightSequence(m=m, raw_tail_mass=0.0)
    spec = GraphSpec(weights=weights, phi=phi, beta=beta)
    return Density(rho, weights), spec


def _csv_header_comment(meta: dict | None) -> str:
    if not meta:
        return ""
    return "# " + json.dumps(jsonify(meta), sort_keys=True, separators=(",", ":")) + "\n"


def _cell(value) -> str:
    """One CSV cell: ``true``/``false`` for a boolean, :func:`fmt` for a
    float, empty for ``None``, text otherwise (a list or mapping as its JSON
    text), quoted per RFC 4180 when it holds a comma, a quote or a line
    break."""
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    text = json.dumps(jsonify(value)) if isinstance(value, (list, dict)) else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def table_to_csv(path, columns, rows, meta: dict | None = None) -> None:
    """CSV table: the ``meta`` comment line, a header of ``columns``, then
    one line per row of ``rows``, its cells in column order (see
    :func:`_cell`)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_header_comment(meta))
        fh.write(",".join(map(_cell, columns)) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def trajectory_to_csv(path, traj, meta: dict | None = None) -> None:
    """Scalar time series of a trajectory, from its per-record columns: t,
    mass, F, L, inf_rho, sup_rho."""
    columns = (traj.times, traj.mass, traj.F_values, traj.L_values, traj.inf, traj.sup)
    table_to_csv(path, ("t", "mass", "F", "L", "inf_rho", "sup_rho"), zip(*columns), meta)


@functools.lru_cache(maxsize=1)
def _vertex_rows(n: int, lead: str = "") -> str:
    """%-template of the per-vertex rows ``<lead>i,rho_i``, i = 1..n, built
    once for the calls of a writer in one run: %r of a Python float is
    fmt's repr."""
    return "".join([f"{lead}{i},%r\n" for i in range(1, n + 1)])


def snapshots_to_csv(outdir, first: int, states: Density, meta: dict | None = None) -> None:
    """Per-vertex snapshot files state_<k>.csv with rows ``i, rho_i``, one
    per row of the stacked ``states``, k counted from ``first``: the CLI
    writes each span of records as integrate hands it on."""
    header = _csv_header_comment(meta) + "i,rho_i\n"
    rows = _vertex_rows(states.rho.shape[-1])
    for k, rho in enumerate(states.rho, start=first):
        with open(os.path.join(outdir, f"state_{k}.csv"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(header)   # apart from the body: no copy of it is joined
            fh.write(rows % tuple(rho.tolist()))


def path_to_csv(path, geodesic_path: Density, meta: dict | None = None) -> None:
    """Geodesic path knots, one per row of the stacked ``geodesic_path``:
    rows ``knot, i, rho_i``."""
    knots = geodesic_path.rho
    n = knots.shape[-1]
    rows = _vertex_rows(n, "%d,")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_header_comment(meta) + "knot,i,rho_i\n")
        for k, rho in enumerate(knots):
            args = [k] * (2 * n)   # the knot index fills every %d slot
            args[1::2] = rho.tolist()
            fh.write(rows % tuple(args))
