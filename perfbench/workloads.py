"""Seeded inputs and command sequences of the graphfp benchmark workloads.

``generate(workload, seed, workdir)`` writes every config and density file
a workload needs into ``workdir`` and returns the CLI commands to run there,
in order. The same seed writes byte-identical files. The program under test
only ever sees these generated files: nothing is read from ``configs/``.

Configs are written as JSON, which YAML loaders accept unchanged.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("relax", "transport", "batch")

# Talagrand class bounds used by every talagrand command.
NU_INF, NU_SUP = 0.5, 2.0

# Sizes. One pass of a workload takes 8-12 s on a 2-core machine, so a
# 35 s run measures three or four passes; see NOTES.md for the layer split they keep.
SWEEP_N = 150           # fpe sweep points, bound by the monitor
PHIBAR_N = 600          # phibar run, bound by the integrator
TALAGRAND_SAMPLES = 5   # geodesics on the N=15 talagrand instance
LP_N = 300              # boundary w1 pair: the dual LP alone

# Base experiments. They mirror the shipped configs (decay, master,
# talagrand) so the benchmark keeps its meaning if those files change.
_DECAY = {
    "graph": {"family": "geometric:q=0.5", "N": 40},
    "potential": {"kind": "random", "low": -1.0, "high": 1.0},
    "beta": 1.0,
    "initial": {"kind": "gibbs_perturbed", "epsilon": 0.5},
    "dynamics": {"kind": "fpe"},
    "integrator": {"t_end": 4.0, "record_every": 0.05},
    "sweep": {"beta": [0.5, 1.0, 2.0]},
}
_MASTER = {
    "graph": {"family": "geometric:q=0.6", "N": 30},
    "potential": {"kind": "constant", "c": 0.0},
    "beta": 1.0,
    "initial": {"kind": "gibbs_perturbed", "epsilon": 0.5},
    "dynamics": {"kind": "master"},
    "integrator": {"t_end": 6.0, "record_every": 0.05},
}
_TALAGRAND = {
    "graph": {"family": "explicit:file=weights15.txt", "N": 15},
    "potential": {"kind": "random", "low": -0.5, "high": 0.5},
    "beta": 1.0,
    "geodesic": {"knots": 32, "max_iters": 2000},
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``graphfp <args>`` run inside the work directory.

    ``out`` is the command's output directory. ``pair`` names the two
    density files of a metric or w1 command, which the checks read back.
    """

    name: str
    args: tuple
    out: str
    pair: tuple = field(default=())

    @property
    def subcommand(self) -> str:
        return self.args[0]


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_config(workdir: str, name: str, base: dict, seed: int, **changes) -> str:
    tree = json.loads(json.dumps(base))
    for dotted, value in changes.items():
        node = tree
        *parents, leaf = dotted.split("__")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    tree["seed"] = seed
    _write(os.path.join(workdir, name), json.dumps(tree, indent=1, sort_keys=True) + "\n")
    return name


def _unit_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive weights summing to one within a few ulp (the loader checks 1e-14)."""
    raw = rng.uniform(0.5, 1.5, n)
    m = raw / math.fsum(raw)
    return m / (1.0 + (math.fsum(m) - 1.0))


def _write_pair(workdir: str, stem: str, rng: np.random.Generator, n: int,
                zero_entry: bool = False) -> tuple:
    """Two density files on one generated instance (shared weights and
    potential, beta = 1) in the CLI's ``N beta`` / ``i m_i phi_i rho_i`` format."""
    m = _unit_weights(rng, n)
    phi = rng.uniform(-1.0, 1.0, n)
    names = []
    for side in ("a", "b"):
        r = rng.uniform(0.5, 1.5, n)
        if zero_entry and side == "b":
            r[int(rng.integers(n))] = 0.0
        rho = r / float(np.dot(m, r))
        lines = [f"{n} {_fmt(1.0)}"]
        lines += [f"{i + 1} {_fmt(m[i])} {_fmt(phi[i])} {_fmt(rho[i])}" for i in range(n)]
        name = f"{stem}_{side}.txt"
        _write(os.path.join(workdir, name), "\n".join(lines) + "\n")
        names.append(name)
    return tuple(names)


def _seeds(rng: np.random.Generator, k: int) -> list:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=k)]


def _talagrand_inputs(workdir: str, rng: np.random.Generator) -> str:
    weights = rng.uniform(0.2, 2.0, 15)
    _write(os.path.join(workdir, "weights15.txt"), "".join(f"{_fmt(w)}\n" for w in weights))
    return _write_config(workdir, "talagrand.json", _TALAGRAND, _seeds(rng, 1)[0])


def _cmd(name: str, sub: str, *args, pair: tuple = ()) -> Command:
    out = f"out/{name}"
    return Command(name, (sub, *args, "--out", out), out, pair)


def generate(workload: str, seed: int, workdir: str) -> list:
    """Write the inputs of ``workload`` for ``seed`` and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])

    if workload == "relax":
        s_sweep, s_phibar = _seeds(rng, 2)
        sweep = _write_config(workdir, "sweep.json", _DECAY, s_sweep, graph__N=SWEEP_N)
        phibar = _write_config(workdir, "phibar.json", _DECAY, s_phibar, graph__N=PHIBAR_N,
                               dynamics__kind="phibar", write_states=True, sweep={})
        return [
            _cmd("sweep_fpe", "sweep", "--config", sweep),
            _cmd("simulate_phibar", "simulate", "--config", phibar),
        ]

    if workload == "transport":
        talagrand = _talagrand_inputs(workdir, rng)
        p40 = _write_pair(workdir, "pair40", rng, 40)
        p20 = _write_pair(workdir, "pair20", rng, 20)
        p_lp = _write_pair(workdir, f"pair{LP_N}", rng, LP_N, zero_entry=True)
        return [
            _cmd("talagrand", "talagrand", "--config", talagrand, "--nu-inf", str(NU_INF),
                 "--nu-sup", str(NU_SUP), "--samples", str(TALAGRAND_SAMPLES)),
            _cmd("metric_n40", "metric", "--a", p40[0], "--b", p40[1], pair=p40),
            _cmd("w1_n20", "w1", "--a", p20[0], "--b", p20[1], pair=p20),
            _cmd(f"w1_n{LP_N}", "w1", "--a", p_lp[0], "--b", p_lp[1], pair=p_lp),
        ]

    s_decay, s_master = _seeds(rng, 2)
    decay = _write_config(workdir, "decay.json", _DECAY, s_decay)
    master = _write_config(workdir, "master.json", _MASTER, s_master)
    talagrand = _talagrand_inputs(workdir, rng)
    p6 = _write_pair(workdir, "pair6", rng, 6)
    return [
        _cmd("gibbs", "gibbs", "--config", decay),
        _cmd("simulate_decay", "simulate", "--config", decay),
        _cmd("sweep_decay", "sweep", "--config", decay),
        _cmd("simulate_master", "simulate", "--config", master),
        _cmd("metric_n6", "metric", "--a", p6[0], "--b", p6[1], pair=p6),
        _cmd("w1_n6", "w1", "--a", p6[0], "--b", p6[1], pair=p6),
        _cmd("talagrand_1", "talagrand", "--config", talagrand, "--nu-inf", str(NU_INF),
             "--nu-sup", str(NU_SUP), "--samples", "1"),
    ]
