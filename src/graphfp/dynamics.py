"""Evolution equations on the weighted simplex and their monitors.

Four kinds of flow are integrated: the full flow with potential-ordered
branches (fpe), the variant ordered by the entropy-adjusted potential
(phibar), the pure drift system at beta = 0 (beta_zero), and the linear
master equation for constant potentials (master). All four are
-L(rho)(phi + beta log rho); ``_rhs_closure`` alone decides which (beta,
phi) each kind admits. Two right-hand sides are public: fpe, which is also
beta_zero at beta = 0 and master on a constant potential, and phibar. A
shared adaptive embedded Runge-Kutta integrator advances every kind,
rejecting any step that crosses the positivity floor, and the monitor
checks every quantitative property a trajectory is expected to satisfy.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

# The integrator's settings live in config, which loads no solver; importing
# them here keeps them importable from this module.
from .config import KINDS, IntegratorConfig
from .errors import ConvergenceError, InsufficientDataError, InvalidRowError, \
    InvariantBreachError, StiffnessError
from .graph import GraphSpec
from .mobility import MobilityOperator, metric_inner
from .simplex import ConstantsReport, Density, TangentVector, _m_dot, free_energy, gibbs, \
    l2m_norm_sq, relative_energy


def is_gradient_flow(kind: str, beta: float) -> bool:
    """Whether ``kind`` at ``beta`` is the gradient flow of the free energy
    in the metric of the potential order: fpe, or master (fpe on a constant
    potential), with beta > 0. The invariant-set constants and the
    dissipation identity are stated for exactly these runs."""
    return kind in ("fpe", "master") and beta > 0.0


# Dormand-Prince 5(4) tableau; the last row doubles as the 5th-order weights
# (first-same-as-last structure).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4
# Dense output of the pair (Hairer, Norsett & Wanner, Solving ODEs I, II.6):
# y(t + theta h) = y + h (K^T P) [theta, theta^2, theta^3, theta^4] over the
# seven stages K, a 4th-order continuous extension.
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_THETA_POWERS = np.arange(1, 5)

# Most entries, records x N, of the states one run hands to a consumer
# (integrate(..., on_records)), a span at a time: under write_states, the
# snapshot files, about 500 MB of CSV at the bound.
MAX_RECORD_ENTRIES = 2 * 10 ** 7
# Most entries, rows x N, of one block of records whose dissipation
# integrate reduces at once: one stacked flow, solve and residual. Above
# N = 512 a block is one record, as a per-record loop would take them;
# below, a block of up to 1024 entries saves the loop's per-call overhead.
# A solve on tie groups peaks at about nine arrays of rows x (Q + 1) x
# (tied vertices) entries per block, so a bound much above this one lifts a
# small run's peak memory: with all 121 records of configs/master.yaml in
# one block, by 0.26 MB (38.21 against 37.95 MB, medians of 9 processes).
BLOCK_ENTRIES = 2 ** 10
# Most entries, rows x N, of the records integrate holds at once: one
# piece of a step's dense output (two records at least), and one span of
# whole blocks whose other columns are reduced together; 2^12 float64
# entries are 32 KB. Their temporaries set a small
# run's peak memory, their count its per-call overhead: at 2^16 one span
# held all 81 records of the relax benchmark's N = 600 phibar run, which
# peaked at 38.9 MB against 37.4 MB at 2^12; at 2^11 its N = 150 sweep
# points ran up to 9% slower.
SPAN_ENTRIES = 2 ** 12
# Most step attempts, accepted or rejected, of one run; integrate raises
# ConvergenceError when they are spent. At equilibrium the explicit pair's
# step is bound by its stability, not by the tolerances, so without a budget
# a run to a far t_end steps for ever. No test, CI step, shipped config or
# benchmark run makes more than 689 attempts; on configs/decay.yaml (N = 40)
# the budget ends a run at t = 22052, after about 3 s on a 2-vCPU VM.
MAX_STEP_ATTEMPTS = 10 ** 4


def _operator(kind: str, spec: GraphSpec) -> MobilityOperator | None:
    """The sorted-order mobility operator of one instance of a
    potential-ordered kind, None for phibar, which re-sorts by its adjusted
    potential on every evaluation. This is the one place that checks a kind
    and the (beta, phi) it admits; it raises ValueError on an unknown kind
    or an instance the kind does not admit.
    """
    if kind == "master":
        if spec.beta <= 0.0:
            raise ValueError("master equation requires beta > 0")
        if float(np.ptp(spec.phi)) != 0.0:
            raise ValueError("master equation requires a constant potential")
    elif kind == "phibar":
        if spec.beta <= 0.0:
            raise ValueError("entropy-adjusted ordering requires beta > 0")
        return None
    if kind == "beta_zero" and spec.beta != 0.0:
        raise ValueError("zero-diffusion system requires beta = 0")
    if kind not in KINDS:
        raise ValueError(f"unknown rhs kind {kind!r}; expected one of {KINDS}")
    return MobilityOperator(spec.phi, spec.m)


def _rhs_closure(kind: str, spec: GraphSpec, sign: float = -1.0, op=None):
    """Array-level right-hand side for one instance.

    The potential-ordered kinds are -L(rho) u with u = phi + beta log rho
    (u = phi at beta = 0), through ``op``, the instance's operator from
    :func:`_operator`, which is built here when not given; phibar re-sorts
    by its adjusted potential on every evaluation. The master equation is
    fpe on a constant potential: one tie group, where
    -L(rho) u = beta (sum_j m_j rho_j - rho_i sum_j m_j).
    """
    m, phi, beta = spec.m, spec.phi, spec.beta
    op = _operator(kind, spec) if op is None else op
    if kind == "phibar":
        def rhs(y):
            ly = np.log(y)
            return -MobilityOperator(phi + sign * beta * ly, m).upwind(y, phi + beta * ly)

        return rhs
    return lambda y: op.flow(y, beta)


def _require_interior_for(spec: GraphSpec, rho: Density):
    if spec.beta > 0.0:
        rho.require_interior("right-hand side with beta > 0")


def fokker_planck_rhs(rho: Density, spec: GraphSpec) -> TangentVector:
    """Time derivative of the flow: pairs are split by the strict order of
    the potential, with the higher-potential density carrying each
    off-diagonal term and ties contributing beta (rho_j - rho_i). At
    beta = 0 this is the pure drift system (kind beta_zero); on a constant
    potential it is the master equation (kind master)."""
    _require_interior_for(spec, rho)
    return TangentVector(_rhs_closure("fpe", spec)(rho.rho), rho.weights)


def effective_potential_rhs(rho: Density, spec: GraphSpec, sign: float = -1.0) -> TangentVector:
    """Same summands, but branch membership ordered by the adjusted potential
    phi_i + sign * beta * log rho_i (default sign -1); ties join neither sum."""
    _require_interior_for(spec, rho)
    return TangentVector(_rhs_closure("phibar", spec, sign)(rho.rho), rho.weights)


@dataclass
class IntegratorStats:
    """Deterministic counters of one integration: right-hand-side
    evaluations, accepted steps, rejected steps by cause and the range of
    accepted step sizes."""

    nfev: int = 0
    accepted: int = 0
    rejected: dict = field(
        default_factory=lambda: {"positivity": 0, "error": 0, "nonfinite": 0})
    h_min: float = math.inf
    h_max: float = 0.0


@dataclass
class TrajectoryRecord:
    """One integrated trajectory as per-record columns, entry k at
    ``times[k]``: the mass, the free energy F, the relative energy L to the
    Gibbs state (nan at beta = 0) and inf and sup of rho. The monitor's
    columns are nan where its kind has no such check: for gradient flows
    ``l2m`` = ||rho - rho*||_m^2, the dissipation ``g`` = g(sigma, sigma)
    and its ``slope`` <u, sigma>_m, with sigma = -L(rho) u."""

    times: np.ndarray
    mass: np.ndarray
    F_values: np.ndarray
    L_values: np.ndarray
    inf: np.ndarray
    sup: np.ndarray
    l2m: np.ndarray
    g: np.ndarray
    slope: np.ndarray
    spec: GraphSpec
    kind: str
    rho_star: Density | None = None
    stats: IntegratorStats = field(default_factory=IntegratorStats)

    def __len__(self):
        return self.times.size


_COLUMNS = ("mass", "F_values", "L_values", "inf", "sup", "l2m", "g", "slope")


def record_times(config: IntegratorConfig, n: int) -> np.ndarray:
    """Times a run records: every record_every, and t_end. Counted first:
    ValueError if the run hands n state entries per record to a consumer
    and records x n > MAX_RECORD_ENTRIES."""
    every = config.record_every
    k = int(math.floor(config.t_end / every + 1e-9))
    short = k * every < config.t_end * (1.0 - 1e-12)   # t_end is one more record
    if (k + 1 + short) * n > MAX_RECORD_ENTRIES:
        raise ValueError(
            f"integrator.record_every={every!r} asks for {k + 1 + short} "
            f"records x N={n}, more than {MAX_RECORD_ENTRIES} state entries")
    times = np.arange(k + 1) * every
    return np.append(times, config.t_end) if short else times


def _rms(x) -> float:
    """sqrt(mean(x**2)) without overflow in the squares: x is scaled by the
    power of two of its largest entry first, which is exact, so the value is
    bitwise that of the plain formula wherever no square over- or underflows
    there."""
    exp = math.frexp(float(np.abs(x).max()))[1]
    return math.ldexp(math.sqrt(float(np.mean(np.ldexp(x, -exp) ** 2))), exp)


def _initial_step(y0, f0, config):
    with np.errstate(over="ignore"):   # an infinite scale or ratio gives h0 0, inf or nan
        scale = config.abs_tol + config.rel_tol * np.abs(y0)
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 0.01 * d0 / d1 if d1 > 0.0 else config.record_every
    return min(h0, config.t_end)


def integrate(kind: str, rho0: Density, spec: GraphSpec, config: IntegratorConfig,
              sign: float = -1.0, on_records=None) -> TrajectoryRecord:
    """Advance one trajectory with an adaptive embedded Runge-Kutta pair.

    Step sizes follow the error tolerances, bounded only by the last
    record time; the record times a step covers are filled from the
    pair's 4th-order dense output. A step is rejected and h halved
    whenever a stage state or an interpolated record falls below the
    positivity floor or is not finite; a failed error estimate shrinks h by
    the usual controller. The records of an accepted step are reduced to
    the record's columns as they arrive (:class:`_Reduction`); every one
    must carry unit mass within 1e-10 or the run aborts. Each span of
    checked records goes to ``on_records(first, states)``, when given, as
    it is reduced: ``states`` a stacked Density whose row j is the record
    at ``times[first + j]``, a view valid only during the call; records x N
    of them at most MAX_RECORD_ENTRIES. The record's ``stats`` counts what
    was done. A run that has not reached t_end after MAX_STEP_ATTEMPTS
    step attempts raises ConvergenceError.
    """
    if spec.beta > 0.0:
        rho0.require_interior("integration with beta > 0")
    op = _operator(kind, spec)
    rhs = _rhs_closure(kind, spec, sign, op)
    stats = IntegratorStats()

    def f(y):
        stats.nfev += 1
        return rhs(y)

    floor = config.positivity_floor
    rec_times = record_times(config, 0 if on_records is None else rho0.rho.size)
    t_final = float(rec_times[-1])
    reduction = _Reduction(kind, spec, op, rec_times, on_records)

    y = rho0.rho.copy()
    t = 0.0
    k1 = f(y)
    h = _initial_step(y, k1, config)
    reduction.add(y[None])
    nxt = 1  # index of the first record time not yet filled
    while t < t_final:
        attempts = stats.accepted + sum(stats.rejected.values())
        if attempts == MAX_STEP_ATTEMPTS:
            raise ConvergenceError(
                f"integration stopped at t={t!r} of t_end={t_final!r} after {attempts} "
                f"step attempts ({stats.accepted} accepted), the most one run may make "
                f"(MAX_STEP_ATTEMPTS = {MAX_STEP_ATTEMPTS})")
        last = t + h >= t_final * (1.0 - 1e-14)
        h_use = t_final - t if last else h
        if not h_use >= 1e-14 * max(1.0, abs(t)):   # a nan step ends here too
            raise StiffnessError(
                f"step size underflow at t={t!r} (h={h_use!r})", t=t, state=y.copy()
            )
        cause, y_new, K, err = _dp54_step(f, y, h_use, k1, floor)
        if not cause:
            with np.errstate(invalid="ignore", over="ignore"):
                scale = config.abs_tol + config.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
                en = _rms(err / scale)
            cause = "nonfinite" if not math.isfinite(en) else "error" if en > 1.0 else ""
        if not cause:
            t_new = t_final if last else t + h_use
            end = int(np.searchsorted(rec_times, t_new, side="right"))
            # the records the step covers, in pieces, evaluated once to be
            # checked and, if the step is taken, again to be reduced
            dense = functools.partial(_dense_output, y, _DP_P.T @ K, h_use,
                                      (rec_times[nxt:end] - t) / h_use, y_new if last else None)
            cause = _leaves_cone(dense(), floor)
        if cause:
            stats.rejected[cause] += 1
            h = h_use * max(0.2, min(0.9 * en ** -0.2, 0.7)) if cause == "error" else 0.5 * h_use
            continue
        for rows in dense():
            reduction.add(rows)
        stats.accepted += 1
        stats.h_min = min(stats.h_min, h_use)
        stats.h_max = max(stats.h_max, h_use)
        nxt, t, y, k1 = end, t_new, y_new, K[6]
        h = h_use * (5.0 if en == 0.0 else min(5.0, max(0.2, 0.9 * en ** -0.2)))

    reduction.reduce()   # the last span
    return TrajectoryRecord(rec_times, **reduction.columns, spec=spec, kind=kind,
                            rho_star=reduction.rho_star, stats=stats)


def _dense_output(y, pk, h, theta, y_end):
    """The states at the fractions ``theta`` of a step of size h from y, by
    the pair's dense output with pk = P^T K, in pieces of about SPAN_ENTRIES
    entries and two rows at least, since a (1, 4) @ (4, N) product rounds
    otherwise than the same row of a larger one; ``y_end``, when given, is
    the last state."""
    size, piece = theta.size, max(2, SPAN_ENTRIES // y.size)
    for lo in range(0, size - (size > 1), piece):   # the last piece takes a lone remainder
        hi = lo + piece if lo + piece < size - 1 else size
        rows = (theta[lo:hi, None] ** _THETA_POWERS) @ pk
        rows *= h
        rows += y
        if y_end is not None and hi == size:
            rows[-1] = y_end
        yield rows


def _leaves_cone(pieces, floor):
    """Why the arrays ``pieces`` may not be taken: "nonfinite" if an entry
    of one is not finite, else "positivity" if one is below the floor, else ""."""
    cause = ""
    for x in pieces:
        if not np.isfinite(x).all():
            return "nonfinite"
        cause = cause or ("positivity" if x.min() < floor else "")
    return cause


def _dp54_step(f, y, h, k1, floor):
    """One embedded step: ("", 5th-order state, 7 x n stage matrix, error
    estimate), or the cause of rejection, when a stage state leaves the
    positive cone, and three Nones."""
    k = np.empty((7, y.size))
    k[0] = k1
    ys = y
    for s in range(1, 7):
        a = _DP_A[s]
        incr = a[0] * k[0]
        for j in range(1, s):
            if a[j] != 0.0:
                incr = incr + a[j] * k[j]
        ys = y + h * incr
        cause = _leaves_cone([ys], floor)
        if cause:
            return cause, None, None, None
        k[s] = f(ys)
    # Stage 7 input is the 5th-order solution itself.
    err = h * (_DP_E @ k)
    return "", ys, k, err


class _Reduction:
    """The columns of one run's :class:`TrajectoryRecord`, reduced from its
    records as they arrive, in order: a span of records at a time, checked
    once as one stacked Density, the dissipation per block of BLOCK_ENTRIES
    entries within it, with ``op``, the operator of the run's right-hand
    side. A block holds one record at least, and a row gives the same bits
    alone as in any stack. A span holds up to SPAN_ENTRIES entries in whole
    blocks, in one buffer; once checked, it goes to ``on_records``, when
    given, before its columns are filled."""

    def __init__(self, kind, spec, op, times, on_records):
        n = spec.m.size
        self.kind, self.spec, self.op, self.times = kind, spec, op, times
        self.on_records = on_records
        self.rho_star = gibbs(spec) if spec.beta > 0.0 else None
        self.block = max(1, BLOCK_ENTRIES // n)
        self.span = np.empty((self.block * max(1, SPAN_ENTRIES // (self.block * n)), n))
        self.lo = self.fill = 0   # the first record in the span, and the span's records
        self.columns = {name: np.full(times.size, math.nan) for name in _COLUMNS}

    def add(self, records):
        """Take the next records; a full span is reduced before the next
        record is written over it."""
        while len(records):
            if self.fill == len(self.span):
                self.reduce()
                self.lo, self.fill = self.lo + self.fill, 0
            take = records[:len(self.span) - self.fill]
            self.span[self.fill:self.fill + len(take)], records = take, records[len(take):]
            self.fill += len(take)

    def reduce(self):
        """Hand on the records in the span and fill their columns; a state
        off the unit-mass slice by more than 1e-10 raises
        InvariantBreachError naming its time, before any is handed on."""
        spec, c, lo, r = self.spec, self.columns, self.lo, self.span[:self.fill]
        try:   # r is a view, which the Density makes read-only
            rho = Density(r, spec.weights, mass_tol=1e-10)
        except InvalidRowError as exc:
            raise InvariantBreachError(
                f"recorded state at t={float(self.times[lo + exc.row])!r} invalid: "
                f"row {lo + exc.row}: {exc.reason}") from exc
        if self.on_records is not None:
            self.on_records(lo, rho)
        at = slice(lo, lo + len(r))
        c["mass"][at], c["inf"][at], c["sup"][at] = rho.mass(), rho.inf, rho.sup
        c["F_values"][at] = free_energy(rho, spec)
        if self.rho_star is not None:
            c["L_values"][at] = relative_energy(rho, self.rho_star)
        if is_gradient_flow(self.kind, spec.beta):
            c["l2m"][at] = l2m_norm_sq(r - self.rho_star.rho, spec.weights)
            for k in range(0, len(r), self.block):
                b = copy.copy(rho)   # rows of the checked span, not checked again
                object.__setattr__(b, "rho", rho.rho[k:k + self.block])
                at = slice(lo + k, lo + k + len(b.rho))
                tv = TangentVector(self.op.flow(b.rho, spec.beta), spec.weights, mean_tol=1e-9)
                c["slope"][at] = _m_dot(spec.m, (spec.phi + spec.beta * np.log(b.rho)) * tv.sigma)
                c["g"][at] = metric_inner(b, self.op, tv, tv)


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """Outcome of one monitor check: pass or fail, margin, and why it was skipped."""

    passed: bool
    margin: float = math.nan
    skipped: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.passed or self.skipped


@dataclass
class MonitorReport:
    """Every monitor check of one trajectory, by name."""

    checks: dict

    @property
    def all_passed(self) -> bool:
        return all(c.ok for c in self.checks.values())


# Pinned monitor tolerances.
F_DECREASE_TOL = 1e-10
L_DECREASE_TOL = 1e-10
BARRIER_TOL = 1e-9
DISSIPATION_REL_TOL = 1e-4
DECAY_BOUND_TOL = 1e-6
L2M_BOUND_TOL = 1e-9
LINF_MASTER_TOL = 1e-6


def monitor(traj: TrajectoryRecord, constants: ConstantsReport | None = None) -> MonitorReport:
    """Evaluate every quantitative claim a trajectory should satisfy.

    Checks that need the invariant-set constants or the metric are skipped
    (and flagged as skipped) when the trajectory kind does not support them.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    metric_kind = is_gradient_flow(traj.kind, traj.spec.beta)
    checks = {"free_energy_decrease": _check_decrease(traj.F_values, F_DECREASE_TOL)}
    checks["relative_energy_decrease"] = _skipped("no stationary reference") \
        if traj.rho_star is None else _check_decrease(traj.L_values, L_DECREASE_TOL)

    if constants is None or not metric_kind:
        reason = "constants unavailable" if constants is None else \
            "invariant-set constants stated for the potential-ordered flow"
        for name in ("invariant_set", "decay_bound", "l2m_convergence"):
            checks[name] = _skipped(reason)
    else:
        checks["invariant_set"] = _check_invariant_set(traj, constants)
        checks["decay_bound"] = _check_decay_bound(traj, constants)
        checks["l2m_convergence"] = _check_decay(traj.l2m, traj.rho_star.sup / traj.rho_star.inf,
                                                 constants.decay_rate, traj.times, L2M_BOUND_TOL)

    # max_i |rho_i - 1| is max(sup - 1, 1 - inf) bit for bit: rounding x - 1 is monotone
    checks["linf_master_decay"] = _skipped("master kind only") if traj.kind != "master" \
        else _check_decay(np.maximum(traj.sup - 1.0, 1.0 - traj.inf), 1.0,
                          0.5 * traj.spec.beta, traj.times, LINF_MASTER_TOL)
    checks["dissipation_identity"] = _check_dissipation(traj) if metric_kind else _skipped(
        "metric identity checked for potential-ordered kinds with beta > 0")

    return MonitorReport(checks)


def _skipped(detail):
    return CheckResult(True, skipped=True, detail=detail)


def _check_decrease(values, tol):
    worst = float(np.diff(values).max()) if values.size > 1 else 0.0
    return CheckResult(worst <= tol, tol - worst)


def _check_invariant_set(traj, constants):
    c1, c2 = constants.lower_bound, constants.upper_bound
    inf, sup = traj.inf, traj.sup
    inside = (inf >= c1) & (sup <= c2)
    if not inside.any():
        return CheckResult(False, detail="state never entered the invariant set")
    k0 = int(np.argmax(inside))
    lo = inf[k0:] - (c1 - BARRIER_TOL)
    hi = (c2 + BARRIER_TOL) - sup[k0:]
    margin = float(min(lo.min(), hi.min()))
    return CheckResult(margin >= 0.0, margin, detail=f"active from index {k0}")


def _check_decay_bound(traj, constants):
    L0 = traj.L_values[0]
    ok = np.isfinite(traj.L_values) & (traj.L_values > 0.0)
    if L0 <= 0.0 or not ok.any():
        return CheckResult(True, 0.0, detail="relative energy identically zero")
    t = traj.times[ok]
    excess = np.log(traj.L_values[ok]) - math.log(L0) + constants.decay_rate * t
    margin = float(DECAY_BOUND_TOL - excess.max())
    return CheckResult(margin >= 0.0, margin)


def _check_decay(lhs, scale, rate, times, tol):
    """lhs(t) <= scale lhs(0) exp(-rate t) + tol at every recorded time."""
    margin = float((scale * lhs[0] * np.exp(-rate * times) + tol - lhs).min())
    return CheckResult(margin >= 0.0, margin)


def _check_dissipation(traj):
    """Gradient-flow identity dF/dt = -g(sigma, sigma) along the flow
    sigma = -L(rho) u, u = phi + beta log rho, of a gradient-flow run.

    By the chain rule dF/dt = sum_i m_i (phi_i + beta (log rho_i + 1)) sigma_i,
    and the constant drops out because sigma is mean-free. integrate
    reduces each block of records to g and that slope with the operator of
    its right-hand side: one stacked flow (:meth:`MobilityOperator.flow`,
    the right-hand side the run integrated), solve and residual per block.
    That solve inverts L(rho), so L^-1 sigma = -(u - mean u), the identity
    holds exactly and the check is a round trip of the solve against the
    flow. It is checked at every recorded time whose dissipation is above
    the noise floor.
    """
    above = traj.g >= 1e-8 * (1.0 + np.abs(traj.F_values))
    if not above.any():
        return CheckResult(True, 0.0,
                           detail="no sampled time with dissipation above noise floor")
    worst = float((np.abs(traj.slope[above] + traj.g[above]) / traj.g[above]).max())
    return CheckResult(worst <= DISSIPATION_REL_TOL, DISSIPATION_REL_TOL - worst,
                       detail=f"{int(above.sum())} sampled times")


def decay_rate_fit(traj: TrajectoryRecord) -> float:
    """Least-squares slope of log L(t) over the window where L is finite and
    > 1e-12, returned as a positive rate.

    The slope of one variable has the closed form
    sum (t - tbar)(y - ybar) / sum (t - tbar)^2 with y = log L, over times
    centred first so that a late window loses no digits. Elementwise sums
    call no least-squares solver, and so no LAPACK routine.
    """
    L = traj.L_values
    ok = np.isfinite(L) & (L > 1e-12)
    if int(ok.sum()) < 5:
        raise InsufficientDataError(
            f"only {int(ok.sum())} usable points for the decay fit (need 5)"
        )
    t, y = traj.times[ok], np.log(L[ok])
    tc = t - t.mean()
    slope = float((tc * (y - y.mean())).sum() / (tc * tc).sum())
    if slope >= 0.0:
        raise InsufficientDataError("relative energy is not decreasing over the window")
    return -slope
