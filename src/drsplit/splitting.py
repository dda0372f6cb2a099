"""The Douglas-Rachford iteration, its relaxed-ADMM form, and trace tooling.

The solver records every state x_k together with the fixed-point residual
||z_k - y_k|| and the objective, as arrays with one row per iteration, each
computed once, by the run's loop.  The optimality residual
||df(y_k) + dg(z_k)|| is ||z_k - y_k|| / alpha by the exact identity
z_k - y_k = -alpha (df(y_k) + dg(z_k)), and is derived where it is read.
ADMM is DRS after a change of variables, and DRS a system in its state
alone: DRS's y and z and ADMM's x, u and z are outputs of the state, which
a trace recomputes when a column is read instead of holding it.  Nor does a
run hold them: it evaluates the objective in 512-row blocks.  A trace holds
only the rows its loop computed, in every column; a replayed cycle adds its
replay point, through which every column is read.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .funclass import _positive
from .prox import ProxOperator

__all__ = [
    "DrsParams",
    "TraceRecord",
    "Trace",
    "drs_run",
    "admm_run",
    "lyapunov_series",
    "solve_reference",
    "write_trace_csv",
]


@dataclass(frozen=True)
class DrsParams:
    """Step size, relaxation schedule, iteration cap, and stopping tolerance.

    ``lam`` is either a constant relaxation parameter (any value with
    ``np.ndim(lam) == 0``, a 0-d array included) or an explicit 1-D
    per-iteration sequence with at least ``max_iters`` (an integer) entries.
    """

    alpha: float
    lam: Union[float, Sequence[float]] = 1.0
    max_iters: int = 1000
    stop_tol: float = 0.0

    def __post_init__(self):
        _positive("alpha", self.alpha)
        if operator.index(self.max_iters) < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.stop_tol >= 0:
            raise ValueError(f"stop_tol must be >= 0, got {self.stop_tol}")
        if np.ndim(self.lam) == 0:
            _positive("lambda", self.lam)
        else:
            seq = np.asarray(self.lam, dtype=float)
            if seq.ndim != 1:
                raise ValueError(f"relaxation sequence must be 1-D, got shape {seq.shape}")
            if len(seq) < self.max_iters:
                raise ValueError("relaxation sequence shorter than max_iters")
            for extreme in (seq.min(), seq.max()):
                _positive("every lambda of the sequence", extreme)


@dataclass
class TraceRecord:
    """One iteration as the trace holds it: state, residuals, and objective
    when evaluable."""

    k: int
    x: np.ndarray
    fp_residual: float
    subgrad_residual: float
    objective: Optional[float] = None


@dataclass
class Trace:
    """Iteration columns plus terminal status and terminal state.

    Row k of ``x``, ``y`` and ``z`` (shape iterations x n) and entry k of
    ``fp_residual`` and ``objective`` (length iterations; ``objective`` is
    None when F is not evaluable) describe iteration k.  The columns are
    read-only; ``records`` presents the rows of x and the scalar columns as
    TraceRecord objects.  The residual ||df(y_k) + dg(z_k)|| is not held:
    its readers derive it as fp_residual / alpha with the trace's alpha.

    A trace holds the rows 0 .. k-1 that its DRS loop computed, of the state
    t, fp and the objective, and a replayed cycle its replay point and
    length (k, p, iterations): loop row i >= k is row k - p + (i - k) mod p,
    and every column is read through that row map in one gather, which makes
    the column and an index of its length.  Each read of a column other than
    a held one recomputes it from t with the loop's f, g and alpha,
    y_i = prox_{af}(t_i) and z_i = prox_{ag}(2 y_i - t_i), in the loop's
    arithmetic and on the held rows alone, so every row is bitwise the run's
    (see ``ProxOperator.evaluate``), and maps the rows.  A ``drs_run``
    trace's x is t.  An ``admm_run`` trace is of the loop on (g, f): its x
    is (x_0, z[:-1]), its y = u is (u_0, (t - y)[:-1]) and its z is y.
    """

    _t: np.ndarray = field(repr=False)
    _fp: np.ndarray = field(repr=False)
    _objective: Optional[np.ndarray] = field(default=None, repr=False)
    status: str = "iteration-limit"
    x_final: Optional[np.ndarray] = None
    _ops: Optional[tuple] = field(default=None, repr=False)  # (f, g, alpha) of the DRS loop
    _first: Optional[tuple] = field(default=None, repr=False)  # (x_0, u_0) of an admm_run
    _replay: Optional[tuple] = field(default=None, repr=False)  # (k, p, iterations) of a replay

    def __post_init__(self):
        for c in (self._t, self._fp, self._objective):
            if c is not None:
                c.flags.writeable = False

    def __len__(self):
        return len(self._fp) if self._replay is None else self._replay[2]

    @property
    def x(self) -> np.ndarray:
        return self._column("x")[0]

    @property
    def y(self) -> np.ndarray:
        return self._column("y")[0]

    @property
    def z(self) -> np.ndarray:
        return self._column("z")[0]

    @property
    def fp_residual(self) -> np.ndarray:
        return self._column("fp_residual")[0]

    @property
    def objective(self) -> Optional[np.ndarray]:
        return None if self._objective is None else self._column("objective")[0]

    def _shift(self, name: str) -> int:
        """1 for an ADMM x or u, whose row j > 0 is of loop row j - 1, else 0."""
        return int(self._first is not None and name in ("x", "y"))

    def _held(self, *names: str) -> list:
        """Columns ``names`` on the held rows: for each an array whose row
        shift + i is of loop row i < len(t), and whose row 0 is x_0 or u_0
        when shift is 1.  fp, the objective and a ``drs_run`` trace's x (the
        held t) are held; every other column is computed one held row at a
        time, with y_i and z_i computed once for all of ``names``, in
        ``_drs``'s arithmetic."""
        t, n = self._t, len(self)
        held = {"fp_residual": self._fp, "objective": self._objective}
        if self._first is None:
            held["x"] = t
        cols, todo = [], []
        for name in names:
            if name in held:
                cols.append(held[name])
                continue
            s = self._shift(name)
            # ADMM's x_j is z_{j-1}, u_j t_{j-1} - y_{j-1}, z_j y_j
            q = {"x": "z", "y": "u", "z": "y"}[name] if self._first is not None else name
            col = np.empty((s + min(n - s, len(t)),) + t.shape[1:])
            if s:
                col[0] = self._first[q == "u"]
            cols.append(col)
            todo.append((q, col[s:]))
        if todo:
            f, g, a = self._ops
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(max(len(rows) for _, rows in todo)):
                    x = t[i]
                    y = f.evaluate(x, a)
                    for q, rows in todo:
                        if i < len(rows):
                            rows[i] = (y if q == "y" else np.subtract(x, y) if q == "u"
                                       else g.evaluate(np.subtract(np.multiply(y, 2.0), x), a))
        for col in cols:
            col.flags.writeable = False
        return cols

    def _column(self, *names: str) -> list:
        """Columns ``names``, each read from ``_held`` through ``_map``."""
        out = [self._map(col, name) for name, col in zip(names, self._held(*names))]
        for col in out:
            col.flags.writeable = False
        return out

    def _map(self, held: np.ndarray, name: str) -> np.ndarray:
        """Column ``name``, one entry or row per trace row, from ``held``, one
        per held row: after a replay one gather, through an index built in
        place, of row j for j < m = shift + k, else m - p + (j - m) mod p."""
        if self._replay is None:
            return held
        k, p, n = self._replay
        m = self._shift(name) + k
        index = np.arange(n)
        tail = index[m:]
        np.remainder(np.subtract(tail, m, out=tail), p, out=tail)
        tail += m - p
        return held[index]

    @property
    def records(self) -> "_Records":
        return _Records(self)

    def objectives(self) -> np.ndarray:
        """A writable copy of ``objective``, NaN throughout when F is not evaluable."""
        if self._objective is None:
            return np.full(len(self), math.nan)
        return self._map(self._objective, "objective") if self._replay else self._objective.copy()


def _held_row(i: int, replay: tuple) -> int:
    """The held row of one loop row i of a run replayed from row k with
    period p, replay = (k, p, iterations): i below k, else k - p + (i - k) mod p."""
    k, p, _ = replay
    return i if i < k else k - p + (i - k) % p


class _Records(Sequence):
    """Read-only sequence view of a Trace's rows as TraceRecord objects; reads
    the held rows of x once, at the first row read, and each record's
    values at one held row (x's own on an ADMM trace, shifted by one)."""

    def __init__(self, trace: Trace):
        self._trace, self._x, self._shift = trace, None, trace._shift("x")

    def __len__(self):
        return len(self._trace)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        t, k = self._trace, range(len(self))[i]
        if self._x is None:
            (self._x,) = t._held("x")
        r = t._replay
        h = k if r is None else _held_row(k, r)  # of fp and the objective, and a DRS x
        x = self._x[h if r is None or not self._shift else 1 + _held_row(k - 1, r)]
        fp = t._fp[h]
        obj = None if t._objective is None else float(t._objective[h])
        return TraceRecord(k, x, float(fp), float(fp / t._ops[2]), obj)


def _objective(f: ProxOperator, g: ProxOperator, at_f, at_g):
    """f(at_f) + g(at_g) at one point or along the rows of two stacks; None
    when either function is not evaluable."""
    vf, vg = f.objective(at_f), g.objective(at_g)
    return None if vf is None or vg is None else vf + vg


def _relaxations(params: DrsParams):
    """lam_0, lam_1, ... as floats, one per iteration up to max_iters."""
    if np.ndim(params.lam) == 0:
        return itertools.repeat(float(params.lam), params.max_iters)
    return np.asarray(params.lam, dtype=float)[:params.max_iters].tolist()


_FIRST_ROWS = 1024  # initial row capacity of a run, doubled up to max_iters
_BLOCK_ROWS = 512  # rows per objective window, and per block of the Lyapunov distances
_CSV_ROWS = 4096  # trace CSV rows formatted and written per block
_REFERENCE_ITERS = 2_000_000  # the least iteration cap of a reference solve


class _Rows:
    """Rows of one run: x_0 .. x_cap in a (cap + 1, n) column, so that x_{k+1}
    has a row whenever iteration k runs, fp_k for k < cap, and the objective
    column, which ``ops`` = (f, g) gives as F(z_k) = f(z_k) + g(z_k).  cap
    starts at _FIRST_ROWS and is doubled as needed up to max_iters;
    ``resize`` grows and trims the columns in place with ``ndarray.resize``,
    a realloc that frees the old buffer: no view of a column may outlive a
    resize.  Every run is trimmed to its k computed rows at its end.

    ``store(k, y, z, fp)`` keeps row k and returns the stop verdict,
    fp_k <= stop_tol.  z_k goes into row k % B of a ring of B = _BLOCK_ROWS
    rows, the last of ``points`` (f is evaluated on the first, g on the
    last).  ``_evaluate(hi)`` evaluates the aligned block of rows
    lo = (hi - 1) // B * B .. hi - 1, the first hi - lo rows of the ring, as
    one window: ``store`` each block of B rows once it is full, ``flush``
    the rows after the last full block.  Each row is evaluated once.  A
    window that gives no value (an f or g not evaluable) drops the objective
    column, and no later window is evaluated.
    """

    def __init__(self, params: DrsParams, n: int, ops: tuple, buffers: int = 1):
        self.limit, self.tol, self.ops = params.max_iters, params.stop_tol, ops
        cap = min(self.limit, _FIRST_ROWS)
        self.cols = [np.empty((cap + 1, n)), np.empty(cap), np.empty(cap)]  # x, fp, objective
        self.points = np.empty((buffers, min(self.limit, _BLOCK_ROWS), n))
        self.z = self.points[-1]

    def store(self, k: int, y, z, fp: float) -> bool:
        self.z[k % _BLOCK_ROWS] = z
        self.cols[1][k] = fp
        if (k + 1) % _BLOCK_ROWS == 0:
            self._evaluate(k + 1)
        return fp <= self.tol

    def resize(self, cap):
        """Change cap in place, keeping the rows both sizes hold."""
        for c, rows in zip(self.cols, (cap + 1, cap, cap)):
            if c is not None:
                c.resize((rows,) + c.shape[1:], refcheck=False)

    def flush(self, k: int):
        """Evaluate the objective of the rows up to k after the last block."""
        if k % _BLOCK_ROWS:
            self._evaluate(k)

    def _evaluate(self, hi: int):
        """Objective of the block lo = (hi - 1) // B * B .. hi - 1 as one window."""
        obj = self.cols[2]
        if obj is None:
            return
        lo = (hi - 1) // _BLOCK_ROWS * _BLOCK_ROWS
        window = self.points[:, :hi - lo]
        values = _objective(*self.ops, window[0], window[-1])
        if values is None:
            self.cols[2] = None
        else:
            obj[lo:hi] = values


class _AdmmRows(_Rows):
    """Rows of ``admm_run``, the DRS loop on (g, f): ADMM's x_k = DRS z_{k-1}
    (x_0 at k = 0) and z_k = DRS y_k go into two buffers, whose windows give
    the objective f(x) + g(z); fp_k is the primal residual ||x_k - z_k||, and
    the stop rule ADMM's.  DRS z_k is copied into ``last`` for row k + 1."""

    def __init__(self, params: DrsParams, x0: np.ndarray, ops: tuple):
        super().__init__(params, len(x0), ops, buffers=2)
        self.x, self.last, self.alpha = self.points[0], x0.copy(), params.alpha

    def store(self, k: int, y, z, fp: float) -> bool:
        self.x[k % _BLOCK_ROWS] = self.last
        p = self.last - y
        self.last[:] = z
        if not super().store(k, None, y, math.sqrt(np.dot(p, p))):
            return False
        d = y - self.z[(k - 1) % _BLOCK_ROWS] if k else y
        return math.sqrt(np.dot(d, d)) / self.alpha <= self.tol


def _start(name: str, v) -> np.ndarray:
    """A run's start as a float vector; any other shape is refused by name."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


class _NonFinite(RuntimeError):
    """A non-finite ``name`` iterate at iteration ``k`` of a run."""

    def __init__(self, name: str, k: int):
        super().__init__(f"non-finite {name} iterate at iteration {k}")
        self.name, self.k = name, k


def _drs(f: ProxOperator, g: ProxOperator, params: DrsParams, x0: np.ndarray,
         rows: Optional[_Rows]):
    """The DRS recursion from x0, storing its rows in ``rows`` unless None.

    Stops after the first iteration k that meets the stop rule, whose x_final
    is x_k, or after max_iters iterations, whose x_final is x_{k+1}.  The
    rule is ``rows.store``'s verdict on row k, ||z_k - y_k|| <= stop_tol
    without rows.  Returns (iterations, x_final, status, period), status
    "converged" after a stop and "iteration-limit" otherwise; x_final is a
    copy of its own.

    With a constant lambda one step is a function of x alone, so once x_k
    equals an earlier x_{k-p} byte for byte every later iterate repeats with
    period p, and none of them meets ||z - y|| <= stop_tol.  Without rows,
    the loop then returns at the top of iteration k with period p > 0 and
    x_final = x_k, and x_k is compared with the iterate marked at iteration
    0 or at the last power of two (Brent 1980), which needs O(n) memory but
    finds a period p only at the first mark after both the cycle's start
    and p.  With rows, a cycle is found at its first repeat: a dict maps the
    hash of each x_j's bytes to j, and a hit is confirmed against the stored
    row.  Iteration k is then computed, stored and tested like any other,
    and the loop returns after it (k + 1 iterations) with period p and
    x_final = x_{k+1}; every row from k + 1 on repeats a stored one.
    period is 0 otherwise.

    Each iterate is written once: x_{k+1} = x_k + lam_k (z_k - y_k) goes
    straight into row k + 1, which x_{k+1} then is a view of (re-taken after
    the rows grow), or, without rows, into one of two vectors used in turn.
    2 y_k - x_k and z_k - y_k are computed into two work vectors that every
    iteration reuses.  ``rows.store`` copies what it keeps of y_k and z_k
    into its buffers.

    Shapes are checked at iteration 0.  The y and z iterates are scanned for
    non-finite entries only when ||z_k - y_k|| is not finite.  The x iterate
    is scanned only once the running bound B_0 = ||x_0||,
    B_{k+1} = B_k + lam_k ||z_k - y_k||, which bounds ||x_{k+1}|| up to
    rounding, is not below 1e300: below it, x_{k+1} is finite.  Each run
    calls it inside its one errstate, so overflow and NaN do not warn.
    """
    a = params.alpha
    f_eval, g_eval = f.evaluate, g.evaluate
    periodic = np.ndim(params.lam) == 0
    mark, marked = None, 0  # Brent's mark, without rows
    seen, period = {}, 0  # hash of x_j's bytes -> j, and the period found, with rows
    x = np.array(x0, dtype=float)
    spare = (x, np.empty_like(x))  # x_{k+1} without rows: spare[(k + 1) % 2]
    v, d = np.empty_like(x), np.empty_like(x)  # 2 y_k - x_k; lam_k (z_k - y_k)
    if rows is not None:
        X, FP = rows.cols[:2]
        X[0] = x
        x = X[0]
    store = rows.store if rows is not None else lambda k, y, z, fp: fp <= params.stop_tol
    bound = math.sqrt(x @ x)
    for k, lam in enumerate(_relaxations(params)):
        if rows is not None and k == len(FP):
            rows.resize(min(2 * k, rows.limit))
            x = X[k]
        if periodic:
            key = x.tobytes()
            if rows is None:
                if key == mark:
                    return k, x.copy(), "iteration-limit", k - marked
                if k & (k - 1) == 0:
                    mark, marked = key, k
            else:
                j = seen.setdefault(hash(key), k)
                if j != k and X[j].tobytes() == key:
                    period = k - j
        y = f_eval(x, a)
        if not k and y.shape != x.shape:
            raise ValueError("dimension mismatch between prox outputs and x0")
        np.multiply(y, 2.0, out=v)
        z = g_eval(np.subtract(v, x, out=v), a)
        if not k and z.shape != x.shape:
            raise ValueError("dimension mismatch between prox outputs and x0")
        np.subtract(z, y, out=d)
        fp = math.sqrt(np.dot(d, d))
        # a norm is finite whenever its arrays are, so the arrays are
        # scanned only when one overflows
        if not math.isfinite(fp):
            for name, w in (("y", y), ("z", z)):
                if not np.isfinite(w).all():
                    raise _NonFinite(name, k)
        if store(k, y, z, fp):
            return k + 1, x.copy(), "converged", 0
        if lam != 1.0:  # 1.0 * d is d, bit for bit
            np.multiply(d, lam, out=d)
        nxt = spare[(k + 1) & 1] if rows is None else X[k + 1]
        x = np.add(x, d, out=nxt)
        bound += lam * fp
        if (not bound < 1e300 and not math.isfinite(x @ x)
                and not np.isfinite(x).all()):
            raise _NonFinite("x", k)
        if period:
            break
    return k + 1, x.copy(), "iteration-limit", period


def drs_run(f: ProxOperator, g: ProxOperator, params: DrsParams, x0: np.ndarray) -> Trace:
    """Run Douglas-Rachford splitting on f + g from x0.

        y_k = prox_{af}(x_k);  z_k = prox_{ag}(2 y_k - x_k);
        x_{k+1} = x_k + lam_k (z_k - y_k).

    ``x0`` must be a 1-D vector.  Stops when ||z_k - y_k|| <= stop_tol or
    the iteration cap is reached.  Records every state x_k and the scalar
    columns; the trace recomputes y_k and z_k from x_k when they are read.
    The objective column is F evaluated at z_k when both function values
    are evaluable.  It is filled as the loop runs, inside the run's one
    errstate, and the run holds no z column: z_k goes into row k % 512 of a
    ring of 512 rows, and F is evaluated on each aligned block of 512 rows,
    as one window once the block is full, and on the rows after the last
    full block as one last window.  Each value is F on its window.  Like
    every output, its bits hold for one numpy build and BLAS kernel.

    With a constant lambda, a run is not iterated past the first k whose
    iterate x_k repeats an earlier x_{k-p} exactly (as runs at rounding level
    do): the trace holds the k + 1 rows computed, 0 .. k, of x, fp and the
    objective, and the period, and gives every later row of every column as
    a row of the period in turn (see ``Trace``); x_final is the row the
    period gives for iteration max_iters, and the status is
    "iteration-limit".  Every value is the one the full loop would compute,
    as each prox is a deterministic function of its arguments.
    """
    x0 = _start("x0", x0)
    with np.errstate(over="ignore", invalid="ignore"):
        *columns, replay = _drs_rows(f, g, params, x0, _Rows(params, len(x0), (f, g)))
        return Trace(*columns, (f, g, params.alpha), _replay=replay)  # x, fp, obj, status, x_final


def _drs_rows(f: ProxOperator, g: ProxOperator, params: DrsParams, x0: np.ndarray, rows: _Rows):
    """The DRS loop on ``rows``: its x, fp and objective columns trimmed to
    the k rows computed, the trace status, x_final and, for a replayed
    cycle, the replay point and length (k, p, max_iters), else None.  The
    x_final of a replayed cycle is the held row of x_{max_iters}."""
    k, x_final, status, period = _drs(f, g, params, x0, rows)
    rows.flush(k)
    rows.resize(k)
    X, FP, objective = rows.cols
    replay = (k, period, params.max_iters) if period else None
    x_final = X[_held_row(params.max_iters, replay)].copy() if replay else x_final
    # x keeps its extra row behind a view: a one-row trim fragments the heap
    return X[:k], FP, objective, status, x_final, replay


def admm_run(f_prox: ProxOperator, g_prox: ProxOperator, params: DrsParams, u0: np.ndarray) -> Trace:
    """Relaxed ADMM on min f(x) + g(z), x - z = 0, from z = 0 with scaled dual u:

        x+ = prox_{af}(z - u);  v = lam x+ + (1 - lam) z;
        z+ = prox_{ag}(v + u);  u+ = u + v - z+.

    The trace gives x = x+, y = u (dual), z = z+, with the primal residual
    ||x+ - z+|| in fp_residual and f(x+) + g(z+) in objective.  The run
    stops at the first row whose primal residual and dual residual
    ||z+ - z|| / alpha are both <= stop_tol (Boyd et al. 2011, sec. 3.3).
    With t = v + u this is ``drs_run(g, f)`` (Eckstein & Bertsekas 1992)
    from t_0 = lam_0 x_0 + u_0, x_0 = prox_{af}(-u_0), DRS lam_k being ADMM
    lam_{k+1}: row k is x = DRS z[k-1], u = DRS x[k-1] - DRS y[k-1], z = DRS
    y[k], with x_0, u_0 and z = 0 before row 0; the trace holds the computed
    rows of t, fp and the objective, x_0 and u_0, and maps every column
    (see ``Trace``).  DRS tests the rule on row k once it has DRS y[k],
    each residual ``math.sqrt(np.dot(d, d))`` as DRS's ||z - y||, and the
    primal residual the test computes is the row's fp_residual, so a
    converged trace ends at the first row that meets it by the residuals it
    stores.  The objective has ``drs_run``'s windows, on x and z.  x_final
    is the last DRS y computed, or after a replayed cycle one prox of g at
    the held t of the last row.  ``u0`` must be a 1-D vector; t_0 and the
    objective are computed inside the run's one errstate, so an overflow
    there is not warned.
    """
    a, tol, limit = params.alpha, params.stop_tol, params.max_iters
    u0 = _start("u0", u0)
    x0 = f_prox.evaluate(-u0, a)
    if not np.isfinite(x0).all():
        raise _NonFinite("x", 0)
    lam = params.lam if np.ndim(params.lam) == 0 else np.asarray(params.lam, dtype=float)[:limit]
    lams = lam if np.ndim(lam) == 0 else np.append(lam[1:], lam[-1])  # shifted; the pad is unused
    drs = DrsParams(a, lams, limit, tol)
    rows = _AdmmRows(drs, x0, (f_prox, g_prox))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            T, fp, objective, status, _, replay = _drs_rows(
                g_prox, f_prox, drs, np.ravel(lam)[0] * x0 + u0, rows)
        except _NonFinite as e:
            name, k = {"y": ("z", e.k), "z": ("x", e.k + 1), "x": ("u", e.k + 1)}[e.name]
            raise _NonFinite(name, k) from None
        z = (g_prox.evaluate(T[_held_row(limit - 1, replay)], a) if replay
             else rows.z[(len(T) - 1) % _BLOCK_ROWS].copy())
        return Trace(T, fp, objective, status, z, (g_prox, f_prox, a), (x0, u0.copy()), replay)


def lyapunov_series(trace: Trace, case, theta, x_star: np.ndarray,
                    F_star: Optional[float] = None) -> np.ndarray:
    """Lyapunov values V_k along a trace, one per recorded iteration.

    Case 1: V_k = ||x_k - x*||^2 + sum_{i<k} theta_i ||df(y_i) + dg(z_i)||^2,
            the residual derived as fp_residual / alpha.
    Case 2: V_k = ||x_k - x*||^2 + sum_{i<k} theta_i [F(z_i) - F*].
    Case 3: V_k = ||x_k - x*||^2.

    ``theta`` is a constant or a sequence with at least one entry per
    iteration.  The distances are computed on the trace's held rows of x,
    which it reads once, in blocks of 512 rows through one buffer, and
    mapped to the rows they hold, so no temporary of the trace's size is
    made; each row is reduced on its own, so its sum keeps its bits.
    """
    from .certify import CertCase

    case = CertCase(case)
    n = len(trace)
    xs = np.asarray(x_star, dtype=float).reshape(-1)
    if xs.size != trace._t.shape[1]:
        raise ValueError(f"x_star has {xs.size} entries but the iterates have {trace._t.shape[1]}")

    (held,) = trace._held("x")
    dist = np.empty(len(held))
    buf = np.empty((min(len(held), _BLOCK_ROWS), xs.size))
    for lo in range(0, len(held), _BLOCK_ROWS):
        rows = held[lo:lo + _BLOCK_ROWS]
        block = np.subtract(rows, xs, out=buf[:len(rows)])
        np.square(block, out=block)
        np.add.reduce(block, axis=1, out=dist[lo:lo + len(rows)])
    dist = trace._map(dist, "x")
    if case is CertCase.CASE3:
        return dist
    if np.ndim(theta) == 0:
        th = float(theta)
    else:
        th = np.asarray(theta, dtype=float)[:n]
        if len(th) < n:
            raise ValueError(f"theta has {len(th)} entries for a trace of {n} iterations")
    if case is CertCase.CASE1:
        incr = th * (trace.fp_residual / trace._ops[2]) ** 2
    else:
        if F_star is None:
            raise ValueError("Case 2 Lyapunov values require F_star")
        if trace._objective is None:
            raise ValueError("the trace has no objective column: f or g is not evaluable")
        incr = th * (trace.objective - F_star)
    running = np.concatenate(([0.0], np.cumsum(incr)[:-1]))
    return dist + running


def solve_reference(f: ProxOperator, g: ProxOperator, params: DrsParams, x0: np.ndarray):
    """High-precision fixed point: (x*, y*, F*) with ||z - y|| <= 1e-12.

    Reruns the iteration from the 1-D vector x0 with a tight tolerance and a
    large iteration cap, keeping only the current iterate, so memory is O(n)
    however many iterations it takes; the terminal y (equal to z within
    tolerance) is the minimizer and F* is the objective there.  Raises
    RuntimeError when the cap is reached, or as soon as the iterates repeat
    exactly (their rounding floor lies above the tolerance, which they can
    then never reach), naming the period and the iteration it was found from.
    """
    cap = max(params.max_iters, _REFERENCE_ITERS)
    ref = DrsParams(alpha=params.alpha, lam=params.lam if np.ndim(params.lam) == 0 else 1.0,
                    max_iters=cap, stop_tol=1e-12)
    x0 = _start("x0", x0)
    with np.errstate(over="ignore", invalid="ignore"):
        k, x_final, status, period = _drs(f, g, ref, x0, None)
        y = f.evaluate(x_final, ref.alpha)  # the terminal y and z, as the loop computed them
        z = g.evaluate(np.subtract(np.multiply(y, 2.0), x_final), ref.alpha)
    if period:
        raise RuntimeError(
            "reference solve did not reach ||z - y|| <= 1e-12: the iterates "
            f"repeat with period {period} from iteration {k - period}, so no "
            "iteration cap would suffice"
        )
    if status != "converged":
        raise RuntimeError(
            f"reference solve did not reach ||z - y|| <= 1e-12 in {cap} "
            "iterations; increase the iteration cap"
        )
    F_star = _objective(f, g, z, z)
    return x_final, y, None if F_star is None else float(F_star)


def write_trace_csv(trace: Trace, path, lyapunov: Optional[np.ndarray] = None):
    """Trace CSV: columns k, fp_residual, subgrad_residual, objective, V.

    subgrad_residual, ||df(y_k) + dg(z_k)||, is derived as fp_residual / alpha
    with the trace's alpha.  Floats are written with ``repr``; the objective
    and V cells are blank when the trace has no objective or no Lyapunov
    values are given.  The bytes are those of the csv module's default
    dialect (rows end in CRLF).  Rows are written in blocks of _CSV_ROWS,
    each stacked from the columns as it is written, with ``repr`` run once
    per distinct float64 bit pattern in a block, as runs at rounding level
    repeat their values, and each row joined from its cells.
    """
    n = len(trace)
    if lyapunov is not None and len(lyapunov) < n:
        raise ValueError(f"lyapunov has {len(lyapunov)} values for a trace of {n} iterations")
    fp = trace.fp_residual
    columns = (fp, fp / trace._ops[2], trace.objective, lyapunov)
    values = [np.asarray(c, dtype=float)[:n] for c in columns if c is not None]
    with open(path, "w", newline="") as fh:
        fh.write("k,fp_residual,subgrad_residual,objective,V\r\n")
        for start in range(0, n, _CSV_ROWS):
            block = np.array([c[start:start + _CSV_ROWS] for c in values])
            bits, index = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
            filled = iter(text[index.reshape(block.shape)].tolist())
            m = block.shape[1]
            cells = [itertools.repeat("", m) if c is None else next(filled) for c in columns]
            rows = zip(map(str, range(start, start + m)), *cells)
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")
