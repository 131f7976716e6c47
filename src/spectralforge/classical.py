"""Classical analogue: Hamiltonians that depend only on action variables.

The spectrum table E at multi-index I becomes a smooth-enough function of
the actions J_i = (x_i^2 + p_i^2 - 1)/2 via tensor cubic-spline
interpolation on the integer nodes.  Every such Hamiltonian conserves each
action exactly along the continuous flow; the integrator report bounds the
numerical drift.

The not-a-knot spline is built once, as a table of power-basis
coefficients per unit cell, from one tridiagonal solve per mode for the
node slopes (``_not_a_knot``, by ``scipy.linalg.solve_banded``).  Every
evaluation reads that table with Horner's rule: in numpy for values and
gradients at many points, and on plain Python floats inside the RK4 loop,
which makes no numpy call per step.
That loop is unrolled once per mode count on the flat state (x1, p1[, x2, p2]),
so a step builds no list or tuple of pairs; the path is one flat list of
floats, reshaped once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np
from scipy.linalg import solve_banded

from . import pairing
from .errors import CapacityError, InputError
from .spectra import as_spectrum

NODE_MATCH_TOL = 1e-12
FLOW_DOMAIN_TOL = 1e-6
MAX_FLOW_STEPS = 10**7  # about 1.3 GB of path as Python floats
MIN_FREQUENCY = 1e-12  # a table whose frequencies all lie below it has no motion
_DERIVATIVE_WEIGHTS = np.array([3.0, 2.0, 1.0])  # d/dt of t^3, t^2, t


@dataclass(frozen=True)
class ActionTable:
    """Energy values on the integer action grid {0..K-1}^n with a spline extension.

    The spline is one member of the uncountable family of valid smooth
    extensions; it is C^2, which is enough for the C^1 gradients the flow
    needs.  It is the tensor product of one-dimensional not-a-knot splines,
    built by ``_not_a_knot`` along each mode in turn, and is held as
    ``coeffs``, shape (K-1,)*n + (4,)*n: entry ``coeffs[i][j][a][b]``
    multiplies (J_1 - i)^(3-a) (J_2 - j)^(3-b) on the unit cell at node
    (i, j), and likewise for one mode.
    """

    n: int
    K: int
    values: np.ndarray  # shape (K,) * n
    coeffs: np.ndarray  # shape (K - 1,) * n + (4,) * n

    @classmethod
    def build(cls, seq, n: int, K: int) -> "ActionTable":
        n = int(n)
        K = int(K)
        if n not in (1, 2):
            raise InputError("action tables support 1 or 2 modes")
        if K < 4:
            raise InputError("need at least 4 nodes per mode for a cubic spline")
        arr = as_spectrum(seq)
        corner = pairing.encode((K - 1,) * n)
        if arr.size <= corner:
            raise InputError(
                f"need at least {corner + 1} energies to fill the {K}^{n} node grid"
            )
        grid = np.indices((K,) * n).reshape(n, -1).T  # the nodes in C order
        values = arr[pairing.encode_many(grid)].reshape((K,) * n)
        # tensor-product not-a-knot spline: spline the leading node axis,
        # move its (power, cell) axes last, repeat once per mode
        coeffs = values
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for _ in range(n):
                    coeffs = np.moveaxis(_not_a_knot(coeffs), (0, 1), (-2, -1))
                finite = np.isfinite(coeffs).all()
            except ValueError:  # solve_banded refuses slopes or values that overflowed
                finite = False
        if not finite:
            raise InputError("the action table's spline overflows; rescale the spectrum")
        coeffs = np.ascontiguousarray(
            coeffs.transpose(tuple(range(1, 2 * n, 2)) + tuple(range(0, 2 * n, 2)))
        )
        values.setflags(write=False)
        coeffs.setflags(write=False)
        return cls(n=n, K=K, values=values, coeffs=coeffs)

    def _evaluate(self, J, orders) -> np.ndarray:
        """The interpolant's partial derivative of ``orders`` (0 or 1 per mode)
        at each row of J, by Horner's rule on the cell coefficients."""
        J = np.asarray(J, dtype=float).reshape(-1, self.n)
        cell = np.clip(np.floor(J), 0, self.K - 2).astype(np.intp)
        t = J - cell
        c = self.coeffs[tuple(cell.T)]  # (points,) + (4,) * n
        for axis in reversed(range(self.n)):
            if orders[axis]:
                c = c[..., :-1] * _DERIVATIVE_WEIGHTS
            ta = t[:, axis].reshape((-1,) + (1,) * axis)
            acc = c[..., 0]
            for k in range(1, c.shape[-1]):
                acc = acc * ta + c[..., k]
            c = acc
        return c

    def _actions(self, J) -> np.ndarray:
        """J as n float actions in the table domain [0, K-1], else InputError."""
        J = np.atleast_1d(np.asarray(J, dtype=float))
        if J.size != self.n:
            raise InputError(f"expected {self.n} actions")
        if not ((J >= -NODE_MATCH_TOL) & (J <= self.K - 1 + NODE_MATCH_TOL)).all():
            raise InputError(f"actions {J.tolist()} outside the table domain [0, {self.K - 1}]")
        return J

    def value_at_actions(self, J) -> float:
        return float(self._evaluate(self._actions(J), (0,) * self.n)[0])

    def gradient_at_actions(self, J) -> np.ndarray:
        J = self._actions(J)
        return np.array([self._evaluate(J, orders)[0] for orders in np.eye(self.n, dtype=int)])

    def characteristic_frequency(self) -> float:
        nodes = np.arange(self.K, dtype=float)
        grid = np.stack(np.meshgrid(*[nodes] * self.n, indexing="ij"), axis=-1)
        slopes = [self._evaluate(grid, o) for o in np.eye(self.n, dtype=int)]
        return max(float(np.abs(slopes).max()), MIN_FREQUENCY)

    def _float_frequencies(self):
        """The frequencies w_i = dE/dJ_i at a phase point, on Python floats.

        The returned function takes the phase point as flat floats
        (x1, p1[, x2, p2]), clips each action to the table domain and
        evaluates the same Horner scheme as ``gradient_at_actions`` without
        numpy, for the flow's inner loop.  It returns the n frequencies as
        a tuple.
        """
        lo, hi, last = 0.0, float(self.K - 1), self.K - 2
        cells = self.coeffs.reshape(self.coeffs.shape[: self.n] + (-1,)).tolist()

        def cell(x, p):
            J = 0.5 * (x * x + p * p - 1.0)
            J = lo if J < lo else hi if J > hi else J
            i = min(int(J), last)
            return i, J - i

        if self.n == 1:

            def frequencies(x, p):
                i, u = cell(x, p)
                c0, c1, c2, _ = cells[i]
                return ((3.0 * c0 * u + 2.0 * c1) * u + c2,)

            return frequencies

        def frequencies(x1, p1, x2, p2):
            i, u = cell(x1, p1)
            j, v = cell(x2, p2)
            (a0, a1, a2, a3, b0, b1, b2, b3,
             c0, c1, c2, c3, d0, d1, d2, _) = cells[i][j]
            # row a is a cubic in v: its value r_a and its v-derivative s_a
            r0 = ((a0 * v + a1) * v + a2) * v + a3
            r1 = ((b0 * v + b1) * v + b2) * v + b3
            r2 = ((c0 * v + c1) * v + c2) * v + c3
            s0 = (3.0 * a0 * v + 2.0 * a1) * v + a2
            s1 = (3.0 * b0 * v + 2.0 * b1) * v + b2
            s2 = (3.0 * c0 * v + 2.0 * c1) * v + c2
            s3 = (3.0 * d0 * v + 2.0 * d1) * v + d2
            return (
                (3.0 * r0 * u + 2.0 * r1) * u + r2,
                ((s0 * u + s1) * u + s2) * u + s3,
            )

        return frequencies


def _not_a_knot(y) -> np.ndarray:
    """Power-basis coefficients of the not-a-knot cubic spline through y on the nodes 0..K-1.

    Splines along axis 0 of y, K >= 4.  The result has shape
    (4, K-1) + y.shape[1:]: entry [a, i] multiplies (x - i)^(3-a) on the
    cell [i, i+1].  The node slopes s solve the tridiagonal system of de Boor
    (A Practical Guide to Splines, ch. IV) with every spacing 1, whose first
    and last rows make the third derivative continuous at nodes 1 and K-2.
    These are the operations of SciPy's not-a-knot interpolating spline on
    unit spacing, and the tests compare the two.  A right-hand side that
    overflowed raises ``ValueError``.
    """
    K = y.shape[0]
    m = np.diff(y, axis=0)
    rhs = np.empty_like(y)
    rhs[0] = (5 * m[0] + m[1]) / 2
    rhs[1:-1] = 3 * (m[:-1] + m[1:])
    rhs[-1] = (m[-2] + 5 * m[-1]) / 2
    bands = np.ones((3, K))  # upper, main and lower diagonals
    bands[1, 1:-1] = 4.0
    bands[0, 1] = bands[2, -2] = 2.0
    s = solve_banded((1, 1), bands, rhs.reshape(K, -1)).reshape(y.shape)
    t = s[:-1] + s[1:] - 2 * m
    return np.stack((t, m - s[:-1] - t, s[:-1], y[:-1]))


def actions_of(z_x, z_p) -> np.ndarray:
    x = np.atleast_1d(np.asarray(z_x, dtype=float))
    p = np.atleast_1d(np.asarray(z_p, dtype=float))
    return 0.5 * (x**2 + p**2 - 1.0)


@dataclass(frozen=True)
class FlowReport:
    times: np.ndarray
    xs: np.ndarray  # (steps+1, n)
    ps: np.ndarray
    actions: np.ndarray  # (steps+1, n)
    energies: np.ndarray
    max_action_drift: float
    max_energy_drift: float
    truncated: bool

    def trajectory_csv(self) -> str:
        n = self.xs.shape[1]
        header = ["t", *(f"{c}{i + 1}" for c in "xpJ" for i in range(n)), "energy"]
        rows = np.column_stack((self.times, self.xs, self.ps, self.actions, self.energies))
        lines = [",".join(header), *(",".join(f"{v:.17g}" for v in row) for row in rows.tolist())]
        return "\n".join(lines) + "\n"


def _rk4_one_mode(frequencies, x, p, dt, steps, lo, hi):
    """RK4 on the phase point (x, p); returns the flat path and the truncation flag.

    A step whose action leaves [lo, hi] is rejected and ends the path.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    path = [x, p]
    for _ in range(steps):
        (w,) = frequencies(x, p)
        a1, b1 = w * p, -w * x
        u, v = x + half * a1, p + half * b1
        (w,) = frequencies(u, v)
        a2, b2 = w * v, -w * u
        u, v = x + half * a2, p + half * b2
        (w,) = frequencies(u, v)
        a3, b3 = w * v, -w * u
        u, v = x + dt * a3, p + dt * b3
        (w,) = frequencies(u, v)
        a4, b4 = w * v, -w * u
        u = x + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
        v = p + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
        if not lo <= 0.5 * (u * u + v * v - 1.0) <= hi:
            return path, True
        x, p = u, v
        path += (x, p)
    return path, False


def _rk4_two_modes(frequencies, x1, p1, x2, p2, dt, steps, lo, hi):
    """RK4 on the phase point (x1, p1, x2, p2), as ``_rk4_one_mode`` for two modes."""
    half, sixth = 0.5 * dt, dt / 6.0
    path = [x1, p1, x2, p2]
    for _ in range(steps):
        w1, w2 = frequencies(x1, p1, x2, p2)
        a1, b1, c1, d1 = w1 * p1, -w1 * x1, w2 * p2, -w2 * x2
        u1, v1, u2, v2 = x1 + half * a1, p1 + half * b1, x2 + half * c1, p2 + half * d1
        w1, w2 = frequencies(u1, v1, u2, v2)
        a2, b2, c2, d2 = w1 * v1, -w1 * u1, w2 * v2, -w2 * u2
        u1, v1, u2, v2 = x1 + half * a2, p1 + half * b2, x2 + half * c2, p2 + half * d2
        w1, w2 = frequencies(u1, v1, u2, v2)
        a3, b3, c3, d3 = w1 * v1, -w1 * u1, w2 * v2, -w2 * u2
        u1, v1, u2, v2 = x1 + dt * a3, p1 + dt * b3, x2 + dt * c3, p2 + dt * d3
        w1, w2 = frequencies(u1, v1, u2, v2)
        a4, b4, c4, d4 = w1 * v1, -w1 * u1, w2 * v2, -w2 * u2
        u1 = x1 + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
        v1 = p1 + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
        u2 = x2 + sixth * (c1 + 2 * c2 + 2 * c3 + c4)
        v2 = p2 + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
        if not (
            lo <= 0.5 * (u1 * u1 + v1 * v1 - 1.0) <= hi
            and lo <= 0.5 * (u2 * u2 + v2 * v2 - 1.0) <= hi
        ):
            return path, True
        x1, p1, x2, p2 = u1, v1, u2, v2
        path += (x1, p1, x2, p2)
    return path, False


def integrate_flow(
    table: ActionTable, x0, p0, T: float, dt: float | None = None
) -> FlowReport:
    """Classic 4th-order one-step integration of the action-only flow.

    Hamilton's equations reduce to xdot_i = w_i(J) p_i, pdot_i = -w_i(J) x_i
    with w_i the partial derivative of the table interpolant.  Reports the
    worst action and energy drift along the trajectory; leaving the
    interpolant domain truncates the trajectory and sets a flag.  More than
    ``MAX_FLOW_STEPS`` steps is refused before anything is allocated.  The
    default ``dt`` is 1e-2 over the largest frequency, and a table with no
    motion, whose frequencies are all below ``MIN_FREQUENCY``, has none.
    """
    if dt is None:
        omega = table.characteristic_frequency()
        if omega <= MIN_FREQUENCY:
            raise InputError(
                f"the action table has no motion: every frequency dE/dJ is below "
                f"{MIN_FREQUENCY:g}, so there is no default time step"
            )
        dt = 1e-2 / omega
    dt = float(dt)
    T = float(T)
    if not (isfinite(dt) and isfinite(T)):
        raise InputError(f"dt and T must be finite, got dt={dt!r}, T={T!r}")
    if dt <= 0 or T < dt:
        raise InputError("require dt > 0 and T >= dt")
    if T / dt > MAX_FLOW_STEPS:
        raise CapacityError(
            f"T / dt = {T / dt:.6g} steps exceeds the flow's cap of {MAX_FLOW_STEPS}"
        )
    steps = int(round(T / dt))

    n = table.n
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    p = np.atleast_1d(np.asarray(p0, dtype=float))
    if x.size != n or p.size != n:
        raise InputError(f"phase point must have {n} positions and momenta")

    lo, hi = 0.0, float(table.K - 1)
    # integrator roundoff may push actions a hair past the nodes; evaluation
    # clips, so only genuine excursions should truncate the trajectory
    lo_edge, hi_edge = lo - FLOW_DOMAIN_TOL, hi + FLOW_DOMAIN_TOL
    J0 = actions_of(x, p)
    if not ((lo_edge <= J0) & (J0 <= hi_edge)).all():
        raise InputError("initial actions outside the interpolant domain")

    state = np.column_stack([x, p]).ravel().tolist()  # flat (x1, p1[, x2, p2])
    rk4 = _rk4_one_mode if n == 1 else _rk4_two_modes
    path, truncated = rk4(table._float_frequencies(), *state, dt, steps, lo_edge, hi_edge)

    phase = np.array(path).reshape(-1, n, 2)
    xs = phase[:, :, 0]
    ps = phase[:, :, 1]
    times = dt * np.arange(phase.shape[0])
    actions = actions_of(xs, ps)
    energies = table._evaluate(np.clip(actions, lo, hi), (0,) * n)
    drift = np.abs(actions - actions[0]).max()
    e_drift = np.abs(energies - energies[0]).max()
    return FlowReport(
        times=times,
        xs=xs,
        ps=ps,
        actions=actions,
        energies=energies,
        max_action_drift=float(drift),
        max_energy_drift=float(e_drift),
        truncated=truncated,
    )
