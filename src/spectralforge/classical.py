"""Classical analogue: Hamiltonians that depend only on action variables.

The spectrum table E at multi-index I becomes a smooth-enough function of
the actions J_i = (x_i^2 + p_i^2 - 1)/2 via tensor cubic-spline
interpolation on the integer nodes.  Every such Hamiltonian conserves each
action exactly along the continuous flow; the integrator report bounds the
numerical drift.

The not-a-knot spline is built once, as a table of power-basis
coefficients per unit cell, and every evaluation reads that table with
Horner's rule: in numpy for values and gradients at many points, and on
plain Python floats inside the RK4 loop, which makes no numpy call per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pairing
from .errors import InputError
from .spectra import as_spectrum

NODE_MATCH_TOL = 1e-12
FLOW_DOMAIN_TOL = 1e-6
_DERIVATIVE_WEIGHTS = np.array([3.0, 2.0, 1.0])  # d/dt of t^3, t^2, t


@dataclass(frozen=True)
class ActionTable:
    """Energy values on the integer action grid {0..K-1}^n with a spline extension.

    The spline is one member of the uncountable family of valid smooth
    extensions; it is C^2, which is enough for the C^1 gradients the flow
    needs.  It is held as ``coeffs``, shape (K-1,)*n + (4,)*n: entry
    ``coeffs[i][j][a][b]`` multiplies (J_1 - i)^(3-a) (J_2 - j)^(3-b) on the
    unit cell at node (i, j), and likewise for one mode.
    """

    n: int
    K: int
    values: np.ndarray  # shape (K,) * n
    coeffs: np.ndarray  # shape (K - 1,) * n + (4,) * n

    @classmethod
    def build(cls, seq, n: int, K: int) -> "ActionTable":
        from scipy.interpolate import CubicSpline  # loaded on use: only the flow splines

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
        nodes = np.arange(K, dtype=float)
        if n == 1:
            values = arr[:K].copy()
        else:
            ranks = pairing.encode_many(
                np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
                .reshape(-1, 2)
                .astype(np.int64)
            )
            values = arr[ranks].reshape(K, K)
        # tensor-product not-a-knot spline: spline the leading node axis,
        # move its (power, cell) axes last, repeat once per mode
        coeffs = values
        for _ in range(n):
            coeffs = np.moveaxis(CubicSpline(nodes, coeffs).c, (0, 1), (-2, -1))
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

    def value_at_actions(self, J) -> float:
        J = np.atleast_1d(np.asarray(J, dtype=float))
        if J.size != self.n:
            raise InputError(f"expected {self.n} actions")
        if not ((J >= -NODE_MATCH_TOL) & (J <= self.K - 1 + NODE_MATCH_TOL)).all():
            raise InputError(
                f"actions {J.tolist()} outside the table domain [0, {self.K - 1}]"
            )
        return float(self._evaluate(J, (0,) * self.n)[0])

    def gradient_at_actions(self, J) -> np.ndarray:
        return np.array(
            [self._evaluate(J, orders)[0] for orders in np.eye(self.n, dtype=int)]
        )

    def characteristic_frequency(self) -> float:
        nodes = np.arange(self.K, dtype=float)
        grid = np.stack(np.meshgrid(*[nodes] * self.n, indexing="ij"), axis=-1)
        slopes = [self._evaluate(grid, o) for o in np.eye(self.n, dtype=int)]
        return max(float(np.abs(slopes).max()), 1e-12)

    def _float_frequencies(self):
        """The frequencies w_i = dE/dJ_i at a phase point, on Python floats.

        The returned function takes the n (x_i, p_i) pairs of a phase point,
        clips their actions to the table domain and evaluates the same
        Horner scheme as ``gradient_at_actions`` without numpy, for the
        flow's inner loop.
        """
        lo, hi, last = 0.0, float(self.K - 1), self.K - 2
        cells = self.coeffs.reshape(self.coeffs.shape[: self.n] + (-1,)).tolist()

        def cell(x, p):
            J = 0.5 * (x * x + p * p - 1.0)
            J = lo if J < lo else hi if J > hi else J
            i = min(int(J), last)
            return i, J - i

        if self.n == 1:

            def frequencies(modes):
                ((x, p),) = modes
                i, u = cell(x, p)
                c0, c1, c2, _ = cells[i]
                return ((3.0 * c0 * u + 2.0 * c1) * u + c2,)

            return frequencies

        def frequencies(modes):
            (x1, p1), (x2, p2) = modes
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
        header = (
            ["t"]
            + [f"x{i+1}" for i in range(n)]
            + [f"p{i+1}" for i in range(n)]
            + [f"J{i+1}" for i in range(n)]
            + ["energy"]
        )
        lines = [",".join(header)]
        for k in range(self.times.size):
            row = (
                [self.times[k]]
                + list(self.xs[k])
                + list(self.ps[k])
                + list(self.actions[k])
                + [self.energies[k]]
            )
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"


def integrate_flow(
    table: ActionTable, x0, p0, T: float, dt: float | None = None
) -> FlowReport:
    """Classic 4th-order one-step integration of the action-only flow.

    Hamilton's equations reduce to xdot_i = w_i(J) p_i, pdot_i = -w_i(J) x_i
    with w_i the partial derivative of the table interpolant.  Reports the
    worst action and energy drift along the trajectory; leaving the
    interpolant domain truncates the trajectory and sets a flag.
    """
    if dt is None:
        dt = 1e-2 / table.characteristic_frequency()
    dt = float(dt)
    T = float(T)
    if dt <= 0 or T < dt:
        raise InputError("require dt > 0 and T >= dt")

    n = table.n
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    p = np.atleast_1d(np.asarray(p0, dtype=float))
    if x.size != n or p.size != n:
        raise InputError(f"phase point must have {n} positions and momenta")
    modes = list(zip(x.tolist(), p.tolist()))  # the state: n (x_i, p_i) pairs

    lo, hi = 0.0, float(table.K - 1)
    frequencies = table._float_frequencies()

    def in_domain(modes):
        # integrator roundoff may push actions a hair past the nodes; evaluation
        # clips, so only genuine excursions should truncate the trajectory
        return all(
            lo - FLOW_DOMAIN_TOL <= 0.5 * (x * x + p * p - 1.0) <= hi + FLOW_DOMAIN_TOL
            for x, p in modes
        )

    if not in_domain(modes):
        raise InputError("initial actions outside the interpolant domain")

    def rhs(modes):
        return [(w * p, -w * x) for w, (x, p) in zip(frequencies(modes), modes)]

    def shifted(modes, h, k):
        return [(x + h * kx, p + h * kp) for (x, p), (kx, kp) in zip(modes, k)]

    half, sixth = 0.5 * dt, dt / 6.0
    steps = int(round(T / dt))
    path = list(modes)  # the (x_i, p_i) pairs of every accepted step
    truncated = False
    for _ in range(steps):
        k1 = rhs(modes)
        k2 = rhs(shifted(modes, half, k1))
        k3 = rhs(shifted(modes, half, k2))
        k4 = rhs(shifted(modes, dt, k3))
        new = [
            (
                x + sixth * (a1 + 2 * a2 + 2 * a3 + a4),
                p + sixth * (b1 + 2 * b2 + 2 * b3 + b4),
            )
            for (x, p), (a1, b1), (a2, b2), (a3, b3), (a4, b4) in zip(
                modes, k1, k2, k3, k4
            )
        ]
        if not in_domain(new):
            truncated = True
            break
        modes = new
        path += modes

    phase = np.array(path).reshape(-1, n, 2)
    xs = phase[:, :, 0]
    ps = phase[:, :, 1]
    times = dt * np.arange(phase.shape[0])
    actions = 0.5 * (xs**2 + ps**2 - 1.0)
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
