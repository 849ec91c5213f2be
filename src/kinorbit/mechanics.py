"""Quadratic Hamiltonians and their 2-stage Gauss flow on noncommutative phase spaces.

A Hamiltonian H = z'Qz/2 + g.z + c in a chart's canonical coordinates z
(:class:`QuadraticHamiltonian`) flows under the chart's bracket matrix
theta by dz/dt = theta grad H = A z + b, A = theta Q and b = theta g.  Q,
g and c are kept as given and converted to floats once, when the record
is built; theta is converted when :meth:`~QuadraticHamiltonian.system`
forms A and b.  On a planar phase space with bracket scalars G
(positions) and F (momenta) (:class:`NCPhaseSpace2D`),
:class:`HamiltonianSpec` states H = p^2/2m + a.q + q'Kq/2, converting its
coefficients to floats once, when it is built; its record of H keeps the
exact entries and is formed from those floats and one float of 1/m, not
converted or checked again.  The flow is

    dq^i/dt = dH/dp_i + G eps^ij dH/dq^j,
    dp_i/dt = -dH/dq^i + F eps_ij dH/dp_j.

One step of size h of the 2-stage Gauss method is exactly the affine map
z -> M z + c that :func:`propagator` forms, in any dimension and on
floats or ``Fraction``: a Poisson map of theta that keeps H, so the
energy drift of a run is rounding only.  The one fill,
:func:`planar_flow`, forms that map once and advances one step at a time
on Python floats, adding each increment (M - 1) z + c with Kahan
compensation (Kahan, Commun. ACM 8 (1965) 40), so that N steps round
near the last bit and not N times it.  The one tail,
:func:`trajectory_rows`, adds the energies, their drift and the
finiteness check and returns the columns ``kinorbit simulate`` prints;
:func:`integrate` wraps them as NumPy arrays, the module's one use of
NumPy.  :func:`linear_system` returns A and b as tuples of floats.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Sequence

from .rational_linalg import RatMatrix, _matrix, rat_inv
from .records import CatalogError, Record, checked_float, exact, real
from .timegrid import ROW_BLOCK, IntegrationError, first_non_finite, grid_times, step_count

__all__ = [
    "QuadraticHamiltonian",
    "NCPhaseSpace2D",
    "HamiltonianSpec",
    "NCTrajectory",
    "CANONICAL_BRACKET_MATRIX",
    "linear_system",
    "propagator",
    "planar_flow",
    "integrate",
    "trajectory_rows",
]


def _float_form(floats, c: float) -> tuple[list, list]:
    """The rows and terms :class:`QuadraticHamiltonian` reads, from the float
    rows of [Q | g] and the float of c."""
    n = len(floats)
    rows = [[(j, f) for j, f in enumerate(row) if f] for row in floats]
    terms = [(i, j, x / 2.0 if i == j else x) for i, row in enumerate(rows)
             for j, x in row if j >= i] + ([(n, n, c)] if c else [])
    return rows, terms


class QuadraticHamiltonian(Record):
    """H(z) = z'Qz/2 + g.z + c over a chart's canonical coordinates z: the
    symmetric n x n ``hessian`` Q, the n-vector ``gradient`` g and the
    ``constant`` c, kept as given and each read by
    :func:`~kinorbit.records.real` (``hessian[i][j]``, ``gradient[i]`` and
    ``constant`` name them).  Only :meth:`system`, :meth:`value`
    and :meth:`column_values` read H, through the floats of
    M = [[Q, g], [g', 2c]] (H = (z, 1)' M (z, 1)/2) that construction
    converts once: each row of [Q | g] as the (column, entry) pairs of its
    nonzero entries, and the terms (i, j, w) that :meth:`value` adds, one
    per nonzero M_ij with i <= j."""

    _fields = ("hessian", "gradient", "constant")
    __slots__ = (*_fields, "_rows", "_terms")

    def __init__(self, hessian, gradient, constant=0) -> None:
        hessian, gradient = tuple(map(tuple, hessian)), tuple(gradient)
        n = len(gradient)
        if tuple(map(len, hessian)) != (n,) * n or tuple(zip(*hessian)) != hessian:
            raise CatalogError(f"the hessian must be a symmetric {n} x {n} matrix")
        floats = [[real(f"hessian[{i}][{j}]", x) for j, x in enumerate(row)]
                  + [real(f"gradient[{i}]", g)] for i, (row, g) in enumerate(zip(hessian, gradient))]
        self._init(hessian, gradient, constant, *_float_form(floats, real("constant", constant)))

    def system(self, theta) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
        """A = theta Q and b = theta g of the flow dz/dt = theta grad H = A z + b
        under the n x n bracket matrix ``theta``, as tuples of floats: each
        entry is the sum of its nonzero float products, added left to right.
        A nonzero ``int`` or ``Fraction`` entry of theta is read by
        :func:`~kinorbit.records.checked_float`, so one that no float holds
        raises :class:`OverflowError` naming it (``theta[i][k]``)."""
        n = len(self.gradient)
        if tuple(map(len, theta)) != (n,) * n:
            raise ValueError(f"theta must be {n} x {n}, the size of the hessian")
        A, b = [], []
        for i, theta_row in enumerate(theta):
            entries = [0.0] * (n + 1)
            # Q is symmetric: the rows of [Q | g] are its columns
            for k, (t, row) in enumerate(zip(theta_row, self._rows)):
                if t:
                    if type(t) is not float:
                        t = (checked_float(t, f"theta[{i}][{k}]")
                             if isinstance(t, (int, Fraction)) else float(t))
                    for j, x in row:
                        entries[j] += t * x
            b.append(entries.pop())
            A.append(tuple(entries))
        return tuple(A), tuple(b)

    def value(self, z):
        """H at ``z``, n floats or n NumPy columns: with z_n = 1, from 0 add
        (w z_i) z_j for each term (i, j, w) in turn; the per-state reference
        of :meth:`column_values`, which gives the flow's energies."""
        z, h = (*z, 1.0), 0.0
        for i, j, w in self._terms:
            h = h + w * z[i] * z[j]
        return h

    def column_values(self, columns) -> list[float]:
        """H at each state of the n float ``columns`` (z_0 to z_n-1, of equal
        length), equal to :meth:`value` of each state bit for bit: one list
        pass per term (i, j, w) adds (w z_i) z_j to every row, from 0, with
        z_n = 1 read as no factor at all (x * 1.0 is x)."""
        n = len(self.gradient)
        columns = [list(column) for column in columns]
        h = [0.0] * len(columns[0])
        for i, j, w in self._terms:
            if j < n:
                h = [x + w * a * b for x, a, b in zip(h, columns[i], columns[j])]
            elif i < n:
                h = [x + w * a for x, a in zip(h, columns[i])]
            else:
                h = [x + w for x in h]
        return h


def _bracket_rows(G, F, zero, one) -> tuple:
    """The bracket matrix of (q1, q2, p1, p2), in the type of ``zero`` and ``one``."""
    return ((zero, G, one, zero), (-G, zero, zero, one),
            (-one, zero, zero, F), (zero, -one, -F, zero))


class NCPhaseSpace2D(Record):
    """A planar phase space with bracket scalars G (positions) and F (momenta)."""

    __slots__ = _fields = ("G_field", "F_field", "mass")

    def __init__(self, G_field: Fraction, F_field: Fraction, mass: Fraction) -> None:
        self._init(exact("G_field", G_field), exact("F_field", F_field), exact("mass", mass))
        if self.mass <= 0:
            raise CatalogError(f"mass must be positive, got {self.mass}")
        if self.symplectic_factor == 0:
            raise ValueError(
                "1 - G*F vanishes: the bracket matrix is degenerate and the "
                "dynamics is not symplectic"
            )

    @property
    def symplectic_factor(self) -> Fraction:
        return 1 - self.G_field * self.F_field

    def theta_matrix(self) -> RatMatrix:
        """Bracket matrix of (q1, q2, p1, p2) driving the dynamics."""
        return _matrix(_bracket_rows(self.G_field, self.F_field, Fraction(0), Fraction(1)))

    def omega_matrix(self) -> RatMatrix:
        """Exact inverse of :meth:`theta_matrix`."""
        return rat_inv(self.theta_matrix())


_COEFFICIENTS = tuple(f"coefficient {name}" for name in ("a1", "a2", "k11", "k12", "k22"))


class HamiltonianSpec(Record):
    """Potential data for H = p^2/(2m) + a.q + q'Kq/2.

    ``linear`` holds (a1, a2); ``quadratic`` holds the symmetric matrix
    entries (k11, k12, k22).  Each entry is kept as given and read once,
    here, for :meth:`hamiltonian`, by :func:`~kinorbit.records.real`, which
    names it (``coefficient a1`` to ``coefficient k22``).
    """

    _fields = ("linear", "quadratic")
    __slots__ = (*_fields, "_floats")

    def __init__(
        self,
        linear: tuple[float, float] = (0.0, 0.0),
        quadratic: tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> None:
        linear, quadratic = tuple(linear), tuple(quadratic)
        if (len(linear), len(quadratic)) != (2, 3):
            raise CatalogError(f"expected (a1, a2) and (k11, k12, k22), got {linear}, {quadratic}")
        self._init(linear, quadratic, tuple(map(real, _COEFFICIENTS, (*linear, *quadratic))))

    def hamiltonian(self, space: NCPhaseSpace2D) -> QuadraticHamiltonian:
        """This H on ``space``, over (q1, q2, p1, p2): Q = diag(K, 1/m, 1/m)
        and g = (a1, a2, 0, 0); a 1/m that no float holds raises
        :class:`OverflowError` naming it.  The record keeps the exact
        entries; its floats are those construction converted and the one
        float of 1/m, so it is stored without checking them again."""
        inv_m = 1 / space.mass
        # Q is symmetric: the columns of [Q | g] are the rows of Q, then g
        *hessian, gradient = zip(*_planar_rows(*self.linear, *self.quadratic, inv_m, 0))
        floats = _planar_rows(*self._floats, checked_float(inv_m, "1/mass"), 0.0)
        return QuadraticHamiltonian._stored(tuple(hessian), gradient, 0, *_float_form(floats, 0.0))


def _planar_rows(a1, a2, k11, k12, k22, inv_m, zero) -> tuple:
    """The rows of [Q | g] of the planar H, Q = diag(K, 1/m, 1/m) and
    g = (a1, a2, 0, 0), with zeros of the type of ``zero``."""
    return ((k11, k12, zero, zero, a1), (k12, k22, zero, zero, a2),
            (zero, zero, inv_m, zero, zero), (zero, zero, zero, inv_m, zero))


def _planar(space: NCPhaseSpace2D, ham: HamiltonianSpec):
    """``ham`` on ``space`` and its :meth:`~QuadraticHamiltonian.system`, over
    the bracket matrix of the floats of G and F; a G, F or 1/mass that no
    float holds raises :class:`OverflowError` naming it."""
    G, F = checked_float(space.G_field, "G"), checked_float(space.F_field, "F")
    hamiltonian = ham.hamiltonian(space)
    return hamiltonian, hamiltonian.system(_bracket_rows(G, F, 0.0, 1.0))


def linear_system(
    space: NCPhaseSpace2D, ham: HamiltonianSpec
) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
    """The affine form dz/dt = A z + b of the equations of motion, as tuples
    of floats: :meth:`QuadraticHamiltonian.system` of ``ham`` on ``space``."""
    return _planar(space, ham)[1]


class NCTrajectory(Record):
    """The columns of :func:`trajectory_rows` as NumPy arrays: the times, the
    states (a row per time), their energies and their drift from the first."""

    __slots__ = _fields = ("times", "states", "energies", "invariant_drift")

    def __init__(self, times, states, energies, invariant_drift) -> None:
        self._init(times, states, energies, invariant_drift)

    @property
    def final_state(self):
        return self.states[-1]


def _aborted(what: str, step: int, t: float) -> IntegrationError:
    """The error of an integration whose ``what`` is not finite at ``step``."""
    return IntegrationError(
        f"integration aborted: non-finite {what} at step {step} (t = {t:.6g})", step
    )


def propagator(A, b, h) -> tuple[list[list], list]:
    """One step of size ``h`` of the 2-stage Gauss method on dz/dt = A z + b
    (n x n ``A``): the map z -> M z + c, as the rows of M - 1 and the list c.

    With X = hA and D = 1 - X/2 + X^2/12 (the diagonal Pade map; Butcher,
    Math. Comp. 18 (1964) 50), M - 1 = D^-1 X and c = D^-1 hb, both from
    one Gauss-Jordan solve of D against [X | hb]: each (X^2)_ij adds its
    nonzero products left to right, each pivot is the first largest |entry|
    of its column, and a row with a zero there is left as it is.  No 1 is
    subtracted, so M - 1 keeps its accuracy for small h.  Only + - * / and
    ``abs`` touch the entries, so ``Fraction`` entries give the exact step:
    for A = theta Q and b = theta g it is a Poisson map of theta that keeps
    H = z'Qz/2 + g.z (Hairer, Lubich & Wanner, *Geometric Numerical
    Integration*, 2nd ed., IV.2 and VI.4).  A singular D raises
    :class:`ZeroDivisionError`.
    """
    X = [[h * x for x in row] for row in A]
    n = len(X)
    rows = []
    for i, (row, b_i) in enumerate(zip(X, b)):
        square = repeat(0, n)
        for x, x_row in zip(row, X):
            if x:
                square = map(add, square, map(mul, repeat(x), x_row))
        d = [s / 12 - x / 2 for x, s in zip(row, square)]
        d[i] += 1
        rows.append(d + row + [h * b_i])
    # the first k rows are unsolved; each solved row goes to the end
    for k in range(n, 0, -1):
        column = [abs(row[0]) for row in rows[:k]]
        head, *pivot = rows.pop(column.index(max(column)))
        pivot = [x / head for x in pivot]
        rows = [[x - f * y for x, y in zip(row, pivot)] if (f := row.pop(0)) else row
                for row in rows]
        rows.append(pivot)
    return [row[:n] for row in rows], [row[n] for row in rows]


def planar_flow(A, b, state0: Sequence[float], t_end: float, dt: float) -> list[array]:
    """The 2-stage Gauss flow of the planar system dz/dt = A z + b (4 x 4
    ``A``) from ``state0`` to ``t_end``, on Python floats.

    Returns the state table as four ``array('d')`` columns (q1, q2, p1,
    p2), one entry per time of :func:`~kinorbit.timegrid.grid_times` of
    :func:`step_count` steps.  The step z -> M z + c of :func:`propagator`
    is formed once; each step adds the increment (M - 1) z + c to z with
    Kahan compensation, so the running sum rounds near the last bit however
    many steps it takes.  Every sum of products is added left to right, so
    the rows do not depend on the Python version.  Rows are formed
    :data:`~kinorbit.timegrid.ROW_BLOCK` at a time.  A non-finite state,
    also from a step that overflows, raises :class:`IntegrationError`
    carrying the first step that produced it (0 for a start state), and no
    later block is formed; a singular D fails at step 1.
    """
    n_steps = step_count(t_end, dt)
    h = t_end / n_steps
    try:
        m, (c0, c1, c2, c3) = propagator(A, b, h)  # m: the rows of M - 1
    except ZeroDivisionError:
        raise IntegrationError(f"integration aborted: no Gauss step of size {h:.6g}", 1) from None
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = m
    z0, z1, z2, z3 = map(float, state0)
    e0 = e1 = e2 = e3 = 0.0  # what each running sum has lost to rounding
    states = [array("d", [z]) for z in (z0, z1, z2, z3)]
    for start in range(1, n_steps + 1, ROW_BLOCK):
        block = [], [], [], []
        q1, q2, p1, p2 = (rows.append for rows in block)
        for _ in range(min(ROW_BLOCK, n_steps + 1 - start)):
            d0 = z0 * m00 + z1 * m01 + z2 * m02 + z3 * m03 + c0 - e0
            d1 = z0 * m10 + z1 * m11 + z2 * m12 + z3 * m13 + c1 - e1
            d2 = z0 * m20 + z1 * m21 + z2 * m22 + z3 * m23 + c2 - e2
            d3 = z0 * m30 + z1 * m31 + z2 * m32 + z3 * m33 + c3 - e3
            t = z0 + d0
            e0 = t - z0 - d0
            z0 = t
            t = z1 + d1
            e1 = t - z1 - d1
            z1 = t
            t = z2 + d2
            e2 = t - z2 - d2
            z2 = t
            t = z3 + d3
            e3 = t - z3 - d3
            z3 = t
            q1(z0)
            q2(z1)
            p1(z2)
            p2(z3)
        for column, rows in zip(states, block):
            column.fromlist(rows)
        # a non-finite entry stays non-finite, so the block's last row shows
        # one; the row before the block is the start state or a finite row
        if not all(map(math.isfinite, (z0, z1, z2, z3))):
            bad = (first_non_finite(column[start - 1:]) for column in states)
            step = start - 1 + min(index for index in bad if index is not None)
            raise _aborted("state", step, grid_times(t_end, n_steps)[step])
    return states


def integrate(space: NCPhaseSpace2D, ham: HamiltonianSpec, state0: Sequence[float],
              t_end: float, dt: float) -> NCTrajectory:
    """Integrate the modified Hamilton equations with the fixed-step 2-stage Gauss method.

    The columns of :func:`trajectory_rows` as NumPy arrays: the times, the
    states as an (n + 1) x 4 table, the energies and their drift, equal to
    those columns bit for bit.  It raises what :func:`trajectory_rows`
    raises.
    """
    import numpy as np

    t, *states, energies, drift = trajectory_rows(space, ham, state0, t_end, dt).values()
    # the t, energy and drift arrays share the columns' buffers
    return NCTrajectory(
        np.frombuffer(t), np.array(states).T, np.frombuffer(energies), np.frombuffer(drift)
    )


def trajectory_rows(space: NCPhaseSpace2D, ham: HamiltonianSpec, state0: Sequence[float],
                    t_end: float, dt: float) -> dict[str, array]:
    """The one tail of the planar flow: :func:`planar_flow` of
    :func:`linear_system` from ``state0``, as the columns ``kinorbit
    simulate`` prints and :func:`integrate` wraps as arrays.

    Returns the ``array('d')`` columns t, q1, q2, p1, p2, H and drift, one
    entry per time of :func:`~kinorbit.timegrid.grid_times`.  The energies
    are :meth:`QuadraticHamiltonian.column_values` of the state columns,
    one pass per term of H, equal to :meth:`QuadraticHamiltonian.value` of
    each state bit for bit.  An energy or energy drift that is not finite,
    though the state is, raises :class:`IntegrationError` carrying the
    first such step (0 for the initial state).
    """
    if len(state0) != 4:
        raise ValueError("state must be (q1, q2, p1, p2)")
    hamiltonian, system = _planar(space, ham)
    states = planar_flow(*system, state0, t_end, dt)
    energies = array("d", hamiltonian.column_values(states))
    drift = array("d", map(energies[0].__rsub__, energies))  # each h - h[0]
    times = grid_times(t_end, len(energies) - 1)
    # a non-finite energy makes its drift non-finite; so can two finite
    # energies of opposite sign near the float limit
    step = first_non_finite(drift)
    if step is not None:
        raise _aborted("energy or drift", step, times[step])
    q1, q2, p1, p2 = states
    return {"t": times, "q1": q1, "q2": q2, "p1": p1, "p2": p2, "H": energies, "drift": drift}


# Bracket matrix of commutative coordinates (q1, q2, p1, p2): {p_i, q^j} = +delta,
# the C that coadjoint.darboux_map takes to a chart's brackets.
CANONICAL_BRACKET_MATRIX = RatMatrix(
    [
        [0, 0, -1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
)

