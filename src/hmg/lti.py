"""Rational transfer functions, state-space realization and fixed-step integration.

Everything downstream (subgrid models, the interlinking-converter controller,
the nodal circuit solver, the time-domain engine) is built on the small set of
primitives in this module:

* ``Polynomial`` -- real coefficients, ascending powers of the Laplace
  variable ``s``.
* ``RationalTF`` -- ratio of two polynomials, denominator kept monic.
* ``StateSpace`` -- controllable-canonical realization of a proper
  ``RationalTF``.
* ``rk4_step_maps`` -- the linear one-step map x+ = M x + N u of classical
  4th-order Runge-Kutta with the input held constant over the step.
* ``Blocks`` -- one layout, output rule and stamping pass for a keyed
  table of linear blocks, shared by the engine and the circuit model.
* ``ivt_rate_limit`` / ``fvt_limit`` -- the s->inf and s->0 limits of
  ``s*F(s)`` used for rate-of-change and steady-state analysis.

No pole/zero cancellation is ever performed by the arithmetic helpers;
cancellation is numerically fragile and the degree bookkeeping of the limit
operators relies on the trimmed, uncancelled representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Leading coefficients below TRIM_REL * max|coeff| are treated as arithmetic
# noise and dropped; keeps degrees honest after add/mul chains.
TRIM_REL = 1e-12

# |den(s)| below POLE_REL times the evaluation's own rounding scale counts as
# evaluating on a pole.
POLE_REL = 1e-12

# A numerically computed root closer to 0 than this is "at the origin".
ORIGIN_TOL = 1e-9


class LtiError(Exception):
    """Base class for errors raised by this module."""


class EvalAtPole(LtiError):
    """Transfer function evaluated too close to one of its poles."""


class ImproperTF(LtiError):
    """Operation requires deg(num) <= deg(den)."""


class Unbounded(LtiError):
    """The requested limit diverges."""


class FvtInvalid(LtiError):
    """Final Value Theorem preconditions violated (pole in closed RHP)."""


def _trim(coeffs) -> tuple[float, ...]:
    c = list(map(float, coeffs))
    if not c:
        raise ValueError("empty coefficient list")
    scale = max(map(abs, c))
    if scale == 0.0:
        return (0.0,)
    tol = TRIM_REL * scale
    while len(c) > 1 and abs(c[-1]) < tol:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in s; ``coeffs[k]`` multiplies ``s**k``.

    Construction trims near-zero leading coefficients so that ``degree`` is
    meaningful; the zero polynomial is ``(0.0,)``.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, s):
        # Horner, highest power first
        acc = 0.0 + 0.0j if isinstance(s, complex) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def scaled(self, k: float) -> "Polynomial":
        return Polynomial(tuple([k * c for c in self.coeffs]))

    def roots(self) -> np.ndarray:
        """Roots via the companion-matrix eigenvalues of numpy.roots."""
        if self.degree == 0:
            return np.array([], dtype=complex)
        return np.roots(self.coeffs[::-1])


def poly(*coeffs) -> Polynomial:
    """Shorthand constructor, ascending powers: poly(1, 2) is 1 + 2s."""
    return Polynomial(tuple(coeffs))


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    n = max(len(a.coeffs), len(b.coeffs))
    out = [0.0] * n
    for i, c in enumerate(a.coeffs):
        out[i] += c
    for i, c in enumerate(b.coeffs):
        out[i] += c
    return Polynomial(tuple(out))


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Coefficient convolution, trimmed."""
    if a.is_zero or b.is_zero:
        return poly(0.0)
    return Polynomial(tuple(np.convolve(a.coeffs, b.coeffs)))


@dataclass(frozen=True)
class RationalTF:
    """Rational function num(s)/den(s) with the denominator kept monic."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ValueError("zero denominator")
        lead = self.den.coeffs[-1]
        if lead != 1.0:
            object.__setattr__(self, "num", self.num.scaled(1.0 / lead))
            object.__setattr__(self, "den", self.den.scaled(1.0 / lead))

    @property
    def relative_degree(self) -> int:
        return self.den.degree - self.num.degree

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree or self.num.is_zero


def tf(num_coeffs, den_coeffs) -> RationalTF:
    """Build a RationalTF from ascending coefficient lists."""
    return RationalTF(Polynomial(tuple(num_coeffs)), Polynomial(tuple(den_coeffs)))


def tf_series(a: RationalTF, b: RationalTF) -> RationalTF:
    """Cascade a∘b: numerators and denominators multiply; no cancellation."""
    return RationalTF(poly_mul(a.num, b.num), poly_mul(a.den, b.den))


def tf_add(a: RationalTF, b: RationalTF) -> RationalTF:
    """Common-denominator sum; no cancellation."""
    num = poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    return RationalTF(num, poly_mul(a.den, b.den))


def tf_scale(a: RationalTF, k: float) -> RationalTF:
    return RationalTF(a.num.scaled(k), a.den)


def tf_reciprocal(a: RationalTF) -> RationalTF:
    if a.num.is_zero:
        raise ZeroDivisionError("reciprocal of the zero transfer function")
    return RationalTF(a.den, a.num)


def tf_eval(f: RationalTF, s):
    """Evaluate num(s)/den(s) by Horner's rule, elementwise over an array of s.

    A scalar s gives a Python complex; an array gives a complex array of
    its shape.

    Raises
    ------
    EvalAtPole
        When |den(s)| is below the rounding scale of its own evaluation at
        any point, i.e. that point is numerically indistinguishable from a
        pole. The message names the first such point.
    """
    s = np.asarray(s, dtype=complex)
    den_val = f.den(s)
    # rounding scale of the Horner evaluation at |s|
    mag = np.abs(s)
    scale = 0.0
    for c in reversed(f.den.coeffs):
        scale = scale * mag + abs(c)
    at_pole = np.abs(den_val) < POLE_REL * np.maximum(scale, 1e-300)
    if at_pole.any():
        raise EvalAtPole(f"denominator vanishes at s={complex(s[at_pole][0])}")
    val = f.num(s) / den_val
    return complex(val) if s.ndim == 0 else val


@dataclass(frozen=True)
class StateSpace:
    """Controllable-canonical realization; dx/dt = A x + B u, y = C x + D u.

    A is (n, n); B and C are flat length-n vectors (C is (p, n) for p
    outputs); D is a scalar.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float

    @property
    def order(self) -> int:
        return self.A.shape[0]


def tf_to_statespace(f: RationalTF) -> StateSpace:
    """Controllable canonical realization of a proper transfer function.

    D is the quotient of the single long-division step (zero when strictly
    proper).

    Raises
    ------
    ImproperTF
        When deg(num) > deg(den).
    """
    if not f.is_proper:
        raise ImproperTF(f"deg num {f.num.degree} > deg den {f.den.degree}")
    n = f.den.degree
    a = f.den.coeffs  # monic: a[n] == 1
    b = list(f.num.coeffs) + [0.0] * (n + 1 - len(f.num.coeffs))
    d = b[n]
    if d != 0.0:
        b = [bi - d * ai for bi, ai in zip(b, a)]
    A = np.zeros((n, n))
    for i in range(n - 1):
        A[i, i + 1] = 1.0
    if n > 0:
        A[n - 1, :] = [-ai for ai in a[:n]]
    B = np.zeros(n)
    if n > 0:
        B[n - 1] = 1.0
    C = np.array(b[:n], dtype=float)
    return StateSpace(A=A, B=B, C=C, D=float(d))


def ss_eval(ss: StateSpace, s: complex) -> complex:
    """Frequency response C (sI - A)^-1 B + D, used to verify realizations."""
    n = ss.order
    if n == 0:
        return complex(ss.D)
    m = s * np.eye(n) - ss.A
    return complex(ss.C @ np.linalg.solve(m, ss.B.astype(complex)) + ss.D)


def rk4_step_maps(ss: StateSpace, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear one-step map of classical RK4 for an LTI block.

    For constant u over the step, the four RK4 stages of dx/dt = A x + B u
    reduce to x+ = M x + N u with M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
    and the matching input polynomial applied to B.
    """
    n = ss.order
    A = ss.A
    eye = np.eye(n)
    hA = h * A
    M = term = eye
    for k in (1, 2, 3, 4):
        term = term @ hA / k
        M = M + term
    # N = (h I + h^2 A/2 + h^3 A^2/6 + h^4 A^3/24) B
    acc = term = h * eye
    for k in (2, 3, 4):
        term = term @ hA / k
        acc = acc + term
    N = acc @ ss.B
    return M, N


class Blocks:
    """Keyed linear blocks (M, N, C, D) on one vector z = [x; u]: each block
    takes the next span of x in insertion order, and `inputs` entries u
    follow x. (M, N) is a continuous (A, B) or a one-step map, and a block
    outputs C x_b + D drive, where a drive is a row over z."""

    def __init__(self, table: dict, inputs: int):
        self.table, self.spans, pos = table, {}, 0
        for key, (M, _, _, _) in table.items():
            self.spans[key] = slice(pos, pos + len(M))
            pos += len(M)
        self.n, self.width = pos, pos + inputs

    def output(self, key, drive: np.ndarray) -> np.ndarray:
        """The block's output row over z: D drive, plus C on its span."""
        _, _, C, D = self.table[key]
        row = D * drive
        row[self.spans[key]] += C
        return row

    def stamp(self, drives: dict) -> np.ndarray:
        """The square map over z: each M on its diagonal span, N ⊗ drive
        across its rows (`drives` keyed as the table); input rows zero."""
        out = np.zeros((self.width, self.width))
        for key, (M, N, _, _) in self.table.items():
            span = self.spans[key]
            out[span, span] = M
            out[span] += np.outer(N, drives[key])
        return out


def ivt_rate_limit(f: RationalTF) -> float:
    """Limit of s*F(s) as s -> infinity.

    For a relative degree of exactly 1 this is the ratio of leading
    coefficients (the initial slope of the unit-step response); for relative
    degree >= 2 it is 0.

    Raises
    ------
    Unbounded
        When deg(num) >= deg(den) and the limit diverges.
    """
    if f.num.is_zero:
        return 0.0
    rel = f.relative_degree
    if rel <= 0:
        raise Unbounded("s*F(s) diverges as s -> infinity")
    if rel == 1:
        return f.num.coeffs[-1] / f.den.coeffs[-1]
    return 0.0


def fvt_limit(f: RationalTF) -> float:
    """Limit of s*F(s) as s -> 0 (Final Value Theorem).

    A single denominator root at the origin (|root| < ORIGIN_TOL) is
    cancelled against the s factor; every other pole must lie strictly in
    the open left half-plane.

    Raises
    ------
    FvtInvalid
        When a non-origin pole has nonnegative real part, or more than one
        pole sits at the origin.
    """
    roots = f.den.roots()
    at_origin = np.abs(roots) < ORIGIN_TOL
    n_origin = int(np.count_nonzero(at_origin))
    if n_origin > 1:
        raise FvtInvalid("multiple poles at the origin")
    offenders = roots[~at_origin]
    if np.any(offenders.real >= 0.0):
        bad = offenders[offenders.real >= 0.0]
        raise FvtInvalid(f"pole(s) with nonnegative real part: {bad}")
    if n_origin == 0:
        return 0.0
    # deflate den by its origin root: den ~ s * q(s)
    q = Polynomial(f.den.coeffs[1:])
    return f.num(0.0) / q(0.0)
