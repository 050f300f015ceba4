"""Exact checks of the closed forms and of the share-space price.

Each identity is a rational function of a point, checked to vanish exactly
at POINT_COUNT = 20 seeded random rational points.  A nonzero numerator of
degree d vanishes at a point drawn uniformly from S^n with probability at
most d/|S| (Schwartz 1980; Zippel 1979), so 20 points leave no room for a
false pass.

The arithmetic is `Dual`, a forward-mode dual number over
`fractions.Fraction` with partials in (z, u0, N), which `_share_price` and
the `_families` functions take in place of floats.  w = e^z is drawn as a
variable of its own with dw/dz = w -- sound because e^z is transcendental
over C(z) -- and log(N+1) enters only through its derivative 1/(N+1).  The
decoupled FOC is M(z) = phi omega - p - u0 - beta z, with the price p from
the engine's own share-space formula at omega = w/(1+Nw), o = 1/(1+Nw).

Every check also runs against a mutant, one coefficient or matrix entry
moved by a rational, which must fail at one point at least.
"""

import random
from fractions import Fraction

import numpy as np

from platform_eq._families import (a_coefficients, d_csk_coefficients, d_piu_coefficients,
                                   horner, n_csk_coefficients, n_csu_coefficients,
                                   n_nx_coefficients, n_p_coefficients, n_pik_coefficients,
                                   n_piu_coefficients, n_pu_coefficients)
from platform_eq.equilibrium import _share_price

POINT_COUNT = 20  # rational points per identity
MOVE = Fraction(1, 10**30)  # what a mutant adds to one coefficient or entry


def _lin(p, x, q, y):
    """p x + q y over partial tuples, where () reads as zero."""
    if not y:
        return tuple(p * s for s in x)
    if not x:
        return tuple(q * t for t in y)
    return tuple(p * s + q * t for s, t in zip(x, y))


class Dual:
    """a + d . (dz, du0, dN), exact over Fraction; d == () is a constant.  Int
    and float operands convert exactly; an array operand is left to numpy."""

    __slots__ = ("a", "d")

    def __init__(self, a, d=()):
        self.a, self.d = Fraction(a), d

    def __add__(self, other):
        y = _dual(other)
        return NotImplemented if y is None else Dual(self.a + y.a, _lin(1, self.d, 1, y.d))

    def __mul__(self, other):
        y = _dual(other)
        return NotImplemented if y is None else Dual(self.a * y.a, _lin(y.a, self.d, self.a, y.d))

    def __truediv__(self, other):
        y = _dual(other)
        return NotImplemented if y is None else self * (1 / y)

    def __rtruediv__(self, other):
        inv = 1 / self.a
        return _dual(other) * Dual(inv, _lin(-inv * inv, self.d, 0, ()))

    def __neg__(self):
        return Dual(-self.a, _lin(-1, self.d, 0, ()))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, k):
        assert isinstance(k, int) and k >= 0
        return Dual(self.a ** k, _lin(k * self.a ** (k - 1), self.d, 0, ()) if k else ())

    __radd__, __rmul__ = __add__, __mul__


def _dual(x):
    """x as a Dual, or None for an operand that is not a number."""
    return x if isinstance(x, Dual) else Dual(x) if isinstance(x, (int, float, Fraction)) else None


def _side(*x):
    """A side axis of duals: one entry is a decoupled side that mirrors itself."""
    return np.array(x, dtype=object)


def _draw(rng, signed=False):
    """A random nonzero rational p/q with p, q in 1..999, negative half the time if signed."""
    return Fraction(rng.choice((-1, 1)) if signed else 1) * rng.randint(1, 999) / rng.randint(1, 999)


class _Point:
    """One random point (w, z, u0, beta, phi, N) and the engine's decoupled
    quantities at it, carrying partials in (z, u0, N)."""

    def __init__(self, rng):
        w, z, u, b, f, n = (_draw(rng), _draw(rng, True), _draw(rng, True), _draw(rng),
                            _draw(rng, True), _draw(rng))
        # constants, at which the families and their series are evaluated
        self.w, self.z, self.u, self.b, self.f, self.n = map(Dual, (w, z, u, b, f, n))
        w, z, u, n = Dual(w, (w, 0, 0)), Dual(z, (1, 0, 0)), Dual(u, (0, 1, 0)), Dual(n, (0, 0, 1))
        self.om = w / (1 + n * w)
        price = [_share_price(np.asarray(ce), _side(self.om), _side(1 / (1 + n * w)),
                              _side(self.b), _side(self.f), _side(0), n)[0] for ce in (False, True)]
        self.price = price[0]
        self.foc, self.foc_ce = (self.f * self.om - p - u - self.b * z for p in price)
        # on the root M = 0 the competitive price is p* = phi omega - u0 - beta z
        self.p_star = self.f * self.om - u - self.b * z
        # consumer surplus beta ln(N+1) - p* + phi omega, without the constants
        # mu and beta gamma_EM, which no derivative sees
        log_n1 = Dual(0, (0, 0, 1 / (n.a + 1)))
        self.cs_star = self.b * log_n1 - self.p_star + self.f * self.om
        self.n_var = n

    def series(self, family, *extra):
        """sum_m c_m w^m over a family's coefficients, lowest power first."""
        return horner(family(self.b, self.f, self.n, *extra), self.w)

    def d_du0(self, q):
        """dq/du0 on the competitive root, where dz/du0 = 1/M_z."""
        return Dual(q.d[0] / self.foc.d[0] + q.d[1])

    def d_dn(self, q):
        """dq/dN on the competitive root, where dz/dN = -M_N/M_z."""
        return Dual(-q.d[0] * self.foc.d[2] / self.foc.d[0] + q.d[2])


_rng = random.Random(20)
POINTS = [_Point(_rng) for _ in range(POINT_COUNT)]


def _check(residual, family):
    """residual(point, family) is exactly 0 at every point, and nonzero at one
    point at least once family's coefficient of w^1 is moved by MOVE."""
    assert all(residual(p, family).a == 0 for p in POINTS)

    def mutant(*args):
        c = family(*args)
        return [c[0], c[1] + MOVE, *c[2:]]
    assert any(residual(p, mutant).a != 0 for p in POINTS)


def _competitive_slope(p, a):
    # dM/dz (1+Nw)^2 (beta (1+(N-1)w)(1+Nw) - w phi)^2 = -sum_m a_m w^m
    b, f, n, w = p.b, p.f, p.n, p.w
    den = (1 + n * w) ** 2 * (b * (1 + (n - 1) * w) * (1 + n * w) - w * f) ** 2
    return Dual(p.foc.d[0]) * den + p.series(a)


def test_competitive_slope_is_the_a_family():
    _check(_competitive_slope, a_coefficients)


def _collusive_numerator(beta, phi, n):
    """beta (1+Nw)^3 - 2 phi w by powers of w."""
    return [beta, 3 * beta * n - 2 * phi, 3 * beta * n ** 2, beta * n ** 3]


def _collusive_slope(p, numerator):
    # dM^C/dz = -(beta (1+Nw)^3 - 2 phi w) / (1+Nw)^2
    return Dual(p.foc_ce.d[0]) + p.series(numerator) / (1 + p.n * p.w) ** 2


def test_collusive_slope_is_the_pole_free_cubic():
    _check(_collusive_slope, _collusive_numerator)


def test_price_u0_is_the_n_pu_family():
    # dp*/du0 + w sum n_pu_m w^m / sum a_m w^m = 0
    _check(lambda p, n_pu: p.d_du0(p.p_star) + p.w * p.series(n_pu) / p.series(a_coefficients),
           n_pu_coefficients)


def test_profit_u0_is_the_n_piu_family():
    # pi* = p(z) omega, u0 eliminated through the FOC:
    # dpi*/du0 + w sum n_piu_m w^m / sum d_piu_m w^m = 0
    _check(lambda p, n_piu: (p.d_du0(p.price * p.om)
                             + p.w * p.series(n_piu) / p.series(d_piu_coefficients)),
           n_piu_coefficients)


def test_cs_u0_is_the_n_csu_family():
    # dCS*/du0 - w sum n_csu_m w^m / sum a_m w^m = 0
    _check(lambda p, n_csu: p.d_du0(p.cs_star) - p.w * p.series(n_csu) / p.series(a_coefficients),
           n_csu_coefficients)


def test_price_n_is_the_n_p_family():
    # dp*/dN - w^2 sum n_p_m w^m / sum a_m w^m = 0
    _check(lambda p, n_p: p.d_dn(p.p_star) - p.w ** 2 * p.series(n_p) / p.series(a_coefficients),
           n_p_coefficients)


def test_participation_n_is_the_n_nx_family():
    # d(N omega)/dN - w sum n_nx_m w^m / sum d_piu_m w^m = 0
    _check(lambda p, n_nx: (p.d_dn(p.n_var * p.om)
                            - p.w * p.series(n_nx) / p.series(d_piu_coefficients)),
           n_nx_coefficients)


def test_cs_n_is_the_n_csk_family():
    # dCS*/dN - sum n_csk_m w^m / sum d_csk_m w^m = 0
    _check(lambda p, n_csk: p.d_dn(p.cs_star) - p.series(n_csk) / p.series(d_csk_coefficients),
           n_csk_coefficients)


def test_profit_n_is_the_n_pik_family():
    # pi* = p* omega: dpi*/dN - w^2 sum n_pik_m(u0, z) w^m / sum d_piu_m w^m = 0
    _check(lambda p, n_pik: (p.d_dn(p.p_star * p.om) - p.w ** 2 * p.series(n_pik, p.u, p.z)
                             / p.series(d_piu_coefficients)),
           n_pik_coefficients)


# the paper's literal pricing matrices, the reference for the share-space price

def pricing_matrices(w, beta, phi, n):
    """H(z) and H^C(z) as 2x2 nested lists at w = (e^{z_b}, e^{z_s}), with the
    pair (K_b, K_s); beta is (beta_b, beta_s) and phi the rows of Phi.

    H's entries combine d_k = beta_k (1+N w_k), h_k = beta_k (1+w_k)(1/w_k+N),
    K_k = phi_kk - d_k (1/w_k+N-1), J_phi = K_b K_s - phi_sb phi_bs and
    L_k = (N-1) d_k / J_phi.  H^C is diagonal beta_k (1+N w_k)^2 / w_k - phi_kk,
    expanded so w_k is not squared, and off-diagonal -phi_sb / -phi_bs.
    """
    d = [beta[k] * (1 + n * w[k]) for k in (0, 1)]
    h = [beta[k] * (1 + w[k]) * (1 / w[k] + n) for k in (0, 1)]
    K = [phi[k][k] - d[k] * (1 / w[k] + n - 1) for k in (0, 1)]
    j_phi = K[0] * K[1] - phi[1][0] * phi[0][1]
    L = [(n - 1) * d[k] / j_phi for k in (0, 1)]
    H = [[L[0] * d[0] * K[1] + h[0] - phi[0][0], -phi[1][0] * (d[1] * L[0] + 1)],
         [-phi[0][1] * (d[0] * L[1] + 1), L[1] * d[1] * K[0] + h[1] - phi[1][1]]]
    diag = [beta[k] * (1 / w[k] + 2 * n + n * n * w[k]) - phi[k][k] for k in (0, 1)]
    HC = [[diag[0], -phi[1][0]], [-phi[0][1], diag[1]]]
    return H, HC, K


def _matrix_price_gap(q, reference):
    """_share_price's rows less H Omega (competitive) and H^C Omega (collusive)
    at one coupled point q = (w_b, w_s, beta_b, beta_s, phi_bb, phi_bs, phi_sb, phi_ss, N)."""
    w, beta, phi, n = q[:2], q[2:4], (q[4:6], q[6:8]), q[8]
    om = [x / (1 + n * x) for x in w]
    o = [1 / (1 + n * x) for x in w]
    gaps = []
    for ce, matrix in zip((False, True), reference(w, beta, phi, n)[:2]):
        p = _share_price(np.asarray(ce), _side(*om), _side(*o), _side(*beta),
                         _side(phi[0][0], phi[1][1]), _side(phi[1][0], phi[0][1]), n)
        gaps.append([p[k] - (matrix[k][0] * om[0] + matrix[k][1] * om[1]) for k in (0, 1)])
    return gaps


def test_share_price_is_the_literal_pricing_matrices():
    rng = random.Random(21)
    # beta and N positive, every Phi entry nonzero: the markets are coupled
    points = [[Dual(_draw(rng, signed=4 <= k < 8)) for k in range(9)]
              for _ in range(POINT_COUNT)]
    assert all(g.a == 0 for q in points for rows in _matrix_price_gap(q, pricing_matrices)
               for g in rows)

    def mutant(*args):  # the buyer row's cross entry of H and of H^C moved
        matrices = pricing_matrices(*args)
        for matrix in matrices[:2]:
            matrix[0][1] += MOVE
        return matrices
    gaps = [_matrix_price_gap(q, mutant) for q in points]
    assert all(any(g[regime][0].a != 0 for g in gaps) for regime in (0, 1))
