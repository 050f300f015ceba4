"""Closed-form polynomial coefficient families in e^z for the decoupled model.

Each family is one plain function of its arguments returning the list of
its coefficients, lowest power first, of a polynomial sum_m c_m e^{m z}
whose index range is fixed per family; `FAMILIES` records the lowest power.
The arithmetic follows its inputs: Python floats on floats, arrays on arrays,
exact duals on exact duals.  All are polynomials in (beta, phi, N) -- and
for the profit/N numerator "n_pik" also (u0, z) -- valid when the cross-side
externalities are zero.  A family that serves several closed forms appears
once: the slope family "a" is also the denominator of dp*/du0, dCS*/du0 and
dp*/dN, and "d_piu" that of dpi*/du0, d(Nx*)/dN and dpi*/dN.  One Horner
loop, `horner`, evaluates every coefficient list.
"""

from __future__ import annotations

import numpy as np


def a_coefficients(beta, phi, n):
    """Slope family: dM/dz = -sum a_m e^{mz} / [(1+Ne^z)^2 (beta(1+(N-1)e^z)(1+Ne^z) - e^z phi)^2]."""
    b, f, N = beta, phi, n
    return [
        b**3,
        b**2 * (b * (6*N - 1) - 4*f),
        b * (b**2 * (15*N**2 - 6*N + 1) + 4*b * (1 - 4*N) * f + 5*f**2),
        2*N*b**3 * (10*N**2 - 7*N + 2) + b**2 * f * (-24*N**2 + 11*N - 1)
        + b * f**2 * (10*N - 3) - 2*f**3,
        b*N * (N*b**2 * (15*N**2 - 16*N + 6) + b*f * (-16*N**2 + 10*N - 2) + (5*N - 2) * f**2),
        b*N**2 * (N*b**2 * (6*N**2 - 9*N + 4) + b*f * (-4*N**2 + 3*N - 1) + f**2),
        b**3 * (N - 1)**2 * N**4,
    ]


def s_coefficients(beta, phi, n):
    """Own-price second-order-condition numerator; negative in the existence region."""
    b, f, N = beta, phi, n
    return [
        -b**4,
        b**3 * (5*f + b * (1 - 7*N)),
        -3*b**2 * (b**2 * N * (7*N - 2) + b*f * (2 - 9*N) + 3*f**2),
        b * (5*b**3 * N**2 * (3 - 7*N) + 4*b**2 * (N * (15*N - 7) + 1) * f
             + 3*b * (3 - 11*N) * f**2 + 7*f**3),
        5*b**4 * N**3 * (4 - 7*N) + 2*b**3 * N * (N * (35*N - 26) + 7) * f
        + b**2 * ((26 - 45*N) * N - 5) * f**2 + b * (13*N - 4) * f**3 - 2*f**4,
        b * (3*b**3 * (5 - 7*N) * N**4 + 3*b**2 * (N * (15*N - 16) + 6) * N**2 * f
             + b * ((25 - 27*N) * N - 10) * N * f**2 + (6*N**2 - 4*N + 1) * f**3),
        b*N * (b**3 * (6 - 7*N) * N**4 + b**2 * (N * (15*N - 22) + 10) * N**2 * f
               + b * (-6*N**2 + 8*N - 5) * N * f**2 + f**3),
        -b**3 * (N - 1) * N**4 * (b * N**2 + 2 * (1 - N) * f),
    ]


def n_pu_coefficients(beta, phi, n):
    """Numerator of -dp*/du0."""
    b, f, N = beta, phi, n
    return [
        b**2 * (b - f),
        2*b * (2*b**2 * N - 2*b*N*f + f**2),
        6*b**3 * N**2 - N*b**2 * (6*N + 1) * f + f**2 * b * (4*N - 1) - f**3,
        2*b*N**2 * (b - f) * (2*b*N - f),
        b*N**2 * (b**2 * N**2 - f*N*b * (N + 1) + f**2),
    ]


def n_piu_coefficients(beta, phi, n):
    """Numerator of -dpi*/du0; valid with u0 eliminated through the FOC."""
    b, f, N = beta, phi, n
    return [
        b**3,
        b**2 * (5*b*N - 4*f),
        b * (10*b**2 * N**2 + 2*b * (1 - 7*N) * f + 5*f**2),
        10*b**3 * N**3 + 2*N*b**2 * (2 - 9*N) * f + b * (9*N - 2) * f**2 - 2*f**3,
        b*N * (5*b**2 * N**3 + 2*N*b * (1 - 5*N) * f + (4*N - 1) * f**2),
        b*N**2 * (b**2 * N**3 - 2*b*N**2 * f + f**2),
    ]


def d_piu_coefficients(beta, phi, n):
    """Shared degree-7 denominator of dpi*/du0, d(Nx*)/dN and dpi*/dN."""
    b, f, N = beta, phi, n
    return [
        b**3,
        b**2 * (b * (7*N - 1) - 4*f),
        b * (b**2 * (21*N**2 - 7*N + 1) + 4*b * (1 - 5*N) * f + 5*f**2),
        N*b**3 * (35*N**2 - 20*N + 5) + b**2 * (-40*N**2 + 15*N - 1) * f
        + b * (15*N - 3) * f**2 - 2*f**3,
        N**2 * b**3 * (35*N**2 - 30*N + 10) + N*b**2 * (-40*N**2 + 21*N - 3) * f
        + 5*N*b * (3*N - 1) * f**2 - 2*N*f**3,
        b*N**2 * (N*b**2 * (21*N**2 - 25*N + 10) + b * (-20*N**2 + 13*N - 3) * f
                  + (5*N - 1) * f**2),
        b*N**3 * (N*b**2 * (7*N**2 - 11*N + 5) + b * (-4*N**2 + 3*N - 1) * f + f**2),
        b**3 * (N - 1)**2 * N**5,
    ]


def n_csu_coefficients(beta, phi, n):
    """Numerator of +dCS*/du0."""
    b, f, N = beta, phi, n
    return [
        b**2 * (b - 2*f),
        2*b * (2*b**2 * N + b * (1 - 4*N) * f + 2*f**2),
        6*b**3 * N**2 + b**2 * (-12*N**2 + 5*N - 1) * f + b * (8*N - 3) * f**2 - 2*f**3,
        2*b*N * (2*b**2 * N**2 + b * (-4*N**2 + 2*N - 1) * f + (2*N - 1) * f**2),
        b*N**2 * (b**2 * N**2 + b * (-2*N**2 + N - 1) * f + f**2),
    ]


def n_p_coefficients(beta, phi, n):
    """Numerator of dp*/dN."""
    b, f, N = beta, phi, n
    return [
        b**3 * (f - b),
        -b**2 * (4*b**2 * N + b*f * (1 - 4*N) + 2*f**2),
        b * (-6*b**3 * N**2 + 2*b**2 * f * N * (3*N - 1) + b*f**2 * (3 - 4*N) + f**3),
        -b * (4*b**3 * N**3 + b**2 * f * N**2 * (1 - 4*N) + b*f**2 * N * (2*N - 3) + f**3),
        b**3 * N**4 * (f - b),
    ]


def n_nx_coefficients(beta, phi, n):
    """Numerator of d(N x*)/dN."""
    b, f, N = beta, phi, n
    return [
        b**3,
        b**2 * (b * (5*N - 1) - 4*f),
        b * (b**2 * (10*N**2 - 4*N + 1) + 2*b * (2 - 7*N) * f + 5*f**2),
        b**3 * N * (10*N**2 - 6*N + 3) + b**2 * f * (-18*N**2 + 10*N - 1)
        + 3*b*f**2 * (3*N - 1) - 2*f**3,
        b*N * (b**2 * N * (5*N**2 - 4*N + 3) + 2*b*f * (-5*N**2 + 4*N - 1) + (4*N - 3) * f**2),
        b**2 * N**2 * (b*N * (N**2 - N + 1) - (2*N**2 - 2*N + 1) * f),
    ]


def n_csk_coefficients(beta, phi, n):
    """Numerator of dCS*/dN."""
    b, f, N = beta, phi, n
    return [
        b**4,
        b**3 * (b * (6*N - 1) - 4*f),
        b**2 * (b**2 * (15*N**2 - 5*N + 2) + 2*b * (1 - 9*N) * f + 5*f**2),
        b * (b**3 * N * (20*N**2 - 10*N + 8) + b**2 * f * (-32*N**2 + 6*N + 2)
             + b*f**2 * (14*N + 1) - 2*f**3),
        b * (b**3 * N**2 * (15*N**2 - 10*N + 12) + b**2 * f * (-28*N**3 + 6*N**2 + 5*N - 1)
             + b*f**2 * (13*N**2 + 2*N - 4) - 2 * (N + 1) * f**3),
        b**2 * N * (b**2 * N**2 * (6*N**2 - 5*N + 8) + b*f * (-12*N**3 + 2*N**2 + 4*N - 2)
                    + f**2 * (4*N**2 + N - 4)),
        b**3 * N**2 * (b*N**2 * (N**2 - N + 2) + (N - 1 - 2*N**3) * f),
    ]


def d_csk_coefficients(beta, phi, n):
    """Denominator of dCS*/dN: (N+1) times the slope family."""
    return [c * (n + 1.0) for c in a_coefficients(beta, phi, n)]


def n_pik_coefficients(beta, phi, n, u0, z):
    """Numerator of dpi*/dN; carries u0 and the solved z inside its coefficients."""
    b, f, N, u, zs = beta, phi, n, u0, z
    return [
        b**3 * (u + b*zs),
        b**2 * (b**2 * ((5*N - 2) * zs - 1) + b * ((5*N - 2) * u - 2*zs*f) - 2*u*f),
        b * (b**3 * (10*N**2 * zs - 2*N * (4*zs + 2) + zs)
             + b**2 * ((10*N**2 - 8*N + 1) * u + (zs + 1 - 6*N*zs) * f))
        + b * (b * (u * (1 - 6*N) * f + zs*f**2) + u*f**2),
        b * (b**3 * N * (10*N**2 * zs - 12*N*zs - 6*N + 3*zs)
             + b**2 * (N * (10*N**2 - 12*N + 3) * u + (2*N*zs + 4*N - 1) * f - 6*N**2 * zs * f))
        + b * (b*f * (N * (2 - 6*N) * u + (N*zs + zs + 2) * f) + (N + 1) * u * f**2),
        b * (b**3 * N**2 * (5*N**2 * zs - 2*N * (4*zs + 2) + 3*zs)
             + b**2 * (N**2 * (5*N**2 - 8*N + 3) * u + (N**2 * zs - 2*N**3 * zs + 5*N**2 - 2*N) * f))
        + b * (b*f*N * (-2*N**2 * u + N*u + (zs + 2) * f) + (N*u - 2*f) * f**2),
        b**3 * N**2 * (b*N * (N**2 * zs - 2*N*zs + zs - N)
                       + N*u + 2*N*f - f + N**3 * u - 2*N**2 * u),
    ]


# registry: name -> (lowest power of e^z, family)
FAMILIES = {
    "a": (0, a_coefficients),
    "s": (0, s_coefficients),
    "n_pu": (1, n_pu_coefficients),
    "n_piu": (1, n_piu_coefficients),
    "d_piu": (0, d_piu_coefficients),
    "n_csu": (1, n_csu_coefficients),
    "n_p": (2, n_p_coefficients),
    "n_nx": (1, n_nx_coefficients),
    "n_csk": (0, n_csk_coefficients),
    "d_csk": (0, d_csk_coefficients),
    "n_pik": (2, n_pik_coefficients),
}


def horner(coeffs, x):
    """sum_i coeffs[i] x^i by Horner, starting from the top coefficient."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def eval_series(coeffs, m_start: int, z) -> np.ndarray:
    """Evaluate sum_m c_m e^{mz}, coefficients lowest power first, by Horner
    in e^z with the lowest power factored out."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = horner(coeffs, np.exp(z))
        if m_start:
            acc = acc * np.exp(m_start * z)
    return acc
