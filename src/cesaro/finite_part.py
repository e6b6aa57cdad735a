"""Hadamard finite parts of power and log-power integrals on (0, b].

For g(eps) = int_eps^b t^alpha dt the small-eps expansion contains at most a
single divergent monomial eps^-a or a log; the finite part is what remains
after removing those.  Closed forms:

    F.p. int_0^b t^alpha dt        = b^(alpha+1)/(alpha+1)   (alpha != -1)
    F.p. int_0^b t^-1 dt           = ln b
    F.p. int_0^b t^alpha ln t dt   = b^(alpha+1) (ln b/(alpha+1) - 1/(alpha+1)^2)
    F.p. int_0^b t^-1 ln t dt      = (ln b)^2 / 2

The same removal is available numerically: ``extract_finite_part`` fits a
caller-supplied divergent basis { eps^-a (ln 1/eps)^b } plus a constant to
sampled values of g on a decreasing eps grid and reports the constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

__all__ = [
    "FinitePartDecomposition",
    "IllConditionedFitError",
    "fp_power_integral",
    "fp_power_integral_exact",
    "fp_log_power_integral",
    "fp_log_power_integral_exact",
    "extract_finite_part",
]


class IllConditionedFitError(RuntimeError):
    """The divergent-basis fit cannot be trusted; change basis or grid."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class FinitePartDecomposition:
    """Result of a finite-part extraction.

    divergent_terms  fitted (a, b, coefficient) triples for eps^-a (ln 1/eps)^b,
                     in the caller's basis order; (0, 0) never appears here
    finite_part      the fitted constant term
    residual         weighted rms misfit of the model on the grid
    condition        condition number of the normalized design matrix
    """

    divergent_terms: tuple[tuple[float, int, float], ...]
    finite_part: float
    residual: float
    condition: float


def fp_power_integral(alpha: float, b: float = 1.0) -> float:
    """F.p. int_0^b t^alpha dt as a float; alpha = -1 gives ln b."""
    b = float(b)
    if b <= 0:
        raise ValueError("upper limit b must be positive")
    alpha = float(alpha)
    if alpha == -1.0:
        return math.log(b)
    return b ** (alpha + 1.0) / (alpha + 1.0)


def fp_power_integral_exact(alpha, b=1) -> Fraction:
    """Exact-rational finite part, for the inputs where one exists.

    That means rational alpha with b = 1 (value 1/(alpha+1)), integer alpha
    with rational b, or alpha = -1 with b = 1 (value 0).  Anything else has
    an irrational value and raises ValueError; use the float form.
    """
    if not isinstance(alpha, Rational) or not isinstance(b, Rational):
        raise TypeError("exact finite part needs rational alpha and b")
    alpha = Fraction(alpha)
    b = Fraction(b)
    if b <= 0:
        raise ValueError("upper limit b must be positive")
    if alpha == -1:
        if b == 1:
            return Fraction(0)
        raise ValueError("F.p. of t^-1 is ln b, irrational unless b = 1")
    if b == 1:
        return 1 / (alpha + 1)
    if alpha.denominator == 1:
        return b ** (alpha + 1) / (alpha + 1)
    raise ValueError(f"b^(alpha+1) is not rational for alpha={alpha}, b={b}")


def fp_log_power_integral(alpha: float, b: float = 1.0) -> float:
    """F.p. int_0^b t^alpha ln t dt; alpha = -1 gives (ln b)^2 / 2.

    Comes from the antiderivative t^(a+1) (ln t/(a+1) - 1/(a+1)^2): the
    eps-end terms are exactly the removable divergent basis, so the finite
    part is the antiderivative at b.  At b = 1 this is -1/(alpha+1)^2, the
    alpha-derivative of the power-integral finite part.
    """
    b = float(b)
    if b <= 0:
        raise ValueError("upper limit b must be positive")
    alpha = float(alpha)
    if alpha == -1.0:
        return math.log(b) ** 2 / 2.0
    ap1 = alpha + 1.0
    return b ** ap1 * (math.log(b) / ap1 - 1.0 / (ap1 * ap1))


def fp_log_power_integral_exact(alpha, b=1) -> Fraction:
    """Exact log-power finite part; only b = 1 yields a rational value."""
    if not isinstance(alpha, Rational) or not isinstance(b, Rational):
        raise TypeError("exact finite part needs rational alpha and b")
    alpha = Fraction(alpha)
    if Fraction(b) != 1:
        raise ValueError("exact log-power finite part only exists at b = 1")
    if alpha == -1:
        return Fraction(0)
    return -1 / (alpha + 1) ** 2


def extract_finite_part(g, basis, eps_grid,
                        cond_limit: float = 1e12) -> FinitePartDecomposition:
    """Fit g(eps) ~ sum_i c_i eps^-a_i (ln 1/eps)^b_i + A and return A.

    g         callable sampled on the grid
    basis     iterable of (a, b) exponent pairs, distinct, (0, 0) excluded
              (the constant column is always present and is the answer)
    eps_grid  strictly decreasing positive values spanning >= 3 decades,
              with at least 2 * (len(basis) + 1) points

    The fit is weighted least squares: rows are scaled by 1/max(1, |g|) so
    the divergent end does not drown the constant, and columns are scaled to
    unit norm before solving.  A condition number beyond ``cond_limit`` for
    the scaled design matrix, or a column that vanishes on the grid, raises
    IllConditionedFitError instead of returning a garbage constant.
    """
    import numpy as np

    basis = [(float(a), int(b)) for a, b in basis]
    if len(set(basis)) != len(basis):
        raise ValueError("divergent basis pairs must be distinct")
    if (0.0, 0) in basis:
        raise ValueError("(0, 0) is the constant term, not a divergent basis element")
    eps = np.asarray([float(e) for e in eps_grid], dtype=float)
    if eps.ndim != 1 or len(eps) < 2 * (len(basis) + 1):
        raise ValueError(
            f"eps grid needs at least {2 * (len(basis) + 1)} points for "
            f"{len(basis)} basis terms")
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ValueError("eps grid must be positive and strictly decreasing")
    if eps[0] / eps[-1] < 999.999:
        raise ValueError("eps grid should span at least three decades")

    gvals = np.asarray([float(g(e)) for e in eps], dtype=float)
    if not np.all(np.isfinite(gvals)):
        raise ValueError("g produced non-finite samples on the eps grid")

    ln_inv = np.log(1.0 / eps)
    cols = [eps ** (-a) * ln_inv ** b for a, b in basis]
    cols.append(np.ones_like(eps))
    coefs, residual, condition = _weighted_fit(np.column_stack(cols), gvals, cond_limit)
    divergent = tuple((a, b, float(c)) for (a, b), c in zip(basis, coefs[:-1]))
    return FinitePartDecomposition(
        divergent_terms=divergent,
        finite_part=float(coefs[-1]),
        residual=residual,
        condition=condition,
    )


def _weighted_fit(design, values, cond_limit: float = 1e12):
    """Least-squares coefficients of ``values`` on the columns of ``design``,
    with the rms misfit and the condition number it was solved at.

    Rows are scaled by 1/max(1, |value|), so that large samples do not drown
    the small ones, and the scaled columns to unit norm before solving.  A
    column that vanishes on the rows, a rank deficit, or a condition number
    beyond ``cond_limit`` raises IllConditionedFitError instead of returning
    garbage coefficients.
    """
    import numpy as np

    weights = 1.0 / np.maximum(1.0, np.abs(values))
    dw = design * weights[:, None]
    gw = values * weights
    norms = np.linalg.norm(dw, axis=0)
    if np.any(norms == 0.0):
        raise IllConditionedFitError("degenerate basis column on this grid", math.inf)
    coef_n, _, rank, sv = np.linalg.lstsq(dw / norms, gw, rcond=None)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if rank < design.shape[1] or condition > cond_limit:
        raise IllConditionedFitError(
            f"finite-part fit is ill-conditioned (cond={condition:.3e}); "
            "separate the basis exponents or widen the eps grid", condition)
    coefs = coef_n / norms
    resid = dw @ coefs - gw
    return coefs, float(np.sqrt(np.mean(resid ** 2))), condition
