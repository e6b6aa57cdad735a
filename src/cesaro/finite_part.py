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

The fit, here and in the staircase limits of ``zeta``, is one pure-Python
weighted least-squares solver: modified Gram-Schmidt with the right-hand
side as an extra column (Bjorck, *BIT* 7, 1967), on rows scaled by
1/max(1, |y|) and columns scaled to unit norm.  One back-substitution
along R's rows gives both the coefficients and each column of R^-1.  Its
condition number is ||R||_F ||R^-1||_F of that normalized design, the
Frobenius-norm one: never below the 2-norm condition number and at most the
column count times it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import mul

from .evaluation import require_finite

__all__ = [
    "FinitePartDecomposition",
    "IllConditionedFitError",
    "fp_power_integral",
    "fp_power_integral_exact",
    "fp_log_power_integral",
    "fp_log_power_integral_exact",
    "extract_finite_part",
]

# the largest condition number a fit is trusted at, here and on the staircase
MAX_CONDITION = 1e12


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
    condition        Frobenius-norm condition number ||R||_F ||R^-1||_F of
                     the normalized design matrix (R from its QR): between
                     the 2-norm one and the column count times it
    """

    divergent_terms: tuple[tuple[float, int, float], ...]
    finite_part: float
    residual: float
    condition: float


def _float_arguments(alpha, b) -> tuple[float, float]:
    """alpha and a positive b as floats, each checked by name before it is
    converted: a NaN, an infinity or an int past the float range is refused."""
    require_finite(b=b)
    b = float(b)
    if b <= 0:
        raise ValueError("upper limit b must be positive")
    require_finite(alpha=alpha)
    return float(alpha), b


def _power_times(b: float, e: float, times) -> float:
    """times(b ** e) for b > 0.  Where b ** e alone leaves the float range,
    h times(h) with h = b^(e/2), so that a finite part inside that range
    reads its float, and one past it an infinity of its own sign (h is +inf
    where it overflows too)."""
    try:
        return times(b ** e)
    except OverflowError:
        pass
    try:
        h = b ** (e / 2.0)
    except OverflowError:
        h = math.inf
    return h * times(h)


def fp_power_integral(alpha: float, b: float = 1.0) -> float:
    """F.p. int_0^b t^alpha dt as a float; alpha = -1 gives ln b.  A value
    past the float range reads as an infinity of the sign of 1/(alpha+1);
    one inside it reads its float, though b^(alpha+1) may overflow."""
    alpha, b = _float_arguments(alpha, b)
    if alpha == -1.0:
        return math.log(b)
    ap1 = alpha + 1.0
    return _power_times(b, ap1, lambda p: p / ap1)


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
    alpha-derivative of the power-integral finite part.  A value past the
    float range reads as an infinity of the sign of ln b/(a+1) - 1/(a+1)^2;
    one inside it reads its float, though b^(a+1) may overflow.
    """
    alpha, b = _float_arguments(alpha, b)
    if alpha == -1.0:
        return math.log(b) ** 2 / 2.0
    ap1 = alpha + 1.0
    c = math.log(b) / ap1 - 1.0 / (ap1 * ap1)
    return _power_times(b, ap1, lambda p: p * c)


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


def extract_finite_part(g, basis, eps_grid) -> FinitePartDecomposition:
    """Fit g(eps) ~ sum_i c_i eps^-a_i (ln 1/eps)^b_i + A and return A.

    g         callable sampled on the grid
    basis     iterable of (a, b) exponent pairs, a finite and b integral
              (2.0 reads as 2), distinct, (0, 0) excluded (the constant
              column is always present and is the answer)
    eps_grid  strictly decreasing finite positive values spanning >= 3
              decades, with at least 2 * (len(basis) + 1) points

    The fit is weighted least squares: rows are scaled by 1/max(1, |g|) so
    the divergent end does not drown the constant, and columns are scaled to
    unit norm before solving.  A condition number beyond ``MAX_CONDITION``
    (1e12) for the scaled design matrix, or a column that vanishes on the
    grid or leaves the float range, raises IllConditionedFitError instead of
    returning a garbage constant.
    """
    basis = [(float(a), b) for a, b in basis]
    if not all(math.isfinite(a) and b % 1 == 0 for a, b in basis):
        raise ValueError("each basis pair (a, b) needs a finite a and an integral b")
    basis = [(a, int(b)) for a, b in basis]
    if len(set(basis)) != len(basis):
        raise ValueError("divergent basis pairs must be distinct")
    if (0.0, 0) in basis:
        raise ValueError("(0, 0) is the constant term, not a divergent basis element")
    eps = [float(e) for e in eps_grid]
    if not all(math.isfinite(e) for e in eps):
        raise ValueError("eps grid must hold finite points only")
    if len(eps) < 2 * (len(basis) + 1):
        raise ValueError(
            f"eps grid needs at least {2 * (len(basis) + 1)} points for "
            f"{len(basis)} basis terms")
    if eps[-1] <= 0 or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps grid must be positive and strictly decreasing")
    if eps[0] / eps[-1] < 999.999:
        raise ValueError("eps grid should span at least three decades")

    gvals = [float(g(e)) for e in eps]
    if not all(math.isfinite(v) for v in gvals):
        raise ValueError("g produced non-finite samples on the eps grid")

    cols = [[_basis_value(e, a, b) for e in eps] for a, b in basis]
    cols.append([1.0] * len(eps))
    coefs, residual, condition = _weighted_fit(cols, gvals)
    divergent = tuple((a, b, c) for (a, b), c in zip(basis, coefs[:-1]))
    return FinitePartDecomposition(
        divergent_terms=divergent,
        finite_part=coefs[-1],
        residual=residual,
        condition=condition,
    )


def _basis_value(eps: float, a: float, b: int) -> float:
    """eps^-a (ln 1/eps)^b, or inf where that leaves the float range."""
    try:
        return eps ** -a * math.log(1.0 / eps) ** b
    except OverflowError:
        return math.inf


def _weighted_fit(columns, values):
    """Least-squares coefficients of ``values`` on ``columns`` (each a list
    with one entry per row), with the rms misfit and the condition number
    it was solved at.

    Rows are scaled by 1/max(1, |value|), so that large samples do not drown
    the small ones, and the scaled columns to unit norm.  Modified
    Gram-Schmidt on that design, with the right-hand side y as one more
    column (Bjorck, *BIT* 7, 1967), gives R, the projections z = Q^T y and
    the misfit y - Q z.  One back-substitution along R's rows solves R c = z
    and, on the unit vectors, gives each column of R^-1 for the condition
    number ||R||_F ||R^-1||_F: an upper bound on the 2-norm condition
    number, at most the column count times it.  A column that vanishes on
    the rows or is not finite, a rank deficit, or a condition number beyond
    ``MAX_CONDITION`` raises IllConditionedFitError instead of returning
    garbage coefficients.

    Only the square roots are float calls; the rest is arithmetic that any
    number type with the float operators can run.
    """
    weights = [1 / max(1, abs(v)) for v in values]
    norms, q, r = [], [], []  # column scales, orthonormal columns, columns of R
    for column in columns:
        a = list(map(mul, column, weights))
        norm = math.sqrt(sum(map(mul, a, a)))
        if not 0 < norm < math.inf:
            raise IllConditionedFitError(
                "a basis column vanishes or leaves the float range on this grid", math.inf)
        norms.append(norm)
        a, r_col = _orthogonalize([x / norm for x in a], q)
        diag = math.sqrt(sum(map(mul, a, a)))
        if diag == 0:
            raise IllConditionedFitError("the basis columns are dependent on this grid",
                                         math.inf)
        q.append([x / diag for x in a])
        r_col.append(diag)
        r.append(r_col)
    misfit, z = _orthogonalize(list(map(mul, values, weights)), q)
    rows = [[col[i] for col in r[i:]] for i in range(len(r))]  # rows[i][l - i] = r_il
    inverse = (_back_substitute(rows, [0] * j + [1]) for j in range(len(r)))
    condition = math.sqrt(sum(sum(map(mul, col, col)) for col in r)
                          * sum(sum(map(mul, col, col)) for col in inverse))
    if condition > MAX_CONDITION:
        raise IllConditionedFitError(
            f"finite-part fit is ill-conditioned (cond={condition:.3e}); "
            "separate the basis exponents or widen the eps grid", condition)
    coefs = _back_substitute(rows, z)
    return ([c / norm for c, norm in zip(coefs, norms)],
            math.sqrt(sum(map(mul, misfit, misfit)) / len(misfit)), condition)


def _orthogonalize(a, q):
    """a less its projections on the orthonormal columns q, each taken off
    before the next is measured, and those projections."""
    projections = []
    for u in q:
        p = sum(map(mul, u, a))
        a = [x - p * y for x, y in zip(a, u)]
        projections.append(p)
    return a, projections


def _back_substitute(rows, z):
    """x with R x = z on the leading len(z) rows and columns of the
    upper-triangular R, given by its rows (rows[i][l - i] = r_il): from the
    bottom up, x_i = (z_i - sum_{l=i+1..} r_il x_l) / r_ii."""
    x = list(z)
    for i in reversed(range(len(z))):
        x[i] = (z[i] - sum(map(mul, rows[i][1:len(z) - i], x[i + 1:]))) / rows[i][0]
    return x
