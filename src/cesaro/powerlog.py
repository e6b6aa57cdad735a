"""Tiny closed-form algebra for linear combinations of t^g * (ln t)^p.

This family is closed under antidifferentiation, which is all the integral
and staircase machinery needs:

    int t^g ln^p t dt = t^(g+1) * sum_{i=0}^{p} (-1)^i p!/(p-i)! ln^(p-i) t / (g+1)^(i+1)
                        (g != -1)
    int t^(-1) ln^p t dt = ln^(p+1) t / (p+1)

Evaluation at t = 0 follows the finite-part convention: every term that
diverges or vanishes there (negative powers, bare logs) contributes 0, so
Q(x) - Q(0) is the Hadamard-regularized integral from 0.  For exponents that
are genuinely positive this coincides with the ordinary limit.
"""
from __future__ import annotations

import math

__all__ = ["PowerLogExpr"]


class PowerLogExpr:
    """Mapping (exponent, log power) -> coefficient, immutable in spirit."""

    __slots__ = ("terms", "_has_log")

    def __init__(self, terms: dict[tuple[float, int], float] | None = None):
        self.terms = {k: float(v) for k, v in (terms or {}).items() if v != 0.0}
        self._has_log = any(p for _, p in self.terms)

    def antiderivative(self) -> "PowerLogExpr":
        out: dict[tuple[float, int], float] = {}
        for (g, p), c in self.terms.items():
            if g == -1.0:
                key = (0.0, p + 1)
                out[key] = out.get(key, 0.0) + c / (p + 1)
                continue
            gp1 = g + 1.0
            fall = 1.0  # p! / (p-i)!
            sign = 1.0
            denom = gp1
            for i in range(p + 1):
                key = (gp1, p - i)
                out[key] = out.get(key, 0.0) + sign * c * fall / denom
                fall *= p - i
                sign = -sign
                denom *= gp1
        return PowerLogExpr(out)

    def __call__(self, t: float) -> float:
        t = float(t)
        if t == 0.0:
            # finite-part value at the origin
            return self.terms.get((0.0, 0), 0.0)
        if t < 0.0:
            raise ValueError("PowerLogExpr is defined on t >= 0")
        lt = math.log(t) if self._has_log else 0.0
        acc = 0.0
        for (g, p), c in self.terms.items():
            v = c * t ** g
            if p:
                v *= lt ** p
            acc += v
        return acc

    def __repr__(self):
        parts = [f"{c!r}*t^{g}*ln^{p}" for (g, p), c in sorted(self.terms.items())]
        return "PowerLogExpr(" + (" + ".join(parts) or "0") + ")"
