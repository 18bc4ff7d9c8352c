"""Linear-algebra services: Newton-system solves, local norms, the largest eigenvalue.

Every entry passes H through _operator, the one place that decides its kind,
and then uses only h @ v, h.shape and _factor(h).  A structured H has @, shape
and its own solver(free=None), and this module reads nothing of its structure;
an operator is gscopt's own matrix-free type, _Operator, which holds shape and
a matvec that @ calls bare, built from a callable plus dim or from any object
with matvec and shape (a scipy LinearOperator among them); anything else is a
dense array.  _factor(h, free) returns rhs -> H_FF^-1 rhs on the free
coordinates free (all of them when None): a structured H's own solver(free),
CG (_cg, the one CG loop) on an operator's block, or one Cholesky
factorization (_psd_cholesky) of the dense H or block, shifted, not refused,
when singular to rounding.  It is the only place a Hessian or a free block is
solved (prox's active set calls it too), and every dense factorization, here,
in a structured H's solver, in quasi_newton and in acceptance, is one LAPACK
potrf/potrs pair in the lower triangle: cholesky and cho_solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import get_lapack_funcs

from .errors import ConvergenceError, NotPositiveDefiniteError, ParameterError

#: CG curvature below this multiple of ||d||^2 is treated as a not-PD signal.
CG_CURVATURE_TOL = 1e-14

EPS = np.finfo(float).eps
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def cholesky(a) -> np.ndarray:
    """A symmetric PD a's Cholesky factor L in the lower triangle of a copy of a, whose
    strict upper triangle keeps a's entries: one LAPACK potrf.  ParameterError on a
    non-finite a; NotPositiveDefiniteError names the failing pivot."""
    if not np.isfinite(a).all():
        raise ParameterError("matrix to factor contains non-finite entries")
    c, info = _POTRF(a, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefiniteError(f"Cholesky factorization failed at pivot {info}")
    return c


def cho_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs from c = cholesky(A): one LAPACK potrs."""
    return _POTRS(c, rhs, lower=1)[0]


def _psd_cholesky(a) -> np.ndarray:
    """cholesky(a) of a symmetric PSD a, or of a + s I when that fails or its smallest
    pivot^2 is at most s = n eps max(diag a), the rounding of a singular a (Nocedal &
    Wright, Numerical Optimization, section 3.4); a itself is never written."""
    shift = a.shape[0] * EPS * a.diagonal().max()
    try:
        c = cholesky(a)
        if c.diagonal().min() ** 2 > shift:
            return c
    except NotPositiveDefiniteError:
        pass
    return cholesky(a + shift * np.eye(a.shape[0]))


class _Operator:
    """A matrix-free H of order dim: shape and @, one bare call to matvec."""

    __slots__ = ("matvec", "shape")

    def __init__(self, matvec: Callable[[np.ndarray], np.ndarray], dim: int):
        self.matvec = matvec
        self.shape = (dim, dim)

    def __matmul__(self, v):
        return self.matvec(v)


def _operator(h, dim: int | None = None):
    """h as one of the module's three kinds: a structured H and an _Operator as they are,
    any object with matvec and shape (a scipy LinearOperator among them) as an _Operator
    over its matvec, a bare matvec callable as a (dim, dim) _Operator (ParameterError
    without dim), a scipy sparse matrix refused (ParameterError), anything else as a
    float array."""
    if hasattr(h, "solver") or isinstance(h, _Operator):
        return h
    if hasattr(h, "matvec") and hasattr(h, "shape"):
        return _Operator(h.matvec, h.shape[0])
    if callable(h):
        if dim is None:
            raise ParameterError("operator input needs dim")
        return _Operator(h, dim)
    if sp.issparse(h):
        raise ParameterError(
            "H must be a dense array, a structured H with solver(), an object with matvec "
            "and shape, or a matvec callable; a scipy sparse matrix is none of them")
    return np.asarray(h, dtype=float)


def _factor(h, free=None) -> Callable[[np.ndarray], np.ndarray]:
    """rhs -> H_FF^-1 rhs for an _operator-normalized H on the ascending coordinates free
    (the whole H when None): its own solver(free) when structured, CG on the block for
    an operator (_cg_block), and when dense one Cholesky factorization of H or of the
    block gathered by take.  An H or block singular to rounding is shifted
    (_psd_cholesky); NotPositiveDefiniteError when it is not positive semidefinite."""
    if hasattr(h, "solver"):
        return h.solver(free)
    if isinstance(h, _Operator):
        return _cg_block(h, free)
    cho = _psd_cholesky(h if free is None else h.take(free, 0).take(free, 1))
    return lambda rhs: cho_solve(cho, rhs)


def _cg(matvec, rhs, tol: float, max_iter: int | None = None,
        x=None) -> tuple[np.ndarray, int]:
    """Conjugate gradients on H x = rhs from x (updated in place; zero, with no product,
    when None) until ||rhs - H x|| <= tol ||rhs||; returns x and the iterations taken.
    Curvature d' H d <= CG_CURVATURE_TOL ||d||^2 raises NotPositiveDefiniteError, and
    max_iter (None: max(4 n, 200)) iterations without reaching tol ConvergenceError."""
    if max_iter is None:
        max_iter = max(4 * rhs.size, 200)
    x, r = (np.zeros(rhs.size), rhs.copy()) if x is None else (x, rhs - matvec(x))
    d = r.copy()
    rs = float(r @ r)
    target = tol * np.linalg.norm(rhs)
    for it in range(max_iter + 1):
        if math.sqrt(rs) <= target:
            return x, it
        if it == max_iter:
            break
        hd = matvec(d)
        curv = float(d @ hd)
        if curv <= CG_CURVATURE_TOL * float(d @ d):
            raise NotPositiveDefiniteError(
                f"CG met nonpositive curvature {curv:.3e} at iteration {it}"
            )
        alpha = rs / curv
        x += alpha * d
        r -= alpha * hd
        rs_new = float(r @ r)
        d = r + (rs_new / rs) * d
        rs = rs_new
    raise ConvergenceError(
        f"CG did not reach tolerance {target:.3e} in {max_iter} iterations",
        residual=math.sqrt(rs),
    )


def _cg_block(h, free=None) -> Callable[[np.ndarray], np.ndarray]:
    """rhs -> H_FF^-1 rhs by CG (_cg) to ||H_FF x - rhs|| <= n eps ||rhs|| on the n free
    coordinates of an operator H (all of H, with no gather, when free is None or covers
    it).  CG that meets nonpositive curvature is run again, and for every later rhs, on
    the block shifted by 100 n eps times its Rayleigh quotient at _start_vector(n), the
    rounding level of a singular block, plus 10 CG_CURVATURE_TOL, which the shifted
    curvature must clear on a small-scale H too; meeting it again raises
    NotPositiveDefiniteError."""
    dim = h.shape[0]
    if free is None or free.size == dim:
        block = h.matvec
    else:
        full = np.zeros(dim)

        def block(v):
            full[free] = v
            return h.matvec(full)[free]
    shift = 0.0

    def solve(rhs):
        nonlocal shift
        n = rhs.size
        try:
            return _cg(lambda v: block(v) + shift * v, rhs, n * EPS)[0]
        except NotPositiveDefiniteError:
            v = _start_vector(n)
            step = (100.0 * n * EPS * float(v @ block(v)) / float(v @ v)
                    + 10.0 * CG_CURVATURE_TOL)
            if shift or not step > 0.0:
                raise
            shift = step
            return solve(rhs)
    return solve


def _start_vector(dim: int) -> np.ndarray:
    # unlike all-ones, 1 + frac(0.618 i) is not orthogonal to eigenvectors like [1, -1]
    return 1.0 + np.modf(0.5 * (math.sqrt(5.0) - 1.0) * np.arange(dim))[0]


@dataclass
class NewtonSystem:
    """H n = -g with H symmetric PD: a dense matrix, a structured H or an operator (_operator)."""

    h: object
    g: np.ndarray


class NewtonDirection(NamedTuple):
    n: np.ndarray
    lam: float
    iterations: int


def newton_direction(sys: NewtonSystem, method: str = "auto", tol: float = 1e-10,
                     max_iter: int | None = None, warm_start: np.ndarray | None = None) -> NewtonDirection:
    """Solve H n = -g and return (n, lambda) with lambda = sqrt(max(0, -g' n)).

    method "cholesky" needs a dense or structured H (_factor; ParameterError
    for an operator).  "cg" (_cg) works with any H and stops at
    ||H n + g|| <= tol ||g||; "auto" picks Cholesky unless H is an operator.
    """
    g = np.asarray(sys.g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ParameterError("gradient contains non-finite entries")
    h = _operator(sys.h, g.size)
    if method == "auto":
        method = "cg" if isinstance(h, _Operator) else "cholesky"

    if method == "cholesky":
        if isinstance(h, _Operator):
            raise ParameterError("cholesky method needs a dense Hessian")
        n = _factor(h)(-g)
        return NewtonDirection(n, math.sqrt(max(0.0, -float(g @ n))), 1)

    if method != "cg":
        raise ParameterError(f"unknown method {method!r}")
    if not np.any(g):
        return NewtonDirection(np.zeros(g.size), 0.0, 0)
    x = None if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    x, it = _cg(h.__matmul__, -g, tol, max_iter, x)
    return NewtonDirection(x, math.sqrt(max(0.0, -float(g @ x))), it)


def local_norm(h, v) -> float:
    """sqrt(v' H v) for PSD H of any kind (_operator); 0 for v = 0."""
    v = np.asarray(v, dtype=float)
    return _form_norm(v, _operator(h, v.size) @ v) if np.any(v) else 0.0


def _form_norm(v, hv) -> float:
    """local_norm(h, v) from the product hv = H v."""
    q = float(v @ hv)
    if q < -1e-12 * float(v @ v):
        raise NotPositiveDefiniteError(f"negative quadratic form {q:.3e}")
    return math.sqrt(max(0.0, q))


def largest_eigenvalue(h, dim: int | None = None, tol: float = 1e-3, max_iter: int = 1000) -> float:
    """Power-iteration estimate of lambda_max for a symmetric PSD H of any kind (_operator).

    One H product per iteration: the Rayleigh quotient's product is the
    next iteration's power step.
    """
    h = _operator(h, dim)
    w = h @ _start_vector(h.shape[0])
    lam = 0.0
    for _ in range(max_iter):
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        w = h @ v
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam
