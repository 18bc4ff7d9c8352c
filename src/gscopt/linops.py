"""Linear-algebra services: Newton-system solves, local norms, extreme eigenvalues."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ConvergenceError, NotPositiveDefiniteError, ParameterError

#: CG curvature below this multiple of ||d||^2 is treated as a not-PD signal.
CG_CURVATURE_TOL = 1e-14


def _as_matvec(h) -> Callable[[np.ndarray], np.ndarray]:
    if callable(h):
        return h
    hmat = np.asarray(h, dtype=float)
    return lambda v: hmat @ v


@dataclass
class NewtonSystem:
    """H n = -g with H a symmetric PD matrix or an hvp closure."""

    h: object
    g: np.ndarray


class NewtonDirection(NamedTuple):
    n: np.ndarray
    lam: float
    iterations: int


def newton_direction(sys: NewtonSystem, method: str = "auto", tol: float = 1e-10,
                     max_iter: int | None = None, warm_start: np.ndarray | None = None) -> NewtonDirection:
    """Solve H n = -g and return (n, lambda) with lambda = sqrt(max(0, -g' n)).

    method "cholesky" needs a dense H; "cg" works with any operator and stops
    at ||H n + g|| <= tol ||g||; "auto" picks Cholesky when H is a matrix.
    """
    g = np.asarray(sys.g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ParameterError("gradient contains non-finite entries")
    if method == "auto":
        method = "cg" if callable(sys.h) else "cholesky"

    if method == "cholesky":
        if callable(sys.h):
            raise ParameterError("cholesky method needs a dense Hessian")
        try:
            cho = scipy.linalg.cho_factor(np.asarray(sys.h, dtype=float), lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"Cholesky factorization failed: {exc}") from exc
        n = scipy.linalg.cho_solve(cho, -g)
        return NewtonDirection(n, math.sqrt(max(0.0, -float(g @ n))), 1)

    if method != "cg":
        raise ParameterError(f"unknown method {method!r}")
    matvec = _as_matvec(sys.h)
    p = g.size
    if max_iter is None:
        max_iter = max(4 * p, 200)
    x = np.zeros(p) if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return NewtonDirection(np.zeros(p), 0.0, 0)
    r = -g - matvec(x)
    d = r.copy()
    rs = float(r @ r)
    target = tol * gnorm
    for it in range(max_iter):
        if math.sqrt(rs) <= target:
            return NewtonDirection(x, math.sqrt(max(0.0, -float(g @ x))), it)
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
    if math.sqrt(rs) <= target:
        return NewtonDirection(x, math.sqrt(max(0.0, -float(g @ x))), max_iter)
    raise ConvergenceError(
        f"CG did not reach tolerance {target:.3e} in {max_iter} iterations",
        residual=math.sqrt(rs),
    )


def local_norm(h, v) -> float:
    """sqrt(v' H v) for PSD H (matrix or operator); 0 for v = 0."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return 0.0
    q = float(v @ _as_matvec(h)(v))
    if q < -1e-12 * float(v @ v):
        raise NotPositiveDefiniteError(f"negative quadratic form {q:.3e}")
    return math.sqrt(max(0.0, q))


class EigenEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


def smallest_eigenvalue(h, tol: float = 1e-6, max_iter: int = 500, dim: int | None = None) -> EigenEstimate:
    """lambda_min of a symmetric PSD operator.

    Dense input: inverse power iteration on the Cholesky factorization.
    Operator input: Lanczos (scipy eigsh).  Non-convergence returns the last
    estimate with converged=False instead of raising.
    """
    if callable(h):
        if dim is None:
            raise ParameterError("operator input needs dim")
        op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=h)
        try:
            vals = scipy.sparse.linalg.eigsh(
                op, k=1, which="SA", maxiter=max_iter, tol=tol,
                return_eigenvectors=False,
            )
            return EigenEstimate(float(vals[0]), True, max_iter)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            est = float(exc.eigenvalues[0]) if len(exc.eigenvalues) else math.nan
            return EigenEstimate(est, False, max_iter)

    hmat = np.asarray(h, dtype=float)
    p = hmat.shape[0]
    if p == 1:
        return EigenEstimate(float(hmat[0, 0]), True, 0)
    try:
        cho = scipy.linalg.cho_factor(hmat, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not PD: {exc}") from exc
    v = np.ones(p) / math.sqrt(p)
    lam = float(v @ (hmat @ v))
    for it in range(max_iter):
        w = scipy.linalg.cho_solve(cho, v)
        w /= np.linalg.norm(w)
        lam_new = float(w @ (hmat @ w))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return EigenEstimate(lam_new, True, it + 1)
        v, lam = w, lam_new
    return EigenEstimate(lam, False, max_iter)


def largest_eigenvalue(h, dim: int | None = None, tol: float = 1e-3, max_iter: int = 1000) -> float:
    """Power-iteration estimate of lambda_max for a symmetric PSD operator."""
    matvec = _as_matvec(h)
    if dim is None:
        if callable(h):
            raise ParameterError("operator input needs dim")
        dim = np.asarray(h).shape[0]
    # unlike all-ones, 1 + frac(0.618 i) is not orthogonal to top eigenvectors like [1, -1]
    v = 1.0 + np.modf(0.5 * (math.sqrt(5.0) - 1.0) * np.arange(dim))[0]
    lam = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ matvec(v))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam
