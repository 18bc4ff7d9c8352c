"""Multivariate objective oracles: GLM finite sums, the log-utility portfolio
objective, and the DWD objective, each carrying certified (M, nu) parameters.

The drivers (newton.minimize, prox_newton.minimize_composite,
quasi_newton.minimize_qn, newton.existence_check) require of a model

    value(x), grad(x), hessian(x), hvp(x, v), has_dense_hessian, params,
    check_domain(x)  (raises DomainError with the violating row),
    feasible(x) -> bool

and every model here also has dim.  The Hessian is formed only when the
matrix a Newton solve factors has at most p_dense (default 2000) rows: all
of it for a dense or sparse design, B's columns for a SlackDesign [B, I_n],
whose Hessian is a SlackHessian over it, with its own solver.  Larger
problems are served through hvp (conjugate-gradient path).

Certificate facts beyond params are optional capabilities, each owned by
the model and found by attribute lookup, never by its class, so a
delegating proxy (a __getattr__ wrapper) takes the wrapped model's path:

    step_beta(params, n)  the step constant along n, read by
                          newton._damped_newton (else m ||n||_2);
    lambda_min_q()        a lower bound on sigma_min of every Hessian, read
                          by _sigma_min_bound for the strict full-step
                          radius and existence_check (else 0);
    row_norms, with atom, w, n, lambda_min_q() and smoothness_bounds()
                          the GLM certificate inputs, read by
                          glm_gsc_params when resolve_params reclassifies
                          a force_2 / force_3 request (else ParameterError).

GlmModel offers all three.  Oracles at one point share one margin
evaluation: GLM and portfolio models share one base (_MarginModel) and one
record of the last x (_PointRecord), with its margins z = A x + b (or W x)
and what is derived from z, which every oracle at a bitwise-equal x reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dsyrk

from . import kernel, linops
from .atoms import LossAtom, inside, neg_power
from .errors import DomainError, NotPositiveDefiniteError, ParameterError
from .kernel import GscParams

P_DENSE_DEFAULT = 2000


def _frozen(a):
    a.flags.writeable = False
    return a


class _PointRecord:
    """The last point x a model's oracles saw: its key, its margins z, the first row of z
    outside the domain (-1 if none) and the arrays derived from z.

    Oracles at one point share its margins.  Every array is read-only, and a
    new point replaces them, never writes into them.  The key is a copy of
    x's float64 bytes (and shape): a caller that mutates x in place after a
    call gets a miss, and -0.0 and 0.0, or two NaN payloads, are different
    points.  domain is the open interval the margins must lie in, or None
    when they are not checked.  One point is kept, so memory stays a few
    vectors per model.
    """

    __slots__ = ("_domain", "key", "z", "row", "_derived")

    def __init__(self, domain):
        self._domain = domain
        self.key = None

    def at(self, x, margins) -> _PointRecord:
        """This record, at x, with z = margins(x) computed only when x is a new point."""
        xf = np.asarray(x, dtype=float)
        key = (xf.shape, xf.tobytes())
        if key != self.key:
            z = _frozen(margins(x))
            row = -1
            if self._domain is not None:
                mask = inside(self._domain, z)
                if not mask.all():
                    row = int(np.argmin(mask))
            self.key, self.z, self.row, self._derived = key, z, row, {}
        return self

    def margins(self):
        """z, or a DomainError naming its first row outside the open interval domain (NaN included)."""
        row = self.row
        if row >= 0:
            raise DomainError(f"row {row}: margin {self.z[row]} outside the domain {self._domain}",
                              row=row)
        return self.z

    def derived(self, name, fn):
        """fn(z) for this point, computed on first use; raises like margins() outside the domain."""
        out = self._derived.get(name)
        if out is None:
            out = self._derived[name] = _frozen(fn(self.margins()))
        return out


class _MarginModel:
    """The oracle plumbing of a model read through its margins z = _z(x).  A subclass
    sets _z, _record (a _PointRecord over z's domain), factor_dim (the order of
    the matrix a Newton solve factors) and p_dense."""

    def _at(self, x) -> _PointRecord:
        return self._record.at(x, self._z)

    def check_domain(self, x):
        self._at(x).margins()

    def feasible(self, x):
        return self._at(x).row < 0

    @property
    def has_dense_hessian(self):
        return self.factor_dim <= self.p_dense


def _vector(v, size: int, name: str, default: float) -> np.ndarray:
    """v (None gives the default, a scalar repeats) as a finite float vector of length size."""
    if v is None:
        return np.full(size, float(default))
    v = np.asarray(v, dtype=float)
    v = np.full(size, float(v)) if v.ndim == 0 else v.copy()
    if v.shape != (size,):
        raise ParameterError(f"{name} must be a scalar or a vector of length {size}")
    if not np.isfinite(v).all():
        raise ParameterError(f"{name} must be finite")
    return v


def _row_norms(a):
    """||a_i|| per row without an n x p temporary (a SlackDesign row adds its slack's 1)."""
    if isinstance(a, SlackDesign):
        return np.sqrt(row_sq_norms(a.block) + 1.0)
    return np.sqrt(row_sq_norms(a))


def row_sq_norms(a):
    """sum_j a_ij^2 per row of a dense or sparse matrix, without a second matrix.

    A sparse row sums the squares of its stored values in column order;
    a non-canonical CSR is canonicalized on a copy first, so duplicate
    entries are added before they are squared.  Empty rows give 0.
    """
    if not sp.issparse(a):
        return np.einsum("ij,ij->i", a, a)
    a = a.tocsr()
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    out = np.zeros(a.shape[0])
    rows = np.flatnonzero(np.diff(a.indptr))
    out[rows] = np.add.reduceat(np.square(a.data), a.indptr[rows])
    return out


class SlackDesign:
    """The design [B, I_n] of a GLM whose last n variables are one slack per row.

    Kept in factored form, so products cost O(nnz(B) + n) and a sparse B
    stays sparse; GlmModel.hessian returns a SlackHessian over it, solved by
    eliminating the diagonal slack block.  A dense B is held Fortran-ordered:
    the Schur complement of each Newton step scales B down contiguous columns
    and dsyrk reads the product with trans=1, with no copy.  A Fortran-ordered
    B is kept as it is and a C-ordered one is copied once, here.  np.asarray
    gives the dense n x (m + n) matrix.
    """

    def __init__(self, block):
        self.block = block if sp.issparse(block) else np.asfortranarray(block, dtype=float)
        n, m = self.block.shape
        self.shape = (n, m + n)

    def __matmul__(self, x):
        m = self.block.shape[1]
        return self.block @ x[:m] + x[m:]

    @property
    def T(self):
        return _SlackDesignT(self.block)

    def __array__(self, dtype=None, copy=None):
        b = self.block.toarray() if sp.issparse(self.block) else self.block
        out = np.hstack([b, np.eye(self.shape[0])])
        return out if dtype is None else out.astype(dtype, copy=False)


class _SlackDesignT:
    """[B, I_n]' as an operator: u -> (B' u, u)."""

    def __init__(self, block):
        self.block = block

    def __matmul__(self, u):
        return np.concatenate([self.block.T @ u, u])


def weighted_gram(a, w, q_diag) -> np.ndarray:
    """A' diag(w) A + diag(q_diag) as a dense array, for a dense or sparse A."""
    if sp.issparse(a):
        h = (a.multiply(w[:, None])).T @ a
        h = np.asarray(h.todense())
    else:
        h = a.T @ (w[:, None] * a)
    h.flat[::h.shape[0] + 1] += q_diag
    return h


class SlackHessian:
    """H = A' diag(d) A + diag(q) of a GLM over a SlackDesign A = [B, I_n] (B n x m)
    with curvatures d = w phi''(z) and q = (q_block (m), q_slack (n)).  The
    solvers use only @ and solver(); the dense H of np.asarray is for tests."""

    def __init__(self, design: SlackDesign, d, q):
        self.design = design
        self.d = d
        self.q = q
        self.m = design.block.shape[1]
        self.shape = (design.shape[1],) * 2

    def __matmul__(self, v):
        return self.design.T @ (self.d * (self.design @ v)) + self.q * v

    def __array__(self, dtype=None, copy=None):
        out = weighted_gram(np.asarray(self.design), self.d, self.q)
        return out if dtype is None else out.astype(dtype, copy=False)

    def solver(self, free=None):
        """rhs -> H_FF^-1 rhs on the ascending coordinates free (all when None or when
        free covers H) by eliminating the free slack rows.

        One Cholesky factorization of the Schur complement
        S = B_F' diag(e) B_F + diag(q_block,F) over the free block columns F,
        with e = d q_slack / (d + q_slack) on free slack rows and e = d on
        fixed ones, written in that form because B' D B - B' D^2 / (d + q_slack) B
        cancels.  For a dense B only S's lower triangle is formed, by one dsyrk
        with trans=1 on sqrt(e) B_F (Fortran-ordered, as the design holds B); a
        sparse B goes through weighted_gram.  S factors like a dense H
        (linops._psd_cholesky), and a block with no block column is its
        diagonal.  H is positive definite exactly when d + q_slack > 0 and S
        is; a negative d or q_slack is a ParameterError.
        """
        b, d, m = self.design.block, self.d, self.m
        q_block, q_slack = self.q[:m], self.q[m:]
        if (d < 0.0).any() or (q_slack < 0.0).any():
            raise ParameterError("slack curvatures d and q_slack must be nonnegative")
        s_diag = d + q_slack
        if not (s_diag > 0.0).all():
            raise NotPositiveDefiniteError("slack block of the Hessian is not positive")
        e = d * q_slack / s_diag
        b_rows, d_rows, s_rows = b, d, s_diag
        if free is not None and free.size < self.shape[0]:
            k = int(np.searchsorted(free, m))
            rows = free[k:] - m
            fixed = np.ones(d.size, dtype=bool)
            fixed[rows] = False
            e[fixed] = d[fixed]
            b, q_block = b[:, free[:k]], q_block[free[:k]]
            b_rows, d_rows, s_rows = b[rows], d[rows], s_diag[rows]
        m = q_block.size
        if m == 0:
            return lambda rhs: rhs / s_rows
        if sp.issparse(b):
            schur = weighted_gram(b, e, q_block)
        else:
            schur = dsyrk(1.0, np.sqrt(e)[:, None] * b, trans=1, lower=1)
            schur.flat[::m + 1] += q_block
        cho = linops._psd_cholesky(schur)

        def solve(rhs):
            r1, r2 = rhs[:m], rhs[m:]
            out = np.empty(rhs.size)
            x1 = out[:m] = linops.cho_solve(cho, r1 - b_rows.T @ (d_rows * r2 / s_rows))
            np.divide(r2 - d_rows * (b_rows @ x1), s_rows, out=out[m:])
            return out
        return solve


class GlmModel(_MarginModel):
    """f(x) = sum_i w_i phi(a_i' x + b_i) + (1/2) x' Q x + c' x with diagonal Q."""

    def __init__(self, a, atom: LossAtom, b=None, weights=None, q_diag=0.0, c=None,
                 p_dense=P_DENSE_DEFAULT):
        if not (sp.issparse(a) or isinstance(a, SlackDesign)):
            a = np.asarray(a, dtype=float)
        self.a = a
        self.n, self.dim = self.a.shape
        if self.n == 0 or self.dim == 0:
            raise ParameterError(f"GLM design needs a row and a column, got shape {a.shape}")
        #: order of the matrix a Newton solve factors (B's columns for a SlackDesign)
        self.factor_dim = a.block.shape[1] if isinstance(a, SlackDesign) else self.dim
        self.atom = atom
        self.b = _vector(b, self.n, "b", 0.0)
        self.w = _vector(weights, self.n, "weights", 1.0 / self.n)
        if np.any(self.w <= 0.0):
            raise ParameterError("GLM weights must be positive")
        self.q_diag = _vector(q_diag, self.dim, "q_diag", 0.0)
        if np.any(self.q_diag < 0.0):
            raise ParameterError("q_diag must be nonnegative")
        self.c = _vector(c, self.dim, "c", 0.0)
        self.p_dense = p_dense
        self.row_norms = _row_norms(self.a)
        self.params = glm_gsc_params(self, "native")
        self._record = _PointRecord(self.atom.domain if self.atom.bounded else None)

    # -- oracle ------------------------------------------------------------
    def _z(self, x):
        return (self.a @ x) + self.b

    def value(self, x):
        z = self._at(x).margins()
        quad = 0.5 * float(x @ (self.q_diag * x)) + float(self.c @ x)
        return float(self.w @ self.atom._derivs[0](z)) + quad

    def grad(self, x):
        d1 = self._at(x).derived("w_d1", lambda z: self.w * self.atom._derivs[1](z))
        g = self.a.T @ d1
        return np.asarray(g).ravel() + self.q_diag * x + self.c

    def _d2w(self, x):
        """w phi''(z) at x, shared by hessian and every hvp at x."""
        return self._at(x).derived("w_d2", lambda z: self.w * self.atom._derivs[2](z))

    def hessian(self, x):
        if not self.has_dense_hessian:
            raise ParameterError(
                f"dense Hessian disabled for p={self.factor_dim} > p_dense={self.p_dense}; use hvp"
            )
        d = self._d2w(x)
        if isinstance(self.a, SlackDesign):
            return SlackHessian(self.a, d, self.q_diag)
        return weighted_gram(self.a, d, self.q_diag)

    def hvp(self, x, v):
        d = self._d2w(x)
        av = self.a @ v
        out = self.a.T @ (d * av)
        return np.asarray(out).ravel() + self.q_diag * v

    def step_beta(self, params: GscParams, n) -> float:
        """The beta of kernel.step_size for a step along n, with m^(nu-2) beta^(3-nu) = K_n.

        K_n = M_phi max_i w_i^(1-nu/2) |a_i' n|^(3-nu) bounds the third
        derivative along n alone: |D^3 f(y)[n, n, n]| <= K_n (n' H(y) n)^(nu/2)
        at every y, since sum_i t_i^(nu/2) <= (sum_i t_i)^(nu/2) for nu >= 2 and
        Q only adds to H.  As |a_i' n| <= ||a_i|| ||n||_2, K_n <= M ||n||_2^(3-nu),
        so the step is never shorter than with beta = m ||n||_2.  nu = 2 gives
        beta = M_phi ||A n||_inf.  params other than the native certificate (a
        reclassified force_2 or force_3), m = 0 and nu = 3 keep m ||n||_2.
        One product A n.
        """
        m, nu = params.m, params.nu
        if params != self.params or m == 0.0 or nu == 3.0:
            return m * math.sqrt(float(n @ n))
        s = np.abs(self.a @ n)
        m_phi = self.atom.params.m
        if nu == 2.0:
            return m_phi * float(s.max())
        k_n = m_phi * float(np.max(self.w ** (1.0 - nu / 2.0) * s ** (3.0 - nu)))
        return m * (k_n / m) ** (1.0 / (3.0 - nu))

    # -- structure helpers ---------------------------------------------------
    def lambda_min_q(self):
        """Exact smallest eigenvalue of the diagonal regularizer."""
        return float(self.q_diag.min()) if self.dim else 0.0

    def smoothness_bounds(self):
        """(mu, L): strong convexity from Q, Lipschitz gradient when phi'' is bounded.

        L must not undershoot (a too-large 1/L step breaks gradient methods),
        so the power-iteration estimate is tightened and padded slightly.
        """
        mu = self.lambda_min_q()
        if math.isinf(self.atom.d2_sup):
            return mu, math.inf
        lmax = linops.largest_eigenvalue(
            lambda v: np.asarray(self.a.T @ (self.w * (self.a @ v))).ravel(),
            dim=self.dim, tol=1e-8, max_iter=5000,
        )
        return mu, self.atom.d2_sup * lmax * 1.001 + float(self.q_diag.max())


def glm_gsc_params(model: GlmModel, target_nu="native") -> GscParams:
    """Certified (M, nu) of a GLM under the requested classification.

    native: sum rule over the affine-composed atoms,
            M = max_i w_i^(1-nu/2) M_phi ||a_i||^(3-nu) (the 1/n-weighted
            case gives n^(nu/2-1) max_i M_phi ||a_i||^(3-nu)), one array
            expression over model.row_norms: O(n) vectorized work.  M is
            the worst case over all directions; the damped steps of
            minimize and minimize_composite use the constant along the step
            itself, GlmModel.step_beta's K_n, which never exceeds it.
    2:      Lipschitz-gradient reclassification; needs a bounded phi''.
    3:      strongly convex quadratic route,
            M = lam_min(Q)^((nu-3)/2) max_i (n w_i)^(1-nu/2) M_phi ||a_i||^(3-nu).
    """
    nu = model.atom.params.nu
    if not (2.0 <= nu <= 3.0):
        raise ParameterError(
            f"finite-sum construction requires atom nu in [2, 3], got {nu}"
        )
    if target_nu == "native":
        m_phi = model.atom.params.m
        return GscParams(float(np.max(model.w ** (1.0 - nu / 2.0)
                                      * (m_phi * model.row_norms ** (3.0 - nu)))), nu)
    if target_nu == 2:
        native = glm_gsc_params(model, "native")
        if native.nu == 2.0:
            return native
        _, lips = model.smoothness_bounds()
        if math.isinf(lips):
            raise ParameterError(
                f"cannot force nu=2: atom {model.atom.kind} has unbounded curvature"
            )
        return kernel.reparam(native, "lipschitz_gradient", lips)
    if target_nu == 3:
        if nu == 3.0:
            return glm_gsc_params(model, "native")
        lam_min = model.lambda_min_q()
        if lam_min <= 0.0:
            raise ParameterError("forcing nu=3 needs lam_min(Q) > 0 or a nu=3 atom")
        scaled = (model.w * model.n) ** (1.0 - nu / 2.0) * model.atom.params.m
        m_hat = lam_min ** ((nu - 3.0) / 2.0) * float(
            np.max(scaled * model.row_norms ** (3.0 - nu))
        )
        return GscParams(m_hat, 3.0)
    raise ParameterError(f"unknown target_nu {target_nu!r}")


def resolve_params(model, nu_choice: str) -> GscParams:
    """Map a model's native certificate through the requested nu classification.

    A model whose native nu already is the forced nu keeps its params; any
    other must offer the GLM certificate inputs (row_norms and the rest, see
    the module docstring), which glm_gsc_params reclassifies.
    """
    if nu_choice == "native":
        model.params.require_solver_range()
        return model.params
    nu = {"force_2": 2, "force_3": 3}.get(nu_choice)
    if nu is None:
        raise ParameterError(f"unknown nu_choice {nu_choice!r}")
    if model.params.nu == nu:
        return model.params
    if not hasattr(model, "row_norms"):
        raise ParameterError(f"{nu_choice} needs a GLM model or a nu={nu} model")
    return glm_gsc_params(model, nu)


def _sigma_min_bound(model) -> float:
    """A certified lower bound on sigma_min of the model's Hessian at every x: the model's
    own lambda_min_q() where it has one (min(q_diag) for a GlmModel, whose
    H = A' D A + diag(q_diag) with D >= 0), and 0 for any other."""
    return model.lambda_min_q() if hasattr(model, "lambda_min_q") else 0.0


class QuadraticModel:
    """f(x) = 1/2 x' A x - b' x; certified (0, nu) for every nu (we report nu = 2)."""

    def __init__(self, a_mat, b=None, nu=2.0):
        self.a_mat = np.asarray(a_mat, dtype=float)
        self.dim = self.a_mat.shape[0]
        self.b = np.zeros(self.dim) if b is None else np.asarray(b, dtype=float)
        self.params = GscParams(0.0, nu)

    def check_domain(self, x):
        return None

    def feasible(self, x):
        return True

    def value(self, x):
        return 0.5 * float(x @ (self.a_mat @ x)) - float(self.b @ x)

    def grad(self, x):
        return self.a_mat @ x - self.b

    def hessian(self, x):
        return self.a_mat

    def hvp(self, x, v):
        return self.a_mat @ v

    @property
    def has_dense_hessian(self):
        return True


class PortfolioModel(_MarginModel):
    """f(x) = -sum_i log(w_i' x) over the rows of a positive returns matrix; (M, nu) = (2, 3)."""

    def __init__(self, w_mat, p_dense=P_DENSE_DEFAULT):
        w = self.w_mat = np.asarray(w_mat, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise ParameterError(
                f"portfolio returns matrix needs a row and a column, got shape {w.shape}")
        lo, hi = w.min(), w.max()  # a NaN entry makes both NaN
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParameterError("portfolio returns matrix must be finite")
        if lo <= 0.0:
            raise ParameterError("portfolio returns matrix must be strictly positive")
        self.n, self.dim = w.shape
        self.factor_dim = self.dim
        self.params = GscParams(2.0, 3.0)
        self.p_dense = p_dense
        self._record = _PointRecord((0.0, math.inf))  # each return w_i' x is positive

    def _z(self, x):
        return self.w_mat @ x

    def _inv(self, point):
        """1/z at the point, shared by grad and _inv2."""
        return point.derived("inv", lambda z: 1.0 / z)

    def _inv2(self, point):
        """1/z^2 at the point, squared from its 1/z; shared by hessian and every hvp."""
        return point.derived("inv2", lambda z: self._inv(point) ** 2)

    def value(self, x):
        return -float(np.sum(np.log(self._at(x).margins())))

    def grad(self, x):
        return -(self.w_mat.T @ self._inv(self._at(x)))

    def hessian(self, x):
        return weighted_gram(self.w_mat, self._inv2(self._at(x)), 0.0)

    def hvp(self, x, v):
        return self.w_mat.T @ (self._inv2(self._at(x)) * (self.w_mat @ v))


@dataclass
class DwdModel:
    """Distance-weighted discrimination data: rows a_i, labels y_i, slack cost c, power q.

    Variable layout of the induced GLM is x = [w (p), mu (1), xi (n)].
    """

    a: object
    y: np.ndarray
    c: np.ndarray
    q: float
    gammas: tuple[float, float, float]

    def __post_init__(self):
        if not 0.0 < self.q < math.inf:
            raise ParameterError(f"DWD requires a finite q > 0, got {self.q}")
        if not np.isfinite(np.asarray(self.c, dtype=float)).all():
            raise ParameterError("DWD slack cost c must be finite")
        if len(self.gammas) != 3 or not all(0.0 < g < math.inf for g in self.gammas):
            raise ParameterError(f"DWD requires three positive regularizers, got {self.gammas}")


def dwd_as_glm(model: DwdModel, p_dense=P_DENSE_DEFAULT) -> GlmModel:
    """Extended-design GLM for the DWD objective.

    Rows become (a_i', y_i, e_i'), the loss atom is t^(-q)/weighted by 1/n,
    Q = diag(g1 1_p, g2, g3 1_n) and the linear slack cost sits on the xi
    block.  The design is the SlackDesign [B, I_n] with B = [A y], kept
    factored (a sparse A stays sparse, as CSR; a dense B is filled column by
    column into the Fortran-ordered array SlackDesign keeps, so it is not
    copied again), so each Newton step factors only the (p+1) x (p+1) Schur
    complement of the slack block: O(n p^2 + p^3) time and O(n p) memory,
    and p_dense is compared with p + 1.  The
    native parameters reproduce the closed-form constant
    M = (q+2)/(q(q+1))^(1/(q+2)) n^(1/(q+2)) max_i ||(a_i', y_i, e_i')||^(q/(q+2)).
    """
    y = np.asarray(model.y, dtype=float).ravel()
    n = y.size
    if np.ndim(model.a) != 2 or np.shape(model.a)[0] != n:
        raise ParameterError(f"DWD needs a 2-D A with one row per label, got A of shape "
                             f"{np.shape(model.a)} and {n} labels")
    g1, g2, g3 = model.gammas
    if sp.issparse(model.a):
        block = sp.hstack([model.a, y[:, None]], format="csr")
    else:
        a = np.asarray(model.a, dtype=float)
        block = np.empty((n, a.shape[1] + 1), order="F")
        block[:, :-1] = a
        block[:, -1] = y
    p = block.shape[1] - 1
    q_diag = np.concatenate([np.full(p, g1), [g2], np.full(n, g3)])
    c_ext = np.concatenate([np.zeros(p + 1), np.asarray(model.c, dtype=float).ravel()])
    return GlmModel(SlackDesign(block), neg_power(model.q), q_diag=q_diag, c=c_ext,
                    p_dense=p_dense)


def third_directional(model, x, v, u, h=None):
    """<D^3 f(x)[v] u, u> by central finite differences of the Hessian along v.

    Independent check of the certified parameters; h defaults to a scale-aware
    1e-5 step.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + np.linalg.norm(x)) / max(np.linalg.norm(v), 1e-30)
    hp = model.hvp(x + h * v, u)
    hm = model.hvp(x - h * v, u)
    return float(u @ (hp - hm)) / (2.0 * h)
