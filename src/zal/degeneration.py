"""Star-graph model for a family of surfaces pinching n necks.

A weighted (n+1)-vertex star encodes the limiting small-eigenvalue
problem: hub mass alpha = 2g - 2 + n, leaf masses 1, edge weights equal
to the pinching geodesic lengths.  The quadratic form

    Q(F) = sum_j (F(v_j) - F(v_0))^2 * l_j

against the mass inner product defines a self-adjoint operator whose
matrix in the dual basis is

    A = [ (sum l_j)/alpha, -l_1/alpha, ..., -l_n/alpha ]
        [ -l_j, ..., l_j at the diagonal, ... ]            (row j).

Zero is always a simple eigenvalue (constants).  With all edge lengths
equal to the plumbing law l(t) = 2 pi^2 / log(1/|t|) the spectrum is
closed form: {0, l(t) x (n-1), (n/alpha + 1) l(t)}.  The positive
eigenvalues mu_j, divided by 2 pi^2, model the small Laplacian
eigenvalues of the degenerating surface, and the product
prod mu_j / l_j tends to n/alpha + 1 (exactly that value for uniform
lengths, at every t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError

__all__ = [
    "StarGraphModel",
    "wolpert_length",
    "star_graph_uniform",
    "star_graph_perturbed",
    "matrix_A",
    "matrix_B",
    "graph_spectrum",
    "burger_product",
    "laplacian_small_eigenvalues",
    "degeneration_consistency",
    "closed_form_B_spectrum",
    "sweep_rows",
]

_MAX_N = 16


def wolpert_length(t: float) -> float:
    """Pinching-length law l(t) = 2 pi^2 / log(1/|t|), 0 < |t| < 1."""
    at = abs(t)
    if not 0.0 < at < 1.0:
        raise DomainError("need 0 < |t| < 1")
    return 2.0 * math.pi ** 2 / math.log(1.0 / at)


@dataclass(frozen=True)
class StarGraphModel:
    g: int
    n: int
    edge_lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("star graph needs n >= 1 edges")
        if self.n > _MAX_N:
            raise DomainError(f"model capped at n <= {_MAX_N}")
        if self.g < 0:
            raise DomainError("genus must be >= 0")
        if self.alpha <= 0:
            raise DomainError("hub mass 2g-2+n must be positive")
        if len(self.edge_lengths) != self.n:
            raise ValueError("need one length per edge")
        if any(not l > 0 for l in self.edge_lengths):
            raise ValueError("edge lengths must be positive")

    @property
    def alpha(self) -> int:
        return 2 * self.g - 2 + self.n


def star_graph_uniform(g: int, n: int, t: float) -> StarGraphModel:
    """All edge lengths equal to the plumbing law at t."""
    l = wolpert_length(t)
    return StarGraphModel(g=g, n=n, edge_lengths=(l,) * n)


def star_graph_perturbed(g: int, n: int, t: float, seed: int) -> StarGraphModel:
    """Edge lengths l(t) + c_j / log(1/|t|)^4 with deterministic |c_j| <= 1."""
    l = wolpert_length(t)
    rng = np.random.default_rng(seed + 1000003 * n + 7 * g)
    c = rng.uniform(-1.0, 1.0, size=n)
    bump = c / math.log(1.0 / abs(t)) ** 4
    lengths = tuple(float(l + b) for b in bump)
    return StarGraphModel(g=g, n=n, edge_lengths=lengths)


def matrix_A(model: StarGraphModel) -> np.ndarray:
    """The operator matrix in the dual vertex basis."""
    alpha = float(model.alpha)
    l = np.asarray(model.edge_lengths, dtype=float)
    M = np.zeros((model.n + 1, model.n + 1))
    M[0, 0] = l.sum() / alpha
    M[0, 1:] = -l / alpha
    for j in range(1, model.n + 1):
        M[j, 0] = -l[j - 1]
        M[j, j] = l[j - 1]
    return M


def matrix_B(model: StarGraphModel) -> np.ndarray:
    """matrix_A specialized to uniform edge lengths (validated)."""
    if max(model.edge_lengths) - min(model.edge_lengths) > 1e-12 * max(model.edge_lengths):
        raise ValueError("matrix_B requires uniform edge lengths")
    return matrix_A(model)


def graph_spectrum(M: np.ndarray) -> tuple[float, ...]:
    """All eigenvalues, sorted ascending, via mass-weight symmetrization.

    The hub mass is recovered from the matrix itself (alpha = M10/M01),
    the conjugated matrix D^{1/2} M D^{-1/2} is exactly symmetric, and
    each pair is residual-checked to 1e-10 * ||M||.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0] - 1
    if M.shape[0] != M.shape[1] or n < 1:
        raise ValueError("need a square (n+1)x(n+1) matrix with n >= 1")
    if n > _MAX_N:
        raise ValueError(f"dense solver capped at n <= {_MAX_N}")
    if M[0, 1] == 0 or M[1, 0] == 0:
        raise ValueError("matrix does not look like a star-graph operator")
    alpha = M[1, 0] / M[0, 1]
    d = np.ones(n + 1)
    d[0] = math.sqrt(alpha)
    S = (M * d[:, None]) / d[None, :]
    S = 0.5 * (S + S.T)  # kill roundoff asymmetry before the dense solve
    vals, vecs = np.linalg.eigh(S)
    scale = np.linalg.norm(M, 2)
    for k in range(n + 1):
        v = vecs[:, k] / d
        res = np.linalg.norm(M @ v - vals[k] * v) / np.linalg.norm(v)
        if res > 1e-10 * max(scale, 1e-300):
            raise ArithmeticError(f"eigenpair residual {res:.2e} above bound")
    vals = np.sort(vals)
    if abs(vals[0]) > 1e-12 * max(scale, 1.0) or (n >= 1 and vals[1] <= abs(vals[0])):
        raise ArithmeticError("kernel eigenvalue is not simple-zero within tolerance")
    return tuple(float(v) for v in vals)


def closed_form_B_spectrum(model: StarGraphModel) -> tuple[float, ...]:
    """{0, l x (n-1), (n/alpha + 1) l} for the uniform model."""
    l = model.edge_lengths[0]
    n, a = model.n, model.alpha
    return tuple(sorted([0.0] + [l] * (n - 1) + [(n / a + 1.0) * l]))


def burger_product(model: StarGraphModel) -> float:
    """prod_j mu_j / l_j over the positive graph eigenvalues.

    For a star this equals n/alpha + 1 identically, any lengths: by the
    weighted matrix-tree identity the nonzero-eigenvalue product of the
    mass-weighted operator is (sum of masses)/(product of masses) times
    the single spanning tree's weight prod l_j.  The limit statement is
    therefore exact here; the nontrivial t -> 0 content of the model
    lives in the individual eigenvalues, which only converge to the
    uniform closed form.
    """
    num = math.prod(graph_spectrum(matrix_A(model))[1:])
    den = math.prod(model.edge_lengths)
    return num / den


def laplacian_small_eigenvalues(model: StarGraphModel) -> list[float]:
    """Predicted small surface eigenvalues mu_j / (2 pi^2)."""
    return [m / (2.0 * math.pi ** 2) for m in graph_spectrum(matrix_A(model))[1:]]


def degeneration_consistency(g: int, n: int, t: float, Zx: float,
                             Zt_list: list[float],
                             perturb_seed: int | None = None) -> tuple[float, float]:
    """Two model routes to the degenerating first derivative at s = 1.

    Route one rescales the limit constant by |t|^{n/6}; route two feeds
    the star-graph eigenvalue predictions through the small-length
    compensators exp(-pi^2/(3 l_j)).  With exact plumbing lengths the
    identity exp(-pi^2/(3 l(t))) = |t|^{1/6} makes the two agree up to
    float roundoff at every t; with perturbed lengths they agree in the
    limit.  Both routes require synthetic positive inputs standing for
    the limit factors.
    """
    if n < 1:
        raise DomainError("need n >= 1 pinching necks")
    if not Zx > 0 or len(Zt_list) != n or any(not z > 0 for z in Zt_list):
        raise ValueError("synthetic derivative inputs must be positive, one per neck")
    alpha = 2 * g - 2 + n
    if alpha <= 0:
        raise DomainError("unstable base type")
    base = Zx * math.prod(Zt_list)
    limit_const = (n / alpha + 1.0) / math.pi ** n * base
    lhs12 = abs(t) ** (n / 6.0) * limit_const
    if perturb_seed is None:
        model = star_graph_uniform(g, n, t)
    else:
        model = star_graph_perturbed(g, n, t, seed=perturb_seed)
    lam = laplacian_small_eigenvalues(model)
    rhs13 = (2.0 * math.pi) ** n * base
    for lj, lamj in zip(model.edge_lengths, lam):
        rhs13 *= (lamj / lj) * math.exp(-math.pi ** 2 / (3.0 * lj))
    return lhs12, rhs13


def sweep_rows(g: int, n: int, t_values: list[float], perturb_seed: int) -> list[dict]:
    """CSV-ready rows (t, eigenvalues..., product, target, ratio) of the perturbed model."""
    rows = []
    for t in t_values:
        model = star_graph_perturbed(g, n, t, seed=perturb_seed)
        spec = graph_spectrum(matrix_A(model))
        prod = math.prod(spec[1:]) / math.prod(model.edge_lengths)
        target = n / model.alpha + 1.0
        rows.append({
            "t": t,
            "eigenvalues": list(spec),
            "product": prod,
            "target": target,
            "ratio": prod / target,
        })
    return rows
