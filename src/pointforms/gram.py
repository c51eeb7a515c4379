"""Gram fields: pointwise inner products of differential forms.

The degree-1 field applies the carre du champ of the diffusion Laplacian
to pairs of coordinate functions; degree-k fields are compound matrices
(k x k minors) of the degree-1 slices. Local and global inner products
contract coefficient vectors against these per-point matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import PRECISIONS, GramField, multi_index_table
from .errors import ConfigurationError, InvalidDegreeError
from .laplacian import DiffusionOperator, apply_laplacian

MAX_DEGREE = 3  # largest k with closed-form minors


def carre_du_champ(op: DiffusionOperator, f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gamma(f, h) = (f * Lh + h * Lf - L(f h)) / 2 with pointwise products."""
    f = np.asarray(f, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if f.shape != (op.m,) or h.shape != (op.m,):
        raise ConfigurationError(f"expected two ({op.m},) vectors, got {f.shape} and {h.shape}")
    return 0.5 * (f * apply_laplacian(op, h) + h * apply_laplacian(op, f) - apply_laplacian(op, f * h))


def gram_field_1(op: DiffusionOperator, points: np.ndarray) -> GramField:
    """Degree-1 Gram field: slice (i, j) is Gamma(x^i, x^j) at each point."""
    pts = np.asarray(points, dtype=np.float64)
    m, D = pts.shape
    if m != op.m:
        raise ConfigurationError(f"operator has {op.m} points, cloud has {m}")
    lx = apply_laplacian(op, pts)  # (m, D)
    # L applied to all products x^i x^j in one pass over the upper triangle
    iu, ju = np.triu_indices(D)
    products = pts[:, iu] * pts[:, ju]
    lprod_flat = apply_laplacian(op, products)
    lprod = np.empty((m, D, D))
    lprod[:, iu, ju] = lprod_flat
    lprod[:, ju, iu] = lprod_flat
    values = 0.5 * (pts[:, :, None] * lx[:, None, :] + pts[:, None, :] * lx[:, :, None] - lprod)
    return GramField(D=D, k=1, values=values)


def minors(values: np.ndarray, k: int) -> np.ndarray:
    """All k x k minors of an (m, D, D) stack, k <= MAX_DEGREE: entry (I, J)
    of the (m, B, B) result takes rows I and columns J, multi-indices in
    lexicographic order. Determinants use closed-form cofactor expansions."""
    if not 1 <= k <= MAX_DEGREE:
        raise InvalidDegreeError(f"closed-form minors are provided for 1 <= k <= {MAX_DEGREE}, got k={k}")
    rows = multi_index_table(values.shape[-1], k)  # (B, k)
    # gather all (I, J) submatrices: (m, B, B, k, k)
    sub = values[:, rows[:, None, :, None], rows[None, :, None, :]]
    if k == 1:
        return sub[..., 0, 0]
    if k == 2:
        return sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    return (
        sub[..., 0, 0] * (sub[..., 1, 1] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 1])
        - sub[..., 0, 1] * (sub[..., 1, 0] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 0])
        + sub[..., 0, 2] * (sub[..., 1, 0] * sub[..., 2, 1] - sub[..., 1, 1] * sub[..., 2, 0])
    )


def compound_gram_field(g1: GramField, k: int) -> GramField:
    """Degree-k Gram field: entry (I, J) is the k x k minor of the degree-1
    slice with rows I and columns J, multi-indices in lexicographic order."""
    if g1.k != 1:
        raise ConfigurationError(f"expected a degree-1 field, got k={g1.k}")
    D = g1.D
    if not 1 <= k <= D:
        raise InvalidDegreeError(f"degree k must satisfy 1 <= k <= D, got k={k}, D={D}")
    if k == 1:
        return GramField(D=D, k=1, values=g1.values.copy())
    return GramField(D=D, k=k, values=minors(g1.values, k))


def local_inner_product(gram: GramField, f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Pointwise f^T G h.

    Coefficients of shape (m, B) give a (m,) result; (m, l, B) paired with
    (m, l2, B) gives the (m, l, l2) matrix of pairwise products. A constant
    coefficient vector (B,) is broadcast to every point.
    """
    f = np.asarray(f, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    B = gram.B
    if f.ndim == 1 and f.shape == (B,):
        f = np.broadcast_to(f, (gram.m, B))
    if h.ndim == 1 and h.shape == (B,):
        h = np.broadcast_to(h, (gram.m, B))
    if f.shape[0] != gram.m or h.shape[0] != gram.m or f.shape[-1] != B or h.shape[-1] != B:
        raise ConfigurationError(
            f"coefficients must be (m, ..., {B}) over {gram.m} points; got {f.shape}, {h.shape}"
        )
    if f.ndim == 2 and h.ndim == 2:
        return np.einsum("pa,pab,pb->p", f, gram.values, h)
    if f.ndim == 3 and h.ndim == 3:
        return np.einsum("pia,pab,pjb->pij", f, gram.values, h)
    raise ConfigurationError(f"unsupported coefficient ranks {f.ndim} and {h.ndim}")


def global_inner_product(gram: GramField, f: np.ndarray, h: np.ndarray, mu: np.ndarray) -> float | np.ndarray:
    """Sum of local inner products over the cloud, weighted by the (m,) measure mu."""
    local = local_inner_product(gram, f, h)
    w = np.asarray(mu, dtype=np.float64)
    if w.shape != (gram.m,):
        raise ConfigurationError(f"measure has shape {w.shape}, expected ({gram.m},) for {gram.m} points")
    if local.ndim == 1:
        return float(np.einsum("p,p->", w, local))
    return np.einsum("p,p...->...", w, local)


def estimate_gram_memory(m: int, D: int, k: int, precision: str = "fp32") -> int:
    """Bytes needed for one cloud's degree-k Gram field at the given precision."""
    if precision not in PRECISIONS:
        raise ConfigurationError(f"precision must be one of {tuple(PRECISIONS)}, got {precision!r}")
    if not 1 <= k <= D:
        raise InvalidDegreeError(f"degree k must satisfy 1 <= k <= D, got k={k}, D={D}")
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    B = math.comb(D, k)
    return PRECISIONS[precision].itemsize * m * B * B


def format_bytes(n_bytes: int) -> str:
    """Report both decimal MB (10^6) and binary MiB (2^20)."""
    mb = n_bytes / 1e6
    mib = n_bytes / 2**20
    return f"{n_bytes} B = {mb:.2f} MB = {mib:.2f} MiB"


# ---------------------------------------------------------------------------
# ambient form coefficients


@dataclass(frozen=True)
class AmbientForm:
    """A degree-k form with constant (B,) coefficients in the multi-index basis."""

    D: int
    k: int
    coeffs: np.ndarray


def coordinate_form(D: int, indices: tuple[int, ...] | int) -> AmbientForm:
    """The basis form dx^I for a 1-based multi-index I."""
    if isinstance(indices, int):
        indices = (indices,)
    k = len(indices)
    table = multi_index_table(D, k)
    pos = np.flatnonzero((table == np.subtract(indices, 1)).all(axis=1))
    if pos.size == 0:
        raise ConfigurationError(f"{indices} is not an ascending multi-index in {{1..{D}}}")
    coeffs = np.zeros(table.shape[0])
    coeffs[pos[0]] = 1.0
    return AmbientForm(D=D, k=k, coeffs=coeffs)
