"""Gram fields: pointwise inner products of differential forms.

The degree-1 field applies the carre du champ of the diffusion Laplacian
to pairs of coordinate functions; degree-k fields are compound matrices
(k x k minors) of the degree-1 slices. ``contract`` is the one routine
that contracts form coefficients against a Gram field: it gives the
comparison matrix C = sum_p F_p W_p F_p^T of a field already weighted by
the measure, W_p = mu_p G_p, that training, evaluation, the consistency
studies and the quadrature oracle all use.
"""

from __future__ import annotations

import math

import numpy as np

from .data import PRECISIONS, GramField, _check_degree, multi_index_table
from .errors import ConfigurationError, InvalidDegreeError
from .laplacian import DiffusionOperator, apply_laplacian

MAX_DEGREE = 3  # largest k with closed-form minors


def check_computable_degree(D: int, k: int) -> None:
    """Refuse a degree whose Gram field cannot be computed in ambient dimension D."""
    if not 1 <= k <= min(D, MAX_DEGREE):
        raise InvalidDegreeError(f"degree k must satisfy 1 <= k <= min(D, {MAX_DEGREE}) with D={D}, got k={k}")


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
    pts = pts - pts.mean(axis=0)  # Gamma sees only differences; centred, the cancellation below keeps its digits
    # Gamma(x^i, x^j) once per pair i <= j, as (m, D(D+1)/2) columns; L applied to x and the products in one pass
    iu, ju = np.triu_indices(D)
    xi, xj = pts[:, iu], pts[:, ju]
    lcols = apply_laplacian(op, np.concatenate([pts, xi * xj], axis=1))  # [L x | L(x^i x^j)]
    pairs = 0.5 * (xi * lcols[:, ju] + xj * lcols[:, iu] - lcols[:, D:])
    pair_of = np.empty((D, D), dtype=np.intp)  # the pair column of entry (i, j), in both triangles
    pair_of[iu, ju] = pair_of[ju, iu] = np.arange(iu.size)
    return GramField(D=D, k=1, values=np.take(pairs, pair_of.reshape(-1), axis=1).reshape(m, D, D))


def minors(values: np.ndarray, k: int) -> np.ndarray:
    """All k x k minors of an (m, D, D) stack, k <= MAX_DEGREE: entry (I, J)
    of the (m, B, B) result takes rows I and columns J, multi-indices in
    lexicographic order. Determinants use closed-form cofactor expansions."""
    if not 1 <= k <= MAX_DEGREE:
        raise InvalidDegreeError(f"closed-form minors are provided for 1 <= k <= {MAX_DEGREE}, got k={k}")
    D = values.shape[-1]
    rows = multi_index_table(D, k)  # (B, k)
    flat = values.reshape(values.shape[0], D * D)

    def sub(a: int, b: int) -> np.ndarray:
        """C-contiguous (m, B, B) stack of entry (a, b) of every (I, J) submatrix."""
        return np.take(flat, rows[:, a, None] * D + rows[None, :, b], axis=1)

    if k == 1:
        return sub(0, 0)
    if k == 2:
        return sub(0, 0) * sub(1, 1) - sub(0, 1) * sub(1, 0)
    return (
        sub(0, 0) * (sub(1, 1) * sub(2, 2) - sub(1, 2) * sub(2, 1))
        - sub(0, 1) * (sub(1, 0) * sub(2, 2) - sub(1, 2) * sub(2, 0))
        + sub(0, 2) * (sub(1, 0) * sub(2, 1) - sub(1, 1) * sub(2, 0))
    )


def compound_gram_field(g1: GramField, k: int) -> GramField:
    """Degree-k Gram field: entry (I, J) is the k x k minor of the degree-1
    slice with rows I and columns J, multi-indices in lexicographic order.
    At k = 1 that is ``g1`` itself, returned as is."""
    if g1.k != 1:
        raise ConfigurationError(f"expected a degree-1 field, got k={g1.k}")
    if k == 1:
        return g1
    return GramField(D=g1.D, k=k, values=minors(g1.values, k))


def contract(values: np.ndarray, coeffs: np.ndarray, cols: list[slice]) -> tuple[list, np.ndarray]:
    """Comparison matrices C_c = sum_p F_p W_p F_p^T of clouds packed along the point axis.

    ``values`` (P, B, B) holds each point's measure-weighted field W_p = mu_p G_p and shares a
    dtype with ``coeffs`` (P, l, B). A = F W is laid out forms-major, (l, P B), and returned for the
    backward pass; cloud c owns columns ``cols[c]``: C_c = A_c F_c^T and dL/dF_c = (dC_c + dC_c^T) A_c.
    """
    P, n_forms, B = coeffs.shape
    a = np.empty((n_forms, P, B), dtype=coeffs.dtype)
    np.matmul(coeffs, values, out=a.transpose(1, 0, 2))
    a = a.reshape(n_forms, P * B)
    f = coeffs.transpose(1, 0, 2).reshape(n_forms, P * B)
    return [a[:, c] @ f[:, c].T for c in cols], a


def comparison_matrix(gram: GramField, coeffs: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The (l, l) matrix C = sum_p mu_p F_p G_p F_p^T of one cloud: ``contract`` of the field weighted by ``mu``.

    Coefficients are (m, l, B), one block per point, or (l, B) for constant
    forms, which are broadcast to every point as a view.
    """
    coeffs, mu = np.asarray(coeffs), np.asarray(mu)
    if coeffs.ndim == 2:
        coeffs = np.broadcast_to(coeffs, (gram.m, *coeffs.shape))
    if coeffs.ndim != 3 or coeffs.shape[0] != gram.m or coeffs.shape[2] != gram.B:
        raise ConfigurationError(
            f"coefficients must be (m, l, {gram.B}) over {gram.m} points or (l, {gram.B}), got {coeffs.shape}"
        )
    if mu.shape != (gram.m,):
        raise ConfigurationError(f"measure has shape {mu.shape}, expected ({gram.m},) for {gram.m} points")
    weighted = (gram.values * mu[:, None, None]).astype(coeffs.dtype, copy=False)
    return contract(weighted, coeffs, [slice(None)])[0][0]


def estimate_gram_memory(m: int, D: int, k: int, precision: str = "fp32") -> int:
    """Bytes needed for one cloud's degree-k Gram field at the given precision."""
    if precision not in PRECISIONS:
        raise ConfigurationError(f"precision must be one of {tuple(PRECISIONS)}, got {precision!r}")
    _check_degree(D, k)
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    B = math.comb(D, k)
    return PRECISIONS[precision].itemsize * m * B * B


def format_bytes(n_bytes: int) -> str:
    """Report both decimal MB (10^6) and binary MiB (2^20)."""
    mb = n_bytes / 1e6
    mib = n_bytes / 2**20
    return f"{n_bytes} B = {mb:.2f} MB = {mib:.2f} MiB"


def coordinate_form(D: int, indices: tuple[int, ...] | int) -> np.ndarray:
    """Constant (B,) coefficients of the basis form dx^I for a 1-based multi-index I."""
    if isinstance(indices, int):
        indices = (indices,)
    table = multi_index_table(D, len(indices))
    pos = np.flatnonzero((table == np.subtract(indices, 1)).all(axis=1))
    if pos.size == 0:
        raise ConfigurationError(f"{indices} is not an ascending multi-index in {{1..{D}}}")
    coeffs = np.zeros(table.shape[0])
    coeffs[pos[0]] = 1.0
    return coeffs
