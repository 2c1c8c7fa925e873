"""Fourier-symbol analysis of block-circulant operators.

A block-circulant operator with 2x2 blocks ``A_j`` is block-diagonalized by
the DFT: mode ``k`` sees the 2x2 symbol

    B_k = scale * sum_j A_j r**(j k),        r = exp(2 pi i / n),

and the union of the symbol eigenvalues over all modes is the full spectrum.
Everything here works mode-wise (O(n) total) with dense materialization only
as a cross-check oracle.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .operators import BlockCirculantOp

__all__ = [
    "DefectiveSymbolError",
    "Definiteness",
    "Symbol",
    "block_diagonalize_check",
    "eigenvalues",
    "eigenvector",
    "hermitian_classify",
    "symbol",
]


class DefectiveSymbolError(ValueError):
    """A 2x2 symbol is not diagonalizable; eigenvectors are not fabricated."""


@dataclasses.dataclass(frozen=True, eq=False)
class Symbol:
    """The 2x2 symbol of one Fourier mode (``theta = 2 pi k / n``)."""

    entries: np.ndarray
    theta: float
    k: int
    n: int


def _all_symbols(op: BlockCirculantOp) -> np.ndarray:
    """Symbols of every mode, shape ``(n, 2, 2)`` complex."""
    theta = 2.0 * np.pi * np.arange(op.n) / op.n
    out = np.zeros((op.n, 2, 2), dtype=complex)
    for j, a in op.blocks.items():
        out += np.exp(1j * (theta * j))[:, None, None] * a
    return op.scale * out


def symbol(op: BlockCirculantOp, k: int) -> Symbol:
    """The symbol ``B_k`` of mode ``k`` (including the operator's scale)."""
    if not 0 <= k < op.n:
        raise ValueError(f"mode index k={k} out of range [0, {op.n})")
    return Symbol(entries=_all_symbols(op)[k], theta=2.0 * np.pi * k / op.n, k=int(k), n=op.n)


def _eig_pairs(B: np.ndarray) -> np.ndarray:
    """Eigenvalue pairs of stacked 2x2 matrices, each pair sorted by (re, im).

    Uses the closed-form quadratic with a cancellation-safe discriminant: the
    square root is oriented along the trace, and the second eigenvalue comes
    from the product identity ``lam1 * lam2 = det``.
    """
    t = B[..., 0, 0] + B[..., 1, 1]
    d = B[..., 0, 0] * B[..., 1, 1] - B[..., 0, 1] * B[..., 1, 0]
    s = np.sqrt((t * t - 4.0 * d).astype(complex))
    s = np.where(np.real(np.conj(t) * s) < 0.0, -s, s)
    lam1 = 0.5 * (t + s)
    safe = np.where(lam1 == 0.0, 1.0, lam1)
    lam2 = np.where(lam1 == 0.0, 0.5 * (t - s), d / safe)
    first = (np.real(lam1) < np.real(lam2)) | (
        (np.real(lam1) == np.real(lam2)) & (np.imag(lam1) <= np.imag(lam2))
    )
    lo = np.where(first, lam1, lam2)
    hi = np.where(first, lam2, lam1)
    return np.stack([lo, hi], axis=-1)


def eigenvalues(op: BlockCirculantOp) -> np.ndarray:
    """All ``2n`` eigenvalues: the symbol pairs concatenated for ``k = 0..n-1``.

    Within a mode the pair is ordered by (real, imaginary); the multiset
    equals the dense-matrix spectrum.
    """
    return _eig_pairs(_all_symbols(op)).reshape(-1)


def eigenvector(op: BlockCirculantOp, k: int, which: int) -> np.ndarray:
    """Full eigenvector ``(v, r^k v, ..., r^{(n-1)k} v)`` for one symbol branch.

    ``which`` selects the branch in the same (re, im) order as
    :func:`eigenvalues`.  A scalar symbol ``B_k = lam*I`` is diagonalizable
    with arbitrary basis; the canonical choice ``v = (1, 1)/sqrt(2)`` and
    ``(1, -1)/sqrt(2)`` makes the ``k = 0`` branches of a consistent operator
    the constant state and the alternating point/average state.  A genuinely
    defective symbol raises :class:`DefectiveSymbolError`.
    """
    if which not in (0, 1):
        raise ValueError(f"which must be 0 or 1, got {which}")
    sym = symbol(op, k)
    B = sym.entries
    pair = _eig_pairs(B[None])[0]
    lam = pair[which]
    bnorm = float(np.abs(B).max())
    gap = abs(pair[1] - pair[0])
    if gap <= 1e-8 * max(bnorm, abs(pair[0]), abs(pair[1])) or bnorm == 0.0:
        # coalescent eigenvalues: diagonalizable only in the scalar case
        if np.abs(B - lam * np.eye(2)).max() <= 1e-10 * max(bnorm, abs(lam), 1e-300):
            v = np.array([1.0, 1.0 - 2.0 * which]) / np.sqrt(2.0)
        else:
            raise DefectiveSymbolError(
                f"symbol of mode k={k} (theta={sym.theta:.6g}) has a double "
                f"eigenvalue {lam:.6g} with a one-dimensional eigenspace"
            )
    else:
        r1 = np.array([B[0, 1], lam - B[0, 0]])
        r2 = np.array([lam - B[1, 1], B[1, 0]])
        v = r1 if np.linalg.norm(r1) >= np.linalg.norm(r2) else r2
        v = v / np.linalg.norm(v)
    phases = np.exp(2j * np.pi * k / op.n * np.arange(op.n))
    return np.kron(phases, v) / np.sqrt(op.n)


def block_diagonalize_check(op: BlockCirculantOp) -> float:
    """Residual of the DFT block diagonalization against the dense matrix.

    Returns ``|| (F* kron I) A (F kron I) - diag(B_0..B_{n-1}) ||_inf`` with
    ``F`` the unitary DFT matrix.
    """
    n = op.n
    F = np.exp(2j * np.pi / n * np.outer(np.arange(n), np.arange(n))) / np.sqrt(n)
    G = np.kron(F, np.eye(2))
    transformed = G.conj().T @ op.dense() @ G
    expected = np.zeros_like(transformed)
    for k, B in enumerate(_all_symbols(op)):
        expected[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = B
    return float(np.abs(transformed - expected).sum(axis=1).max())


@dataclasses.dataclass(frozen=True)
class Definiteness:
    """Spectral classification of a symmetric block-circulant operator."""

    kind: str
    zero_multiplicity: int
    min_eigenvalue: float
    max_eigenvalue: float


def hermitian_classify(op: BlockCirculantOp) -> Definiteness:
    """Classify a symmetric operator from its (real) symbol eigenvalues.

    Zero is decided per mode: an eigenvalue of mode ``k`` counts as zero when
    it is within ``16 eps s_k`` of zero, where ``s_k = |a_k| + |d_k| +
    2 |b_k|`` bounds the spectral radius of that mode's Hermitian symbol
    ``[[a_k, b_k], [conj(b_k), d_k]]``.  The decision is invariant under dx
    rescaling and does not depend on the other modes, so small genuine
    eigenvalues of low-frequency modes are not taken for zeros.  The mass
    family's smallest genuine eigenvalue shrinks like ``n**-2`` (4.1e-13
    ``s_k`` at n = 1e6) and meets the bound near n = 1e7.  A symbol with a
    non-finite entry raises :class:`ValueError`.  Finite but huge or tiny
    operators classify as their unit-scale copies do.
    """
    with np.errstate(over="ignore"):  # a norm past the float range reads as inf
        norm = op.norm_inf()
    e = 0
    if not 2.0**-300 < norm < 2.0**300:
        # Divide by 2**e, a power of two near the largest entry: that is
        # exact, so every decision below is that of op and the eigenvalues
        # scale back exactly, while no norm, square or sum of op / 2**e can
        # overflow or underflow (m_v = 1e308 or 1e-300 in the mass family).
        m, es = np.frexp(op.scale)
        eb = max((int(np.frexp(np.abs(a).max())[1]) for a in op.blocks.values()), default=0)
        e = int(es) + eb
        blocks = {j: np.ldexp(a, -eb) for j, a in op.blocks.items()}
        op = BlockCirculantOp(op.n, op.dx, float(m), blocks)
        norm = op.norm_inf()
    defect = (op - op.T).norm_inf()
    if defect > 1e-12 * max(norm, 1e-300):
        raise ValueError(f"operator is not symmetric (defect {defect:.3e})")
    # a, d and |b| of each mode's Hermitian part [[a, b], [conj(b), d]]
    B = _all_symbols(op)
    if not np.isfinite(B).all():
        raise ValueError("operator symbol has a non-finite entry")
    a = B[:, 0, 0].real
    d = B[:, 1, 1].real
    b = np.abs(0.5 * (B[:, 0, 1] + np.conj(B[:, 1, 0])))
    mean = 0.5 * (a + d)
    rad = np.sqrt((0.5 * (a - d)) ** 2 + b**2)
    lo, hi = mean - rad, mean + rad
    # Rounding bound: each Hermitian entry is a sum of at most a few stencil
    # coefficients times rounded unit phases, accurate to a few eps of s_k
    # for stencils whose coefficients are of the size of s_k (every mass
    # matrix here), and by Weyl's inequality the eigenvalues move no more
    # than the entries do; mean -/+ rad adds about 4 eps s_k (a square, a
    # sum, a root, a difference).  A true zero thus comes out below about
    # 8 eps s_k, and 16 eps doubles that.  Measured: true zeros <= 6e-17 s_k
    # for n from 3 to 1e6.
    tol = 16.0 * np.finfo(float).eps * (np.abs(a) + np.abs(d) + 2.0 * b)
    zeros = int(np.count_nonzero(np.abs(lo) <= tol) + np.count_nonzero(np.abs(hi) <= tol))
    npos = int(np.count_nonzero(lo > tol) + np.count_nonzero(hi > tol))
    nneg = int(np.count_nonzero(lo < -tol) + np.count_nonzero(hi < -tol))
    if nneg == 0:
        kind = "positive_definite" if zeros == 0 else "positive_semidefinite"
    elif npos == 0:
        kind = "negative_definite" if zeros == 0 else "negative_semidefinite"
    else:
        kind = "indefinite"
    # lo <= hi in every mode (rad >= 0), so the extremes sit in one branch each
    with np.errstate(over="ignore"):  # an eigenvalue past the float range reads as +-inf
        lo_min, hi_max = np.ldexp([lo.min(), hi.max()], e)
    return Definiteness(
        kind=kind,
        zero_multiplicity=zeros,
        min_eigenvalue=float(lo_min),
        max_eigenvalue=float(hi_max),
    )
