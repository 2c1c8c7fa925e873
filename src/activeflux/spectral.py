"""Fourier-symbol analysis of block-circulant operators.

A block-circulant operator with 2x2 blocks ``A_j`` is block-diagonalized by
the DFT: mode ``k`` sees the 2x2 symbol

    B_k = scale * sum_j A_j r**(j k),        r = exp(2 pi i / n),

and the union of the symbol eigenvalues over all modes is the full spectrum.
Everything here works mode-wise (O(n) total) with dense materialization only
as a cross-check oracle.

One kernel, ``_half_symbols``, evaluates the symbols, and only for the modes
``k = 0..n//2``.  It pairs the blocks at ``+-s`` (stored offsets lie in
``[-n//2, n - n//2)``, so far-out offsets lose no phase) and accumulates, in
real arrays,

    Re B_k = scale * sum_s cos(s theta_k) (A_s + A_-s),
    Im B_k = scale * sum_s sin(s theta_k) (A_s - A_-s),

with one cosine and one sine per offset distance ``s``, each taken of the
exactly reduced phase ``2 pi ((s k) mod n) / n``.  Every stored block is
real, so ``B_{n-k} = conj(B_k)`` holds exactly, and the modes past ``n/2``
are mirrored, not evaluated: ``_all_symbols`` conjugates the matrices and
:func:`eigenvalues` the eigenvalue pairs.  :func:`hermitian_classify` never
forms the mirror; it weights each evaluated mode by the number of modes it
stands for.  Both of them run the kernel on ``_CHUNK`` modes at a time, so
that their per-mode temporaries stay cache-sized at large n.
"""

from __future__ import annotations

import dataclasses
import functools

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


#: modes per pass in eigenvalues and hermitian_classify: the temporaries of
#: a pass stay in cache instead of streaming arrays of length n
_CHUNK = 16384


@functools.lru_cache(maxsize=8)
def _waves(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """``cos`` and ``sin`` of ``s theta_k`` for ``k = 0..n//2``, from the exact phase.

    The phase is ``2 pi ((s k) mod n) / n`` with the reduction done in
    integers, and ``sin`` is exactly 0 where the phase is pi, so ``B_{n/2}``
    is real, as its own mirror.  Cached: the checks classify several
    operators on one ring, and ``mass-scan`` classifies hundreds.
    """
    k = np.arange(n // 2 + 1)
    turns = s * k % n
    phase = 2.0 * np.pi * turns / n
    cos, sin = np.cos(phase), np.sin(phase)
    sin[2 * turns == n] = 0.0
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def _half_symbols(
    op: BlockCirculantOp, modes: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``B_k`` for ``k`` in ``modes`` of ``0..n//2``.

    Each part has shape ``(2, 2, number of modes)``: entry-major, so that
    each entry's row over the modes is contiguous.  Zero entries of a
    paired block are skipped.
    """
    n = op.n
    k0, k1, _ = modes.indices(n // 2 + 1)
    paired: dict[int, list] = {}  # s -> [A_s, A_-s]
    for j, a in op.blocks.items():
        paired.setdefault(abs(j), [0.0, 0.0])[int(j < 0)] = a
    re = np.zeros((2, 2, k1 - k0))
    im = np.zeros_like(re)
    for s, (plus, minus) in paired.items():
        if s == 0:
            re += plus[:, :, None]
            continue
        cos, sin = (w[k0:k1] for w in _waves(n, s))
        for part, block, wave in ((re, plus + minus, cos), (im, plus - minus, sin)):
            for (row, col), v in np.ndenumerate(block):
                if v:
                    part[row, col] += v * wave
    re *= op.scale
    im *= op.scale
    return re, im


def _stacked(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The half-mode symbols as complex 2x2 matrices, ``(modes, 2, 2)``.

    A view of entry-major storage, so that ``B[:, r, c]`` stays contiguous.
    """
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out.transpose(2, 0, 1)


def _mirror(out: np.ndarray) -> np.ndarray:
    """Fill modes ``k > n//2`` of per-mode data in place by ``x_{n-k} = conj(x_k)``."""
    n = out.shape[0]
    m = n // 2 + 1
    np.conjugate(out[1 : n - m + 1][::-1], out=out[m:])
    return out


def _all_symbols(op: BlockCirculantOp) -> np.ndarray:
    """Symbols of every mode, shape ``(n, 2, 2)`` complex.

    Modes ``0..n//2`` come from ``_half_symbols``; mode ``n - k`` is
    ``conj(B_k)``.  The mirror is exact, not a rounding of it: the blocks
    and the scale are real, so ``conj(sum_j A_j r**(j k)) = sum_j A_j
    r**(-j k) = B_{n-k}``, and conjugation itself rounds nothing.
    """
    out = np.empty((op.n, 2, 2), dtype=complex)
    out[: op.n // 2 + 1] = _stacked(*_half_symbols(op))
    return _mirror(out)


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
    s = np.sqrt((t * t - 4.0 * d).astype(complex, copy=False))
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
    equals the dense-matrix spectrum.  The pairs are solved for
    ``k = 0..n//2``, ``_CHUNK`` modes at a time; mode ``n - k`` takes the
    conjugates of mode ``k``, re-sorted, since ``B_{n-k} = conj(B_k)``.
    """
    n, m = op.n, op.n // 2 + 1
    pairs = np.empty((n, 2), dtype=complex)
    for start in range(0, m, _CHUNK):
        modes = slice(start, min(start + _CHUNK, m))
        pairs[modes] = _eig_pairs(_stacked(*_half_symbols(op, modes)))
    # conj keeps the real parts: only pairs with equal real parts lose their order
    lo, hi = _mirror(pairs)[m:].T
    swap = (lo.real == hi.real) & (lo.imag > hi.imag)
    pairs[m:][swap] = pairs[m:][swap, ::-1]
    return pairs.reshape(-1)


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


def _symmetry_defect(op: BlockCirculantOp) -> float:
    """``(op - op.T).norm_inf()``, bit for bit, read off the stored blocks.

    With ``s = op.scale``, ``op - op.T`` stores ``s A_j - s A_{-j}^T`` at
    each offset ``j`` of ``op`` (just ``s A_j`` when ``-j``, reduced, has no
    block), then ``-s A_j^T`` at each reduced ``-j`` that ``op`` lacks, and
    its ``norm_inf`` sums their absolute rows in that order.  The operators
    themselves are not built.  (At ``s = 0`` the difference would sum the
    blocks before scaling; both defects are then 0 or NaN and pass the test.)
    """
    s, n, blocks = op.scale, op.n, op.blocks
    mirror = {j: (n // 2 - j) % n - n // 2 for j in blocks}
    parts = [
        s * a - s * blocks[mirror[j]].T if mirror[j] in blocks else s * a
        for j, a in blocks.items()
    ]
    parts += [-s * a.T for j, a in blocks.items() if mirror[j] not in blocks]
    row = np.zeros(2)
    for p in parts:
        row += np.abs(p).sum(axis=1)
    return float(row.max(initial=0.0))


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

    ``a_k``, ``d_k`` and ``|b_k|`` are read from the half-mode kernel's real
    and imaginary parts for ``k = 0..n//2`` only.  Mode ``n - k`` has the
    conjugate symbol, hence the same ``a``, ``d``, ``|b|`` and eigenvalues,
    so each evaluated mode counts twice in the multiplicities, except
    ``k = 0`` and, for even ``n``, ``k = n/2``, which are their own mirrors
    and count once.
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
    defect = _symmetry_defect(op)
    if defect > 1e-12 * max(norm, 1e-300):
        raise ValueError(f"operator is not symmetric (defect {defect:.3e})")
    # a finite norm below 2**300 bounds every symbol entry by 2**301
    if not (np.isfinite(norm) and np.isfinite(op.scale)):
        raise ValueError("operator symbol has a non-finite entry")
    # each mode is its own mirror only at k = 0 and, for even n, k = n/2
    n = op.n
    own = {0, n // 2} if n % 2 == 0 else {0}
    zeros, negative, positive = 0, False, False
    lo_min, hi_max = np.inf, -np.inf
    for start in range(0, n // 2 + 1, _CHUNK):
        # a, d and |b| of each mode's Hermitian part [[a, b], [conj(b), d]]
        re, im = _half_symbols(op, slice(start, start + _CHUNK))
        a, d = re[0, 0], re[1, 1]
        b = np.hypot(0.5 * (re[0, 1] + re[1, 0]), 0.5 * (im[0, 1] - im[1, 0]))
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
        single = [k - start for k in own if start <= k < start + a.size]
        for mask in (np.abs(lo) <= tol, np.abs(hi) <= tol):
            zeros += 2 * np.count_nonzero(mask) - np.count_nonzero(mask[single])
        # lo <= hi in every mode (rad >= 0): lo decides negatives, hi positives,
        # and the extremes sit in one branch each
        negative = negative or bool((lo < -tol).any())
        positive = positive or bool((hi > tol).any())
        lo_min, hi_max = min(lo_min, lo.min()), max(hi_max, hi.max())
    if not negative:
        kind = "positive_definite" if zeros == 0 else "positive_semidefinite"
    elif not positive:
        kind = "negative_definite" if zeros == 0 else "negative_semidefinite"
    else:
        kind = "indefinite"
    with np.errstate(over="ignore"):  # an eigenvalue past the float range reads as +-inf
        lo_min, hi_max = np.ldexp([lo_min, hi_max], e)
    return Definiteness(
        kind=kind,
        zero_multiplicity=int(zeros),
        min_eigenvalue=float(lo_min),
        max_eigenvalue=float(hi_max),
    )
