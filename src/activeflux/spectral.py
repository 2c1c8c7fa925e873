"""Fourier-symbol analysis of block-circulant operators.

A block-circulant operator with 2x2 blocks ``A_j`` is block-diagonalized by
the DFT: mode ``k`` sees the 2x2 symbol

    B_k = scale * sum_j A_j r**(j k),        r = exp(2 pi i / n),

and the union of the symbol eigenvalues over all modes is the full spectrum.
Everything here works mode-wise (O(n) total) with dense materialization only
as a cross-check oracle.

One kernel, ``_half_symbols``, evaluates the symbols, and only for the modes
``k = 0..n//2``.  It runs over a stack of operators on one ring (``_Stack``:
each operator's blocks stacked per offset, a zero block where an operator
has none, and the scales side by side), most often a stack of one.  It
pairs the blocks at ``+-s`` (stored offsets lie in ``[-n//2, n - n//2)``,
so far-out offsets lose no phase) and accumulates, in real arrays,

    Re B_k = scale * sum_s cos(s theta_k) (A_s + A_-s),
    Im B_k = scale * sum_s sin(s theta_k) (A_s - A_-s),

with one cosine and one sine per offset distance ``s``, each taken of the
exactly reduced phase ``2 pi ((s k) mod n) / n``.  Every stored block is
real, so ``B_{n-k} = conj(B_k)`` holds exactly, and the modes past ``n/2``
are mirrored, not evaluated: ``_all_symbols`` conjugates the matrices and
:func:`eigenvalues` the eigenvalue pairs of ``_half_pairs``, which the
checks' dissipation spectrum also reads without the mirror.  The
classification never forms the mirror; it weights each evaluated mode by
the number of modes it stands for.  Both of them run the kernel on
``_CHUNK`` modes at a time, so that their per-mode temporaries stay
cache-sized at large n.

Spectra and classification share one scale rule (``_in_range``): an
operator whose norm leaves ``(2**-300, 2**300)`` is divided by an exact
power of two ``2**e`` first, so that no square, product or sum of its
symbols overflows or underflows, and its eigenvalues are multiplied back by
``2**e``, again exactly.  An operator inside the range is left alone.

Classification has one entry, :func:`classify_stack`: one step checks the
stack (``_checked``: the norm, the symmetry defect, the rescale) and one
kernel classifies it (``_classify_stack``: the symbols and the per-mode
tests), with the operators along a leading array axis.
:func:`hermitian_classify` is that entry on one operator's stack of one;
``mass-scan`` builds each pass of its sweep as one stack straight from the
mass family's coefficients (``operators.banded_mass_stack``) without
building the operators.

Every operator of such a stack gets the result it gets alone, bit for bit:
each of its elements goes through the same floating-point operations in the
same order.  The stack only adds terms that the one-operator case skips
because they are zero: the padded zero blocks (``+0.0``, or zeros of either
sign in a stack built from coefficients), and block entries that are zero
in some operators of a stack but not in all.  Each such term adds ``+-0``
to a running sum.  Every such sum starts at ``+0.0`` and so is never
``-0.0`` (``x + y`` is ``-0.0`` only when both are), and ``x + (+-0) = x``
for every ``x`` but ``-0.0``, so the extra terms change nothing.  The sums of
absolute values in the norm and the defect are never ``-0.0`` either.  The
order of the terms that are not zero is kept as long as each operator's
stored offsets are the stack's, in the same order, with some pairs ``+-s``
left out whole: the norm adds in offset order, the symbols in order of
first appearance of ``|j|``, and the defect pairs ``j`` with its mirror
offset, of the same ``|j|``.  The mass family's stacks are of that kind.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterator

import numpy as np

from .operators import BlockCirculantOp

__all__ = [
    "DefectiveSymbolError",
    "Definiteness",
    "Symbol",
    "block_diagonalize_check",
    "classify_stack",
    "eigenvalues",
    "eigenvector",
    "hermitian_classify",
    "operators_per_pass",
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
    # in place, by the operations of 2.0 * np.pi * (s * k % n) / n
    turns = np.arange(n // 2 + 1)
    turns *= s
    turns %= n
    phase = np.multiply(2.0 * np.pi, turns)
    phase /= n
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)
    turns *= 2
    sin[turns == n] = 0.0
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def _norm_inf(parts: np.ndarray) -> np.ndarray:
    """Largest absolute row sum of each operator with scaled blocks ``parts[:, b]``.

    The rows of the blocks are added in block order from ``+0.0``, as
    ``BlockCirculantOp.norm_inf`` adds them.
    """
    row = np.zeros(parts.shape[1:3])
    for r in np.abs(parts).sum(axis=3):
        row += r
    return row.max(axis=1, initial=0.0)


class _Stack:
    """Operators on one ring, their blocks stacked per offset.

    ``blocks[i]`` holds every operator's block at ``offsets[i]``, shape
    ``(B, 2, 2)``, with a zero block where an operator has none, and
    ``scale`` holds the ``B`` prefactors.  Each operator's stored offsets
    must be ``offsets`` in order, with some pairs ``+-s`` left out whole
    (see the module docstring).
    """

    def __init__(self, n: int, offsets: tuple, blocks: np.ndarray, scale: np.ndarray):
        self.n, self.offsets, self.blocks, self.scale = n, offsets, blocks, scale

    @classmethod
    def of(cls, op: BlockCirculantOp) -> "_Stack":
        """The stack of one operator, by its own stored offsets."""
        offsets = tuple(op.blocks)
        blocks = np.array([op.blocks[j] for j in offsets]).reshape(len(offsets), 1, 2, 2)
        return cls(op.n, offsets, blocks, np.array([op.scale], dtype=float))

    @functools.cached_property
    def _terms(self) -> list:
        """Per offset distance ``s``, in order of first appearance: the terms of ``B_k``.

        ``s = 0`` brings its stacked block, as ``(2, 2, B, 1)``.  Every other
        ``s`` brings the entries of ``A_s + A_-s`` (the cosine part) and of
        ``A_s - A_-s`` (the sine part) that are nonzero in some operator, as
        ``(row, col, (B, 1) column)``.
        """
        paired: dict[int, list] = {}  # s -> [A_s, A_-s]
        for j, a in zip(self.offsets, self.blocks):
            paired.setdefault(abs(j), [0.0, 0.0])[int(j < 0)] = a
        terms = []
        for s, (plus, minus) in paired.items():
            if s == 0:
                terms.append((0, plus.transpose(1, 2, 0)[..., None], ()))
                continue
            parts = []
            for v in (plus + minus, plus - minus):
                nonzero = v.any(axis=0).tolist()
                parts.append(
                    [(r, c, v[:, r, c, None]) for r in (0, 1) for c in (0, 1) if nonzero[r][c]]
                )
            terms.append((s, *parts))
        return terms

    def norms(self) -> np.ndarray:
        """``norm_inf`` of each operator, bit for bit."""
        return _norm_inf(self.scale[:, None, None] * self.blocks)

    def defects(self) -> np.ndarray:
        """``(op - op.T).norm_inf()`` of each operator, bit for bit, from the stored blocks.

        With ``s = op.scale``, ``op - op.T`` stores ``s A_j - s A_{-j}^T`` at
        each offset ``j`` of ``op`` (just ``s A_j`` when ``-j``, reduced, has no
        block), then ``-s A_j^T`` at each reduced ``-j`` that ``op`` lacks, and
        its ``norm_inf`` sums their absolute rows in that order.  The operators
        themselves are not built.  (At ``s = 0`` the difference would sum the
        blocks before scaling; both defects are then 0 or NaN and pass the test.)
        """
        n, s = self.n, self.scale[:, None, None]
        at = {j: a for j, a in zip(self.offsets, self.blocks)}
        mirrors = [(at[j], at.get((n // 2 - j) % n - n // 2)) for j in self.offsets]
        parts = [s * a if m is None else s * a - s * m.transpose(0, 2, 1) for a, m in mirrors]
        parts += [-s * a.transpose(0, 2, 1) for a, m in mirrors if m is None]
        return _norm_inf(np.array(parts).reshape(-1, self.scale.size, 2, 2))

    def rescaled(self, rows: np.ndarray) -> tuple["_Stack", np.ndarray]:
        """The operators in ``rows`` divided by ``2**e``, with ``e``; ``e = 0`` elsewhere.

        ``e`` is the scale's binary exponent plus that of the largest stored
        entry.  Dividing by ``2**e`` is exact, so every decision of the
        classification is kept and the eigenvalues scale back exactly, while
        no norm, square or sum of the quotient can overflow or underflow
        (``m_v = 1e308`` or ``1e-300`` in the mass family).  A stored block
        whose entries all underflow stays in the stack as a zero block.
        """
        m, es = np.frexp(self.scale)
        stored = (self.blocks != 0).any(axis=(2, 3))  # NaN counts as nonzero
        top = np.frexp(np.abs(self.blocks).max(axis=(2, 3)))[1]
        eb = np.max(top, axis=0, where=stored, initial=np.iinfo(top.dtype).min)
        eb = np.where(stored.any(axis=0), eb, 0)
        blocks = self.blocks.copy()
        blocks[:, rows] = np.ldexp(blocks[:, rows], -eb[rows, None, None])
        scaled = _Stack(self.n, self.offsets, blocks, np.where(rows, m, self.scale))
        return scaled, np.where(rows, es + eb, 0)


def _in_range(stack: _Stack) -> tuple[_Stack, np.ndarray, np.ndarray]:
    """``stack`` with each operator whose norm leaves ``(2**-300, 2**300)``
    divided by ``2**e`` (``_Stack.rescaled``), its norms, and ``e`` (0 elsewhere)."""
    with np.errstate(over="ignore"):  # a norm past the float range reads as inf
        norm = stack.norms()
    e = np.zeros(stack.scale.size, dtype=int)
    rescale = ~((2.0**-300 < norm) & (norm < 2.0**300))
    if rescale.any():
        stack, e = stack.rescaled(rescale)
        norm = stack.norms()
    return stack, norm, e


def _half_symbols(stack: _Stack, modes: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``B_k`` for ``k`` in ``modes`` of ``0..n//2``.

    Each part has shape ``(2, 2, B, number of modes)``: entry-major, so that
    each entry's row over the modes is contiguous.  An entry of a paired
    block that is zero in every operator of the stack is skipped.
    """
    n = stack.n
    k0, k1, _ = modes.indices(n // 2 + 1)
    re = np.zeros((2, 2, stack.scale.size, k1 - k0))
    im = np.zeros(re.shape)
    for s, even, odd in stack._terms:
        if s == 0:
            re += even
            continue
        cos, sin = (w[k0:k1] for w in _waves(n, s))
        for part, wave, entries in ((re, cos, even), (im, sin, odd)):
            for row, col, v in entries:
                part[row, col] += v * wave
    re *= stack.scale[:, None]
    im *= stack.scale[:, None]
    return re, im


def _stacked(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The half-mode symbols as complex 2x2 matrices, ``(B, modes, 2, 2)``.

    A view of entry-major storage, so that ``B[..., r, c]`` stays contiguous.
    """
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out.transpose(2, 3, 0, 1)


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
    out[: op.n // 2 + 1] = _stacked(*_half_symbols(_Stack.of(op)))[0]
    return _mirror(out)


def _mode_symbol(stack: _Stack, k: int) -> np.ndarray:
    """``B_k`` of a stack of one, the bits of ``_all_symbols``' row ``k``.

    Only mode ``min(k, n - k)`` is evaluated; past ``n/2`` it is conjugated.
    """
    if not 0 <= k < stack.n:
        raise ValueError(f"mode index k={k} out of range [0, {stack.n})")
    m = min(k, stack.n - k)
    B = _stacked(*_half_symbols(stack, slice(m, m + 1)))[0, 0]
    return B if m == k else np.conjugate(B)


def symbol(op: BlockCirculantOp, k: int) -> Symbol:
    """The symbol ``B_k`` of mode ``k`` (including the operator's scale)."""
    B = _mode_symbol(_Stack.of(op), k)
    return Symbol(entries=B, theta=2.0 * np.pi * k / op.n, k=int(k), n=op.n)


def _eig_roots(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two eigenvalues of stacked 2x2 matrices, unordered.

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
    return lam1, lam2


def _eig_pairs(B: np.ndarray) -> np.ndarray:
    """Eigenvalue pairs of stacked 2x2 matrices (``_eig_roots``), each pair sorted by (re, im)."""
    lam1, lam2 = _eig_roots(B)
    first = (np.real(lam1) < np.real(lam2)) | (
        (np.real(lam1) == np.real(lam2)) & (np.imag(lam1) <= np.imag(lam2))
    )
    lo = np.where(first, lam1, lam2)
    hi = np.where(first, lam2, lam1)
    return np.stack([lo, hi], axis=-1)


def _half_pairs(op: BlockCirculantOp) -> tuple[int, Iterator[tuple[slice, np.ndarray]]]:
    """The eigenvalue pairs of modes ``k = 0..n//2``, ``_CHUNK`` modes at a time.

    Returns ``e`` and the chunks ``(modes, pairs)``: ``pairs`` is a
    ``(modes, 2)`` complex array, each pair ordered by (real, imaginary),
    of the operator that ``_in_range`` divides by ``2**e`` (``e = 0`` for
    an operator inside the range); ``_scale_back`` multiplies it back.
    Mode ``n - k`` has the conjugate pair of mode ``k``, so these chunks
    hold the whole spectrum: its real parts, each in its place (the
    conjugate pair sorts alike but where the real parts tie), and its
    imaginary parts up to sign.
    """
    stack, _, (e,) = _in_range(_Stack.of(op))
    m = op.n // 2 + 1
    chunks = (slice(start, min(start + _CHUNK, m)) for start in range(0, m, _CHUNK))
    return int(e), ((modes, _eig_pairs(_stacked(*_half_symbols(stack, modes))[0])) for modes in chunks)


def _scale_back(pairs: np.ndarray, e: int) -> np.ndarray:
    """Multiply complex ``pairs`` by ``2**e`` in place, past the float range to ``+-inf``.

    The real and imaginary parts go through ``ldexp`` each (a complex
    product would turn ``-0.0`` into ``+0.0``).
    """
    if e:
        with np.errstate(over="ignore"):
            for part in (pairs.real, pairs.imag):
                np.ldexp(part, e, out=part)
    return pairs


def eigenvalues(op: BlockCirculantOp) -> np.ndarray:
    """All ``2n`` eigenvalues: the symbol pairs concatenated for ``k = 0..n-1``.

    Within a mode the pair is ordered by (real, imaginary); the multiset
    equals the dense-matrix spectrum.  The pairs of ``k = 0..n//2`` come
    from ``_half_pairs``; mode ``n - k`` takes the conjugates of mode
    ``k``, re-sorted, since ``B_{n-k} = conj(B_k)``.  An operator that
    ``_in_range`` divides by ``2**e`` is multiplied back by
    ``_scale_back`` after the mirror.
    """
    n, m = op.n, op.n // 2 + 1
    e, chunks = _half_pairs(op)
    pairs = np.empty((n, 2), dtype=complex)
    for modes, half in chunks:
        pairs[modes] = half
    # conj keeps the real parts: only pairs with equal real parts lose their order
    lo, hi = _mirror(pairs)[m:].T
    swap = (lo.real == hi.real) & (lo.imag > hi.imag)
    pairs[m:][swap] = pairs[m:][swap, ::-1]
    return _scale_back(pairs, e).reshape(-1)


def eigenvector(op: BlockCirculantOp, k: int, which: int) -> np.ndarray:
    """Full eigenvector ``(v, r^k v, ..., r^{(n-1)k} v)`` for one symbol branch.

    ``which`` selects the branch in the same (re, im) order as
    :func:`eigenvalues`.  A scalar symbol ``B_k = lam*I`` is diagonalizable
    with arbitrary basis; the canonical choice ``v = (1, 1)/sqrt(2)`` and
    ``(1, -1)/sqrt(2)`` makes the ``k = 0`` branches of a consistent operator
    the constant state and the alternating point/average state.  A genuinely
    defective symbol raises :class:`DefectiveSymbolError`.

    The symbol comes from ``_in_range``'s stack, like the eigenvalues: an
    operator whose norm leaves ``(2**-300, 2**300)`` is divided by ``2**e``
    first.  That is exact, and ``v`` does not depend on the scale, so the
    result is the eigenvector of any exact power-of-two rescale of ``op``
    inside the range, bit for bit.
    """
    if which not in (0, 1):
        raise ValueError(f"which must be 0 or 1, got {which}")
    B = _mode_symbol(_in_range(_Stack.of(op))[0], k)
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
                f"symbol of mode k={k} (theta={2.0 * np.pi * k / op.n:.6g}) has a double "
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


@dataclasses.dataclass(frozen=True, slots=True)
class Definiteness:
    """Spectral classification of a symmetric block-circulant operator."""

    kind: str
    zero_multiplicity: int
    min_eigenvalue: float
    max_eigenvalue: float


def _classify_stack(stack: _Stack, e: np.ndarray) -> list[Definiteness]:
    """Classify the checked operators of ``stack``, scaled back by ``2**e``."""
    n, size = stack.n, stack.scale.size
    # each mode is its own mirror only at k = 0 and, for even n, k = n/2
    own = {0, n // 2} if n % 2 == 0 else {0}
    zeros = np.zeros(size, dtype=np.int64)
    negative, positive = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
    lo_min, hi_max = np.full(size, np.inf), np.full(size, -np.inf)
    for start in range(0, n // 2 + 1, _CHUNK):
        # a, d and |b| of each mode's Hermitian part [[a, b], [conj(b), d]]
        re, im = _half_symbols(stack, slice(start, start + _CHUNK))
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
        single = [k - start for k in own if start <= k < start + a.shape[1]]
        for mask in (np.abs(lo) <= tol, np.abs(hi) <= tol):
            if mask.any():  # zeros are rare, and one test is cheaper than the row counts
                zeros += 2 * mask.sum(axis=1) - mask[:, single].sum(axis=1)
        # lo <= hi in every mode (rad >= 0): lo decides negatives, hi positives,
        # and the extremes sit in one branch each
        negative |= (lo < -tol).any(axis=1)
        positive |= (hi > tol).any(axis=1)
        # a tie (+0 against -0) keeps the earlier chunk's value
        lo_c, hi_c = lo.min(axis=1), hi.max(axis=1)
        lo_min = np.where(lo_c < lo_min, lo_c, lo_min)
        hi_max = np.where(hi_c > hi_max, hi_c, hi_max)
    with np.errstate(over="ignore"):  # an eigenvalue past the float range reads as +-inf
        lo_min, hi_max = np.ldexp(lo_min, e), np.ldexp(hi_max, e)
    out = []
    for z, neg, pos, lo, hi in zip(*(v.tolist() for v in (zeros, negative, positive, lo_min, hi_max))):
        if not neg:
            kind = "positive_definite" if z == 0 else "positive_semidefinite"
        elif not pos:
            kind = "negative_definite" if z == 0 else "negative_semidefinite"
        else:
            kind = "indefinite"
        out.append(Definiteness(kind, z, lo, hi))
    return out


def _checked(stack: _Stack) -> tuple[_Stack, np.ndarray]:
    """Norm, symmetry defect and power-of-two rescale of every operator of ``stack``.

    Returns the stack to classify and the exponents to scale its results
    back by; raises for the first operator that fails.
    """
    stack, norm, e = _in_range(stack)
    defect = stack.defects()
    asymmetric = defect > 1e-12 * np.maximum(norm, 1e-300)
    # a finite norm below 2**300 bounds every symbol entry by 2**301
    failing = asymmetric | ~(np.isfinite(norm) & np.isfinite(stack.scale))
    if failing.any():
        b = int(np.argmax(failing))
        if asymmetric[b]:
            raise ValueError(f"operator is not symmetric (defect {defect[b]:.3e})")
        raise ValueError("operator symbol has a non-finite entry")
    return stack, e


def classify_stack(n: int, scale: float, offsets: tuple, blocks: np.ndarray) -> list[Definiteness]:
    """Classify each operator of one block stack bit for bit as :func:`hermitian_classify` does.

    ``blocks[i, b]`` is operator ``b``'s block at ``offsets[i]`` on the
    ``n``-cell ring (zeros, of either sign, where it stores none); every
    prefactor is ``scale``.  Each operator's stored offsets must be
    ``offsets`` in order, with some pairs ``+-s`` left out whole (see the
    module docstring).  The first operator that fails the checks raises the
    error it raises alone.  Per-mode memory grows with the stack: a long
    sequence goes in stacks of :func:`operators_per_pass`.
    """
    stack = _Stack(n, offsets, blocks, np.full(blocks.shape[1], float(scale)))
    return _classify_stack(*_checked(stack))


def operators_per_pass(n: int) -> int:
    """Operators per stacked pass on the ``n``-cell ring: a pass holds about one chunk of modes."""
    return max(1, _CHUNK // (n // 2 + 1))


def hermitian_classify(op: BlockCirculantOp) -> Definiteness:
    """Classify one symmetric operator from its (real) symbol eigenvalues.

    Zero is decided per mode: an eigenvalue of mode ``k`` counts as zero when
    it is within ``16 eps s_k`` of zero, where ``s_k = |a_k| + |d_k| +
    2 |b_k|`` bounds the spectral radius of that mode's Hermitian symbol
    ``[[a_k, b_k], [conj(b_k), d_k]]``.  The decision is invariant under dx
    rescaling and does not depend on the other modes, so small genuine
    eigenvalues of low-frequency modes are not taken for zeros.  The mass
    family's smallest genuine eigenvalue shrinks like ``n**-2`` (4.1e-13
    ``s_k`` at n = 1e6) and meets the bound near n = 1e7.  An operator whose
    symmetry defect ``(op - op.T).norm_inf()`` exceeds ``1e-12`` of its norm,
    or whose symbol has a non-finite entry, raises :class:`ValueError`.
    Finite but huge or tiny operators classify as their unit-scale copies
    do: an operator whose norm lies outside ``(2**-300, 2**300)`` is first
    divided by an exact power of two, as for :func:`eigenvalues`.

    ``a_k``, ``d_k`` and ``|b_k|`` are read from the half-mode kernel's real
    and imaginary parts for ``k = 0..n//2`` only.  Mode ``n - k`` has the
    conjugate symbol, hence the same ``a``, ``d``, ``|b|`` and eigenvalues,
    so each evaluated mode counts twice in the multiplicities, except
    ``k = 0`` and, for even ``n``, ``k = n/2``, which are their own mirrors
    and count once.

    This is :func:`classify_stack` on the operator's stack of one, by its
    own stored offsets.
    """
    stack = _Stack.of(op)
    return classify_stack(op.n, op.scale, stack.offsets, stack.blocks)[0]
