"""Brute-force steady states on a truncated Fock space.

Everything else in this package works with closed moment equations or
detailed-balance occupations derived by hand.  This module rebuilds both
generators on a truncated two-node Fock space and extracts steady states,
moments and currents numerically, sharing only bath.rate and
normal_mode_basis with the global closed form and nothing with the local
one, whose node rates come from local_mme._node, so they can be audited
against it.
Each bath is a table of channels (jump operator c, frequency omega, weight),
and a channel is D[c] at bath.rate(omega) * weight plus its upward partner.

A generator is kept as its terms (L, R, w), each the map rho -> w L rho R.
The steady state lives on the excitation-number sector only: the entries
|n><m| with N(n) = N(m), where N = N_A + N_B.  The restriction is exact for
both generators.  Every Hamiltonian term conserves N, and every jump
operator (a, b, d+-, and their adjoints) shifts it by exactly one, so
c rho c' and {c'c, rho} map the sector into itself and its complement into
itself; the trace lives on the sector, so the unique steady state does too
(a U(1) symmetry of the Liouvillian; Buca & Prosen, New J. Phys. 14, 073007
(2012)).  At n_max = 12 the sector holds 1 469 of the 28 561 entries of rho.
Grouped by N, the sector is a stack of dense N-blocks of at most
(n_max + 1)**2 entries, and each operator is cut once into its blocks; one
that shifts N by more than one amount, or a term that takes rho off the
sector or moves N by more than one, is refused.  The sector generator is
block-tridiagonal: the Hamiltonian and the anticommutators keep N and each
c rho c' moves it by one on both sides.  So the steady state is a matrix
continued fraction (Risken, The Fokker-Planck Equation, ch. 9): with the
vacuum block fixed to 1, each block N follows from block N - 1 through a
map eliminated downward from the top block, and the trace is normalised at
the end.  The vacuum's own equation is the one that trace conservation makes
redundant.  The moments, mode populations and currents read the N-blocks
of the state they are given, which is exact for any state: every operator
they take a trace with conserves N.

Truncation quality is policed, not assumed: the residual, the terms' blocks
applied to rho's blocks independently of the assembled generator blocks,
must be small; the state must be positive to round-off; and bosonic states
must leave the top Fock level essentially unpopulated.

`apply`, `superoperator` (which stacks the whole dense rho into a vector,
column by column, as `_band` stacks each block), the `generator`,
`hot_part` and `cold_part` properties and `channel_superoperator` work on
the whole dim x dim space.  The solve and the observables never call them;
they are the full-space reference the tests check the blocks against.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np
import scipy.sparse as sp

from . import bath
from .errors import DegenerateNullspace, NonConvergence, TruncationTooSmall
from .global_mme import DissipationChannel
from .local_mme import MomentState
from .model import NetworkParams, Statistics, normal_mode_basis

RESIDUAL_TOLERANCE = 1e-10
NEGATIVITY_TOLERANCE = 1e-10
TOP_LEVEL_TOLERANCE = 1e-8
TAIL_TARGET = 1e-10


class Generator(Enum):
    """Which master-equation treatment the Liouvillian implements."""

    LOCAL = "local"
    GLOBAL = "global"


Term = tuple[sp.spmatrix, sp.spmatrix, complex]


@dataclass(frozen=True)
class FockLiouvillian:
    """A generator on the truncated two-node space, kept as its terms.

    terms is the full right-hand side including the commutator; hot and cold
    are the two bath dissipators alone.  The generator, hot_part and
    cold_part properties assemble them as dimension**2-square matrices;
    sector numbers the excitation-number blocks of rho, once per instance.
    """

    params: NetworkParams
    n_max: int
    dimension: int
    terms: tuple[Term, ...]
    hot: tuple[Term, ...]
    cold: tuple[Term, ...]
    hamiltonian: sp.csr_matrix
    a: sp.csr_matrix
    b: sp.csr_matrix

    @cached_property
    def sector(self) -> "_Sector":
        return _sector(self.a, self.b, self.n_max)

    @property
    def generator(self) -> sp.csr_matrix:
        return superoperator(self.terms, self.dimension)

    @property
    def hot_part(self) -> sp.csr_matrix:
        return superoperator(self.hot, self.dimension)

    @property
    def cold_part(self) -> sp.csr_matrix:
        return superoperator(self.cold, self.dimension)


def superoperator(
    terms: tuple[Term, ...], dim: int, index: np.ndarray | None = None
) -> sp.csr_matrix:
    """The matrix of rho -> sum w L rho R on a set of column-stacked entries.

    rho[n, m] sits at n + dim*m, so a term sends that entry to i + dim*j with
    weight w L[i, n] R[m, j].  Only the entries listed in index (all dim**2
    when None) are taken as inputs and kept as outputs, in that order.  Each
    input is joined with the pairs of L's column n and R's row m, input by
    input and L-major within it, so duplicates sum in a fixed order.
    """
    if index is None:
        index = np.arange(dim * dim)
    n, m = index % dim, index // dim
    position = np.full(dim * dim, -1)
    position[index] = np.arange(index.size)
    rows, cols, vals = [], [], []
    for left, right, weight in terms:
        lc, rr = sp.csc_matrix(left), sp.csr_matrix(right)
        l_count, r_count = np.diff(lc.indptr)[n], np.diff(rr.indptr)[m]
        pairs = l_count * r_count
        q = np.repeat(np.arange(index.size), pairs)
        offset = np.arange(q.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        kl = lc.indptr[n][q] + offset // r_count[q]
        kr = rr.indptr[m][q] + offset % r_count[q]
        out = position[lc.indices[kl] + dim * rr.indices[kr]]
        kept = out >= 0
        rows.append(out[kept])
        cols.append(q[kept])
        vals.append((weight * lc.data[kl] * rr.data[kr])[kept])
    triplets = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sp.csr_matrix(triplets, shape=(index.size, index.size), dtype=complex)


def apply(terms: tuple[Term, ...], rho: np.ndarray) -> np.ndarray:
    """sum w L rho R over the terms, straight from the operators."""
    return sum(weight * (left @ rho @ right) for left, right, weight in terms)


def _thermal_channel(pairs: tuple, rate: float, boltzmann: float) -> tuple[Term, ...]:
    """A downward channel plus its Boltzmann-weighted upward partner.

    Downward is rho -> rate (sum x rho y' - {sum y'x, rho}/2) over the (x, y)
    pairs: D[c] is the pair (c, c), the cross kernel of commuting modes x and
    y the pairs (x, y) and (y, x).  Upward uses the adjoints at rate * boltzmann.
    """
    up = rate * boltzmann
    # one adjoint per operator, shared by the terms that use it
    ops = {id(x): x for pair in pairs for x in pair}
    adjoint = {key: op.conj().T.tocsr() for key, op in ops.items()}
    jumps = tuple((x, adjoint[id(y)], rate) for x, y in pairs)
    jumps += tuple((adjoint[id(x)], y, up) for x, y in pairs)
    anti = sum(rate * (adjoint[id(y)] @ x) + up * (y @ adjoint[id(x)]) for x, y in pairs).tocsr()
    eye = sp.identity(anti.shape[0], format="csr")
    return jumps + ((anti, eye, -0.5), (eye, anti, -0.5))


def _bath_terms(table: tuple, T: float, kappa: float) -> tuple[Term, ...]:
    """One bath's terms: D[c] at bath.rate(omega) * weight per channel (c, omega, weight)."""
    terms = ()
    for jump, omega, weight in table:
        rate = bath.rate(omega, T, kappa) * weight
        # beta * omega rounded as the global closed form rounds it, not omega / T
        terms += _thermal_channel(((jump, jump),), rate, math.exp(-(1.0 / T) * omega))
    return terms


def channel_superoperator(
    a: sp.spmatrix, b: sp.spmatrix, channels: tuple[DissipationChannel, ...]
) -> sp.csr_matrix:
    """Assemble a node-basis channel table into a superoperator matrix."""
    pairs = {"a": ((a, a),), "b": ((b, b),), "cross": ((a, b), (b, a))}
    terms = ()
    for channel in channels:
        if channel.kind not in pairs:
            raise ValueError(f"unknown channel kind {channel.kind!r}")
        terms += _thermal_channel(pairs[channel.kind], channel.weight, channel.boltzmann)
    return superoperator(terms, a.shape[0])


def _mode_operators(n_max: int) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """a = ladder (x) 1, b = 1 (x) ladder and the Hamiltonian's hopping a'b.

    Index n_A * (n_max + 1) + n_B holds |n_A, n_B>.  A two-level node is the
    ladder at n_max = 1.
    """
    width = n_max + 1
    index = np.arange(width * width)
    count_a, count_b = index // width, index % width

    def matrix(data, rows, cols):
        return sp.csr_matrix((data.astype(complex), (rows, cols)), shape=(index.size,) * 2)

    # a sends |n_A + 1, n_B> to sqrt(n_A + 1) |n_A, n_B>, and b likewise
    up_a, up_b = np.flatnonzero(count_a < n_max), np.flatnonzero(count_b < n_max)
    a = matrix(np.sqrt(count_a[up_a] + 1.0), up_a, up_a + width)
    b = matrix(np.sqrt(count_b[up_b] + 1.0), up_b, up_b + 1)
    # a'b sends |n_A, n_B> to sqrt(n_A + 1) sqrt(n_B) |n_A + 1, n_B - 1>
    hop = np.flatnonzero((count_a < n_max) & (count_b > 0))
    a_b = matrix(np.sqrt(count_a[hop] + 1.0) * np.sqrt(count_b[hop]), hop + width - 1, hop)
    return a, b, a_b


def build(params: NetworkParams, approach: Generator, n_max: int = 12) -> FockLiouvillian:
    """Assemble the requested generator on the truncated space.

    For two-level nodes the space is exact and n_max is ignored; the global
    generator needs normal modes, which `normal_mode_basis` refuses for them
    with UnsupportedStatistics.  Bosonic truncations below n_max = 2 cannot
    even hold the cross-channel algebra and are rejected outright; whether a
    given n_max is large enough for a given parameter set is checked a
    posteriori by steady_state.
    """
    if params.statistics is Statistics.TLS:
        n_max = 1
    elif n_max < 2:
        raise TruncationTooSmall(f"bosonic truncation needs n_max >= 2, got {n_max}")
    a, b, a_b = _mode_operators(n_max)
    dimension, width = a.shape[0], n_max + 1
    # a'a and b'b are sqrt(n) sqrt(n) on the diagonal, as their products would be
    root_a, root_b = np.sqrt(np.divmod(np.arange(dimension), width))
    energy = sp.diags(params.omega_h * (root_a * root_a) + params.omega_c * (root_b * root_b))
    hamiltonian = (energy + params.epsilon * (a_b + a_b.conj().T)).tocsr()
    if approach is Generator.LOCAL:
        hot_table = ((a, params.omega_h, 1.0),)
        cold_table = ((b, params.omega_c, 1.0),)
    else:
        # Assembled straight from the rotated mode operators, not from the
        # node-basis channel table, so the two stay independent routes.
        basis = normal_mode_basis(params)
        d_plus = basis.c * a + basis.s * b
        d_minus = basis.c * b - basis.s * a
        wp, wm = basis.omega_plus, basis.omega_minus
        hot_table = ((d_plus, wp, basis.c2), (d_minus, wm, basis.s2))
        cold_table = ((d_plus, wp, basis.s2), (d_minus, wm, basis.c2))
    hot = _bath_terms(hot_table, params.T_h, params.kappa)
    cold = _bath_terms(cold_table, params.T_c, params.kappa)
    eye = sp.identity(dimension, format="csr")
    commutator = ((hamiltonian, eye, -1j), (eye, hamiltonian, 1j))
    return FockLiouvillian(
        params=params,
        n_max=n_max,
        dimension=dimension,
        terms=commutator + hot + cold,
        hot=hot,
        cold=cold,
        hamiltonian=hamiltonian,
        a=a,
        b=b,
    )


@dataclass(frozen=True)
class _Sector:
    """The sector of rho as padded N-blocks.

    Block N holds rho[n, m] for the Hilbert indices n, m with N(n) = N(m) = N,
    in ascending order, as the top-left corner of a width x width slab; the
    slabs stack into a (blocks, width, width) array that is zero outside the
    filled slots.  number and position give each Hilbert index's block and
    its place in it; rows and cols give the Hilbert entry of each filled slot,
    in the C order of filled; top marks the slots of the top Fock level.
    """

    number: np.ndarray
    position: np.ndarray
    sizes: np.ndarray
    filled: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    top: np.ndarray

    def blocks(self, rho: np.ndarray) -> np.ndarray:
        """The N-blocks of a dense rho; its entries off the sector are dropped."""
        slabs = np.zeros(self.filled.shape, dtype=complex)
        slabs[self.filled] = rho[self.rows, self.cols]
        return slabs

    def dense(self, slabs: np.ndarray) -> np.ndarray:
        """The dense rho whose N-blocks are slabs, zero off the sector."""
        rho = np.zeros((self.number.size,) * 2, dtype=complex)
        rho[self.rows, self.cols] = slabs[self.filled]
        return rho

    def cut(self, op: sp.spmatrix) -> tuple[int, np.ndarray]:
        """op's shift of N and its blocks op[s_K+shift, s_K], padded, keyed by K.

        An op that shifts N by more than one amount raises NonConvergence.
        """
        if op.format not in ("csr", "csc"):
            op = op.tocsr()
        major = np.repeat(np.arange(op.indptr.size - 1), np.diff(op.indptr))
        row, col = (major, op.indices) if op.format == "csr" else (op.indices, major)
        nonzero = op.data != 0
        row, col, value = row[nonzero], col[nonzero], op.data[nonzero]
        shifts = np.unique(self.number[row] - self.number[col])
        if shifts.size > 1:
            raise NonConvergence(f"an operator shifts N by each of {shifts.tolist()}")
        pieces = np.zeros(self.filled.shape, dtype=complex)
        np.add.at(pieces, (self.number[col], self.position[row], self.position[col]), value)
        return int(shifts[0]) if shifts.size else 0, pieces


def _sector(a: sp.csr_matrix, b: sp.csr_matrix, n_max: int) -> _Sector:
    # N_A and N_B of each Hilbert index, the diagonals of a'a and b'b, read off
    # the built operators so that they follow their kron order
    count_a, count_b = (
        np.rint(np.bincount(c.indices, np.abs(c.data) ** 2, c.shape[1])).astype(int) for c in (a, b)
    )
    number = count_a + count_b
    sizes = np.bincount(number)
    position = np.empty_like(number)
    position[np.argsort(number, kind="stable")] = np.arange(number.size) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    hilbert = np.zeros((sizes.size, sizes.max()), dtype=int)
    hilbert[number, position] = np.arange(number.size)
    occupied = np.zeros(hilbert.shape, dtype=bool)
    occupied[number, position] = True
    filled = occupied[:, :, None] & occupied[:, None, :]
    block, i, j = np.nonzero(filled)
    top = np.zeros(hilbert.shape, dtype=bool)
    top[number, position] = (count_a == n_max) | (count_b == n_max)
    return _Sector(number, position, sizes, filled, hilbert[block, i], hilbert[block, j], top)


def _moved(slabs: np.ndarray, shift: int) -> np.ndarray:
    """slabs moved by shift blocks in N, out[K + shift] = slabs[K], zero elsewhere."""
    out = np.zeros_like(slabs)
    count, up, down = slabs.shape[0], max(shift, 0), max(-shift, 0)
    out[up : count - down] = slabs[down : count - up]
    return out


# The terms by their shift d of N: the stacked blocks of w L and of R, both
# (blocks, terms, width, width) and keyed by the block K of rho they read.  A
# term sends block K to block K + d as w L[K + d, K] rho_K R[K, K + d].
_Grouped = dict[int, tuple[np.ndarray, np.ndarray]]


def _grouped(terms: tuple[Term, ...], sector: _Sector) -> _Grouped:
    """Cut the terms into blocks, refusing any that take rho off the sector.

    Each operator is cut once.  A term w L rho R keeps rho in the sector only
    if L and R shift N by opposite single amounts; it must also move N by at
    most one, as the block recursion assumes.  Either failure raises
    NonConvergence.
    """
    cut, groups = {}, {}
    for left, right, weight in terms:
        for op in (left, right):
            if id(op) not in cut:
                cut[id(op)] = sector.cut(op)
        (shift, lefts), (back, rights) = cut[id(left)], cut[id(right)]
        if shift != -back or abs(shift) > 1:
            raise NonConvergence(
                f"a term shifts N by {shift} on the left and {-back} on the right of rho"
            )
        groups.setdefault(shift, []).append((weight, lefts, rights))
    stacked = {}
    for shift, members in groups.items():
        weights, lefts, rights = zip(*members)
        # R's blocks are cut by their column block K + d; key them by K
        stacked[shift] = (
            np.stack(lefts, axis=1) * np.array(weights)[:, None, None],
            _moved(np.stack(rights, axis=1), -shift),
        )
    return stacked


def _applied(groups: _Grouped, slabs: np.ndarray) -> np.ndarray:
    """sum w L rho R over the grouped terms, on rho's N-blocks.

    Per block, the left factors run as one product of the stacked w L with
    rho_K and the right ones as one product of the row of w L rho_K with the
    column of R.
    """
    out = np.zeros_like(slabs)
    for shift, (lefts, rights) in groups.items():
        count, terms, width, _ = lefts.shape
        left = (lefts.reshape(count, terms * width, width) @ slabs).reshape(lefts.shape)
        row = left.transpose(0, 2, 1, 3).reshape(count, width, terms * width)
        out += _moved(row @ rights.reshape(count, terms * width, width), shift)
    return out


def _band(groups: _Grouped, sizes: np.ndarray, to: int, source: int) -> np.ndarray:
    """The sector generator's block from block source to block to, column-stacked.

    vec(L X R) = (R^T (x) L) vec(X), summed over the terms as one product of
    the stacked pieces, then reordered so that X[n, m] sits at n + size*m.
    """
    out, into = sizes[to], sizes[source]
    if to - source not in groups:
        return np.zeros((out * out, into * into), dtype=complex)
    lefts, rights = groups[to - source]
    terms = lefts.shape[1]
    left = lefts[source, :, :out, :into].reshape(terms, -1)
    right = rights[source, :, :into, :out].reshape(terms, -1)
    # (left' right)[(i, n), (m, j)] = sum w L[i, n] R[m, j], the entry X[n, m] -> Y[i, j]
    product = (left.T @ right).reshape(out, into, into, out)
    return product.transpose(3, 0, 2, 1).reshape(out * out, into * into)


def steady_state(liou: FockLiouvillian) -> np.ndarray:
    """Solve for the unique unit-trace state annihilated by the generator.

    rho lives on the sector of entries |n><m| with N(n) = N(m), which is
    exact because every term of both generators conserves N or shifts it on
    both sides of rho alike (see the module docstring).  Each term's
    operators are cut once into dense N-blocks; an operator that shifts N by
    more than one amount, or a term that takes rho off the sector or moves N
    by more than one, raises NonConvergence before any solve.  The block x_N
    of rho follows from the vacuum x_0 = 1 as x_N = S_N x_N-1, with
    S_N = -(A_N,N + A_N,N+1 S_N+1)^-1 A_N,N-1 eliminated downward from the
    top block of the sector generator A, whose blocks are each one product of
    the terms' stacked pieces.  The guards run on the blocks: the residual
    applies the terms' pieces to rho's blocks, independently of the assembled
    bands; positivity is checked block by block; the top Fock level is read
    off the block diagonals.  rho is returned dense, zero off the sector.

    Raises DegenerateNullspace when a diagonal block of the elimination is
    singular or the recursion returns non-finite entries or a trace that is
    not positive or not finite (no unique steady state), NonConvergence when
    a term leaves the sector or the returned state fails the residual or
    positivity checks, and TruncationTooSmall when a bosonic state noticeably
    populates the top Fock level, which means the numbers describe the
    truncation rather than the network.
    """
    sector = liou.sector
    groups = _grouped(liou.terms, sector)
    sizes = sector.sizes
    top = sizes.size - 1
    below = np.zeros((0, sizes[top] ** 2))  # S of the empty block above the top
    steps = []
    for n in range(top, 0, -1):
        upper = _band(groups, sizes, n, n + 1) if n < top else np.zeros((sizes[n] ** 2, 0))
        try:
            below = -np.linalg.solve(
                _band(groups, sizes, n, n) + upper @ below, _band(groups, sizes, n, n - 1)
            )
        except np.linalg.LinAlgError as exc:
            raise DegenerateNullspace(f"block N = {n} of the sector generator is singular") from exc
        steps.append(below)
    x = np.ones(1, dtype=complex)
    solution = [x] + [x := step @ x for step in reversed(steps)]
    slabs = np.zeros(sector.filled.shape, dtype=complex)
    for n, (size, block) in enumerate(zip(sizes, solution)):
        slabs[n, :size, :size] = block.reshape((size, size), order="F")
    if not np.all(np.isfinite(slabs)):
        raise DegenerateNullspace("block recursion returned non-finite entries")
    slabs = 0.5 * (slabs + slabs.conj().transpose(0, 2, 1))
    trace = float(np.trace(slabs, axis1=1, axis2=2).real.sum())
    if not (math.isfinite(trace) and trace > 0):
        raise DegenerateNullspace(f"block recursion returned a state of trace {trace!r}")
    slabs /= trace
    residual = float(np.max(np.abs(_applied(groups, slabs))))
    if residual > RESIDUAL_TOLERANCE:
        raise NonConvergence(f"steady-state residual {residual!r} exceeds {RESIDUAL_TOLERANCE}")
    # rho is block-diagonal in N, so its spectrum is the union of the blocks';
    # the zero padding adds eigenvalues 0, which cannot trip the check
    lowest = float(np.linalg.eigvalsh(slabs).min())
    if lowest < -NEGATIVITY_TOLERANCE:
        raise NonConvergence(f"steady state has eigenvalue {lowest!r} below -{NEGATIVITY_TOLERANCE}")
    if liou.params.statistics is Statistics.BOSON:
        top_level = float(slabs.diagonal(axis1=1, axis2=2).real[sector.top].sum())
        if top_level > TOP_LEVEL_TOLERANCE:
            raise TruncationTooSmall(
                f"top Fock level holds population {top_level!r}; raise n_max above {liou.n_max}"
            )
    return sector.dense(slabs)


def _pair(left: np.ndarray, right: np.ndarray, slabs: np.ndarray) -> complex:
    """Tr[c' d rho] from the blocks of two lowering operators c, d and of rho."""
    return complex(np.einsum("kji,kjl,kli->", left.conj(), right, slabs))


# The observables below read rho through its N-blocks, which is exact for any
# rho: every operator they take a trace with conserves N.


def moments(liou: FockLiouvillian, rho: np.ndarray) -> MomentState:
    """Second moments (nA, nB, X, Y) of a state on the truncated space."""
    sector = liou.sector
    (_, a), (_, b), slabs = sector.cut(liou.a), sector.cut(liou.b), sector.blocks(rho)
    cross = _pair(a, b, slabs)
    return MomentState(
        nA=_pair(a, a, slabs).real,
        nB=_pair(b, b, slabs).real,
        X=2.0 * cross.real,
        Y=-2.0 * cross.imag,
    )


def mode_populations(liou: FockLiouvillian, rho: np.ndarray) -> tuple[float, float]:
    """Occupations of the normal modes d_+- (bosonic nodes only)."""
    basis = normal_mode_basis(liou.params)
    sector = liou.sector
    (_, a), (_, b), slabs = sector.cut(liou.a), sector.cut(liou.b), sector.blocks(rho)
    d_plus = basis.c * a + basis.s * b
    d_minus = basis.c * b - basis.s * a
    return _pair(d_plus, d_plus, slabs).real, _pair(d_minus, d_minus, slabs).real


def heat_current(liou: FockLiouvillian, rho: np.ndarray, which: str) -> float:
    """Energy flow into the system through one bath, Tr[H D_bath(rho)].

    Each term's R H L conserves N, so the trace reads only rho's sector.
    """
    if which not in ("hot", "cold"):
        raise ValueError(f"which must be 'hot' or 'cold', got {which!r}")
    sector = liou.sector
    applied = _applied(_grouped(getattr(liou, which), sector), sector.blocks(rho))
    return float(np.einsum("kij,kji->", sector.cut(liou.hamiltonian)[1], applied).real)


def gibbs_state(liou: FockLiouvillian, temperature: float) -> np.ndarray:
    """exp(-H/T) / Z on the truncated space."""
    energies, vectors = np.linalg.eigh(liou.hamiltonian.toarray())
    weights = np.exp(-(energies - energies[0]) / temperature)
    weights /= weights.sum()
    return (vectors * weights) @ vectors.conj().T


def suggested_nmax(params: NetworkParams, approach: Generator = Generator.LOCAL) -> int:
    """Smallest truncation whose thermal tail clears the occupancy guard.

    Bounds the steady state by a thermal tail at the hottest bath and the
    slowest relevant transition frequency: the population beyond n_max scales
    like exp(-beta omega (n_max + 1)).  Exact for two-level nodes, where the
    space is complete at n_max = 1.
    """
    if params.statistics is Statistics.TLS:
        return 1
    if approach is Generator.GLOBAL:
        omega_min = normal_mode_basis(params).omega_minus
    else:
        omega_min = min(params.omega_h, params.omega_c)
    x = omega_min / max(params.T_h, params.T_c)
    return max(2, math.floor(-math.log(TAIL_TARGET) / x))
