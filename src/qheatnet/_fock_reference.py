"""The Fock oracle's generators on the whole truncated space, as a reference.

`oracle` builds, solves and reads out both generators on the N-blocks of rho
alone.  This module rebuilds the same operators as scipy.sparse matrices on
the whole dim x dim space, by index arithmetic on the Hilbert index
n_A * (n_max + 1) + n_B and never from the blocks it is compared with, and
assembles them into dim**2-square superoperators (`superoperator`, which
stacks the whole dense rho into a vector, column by column, as the oracle's
`_band` stacks each block), applies them densely (`apply`) and reassembles
the global generator from the node-basis channel table
(`channel_superoperator`).  `cut` turns full-space terms into the oracle's
block terms, so that operators built here can be checked against the blocks
and fed to the block solve.

The oracle's rows never import this module: only the tests and the
`generator`, `hot_part` and `cold_part` properties of `FockLiouvillian` do,
and it is the one module of the package that loads scipy.  scipy is not a
runtime dependency: the `test` extra installs it, and without it importing
this module raises ModuleNotFoundError.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import bath
from .errors import NonConvergence
from .global_mme import DissipationChannel
from .model import NetworkParams, Statistics, normal_mode_basis
from .oracle import BlockTerm, FockLiouvillian, Generator, Piece

Term = tuple[sp.spmatrix, sp.spmatrix, complex]


@dataclass(frozen=True)
class FullSpace:
    """A generator's terms and operators on the whole dimension-square space.

    terms is the full right-hand side including the commutator; hot and cold
    are the two bath dissipators alone.
    """

    dimension: int
    terms: tuple[Term, ...]
    hot: tuple[Term, ...]
    cold: tuple[Term, ...]
    hamiltonian: sp.csr_matrix
    a: sp.csr_matrix
    b: sp.csr_matrix


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
        terms += _thermal_channel(((jump, jump),), rate, bath.boltzmann(omega, T))
    return terms


def channel_terms(
    a: sp.spmatrix, b: sp.spmatrix, channels: tuple[DissipationChannel, ...]
) -> tuple[Term, ...]:
    """The terms of a node-basis channel table."""
    pairs = {"a": ((a, a),), "b": ((b, b),), "cross": ((a, b), (b, a))}
    terms = ()
    for channel in channels:
        if channel.kind not in pairs:
            raise ValueError(f"unknown channel kind {channel.kind!r}")
        terms += _thermal_channel(pairs[channel.kind], channel.weight, channel.boltzmann)
    return terms


def channel_superoperator(
    a: sp.spmatrix, b: sp.spmatrix, channels: tuple[DissipationChannel, ...]
) -> sp.csr_matrix:
    """Assemble a node-basis channel table into a superoperator matrix."""
    return superoperator(channel_terms(a, b, channels), a.shape[0])


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


def operators(params: NetworkParams, approach: Generator, n_max: int) -> FullSpace:
    """The requested generator on the whole truncated space (n_max = 1 for two-level nodes)."""
    if params.statistics is Statistics.TLS:
        n_max = 1
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
    return FullSpace(dimension, commutator + hot + cold, hot, cold, hamiltonian, a, b)


def assembled(liou: FockLiouvillian, part: str) -> sp.csr_matrix:
    """The superoperator of liou's generator ("terms") or one bath ("hot", "cold").

    Rebuilt from liou's parameters, generator and truncation, not from its blocks.
    """
    full = operators(liou.params, liou.approach, liou.n_max)
    return superoperator(getattr(full, part), full.dimension)


def piece(op: sp.spmatrix, n_max: int) -> Piece:
    """op's shift of N and its blocks op[s_K+shift, s_K], padded, keyed by K.

    Block K holds the Hilbert indices with n_A + n_B = K in ascending order.
    An op that shifts N by more than one amount raises NonConvergence.
    """
    width = n_max + 1
    number = np.add(*np.divmod(np.arange(width * width), width))
    sizes = np.bincount(number)
    position = np.empty_like(number)
    position[np.argsort(number, kind="stable")] = np.arange(number.size) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    coo = sp.coo_matrix(op)
    nonzero = coo.data != 0
    row, col, value = coo.row[nonzero], coo.col[nonzero], coo.data[nonzero]
    shifts = np.unique(number[row] - number[col])
    if shifts.size > 1:
        raise NonConvergence(f"an operator shifts N by each of {shifts.tolist()}")
    pieces = np.zeros((sizes.size, width, width), dtype=complex)
    np.add.at(pieces, (number[col], position[row], position[col]), value)
    return int(shifts[0]) if shifts.size else 0, pieces


def cut(terms: tuple[Term, ...], n_max: int) -> tuple[BlockTerm, ...]:
    """The oracle's block terms of full-space terms, each operator cut once."""
    pieces = {}
    for left, right, _ in terms:
        for op in (left, right):
            if id(op) not in pieces:
                pieces[id(op)] = piece(op, n_max)
    return tuple((pieces[id(left)], pieces[id(right)], weight) for left, right, weight in terms)
