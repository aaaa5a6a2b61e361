"""Brute-force steady states on a truncated Fock space.

Everything else in this package works with closed moment equations or
detailed-balance occupations derived by hand.  This module rebuilds both
generators on a truncated two-node Fock space and extracts steady states,
moments and currents numerically, sharing only bath.rate, bath.boltzmann
and normal_mode_basis with the global closed form and nothing with the local
one, whose node rates come from local_mme._nodes, so they can be audited
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
(n_max + 1)**2 entries.  Every operator is built directly as its blocks by
index arithmetic, and each term as the blocks of L and R with their shifts
of N; a term that takes rho off the sector or moves N by more than one is
refused.  The sector generator is block-tridiagonal: the Hamiltonian and
the anticommutators keep N and each c rho c' moves it by one on both sides.
So the steady state is a matrix continued fraction (Risken, The
Fokker-Planck Equation, ch. 9): with the vacuum block fixed to 1, each
block N follows from block N - 1 through a map eliminated downward from the
top block, and the trace is normalised at the end.  The vacuum's own
equation is the one that trace conservation makes redundant.  The moments,
mode populations and currents read the N-blocks of the state they are
given, which is exact for any state: every operator they take a trace with
conserves N.

Truncation quality is policed, not assumed: the residual, the terms' blocks
applied to rho's blocks independently of the assembled generator blocks,
must be small; the state must be positive to round-off; and bosonic states
must leave the top Fock level essentially unpopulated.

No sparse matrix is built here.  The same generators on the whole dim x dim
space (sparse operators, the dim**2-square superoperator, dense term
application, the node-basis channel table) live in `_fock_reference`, the
tests' reference and the only module that loads scipy, which the `test`
extra installs; the `generator`, `hot_part` and `cold_part` properties
import it when read, so they need that extra.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bath
from .errors import DegenerateNullspace, NonConvergence, TruncationTooSmall
from .local_mme import MomentState
from .model import NetworkParams, NormalModeBasis, Statistics, normal_mode_basis

RESIDUAL_TOLERANCE = 1e-10
NEGATIVITY_TOLERANCE = 1e-10
TOP_LEVEL_TOLERANCE = 1e-8
TAIL_TARGET = 1e-10


class Generator(Enum):
    """Which master-equation treatment the Liouvillian implements."""

    LOCAL = "local"
    GLOBAL = "global"


# An operator as its shift d of N and its padded (blocks, width, width) blocks,
# keyed by the block K it reads: blocks[K] maps N-block K to N-block K + d.
Piece = tuple[int, np.ndarray]
# A term w L rho R as the pieces of L and R and the weight w.
BlockTerm = tuple[Piece, Piece, complex]
# The terms by their shift d of N: the stacked blocks of w L and of R, both
# (blocks, terms, width, width) and keyed by the block K of rho they read.  A
# term sends block K to block K + d as w L[K + d, K] rho_K R[K, K + d].
_Grouped = dict[int, tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class _Sector:
    """The sector of rho as padded N-blocks.

    Block N, slot p holds |n_A, n_B> with n_A = max(0, N - n_max) + p and
    n_B = N - n_A, for the slots where both lie in 0..n_max (occupied); so
    each block lists its Hilbert indices n_A * (n_max + 1) + n_B in ascending
    order.  Block N of rho is the top-left corner of a width x width slab;
    the slabs stack into a (blocks, width, width) array that is zero outside
    the filled slots.  rows and cols give the Hilbert entry of each filled
    slot, in the C order of filled; top marks the slots of the top Fock level.
    """

    n_max: int
    count_a: np.ndarray
    count_b: np.ndarray
    occupied: np.ndarray
    filled: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        return self.occupied.sum(axis=1)

    @property
    def top(self) -> np.ndarray:
        return self.occupied & (np.maximum(self.count_a, self.count_b) == self.n_max)

    def blocks(self, rho: np.ndarray) -> np.ndarray:
        """The N-blocks of a dense rho; its entries off the sector are dropped."""
        slabs = np.zeros(self.filled.shape, dtype=complex)
        slabs[self.filled] = rho[self.rows, self.cols]
        return slabs

    def dense(self, slabs: np.ndarray) -> np.ndarray:
        """The dense rho whose N-blocks are slabs, zero off the sector."""
        rho = np.zeros(((self.n_max + 1) ** 2,) * 2, dtype=complex)
        rho[self.rows, self.cols] = slabs[self.filled]
        return rho


def _sector(n_max: int) -> _Sector:
    width = n_max + 1
    number = np.arange(2 * n_max + 1)[:, None]
    count_a = np.maximum(number - n_max, 0) + np.arange(width)
    count_b = number - count_a
    occupied = (count_a <= n_max) & (count_b >= 0)
    filled = occupied[:, :, None] & occupied[:, None, :]
    block, i, j = np.nonzero(filled)
    hilbert = count_a * width + count_b
    return _Sector(n_max, count_a, count_b, occupied, filled, hilbert[block, i], hilbert[block, j])


@dataclass(frozen=True)
class FockLiouvillian:
    """A generator on the truncated two-node space, kept as its N-block terms.

    terms is the full right-hand side including the commutator; hot and cold
    are the two bath dissipators alone.  Each bath is grouped by shift once,
    per instance, and terms joins the commutator's groups with them.  a, b
    and hamiltonian are the operators' padded N-blocks, a and b keyed by the
    block they lower, and basis is the global generator's
    normal-mode basis (None for the local one).  The generator, hot_part and
    cold_part properties rebuild them on the whole space as
    dimension**2-square matrices, through the full-space reference.
    """

    params: NetworkParams
    approach: Generator
    n_max: int
    sector: _Sector
    terms: _Grouped
    hot: _Grouped
    cold: _Grouped
    hamiltonian: np.ndarray
    a: np.ndarray
    b: np.ndarray
    basis: NormalModeBasis | None

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** 2

    @property
    def generator(self):
        from ._fock_reference import assembled  # needs scipy, from the test extra

        return assembled(self, "terms")

    @property
    def hot_part(self):
        from ._fock_reference import assembled  # needs scipy, from the test extra

        return assembled(self, "hot")

    @property
    def cold_part(self):
        from ._fock_reference import assembled  # needs scipy, from the test extra

        return assembled(self, "cold")


def _moved(slabs: np.ndarray, shift: int) -> np.ndarray:
    """slabs moved by shift blocks in N, out[K + shift] = slabs[K], zero elsewhere."""
    out = np.zeros_like(slabs)
    count, up, down = slabs.shape[0], max(shift, 0), max(-shift, 0)
    out[up : count - down] = slabs[down : count - up]
    return out


def _channel(jump: np.ndarray) -> tuple:
    """A jump operator c as its lowering and raising pieces and the blocks of c'c and cc'.

    c lowers N by one; its adjoint c'[K] = c[K + 1]' raises it.  Formed once
    per operator, however many bath channels share it.
    """
    above = _moved(jump, -1)
    lower, raised = (-1, jump), (1, above.conj().transpose(0, 2, 1))
    # c'c[K] = c[K]' c[K] and cc'[K] = c[K + 1] c[K + 1]', summed elementwise:
    # a batched matmul may fuse multiply and add, and then round otherwise
    # than the products of the full-space operators
    decay = (jump.conj()[:, :, :, None] * jump[:, :, None, :]).sum(axis=1)
    pump = (above[:, :, None, :] * above.conj()[:, None, :, :]).sum(axis=3)
    return lower, raised, decay, pump


def _thermal_channel(channel: tuple, rate: float, boltzmann: float, eye: np.ndarray) -> tuple:
    """D[c] at rate plus its upward partner D[c'] at rate * boltzmann, as block terms."""
    lower, raised, decay, pump = channel
    up = rate * boltzmann
    anti = (0, rate * decay + up * pump)
    return (lower, raised, rate), (raised, lower, up), (anti, (0, eye), -0.5), ((0, eye), anti, -0.5)


def _bath_terms(table: tuple, T: float, kappa: float, eye: np.ndarray) -> tuple:
    """One bath's terms: D[c] at bath.rate(omega) * weight per channel (_channel(c), omega, weight)."""
    terms = ()
    for channel, omega, weight in table:
        rate = bath.rate(omega, T, kappa) * weight
        terms += _thermal_channel(channel, rate, bath.boltzmann(omega, T), eye)
    return terms


def _grouped(terms: tuple[BlockTerm, ...]) -> _Grouped:
    """Stack the terms by their shift of N, refusing any that take rho off the sector.

    A term w L rho R keeps rho in the sector only if L and R shift N by
    opposite single amounts; it must also move N by at most one, as the
    block recursion assumes.  Either failure raises NonConvergence.
    """
    groups = {}
    for (shift, left), (back, right), weight in terms:
        if shift != -back or abs(shift) > 1:
            raise NonConvergence(
                f"a term shifts N by {shift} on the left and {-back} on the right of rho"
            )
        groups.setdefault(shift, []).append((weight, left, right))
    stacked = {}
    for shift, members in groups.items():
        weights, lefts, rights = zip(*members)
        # R's blocks are keyed by their column block K + d; key them by K
        stacked[shift] = (
            np.stack(lefts, axis=1) * np.array(weights)[:, None, None],
            _moved(np.stack(rights, axis=1), -shift),
        )
    return stacked


def _joined(*groups: _Grouped) -> _Grouped:
    """The groups' stacks concatenated shift by shift, in the order given.

    The result equals grouping all their terms at once: each shift keeps the
    place of its first appearance, and its terms the order of the groups.
    """
    shifts = dict.fromkeys(shift for group in groups for shift in group)
    return {
        shift: tuple(
            np.concatenate(parts, axis=1)
            for parts in zip(*(group[shift] for group in groups if shift in group))
        )
        for shift in shifts
    }


def build(params: NetworkParams, approach: Generator, n_max: int = 12) -> FockLiouvillian:
    """Assemble the requested generator's N-block terms on the truncated space.

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
    sector = _sector(n_max)
    block, slot = np.nonzero(sector.occupied)
    count_a, count_b = sector.count_a[block, slot], sector.count_b[block, slot]
    above = block > n_max
    eye, hamiltonian, a, b = (np.zeros(sector.filled.shape, dtype=complex) for _ in range(4))
    eye[block, slot, slot] = 1.0
    # a takes slot q of block K to slot q - 1 of block K - 1, or to slot q once
    # K > n_max, with entry sqrt(n_A); b takes it to slot q, or q + 1, with sqrt(n_B)
    lowers_a, lowers_b = count_a > 0, count_b > 0
    a[block[lowers_a], (slot - 1 + above)[lowers_a], slot[lowers_a]] = np.sqrt(count_a[lowers_a])
    b[block[lowers_b], (slot + above)[lowers_b], slot[lowers_b]] = np.sqrt(count_b[lowers_b])
    # a'a and b'b are sqrt(n) sqrt(n) on the diagonal, as their products would be
    root_a, root_b = np.sqrt(count_a), np.sqrt(count_b)
    hamiltonian[block, slot, slot] = params.omega_h * (root_a * root_a) + params.omega_c * (
        root_b * root_b
    )
    # the hopping a'b takes slot q to q + 1 of the same block, with its adjoint
    hop = (count_a < n_max) & lowers_b
    coupling = params.epsilon * (np.sqrt(count_a[hop] + 1.0) * np.sqrt(count_b[hop]))
    hamiltonian[block[hop], slot[hop] + 1, slot[hop]] = coupling
    hamiltonian[block[hop], slot[hop], slot[hop] + 1] = coupling
    basis = None
    if approach is Generator.LOCAL:
        hot_table = ((_channel(a), params.omega_h, 1.0),)
        cold_table = ((_channel(b), params.omega_c, 1.0),)
    else:
        # Formed straight from the rotated mode operators, not from the
        # node-basis channel table, so the two stay independent routes.
        basis = normal_mode_basis(params)
        d_plus = _channel(basis.c * a + basis.s * b)
        d_minus = _channel(basis.c * b - basis.s * a)
        wp, wm = basis.omega_plus, basis.omega_minus
        hot_table = ((d_plus, wp, basis.c2), (d_minus, wm, basis.s2))
        cold_table = ((d_plus, wp, basis.s2), (d_minus, wm, basis.c2))
    hot = _grouped(_bath_terms(hot_table, params.T_h, params.kappa, eye))
    cold = _grouped(_bath_terms(cold_table, params.T_c, params.kappa, eye))
    commutator = _grouped((((0, hamiltonian), (0, eye), -1j), ((0, eye), (0, hamiltonian), 1j)))
    return FockLiouvillian(
        params=params,
        approach=approach,
        n_max=n_max,
        sector=sector,
        terms=_joined(commutator, hot, cold),
        hot=hot,
        cold=cold,
        hamiltonian=hamiltonian,
        a=a,
        b=b,
        basis=basis,
    )


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
    both sides of rho alike (see the module docstring).  The solve reads the
    terms' N-blocks as build grouped them.  The block x_N of rho follows
    from the vacuum x_0 = 1 as x_N = S_N x_N-1, with
    S_N = -(A_N,N + A_N,N+1 S_N+1)^-1 A_N,N-1 eliminated downward from the
    top block of the sector generator A, whose blocks are each one product of
    the terms' stacked pieces.  The guards run on the blocks: the residual
    applies the terms' pieces to rho's blocks, independently of the assembled
    bands; positivity is checked block by block; the top Fock level is read
    off the block diagonals.  rho is returned dense, zero off the sector.

    Raises DegenerateNullspace when a diagonal block of the elimination is
    singular or the recursion returns non-finite entries or a trace that is
    not positive or not finite (no unique steady state), NonConvergence when
    the returned state fails the residual or positivity checks, and
    TruncationTooSmall when a bosonic state noticeably populates the top Fock
    level, which means the numbers describe the truncation rather than the
    network.  A term that leaves the sector is refused with NonConvergence
    when the terms are grouped, before any solve.
    """
    sector, groups = liou.sector, liou.terms
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
    a, b, slabs = liou.a, liou.b, liou.sector.blocks(rho)
    cross = _pair(a, b, slabs)
    return MomentState(
        nA=_pair(a, a, slabs).real,
        nB=_pair(b, b, slabs).real,
        X=2.0 * cross.real,
        Y=-2.0 * cross.imag,
    )


def mode_populations(liou: FockLiouvillian, rho: np.ndarray) -> tuple[float, float]:
    """Occupations of the normal modes d_+- (bosonic nodes only)."""
    basis = liou.basis if liou.basis is not None else normal_mode_basis(liou.params)
    a, b, slabs = liou.a, liou.b, liou.sector.blocks(rho)
    d_plus = basis.c * a + basis.s * b
    d_minus = basis.c * b - basis.s * a
    return _pair(d_plus, d_plus, slabs).real, _pair(d_minus, d_minus, slabs).real


def heat_current(liou: FockLiouvillian, rho: np.ndarray, which: str) -> float:
    """Energy flow into the system through one bath, Tr[H D_bath(rho)].

    Each term's R H L conserves N, so the trace reads only rho's sector.
    """
    if which not in ("hot", "cold"):
        raise ValueError(f"which must be 'hot' or 'cold', got {which!r}")
    applied = _applied(getattr(liou, which), liou.sector.blocks(rho))
    return float(np.einsum("kij,kji->", liou.hamiltonian, applied).real)


def gibbs_state(liou: FockLiouvillian, temperature: float) -> np.ndarray:
    """exp(-H/T) / Z on the truncated space, from H's N-blocks (H conserves N)."""
    sector = liou.sector
    spectra = [
        np.linalg.eigh(block[:size, :size]) for block, size in zip(liou.hamiltonian, sector.sizes)
    ]
    ground = min(energies[0] for energies, _ in spectra)
    slabs = np.zeros(sector.filled.shape, dtype=complex)
    for slab, (energies, vectors) in zip(slabs, spectra):
        size = energies.size
        slab[:size, :size] = (vectors * np.exp(-(energies - ground) / temperature)) @ vectors.conj().T
    return sector.dense(slabs / np.trace(slabs, axis1=1, axis2=2).real.sum())


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
