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

A generator is kept as its terms (L, R, w), each the map rho -> w L rho R;
`apply` evaluates them on rho and `superoperator`, the one place that knows
how rho is stacked into a vector, assembles them on a set of its entries.
The steady state is the nullspace of the generator, assembled and solved on
the excitation-number sector only: the entries |n><m| with N(n) = N(m),
where N = N_A + N_B.  The restriction is exact for both generators.  Every
Hamiltonian term conserves N, and every jump operator (a, b, d+-, and their
adjoints) shifts it by exactly one, so c rho c' and {c'c, rho} map the
sector into itself and its complement into itself; the trace lives on the
sector, so the unique steady state does too (a U(1) symmetry of the
Liouvillian; Buca & Prosen, New J. Phys. 14, 073007 (2012)).  At n_max = 12
the sector holds 1 469 of the 28 561 entries of rho.  Grouped by N, the
sector generator is block-tridiagonal: the Hamiltonian and the
anticommutators keep N and each c rho c' moves it by one on both sides.  So
the steady state is a matrix continued fraction (Risken, The Fokker-Planck
Equation, ch. 9): with the vacuum block fixed to 1, each block N follows
from block N - 1 through a map eliminated downward from the top block, and
the trace is normalised at the end.  The vacuum's own equation is the one
that trace conservation makes redundant.

Truncation quality is policed, not assumed: the residual, sum w L rho R over
all of rho, must be small, so a term that breaks the symmetry fails it
instead of returning a sector-only state; the state must be positive to
round-off; and bosonic states must leave the top Fock level essentially
unpopulated.
"""

import math
from dataclasses import dataclass
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
    cold_part properties assemble them as dimension**2-square matrices.
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
    jumps = tuple((x, y.conj().T, rate) for x, y in pairs)
    jumps += tuple((x.conj().T, y, up) for x, y in pairs)
    anti = sum(rate * (y.conj().T @ x) + up * (y @ x.conj().T) for x, y in pairs).tocsr()
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


def _mode_operators(params: NetworkParams, n_max: int) -> tuple[sp.csr_matrix, sp.csr_matrix, int]:
    if params.statistics is Statistics.BOSON:
        ladder = sp.diags(np.sqrt(np.arange(1.0, n_max + 1.0)), 1, format="csr")
    else:
        ladder = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    dim_mode = ladder.shape[0]
    eye = sp.identity(dim_mode, format="csr")
    a = sp.kron(ladder, eye, format="csr").astype(complex)
    b = sp.kron(eye, ladder, format="csr").astype(complex)
    return a, b, dim_mode**2


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
    a, b, dimension = _mode_operators(params, n_max)
    ad, bd = a.conj().T, b.conj().T
    hamiltonian = (
        params.omega_h * (ad @ a)
        + params.omega_c * (bd @ b)
        + params.epsilon * (ad @ b + a @ bd)
    ).tocsr()
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


def _top_level_population(rho: np.ndarray, dim_mode: int) -> float:
    probs = np.real(np.diag(rho)).reshape((dim_mode, dim_mode))
    return float(probs[-1, :].sum() + probs[:, -1].sum() - probs[-1, -1])


def steady_state(liou: FockLiouvillian) -> np.ndarray:
    """Solve for the unique unit-trace state annihilated by the generator.

    Only the sector of entries |n><m| with N(n) = N(m) is assembled and
    solved, which is exact because every term of both generators conserves N
    or shifts it on both sides of rho alike (see the module docstring); rho
    is zero off the sector.  The sector is numbered block by block in N, and
    the block x_N of rho follows from the vacuum x_0 = 1 as x_N = S_N x_N-1,
    with S_N = -(A_N,N + A_N,N+1 S_N+1)^-1 A_N,N-1 eliminated downward from
    the top block of the sector generator A.  Each band of blocks is cut from
    A when the elimination reaches it; entries outside the three central
    block diagonals are dropped.  The residual applies the terms to all of
    rho, so a generator that couples blocks further apart, or the sector to
    its complement, cannot pass.

    Raises DegenerateNullspace when a diagonal block of the elimination is
    singular or the recursion returns non-finite entries or a trace that is
    not positive or not finite (no unique steady state), NonConvergence when
    the returned state fails the residual or positivity checks, and
    TruncationTooSmall when a bosonic state noticeably populates the top
    Fock level, which means the numbers describe the truncation rather than
    the network.
    """
    dim = liou.dimension
    # N of each Hilbert index, read off the built operators so that it
    # follows their kron order
    number_op = liou.a.conj().T @ liou.a + liou.b.conj().T @ liou.b
    number = np.rint(number_op.diagonal().real).astype(int)
    blocks = [np.flatnonzero(number == n) for n in range(number.max() + 1)]
    # block N holds rho[n, m] at n + dim*m for n, m in blocks[N], column-stacked
    sector = np.concatenate([(s[:, None] + dim * s).ravel(order="F") for s in blocks])
    edges = np.cumsum([0] + [s.size**2 for s in blocks])
    generator = superoperator(liou.terms, dim, sector)
    below = np.zeros((0, edges[-1] - edges[-2]))  # S of the empty block above the top
    steps = []
    for n in range(len(blocks) - 1, 0, -1):
        band = generator[edges[n] : edges[n + 1], edges[n - 1] : edges[min(n + 2, len(blocks))]]
        lower, diagonal, upper = np.split(band.toarray(), edges[n : n + 2] - edges[n - 1], axis=1)
        try:
            below = -np.linalg.solve(diagonal + upper @ below, lower)
        except np.linalg.LinAlgError as exc:
            raise DegenerateNullspace(f"block N = {n} of the sector generator is singular") from exc
        steps.append(below)
    x = np.ones(1, dtype=complex)
    solution = [x] + [x := step @ x for step in reversed(steps)]
    flat = np.zeros(dim * dim, dtype=complex)
    flat[sector] = np.concatenate(solution)
    if not np.all(np.isfinite(flat)):
        raise DegenerateNullspace("block recursion returned non-finite entries")
    rho = flat.reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    trace = float(np.trace(rho).real)
    if not (math.isfinite(trace) and trace > 0):
        raise DegenerateNullspace(f"block recursion returned a state of trace {trace!r}")
    rho = rho / trace
    residual = float(np.max(np.abs(apply(liou.terms, rho))))
    if residual > RESIDUAL_TOLERANCE:
        raise NonConvergence(f"steady-state residual {residual!r} exceeds {RESIDUAL_TOLERANCE}")
    # rho is block-diagonal in N, so its spectrum is the union of the blocks'
    lowest = min(float(np.linalg.eigvalsh(rho[np.ix_(s, s)])[0]) for s in blocks)
    if lowest < -NEGATIVITY_TOLERANCE:
        raise NonConvergence(f"steady state has eigenvalue {lowest!r} below -{NEGATIVITY_TOLERANCE}")
    if liou.params.statistics is Statistics.BOSON:
        top = _top_level_population(rho, liou.n_max + 1)
        if top > TOP_LEVEL_TOLERANCE:
            raise TruncationTooSmall(
                f"top Fock level holds population {top!r}; raise n_max above {liou.n_max}"
            )
    return rho


def _expectation(op: sp.spmatrix, rho: np.ndarray) -> complex:
    return complex(np.trace(op @ rho))


def moments(liou: FockLiouvillian, rho: np.ndarray) -> MomentState:
    """Second moments (nA, nB, X, Y) of a state on the truncated space."""
    ad, bd = liou.a.conj().T, liou.b.conj().T
    cross = _expectation(ad @ liou.b, rho)
    return MomentState(
        nA=_expectation(ad @ liou.a, rho).real,
        nB=_expectation(bd @ liou.b, rho).real,
        X=2.0 * cross.real,
        Y=-2.0 * cross.imag,
    )


def mode_populations(liou: FockLiouvillian, rho: np.ndarray) -> tuple[float, float]:
    """Occupations of the normal modes d_+- (bosonic nodes only)."""
    basis = normal_mode_basis(liou.params)
    d_plus = basis.c * liou.a + basis.s * liou.b
    d_minus = basis.c * liou.b - basis.s * liou.a
    n_plus = _expectation(d_plus.conj().T @ d_plus, rho).real
    n_minus = _expectation(d_minus.conj().T @ d_minus, rho).real
    return float(n_plus), float(n_minus)


def heat_current(liou: FockLiouvillian, rho: np.ndarray, which: str) -> float:
    """Energy flow into the system through one bath, Tr[H D_bath(rho)]."""
    if which not in ("hot", "cold"):
        raise ValueError(f"which must be 'hot' or 'cold', got {which!r}")
    return float(np.trace(liou.hamiltonian @ apply(getattr(liou, which), rho)).real)


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
