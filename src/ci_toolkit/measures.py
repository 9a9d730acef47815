"""Correlation and entanglement measures on multipartite states.

Quantities with a closed form (log-negativity, the coherent-information
lower bound, hashing values for maximally correlated states) are computed
directly.  Everything else -- measured mutual information, quantum discord,
entanglement of assistance / formation, and the Koashi-Winter discord
route -- is a variational estimate produced by gradient ascent over
rank-one POVMs, whose outcome vectors are the rows of an isometry.  One
template, `_povm_search`, runs that search for each of them, given its
objective and a report of the best POVM, and only it makes a
:class:`MeasureEstimate`, carrying its direction (is the true value above or
below the number?), the optimizer configuration, and the achieving POVM or
ensemble so results can be re-checked independently; `derive` carries one
through an exact shift, as in discord = I - J.

The outcome blocks sigma_i = Tr_party[(M_i on party) rho] of a measurement
come from one contraction against `_operand`, for a POVM's elements and a
search's outcome rows alike, and one formula on them serves both the search
and the reported value: `_one_way`, the information I(A : C R) that A shares
with a receiver C plus the outcome register R.  One-way concentrated
information reads it as it stands; discord's classical correlation and the
flag information are its trivial-receiver case, dc = 1, where it is I(A : R).

Each search objective returns its values and its row gradients.  There are
three, chosen by the shape of the input: `_block_batch` (`_one_way` and the
derivative written next to it) on the outcome blocks of a mixed state,
`_steering_batch` on the steered amplitudes of a pure state or a
purification, and `_x_classical` on the outcome weights of a state whose
unmeasured side is classical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InternalInvariantError
from .info import (
    Partition,
    _entropy_log_stack,
    _entropy_stack,
    _log2,
    _log2_coefficients,
    _mutual_info,
    _plogp,
    _pure_entropy_stack,
    matrix_entropy,
    spectrum_entropy,
    vn_entropy,
)
from .optim import OptimizerConfig, Povm, maximize, rank1_povm
from .qmat import trace_norm
from .states import (
    Ensemble,
    Mstate,
    PureState,
    SystemLayout,
    _marginal,
    _partial_transpose,
    _purification,
    check_group_cover,
    check_groups,
    default_groups,
    fresh_label,
    marginal,
    measured_label,
    merge_groups,
    permute_parties,
    purify,
    rest_of,
)
from .tolerances import DIAG, VALIDATE, ZERO

# the direction of an estimate, as the CLI prints it
EXACT = "exact"
LOWER = "lower-est"
UPPER = "upper-est"


@dataclass(frozen=True)
class MeasureEstimate:
    """A numeric estimate plus everything needed to audit it.

    ``direction`` says which side of the true value the estimate sits on,
    by one rule: a search can only fall short of its extreme, so
    `_povm_search` tags a maximum ``LOWER`` (``"lower-est"``) and a minimum
    ``UPPER`` (``"upper-est"``), and `derive` keeps the tag through c + x
    and swaps it through c - x.  ``achiever`` is the POVM or ensemble
    realizing ``value`` and ``info`` holds auxiliary scalars (e.g. the
    unmeasured mutual information a discord was cut from).
    """

    value: float
    direction: str
    config: OptimizerConfig | None = None
    achiever: object | None = None
    info: dict = field(default_factory=dict)

    def derive(self, value: float, sign: float, **info) -> MeasureEstimate:
        """The estimate ``value`` of c + sign * self.value for an exact c:
        self's direction when ``sign > 0``, swapped when ``sign < 0`` (no
        searched estimate is ``EXACT``).  ``config`` and ``achiever`` carry
        over, and ``info`` extends self's, its keys winning."""
        direction = self.direction
        if sign < 0:
            direction = UPPER if direction == LOWER else LOWER
        info = {**self.info, **info}
        return replace(self, value=value, direction=direction, info=info)


class Bracket(NamedTuple):
    """Two-sided bracket on a quantity in bits, such as distillable
    entanglement or a many-copy rate; ``exact`` when the endpoints are the
    value itself."""

    lower: float
    upper: float
    exact: bool


# ---------------------------------------------------------------------------
# ensembles from measurements


def _operand(rho: Mstate, party: str) -> np.ndarray:
    """The (d^2, n, n) rearrangement T of ``rho`` for a party of dimension d,
    n the dimension of the other parties, such that the row vec(M^T)
    contracted with T is Tr_party[(M on party) rho].  For M = v v^dagger
    that row is the Gram row conj(v[y]) v[z] of `_gram_rows`."""
    layout = rho.layout
    idx = layout.index(party)
    d = layout.dim_of(party)
    before = math.prod(layout.dims[:idx])
    n = layout.total_dim // d
    t = rho.matrix.reshape(before, d, n // before, before, d, n // before)
    return np.ascontiguousarray(t.transpose(1, 4, 0, 2, 3, 5).reshape(d * d, n, n))


def _gram_rows(vstack: np.ndarray) -> np.ndarray:
    """The rows vec(M^T) of the elements M = v v^dagger of a (..., d) stack
    of outcome rows v."""
    gram = vstack.conj()[..., :, None] * vstack[..., None, :]
    return gram.reshape(gram.shape[:-2] + (-1,))


def _outcome_blocks(rho: Mstate, povm: Povm, party: str):
    """Layout of the other parties, their unnormalized outcome blocks
    sigma_i = Tr_party[(M_i on party) rho] as a (K, n, n) stack, and the
    probabilities p_i = Tr sigma_i (>= 0)."""
    layout = rho.layout
    party = measured_label(layout, party, povm.party_dim)
    sig = _measured_blocks(rho, povm, party)
    p = np.clip(np.real(np.trace(sig, axis1=1, axis2=2)), 0.0, None)
    return SystemLayout(tuple(q for q in layout.parties if q[0] != party)), sig, p


def _measured_blocks(rho: Mstate, povm: Povm, party: str) -> np.ndarray:
    """The (K, n, n) outcome blocks of `_outcome_blocks`, for a ``party``
    already checked to be one label of the POVM's dimension."""
    d = povm.party_dim
    rows = np.array(povm.elements).transpose(0, 2, 1).reshape(len(povm), d * d)
    return np.tensordot(rows, _operand(rho, party), 1)


def _kept_ensemble(p: np.ndarray, member: Callable[[int], object]) -> Ensemble:
    """Ensemble of the outcomes of weight at least 1e-12, renormalized;
    ``member(i)`` is outcome i's normalized state."""
    keep = [i for i in range(len(p)) if p[i] >= ZERO]
    if not keep:
        raise InternalInvariantError("POVM produced no outcome with nonzero weight")
    total = sum(float(p[i]) for i in keep)
    return Ensemble(tuple(float(p[i]) / total for i in keep), tuple(map(member, keep)))


def measure_ensemble(rho: Mstate, povm: Povm, party: str) -> Ensemble:
    """Measure ``party`` with ``povm`` and return the post-measurement
    ensemble on the remaining parties.

    Outcome ``i`` occurs with probability ``p_i = Tr[(M_i on party) rho]``
    and leaves the other parties in the normalized partial trace of
    ``(M_i on party) rho``.  Outcomes with probability below 1e-12 are
    dropped and the surviving weights renormalized.
    """
    kept, sig, p = _outcome_blocks(rho, povm, party)
    return _kept_ensemble(p, lambda i: Mstate(kept, sig[i] / p[i]))


def flag_state(ensemble: Ensemble, register_label: str = "R") -> Mstate:
    """Write the ensemble index into a fresh classical register.

    Returns the block-diagonal state ``sum_i w_i rho_i (x) |i><i|`` with the
    register appended as the last (least significant) party.  The register
    dimension is the number of ensemble members, padded to 2 so that it is
    a genuine quantum system even for singleton ensembles.  A
    ``register_label`` already present raises ``DuplicateParty``.
    """
    layout = ensemble.layout
    reg = max(len(ensemble.members), 2)
    flagged = SystemLayout(layout.parties + ((register_label, reg),))
    dsys = layout.total_dim
    out = np.zeros((dsys * reg, dsys * reg), dtype=complex)
    view = out.reshape(dsys, reg, dsys, reg)
    for i, (w, member) in enumerate(zip(ensemble.weights, ensemble.members)):
        view[:, i, :, i] = w * member.matrix
    return Mstate(flagged, out)


def povm_flag_mutual_info(rho: Mstate, povm: Povm, party: str) -> float:
    """Mutual information between the unmeasured parties and a register
    recording the outcome of ``povm`` applied to ``party``.

    For the flagged state sum_i p_i rho_i (x) |i><i| this is the one-way
    form `_one_way` with a trivial receiver on the outcome blocks
    sigma_i = p_i rho_i: no outcome is dropped, and no flagged state is
    built."""
    party = measured_label(rho.layout, party, povm.party_dim)
    s_rest = vn_entropy(_marginal(rho, rest_of(rho.layout, (party,))))
    return _flag_info(rho, povm, party, s_rest)


def _flag_info(rho: Mstate, povm: Povm, party: str, s_rest: float) -> float:
    """`povm_flag_mutual_info` of a ``party`` already checked to be one
    label of the POVM's dimension, given the entropy ``s_rest`` of the
    other parties."""
    rest_dim = rho.layout.total_dim // povm.party_dim
    return float(_one_way(s_rest, _measured_blocks(rho, povm, party), rest_dim, 1))


# ---------------------------------------------------------------------------
# batch objective kernels
#
# Each measured quantity is a constant plus sum_k g(P_k) over the outcome
# elements P_k = v_k v_k^dagger, and g is 1-homogeneous.  With
# Gamma_k = dg/dP at P_k, the gradient with respect to the outcome row v_k is
# G_k = 2 Gamma_k v_k, in the real inner product Re <A, B>, and Euler's
# identity gives (1/2) Re <v_k, G_k> = g(P_k).  Where g reads the outcome
# block Phi(P) (`_operand`), Gamma = Phi*(L) for the block derivative L that
# `_one_way` returns; the 1/ln 2 terms of its entropies cancel.


def _adjoint(op: np.ndarray) -> np.ndarray:
    """The (n^2, d^2) matrix of Phi*, the adjoint of the contraction against
    `_operand`'s (d^2, n, n) array: a block derivative L, flattened, times
    it is Gamma with Tr[Gamma P] = Tr[L Phi(P)], flattened."""
    d2, n, _ = op.shape
    return np.ascontiguousarray(op.transpose(2, 1, 0).reshape(n * n, d2))


def _row_gradients(
    slope: np.ndarray, adj: np.ndarray, vstack: np.ndarray
) -> np.ndarray:
    """Row gradients 2 Gamma_k v_k of a (..., K, d) stack of outcome rows,
    Gamma_k = Phi*(L_k) for the (..., K, n, n) block derivatives ``slope``."""
    d = vstack.shape[-1]
    flat = slope.reshape(slope.shape[:-2] + (-1,))
    gamma = (flat @ adj).reshape(vstack.shape + (d,))
    return 2.0 * (gamma @ vstack[..., None])[..., 0]


def _one_way(s_a: float, sig: np.ndarray, da: int, dc: int, slope: bool = False):
    """S(A) + sum_i [h(sigma_C,i) - h(sigma_AC,i)] over the outcome blocks
    sigma_AC,i on (A, C), the last three axes of ``sig``: I(A : C R) for the
    outcome register R, as the p_i log2 p_i terms of S(CR) and S(ACR) cancel.
    With a trivial receiver, dc = 1, sigma_C,i is p_i and this is I(A : R),
    the information a register of the outcomes holds about A.

    With ``slope``, also each block's derivative
    log2 sigma_AC,i - 1_A (x) log2 sigma_C,i, with the value from the same
    eigensolves."""
    blocks = sig.reshape(sig.shape[:-2] + (da, dc, da, dc))
    sig_c = np.trace(blocks, axis1=-4, axis2=-2)
    if not slope:
        return s_a + np.sum(_entropy_stack(sig_c) - _entropy_stack(sig), axis=-1)
    h_c, log_c = _entropy_log_stack(sig_c)
    h, log = _entropy_log_stack(sig)
    # einsum's view of the A-diagonal blocks is writable
    diag_blocks = np.einsum("...aiaj->...aij", log.reshape(blocks.shape))
    diag_blocks -= log_c[..., None, :, :]
    return s_a + np.sum(h_c - h, axis=-1), log


def _off_block_max(t4: np.ndarray) -> float:
    """The largest modulus in a (dx, dy, dx, dy) state outside its diagonal
    x-blocks: zero when its x index is classical."""
    diagonal = np.eye(t4.shape[0], dtype=bool)[:, None, :, None]
    return float(np.max(np.where(diagonal, 0.0, np.abs(t4))))


def _block_factors(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Factor each PSD block of a (dx, dy, dy) stack as R_x = L_x L_x^dagger,
    dropping eigenvalues at or below the weight floor as `purify` does.

    Returns conj(L) of every block side by side, (dy, total rank), so that
    a row v gives <v|R_x|v> = ||L_x^dagger v||^2 as the squared moduli of
    v @ factors summed over block x's columns; and the first column of each
    block of nonzero rank, or None when no block has rank above one (then
    each column is its own block).  Blocks of rank zero get no column.
    """
    w, u = np.linalg.eigh(blocks)
    cols = []
    ranks = []
    for wx, ux in zip(w, u):
        keep = wx > ZERO
        ranks.append(int(np.count_nonzero(keep)))
        cols.append(ux[:, keep] * np.sqrt(wx[keep]))
    factors = np.ascontiguousarray(np.concatenate(cols, axis=1).conj())
    nonzero = [r for r in ranks if r]
    if max(nonzero) == 1:
        return factors, None
    # intp even when only one block has nonzero rank: reduceat needs integers
    return factors, np.concatenate(([0], np.cumsum(nonzero[:-1], dtype=np.intp)))


def _block_weights(
    rows: np.ndarray, factors: np.ndarray, starts: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes L_x^dagger v of every row v in a (rows, dy) stack,
    (rows, total rank), and its weights <v|R_x|v>, one column per block of
    nonzero rank, from `_block_factors`; nonnegative by construction."""
    amp = rows @ factors
    q = amp.real**2 + amp.imag**2
    return amp, (q if starts is None else np.add.reduceat(q, starts, axis=1))


def _x_classical(s_x: float, factors: np.ndarray, starts: np.ndarray | None):
    """Batch objective of discord's classical correlation when the
    unmeasured side is classical, rho = sum_x |x><x| (x) R_x: S(X) +
    sum_k [sum_x q_kx log2 q_kx - p_k log2 p_k] with q_kx = <v_k|R_x|v_k> and
    p_k = sum_x q_kx, and its row gradients 2 Gamma_k v_k with
    Gamma_k = sum_x log2(q_kx / p_k) R_x."""
    ranks = np.diff(np.append(starts, factors.shape[1])) if starts is not None else None
    adjoint = np.ascontiguousarray(factors.conj().T)

    def batch(vstack: np.ndarray):
        b, kk, dy = vstack.shape
        amp, q = _block_weights(vstack.reshape(b * kk, dy), factors, starts)
        p = np.sum(q, axis=-1)
        h_cond = -np.sum(_plogp(q), axis=-1)
        per = (h_cond + _plogp(p)).reshape(b, kk)
        ratio = _log2(q) - _log2(p)[:, None]
        if ranks is not None:
            ratio = np.repeat(ratio, ranks, axis=1)
        grads = 2.0 * ((ratio * amp) @ adjoint)
        return s_x - np.sum(per, axis=-1), grads.reshape(vstack.shape)

    return batch


def _block_batch(op: np.ndarray, s_a: float, da: int, dc: int):
    """Batch objective `_one_way` on the (da * dc)-dimensional outcome blocks
    of the rows through ``op`` (`_operand`), with the rows' gradients from
    its block derivatives through `_adjoint`."""
    adj = _adjoint(op)

    def batch(vstack: np.ndarray):
        sig = np.tensordot(_gram_rows(vstack), op, 1)
        values, slope = _one_way(s_a, sig, da, dc, slope=True)
        return values, _row_gradients(slope, adj, vstack)

    return batch


def _povm_search(batch, d, config, report, *, sense="max", warm_starts=()):
    """The one variational template: search the K = d^2 outcome rank-one
    POVMs on a party of dimension ``d`` for the extreme of ``sense``, and
    make the one `MeasureEstimate` of the best.

    ``batch`` maps a (B, K, d) stack of outcome rows to B values and their
    (B, K, d) row gradients. Rank-one POVMs with at most d^2 outcomes
    already reach the supremum over all measurements of every measured
    quantity here (Davies, IEEE TIT 24, 596, 1978; Hamieh, Kobeissi &
    Zaraket, PRA 70, 052325, 2004), so a larger K buys nothing.
    ``warm_starts`` are K x d isometries (or K x K unitaries, of which the
    first d columns count) searched first. ``report`` maps the best K x d
    isometry, whose rows are the outcome vectors, to the re-verified
    ``(value, achiever, info)``; the estimate is ``LOWER`` for ``"max"`` and
    ``UPPER`` for ``"min"``, with the config searched and
    ``info["outcomes"] = K``."""
    cfg = config or OptimizerConfig()
    k = d * d
    _, iso = maximize(
        batch_objective=batch,
        dim=k,
        config=cfg,
        columns=d,
        sense=sense,
        warm_starts=warm_starts,
    )
    value, achiever, info = report(iso)
    info["outcomes"] = k
    direction = LOWER if sense == "max" else UPPER
    return MeasureEstimate(
        value=value, direction=direction, config=cfg, achiever=achiever, info=info
    )


# ---------------------------------------------------------------------------
# measured mutual information, maximized over rank-one POVMs


def _register_info(merged: Mstate, povm: Povm, s_a: float | None = None) -> float:
    """I(A : C R) of a merged (A, B, C) state when ``povm``, on B's
    dimension, measures B into the register R, by the one-way form
    `_one_way`; ``s_a`` is S(A), read from the state when None."""
    la, lb, _ = merged.layout.labels
    da, _, dc = merged.layout.dims
    if s_a is None:
        s_a = vn_entropy(marginal(merged, la))
    return float(_one_way(s_a, _measured_blocks(merged, povm, lb), da, dc))


def one_way_ci(
    rho: Mstate,
    alice: str | Sequence[str],
    bob: str | Sequence[str],
    charlie: str | Sequence[str],
    config: OptimizerConfig | None = None,
) -> MeasureEstimate:
    """Best mutual information between ``alice`` and ``charlie`` plus an
    outcome register, over rank-one POVMs measured on ``bob``.

    Each group may name several parties; a composite ``bob`` is measured
    as one party of dimension d, the product of its parties' dimensions.
    The search is over rank-one POVMs with K = d^2 outcomes, which reach
    the supremum over all POVMs.  The value is recomputed at the achieving
    POVM, so it is achievable by construction and can only err downward.
    """
    merged, (la, _, _) = merge_groups(rho, (alice, bob, charlie))
    return _one_way_search(merged, vn_entropy(_marginal(merged, (la,))), config)


def _one_way_search(merged: Mstate, s_a: float, config) -> MeasureEstimate:
    """`one_way_ci` of a merged (A, B, C) state, S(A) given: the search,
    with no group check."""
    lb = merged.layout.labels[1]
    da, db, dc = merged.layout.dims

    if merged.purity() > 1.0 - ZERO:
        # Pure input: each conditional block on alice+charlie is pure, with
        # the (alice, charlie) amplitude matrix of a partial inner product of
        # the state vector, so the term per outcome is the steering one with
        # bob in the ancilla's place.
        w_eig, u_eig = np.linalg.eigh(merged.matrix)
        amp = u_eig[:, -1] * math.sqrt(max(float(w_eig[-1]), 0.0))
        psi_mat = amp.reshape(da, db, dc).transpose(0, 2, 1).reshape(da * dc, db)
        batch = _steering_batch(psi_mat, s_a, da, dc)
    else:
        batch = _block_batch(_operand(merged, lb), s_a, da, dc)

    def report(iso):
        achiever = rank1_povm(iso, db)
        return _register_info(merged, achiever, s_a), achiever, {"measured_party": lb}

    return _povm_search(batch, db, config, report)


def discord(
    rho: Mstate,
    unmeasured: str | Sequence[str],
    measured: str | Sequence[str],
    config: OptimizerConfig | None = None,
    *,
    warm_starts: Sequence[np.ndarray] = (),
) -> MeasureEstimate:
    """Quantum discord of ``rho`` with the measurement on ``measured``.

    Computed as the gap between the mutual information and the best
    classical correlation extractable by a rank-one POVM on ``measured``:
    the inner maximization is variational, so the reported discord is an
    upper-bound estimate (it can only decrease as the search improves).
    The two groups must cover every party of ``rho`` (``LayoutMismatch``
    otherwise); take a `marginal` first to leave parties out.
    Either group may name several parties; a composite ``measured`` is
    measured as one party of dimension d, the product of its parties'
    dimensions.  ``warm_starts`` are K x d isometries whose rows are
    outcome vectors (or K x K unitaries, read by their first d columns),
    K = d^2, searched before the seeded restarts.
    """
    merged, _ = merge_groups(rho, (unmeasured, measured))
    return _discord(merged, config, warm_starts)


def _discord(merged: Mstate, config, warm_starts=()) -> MeasureEstimate:
    """`discord` of a merged (X, Y) state: the search, with no group
    check."""
    lx, ly = merged.layout.labels
    dx, dy = merged.layout.dims
    t4 = merged.matrix.reshape(dx, dy, dx, dy)
    s_x = vn_entropy(_marginal(merged, (lx,)))
    i_xy = _mutual_info(merged, (lx,), (ly,))

    # When the unmeasured marginal index is classical (no coherences between
    # x-blocks) every conditional state is diagonal in the x basis, so the
    # objective needs only the outcome distributions q[., x] = <v| R_x |v>:
    # with each block R_x factored once here, one complex matrix product per
    # call.  That is what keeps the classical-quantum presets and their
    # two-copy products affordable.
    x_classical = _off_block_max(t4) < DIAG

    if x_classical:
        batch = _x_classical(s_x, *_block_factors(np.einsum("xyxz->xyz", t4)))
    else:
        batch = _block_batch(_operand(merged, ly), s_x, dx, 1)

    def report(iso):
        achiever = rank1_povm(iso, dy)
        return _flag_info(merged, achiever, ly, s_x), achiever, {"measured_party": ly}

    # I - J for the searched J; the floor keeps the upper side, discord >= 0
    j = _povm_search(batch, dy, config, report, warm_starts=warm_starts)
    return j.derive(
        max(i_xy - j.value, 0.0), -1, mutual_info=i_xy, classical_correlation=j.value
    )


# ---------------------------------------------------------------------------
# entanglement of assistance / formation via purification steering


def _steering_batch(psi_mat: np.ndarray, s_a: float, da: int, dc: int):
    """Batch objective s_a + sum_i (S(chi_i) + p_i log2 p_i) over the outcome
    rows, where chi_i is the unnormalized (da, dc) amplitude that outcome i
    steers ``psi_mat`` (system, ancilla) into, and its row gradients.

    chi_i is linear in conj(v_i), and the term's derivative is
    -2 Re Tr[Y_i^dagger d chi_i] with Y_i = log2(chi_i chi_i^dagger / p_i) chi_i
    (equally chi_i log2(chi_i^dagger chi_i / p_i)), so row i's gradient is
    -2 conj(Y_i) contracted with ``psi_mat``.  The log is taken of the Gram
    matrix G on the smaller side of chi_i.  When that side is a qubit, G is
    2x2, log2 G = c0 1 + c1 G (`_log2_coefficients`), and Y_i is formed
    from the two rows (or columns) x0, x1 of chi_i and the entries of G
    alone, with no eigensolve and no stacked product; otherwise log2 G
    comes from `_entropy_log_stack`.  Either way the value is
    `_pure_entropy_stack`'s."""
    rows = np.ascontiguousarray(psi_mat.T)
    left = da <= dc
    qubit = (da if left else dc) == 2

    def batch(vstack: np.ndarray):
        # one 2-D product over every row: a stacked matmul runs one tiny
        # zgemm per isometry
        b, k, d = vstack.shape
        chi = (vstack.conj().reshape(b * k, d) @ rows).reshape(b * k, da, dc)
        p, h = _pure_entropy_stack(chi.reshape(b, k, da, dc))
        if qubit:
            # x holds the two rows of chi (its two columns on the right side);
            # G is x x^dagger on either side up to conjugating g01, which the
            # product below absorbs: Y = (c0 - log2 p) x + c1 G x
            x = chi if left else chi.swapaxes(1, 2)
            g = np.vecdot(x, x).real
            g01 = np.vecdot(x[:, 1], x[:, 0])
            c0, c1 = _log2_coefficients(g[:, 0], g[:, 1], g01)
            c0 -= _log2(p).reshape(-1)
            off = (c1 * g01)[:, None]
            y = x * (c0[:, None] + c1[:, None] * g)[:, :, None]
            y[:, 0] += off * x[:, 1]
            y[:, 1] += off.conj() * x[:, 0]
            if not left:
                y = y.swapaxes(1, 2)
        else:
            chi_h = np.conj(np.swapaxes(chi, -1, -2))
            _, log = _entropy_log_stack(chi @ chi_h if left else chi_h @ chi)
            y = log @ chi if left else chi @ log
            y -= _log2(p).reshape(b * k, 1, 1) * chi
        grads = -2.0 * (y.conj().reshape(b * k, da * dc) @ psi_mat)
        return s_a + np.sum(h + _plogp(p), axis=-1), grads.reshape(vstack.shape)

    return batch


def _steered_entanglement(rho, a_labels, config, sense):
    """Shared body of `eoa` (``sense="max"``) and `eof` (``sense="min"``),
    for the checked group ``a_labels``, which leaves a nonempty rest.

    Purify ``rho`` (alice parties first), search rank-one POVMs on the
    purifying system for the extreme average entanglement entropy of the
    pure-state ensemble they steer, and recompute that average, with the
    achieving ensemble, from the steered amplitudes of the best POVM."""
    ordered = permute_parties(rho, a_labels + rest_of(rho.layout, a_labels))
    # the purification as a bare (system, ancilla) matrix: it may pass the
    # dimension cap, which no layout does
    psi_mat = _purification(ordered)
    r = psi_mat.shape[1]
    da = ordered.layout.group_dim(a_labels)
    dc = ordered.layout.total_dim // da

    def report(iso):
        chi = iso.conj() @ psi_mat.T
        p, h = _pure_entropy_stack(chi.reshape(-1, da, dc))
        ens = _kept_ensemble(
            p, lambda i: PureState(ordered.layout, chi[i] / math.sqrt(p[i]))
        )
        return max(float(np.sum(h + _plogp(p))), 0.0), ens, {"ancilla_dim": r}

    return _povm_search(
        _steering_batch(psi_mat, 0.0, da, dc), r, config, report, sense=sense
    )


def eoa(
    rho: Mstate,
    alice: str | Sequence[str],
    config: OptimizerConfig | None = None,
) -> MeasureEstimate:
    """Entanglement of assistance across ``alice`` vs the rest.

    A helper holding the purifying system measures it with a rank-one POVM,
    steering the state into a pure-state ensemble; the objective is the
    ensemble average of the entanglement entropy, maximized.  Variational,
    hence a lower-bound estimate of the true assisted entanglement.
    """
    a_labels, _ = check_groups(rho.layout, *default_groups(rho.layout, alice, None))
    return _steered_entanglement(rho, a_labels, config, "max")


def eof(
    rho: Mstate,
    alice: str | Sequence[str],
    config: OptimizerConfig | None = None,
) -> MeasureEstimate:
    """Entanglement of formation across ``alice`` vs the rest: the minimum,
    over pure-state decompositions, of the average entanglement entropy.
    Same steering parametrization as :func:`eoa` but minimized, so the
    estimate can only sit above the true value."""
    a_labels, _ = check_groups(rho.layout, *default_groups(rho.layout, alice, None))
    return _steered_entanglement(rho, a_labels, config, "min")


def kw_discord(
    rho: Mstate,
    unmeasured: str | Sequence[str],
    measured: str | Sequence[str],
    config: OptimizerConfig | None = None,
) -> MeasureEstimate:
    """Discord of ``unmeasured``:``measured`` computed through the
    entanglement of formation between ``unmeasured`` and a purifying system.

    The exchange identity trades the measurement optimization for an
    entanglement-of-formation computation on the complementary marginal;
    since the formation estimate errs upward, so does the discord.  As
    for `discord`, the two groups must cover every party of ``rho``.  The
    purification is a state, of ``rho``'s dimension times max(rank, 2), so
    past the dimension cap it raises ``DimensionTooLarge``.
    ``info["ancilla_dim"]`` is the dimension of the purifying system.
    """
    x_labels, y_labels = check_group_cover(rho.layout, unmeasured, measured)
    ordered = permute_parties(rho, x_labels + y_labels)
    anc = fresh_label(ordered.layout.labels, "Z")
    psi = purify(ordered, anc)
    rho_xz = _marginal(psi, x_labels + (anc,))
    ef = _steered_entanglement(rho_xz, x_labels, config, "min")
    s_xy = vn_entropy(ordered)
    s_y = vn_entropy(_marginal(ordered, y_labels))
    return ef.derive(
        ef.value - s_xy + s_y, 1, eof=ef.value, ancilla_dim=psi.layout.dim_of(anc)
    )


# ---------------------------------------------------------------------------
# closed-form entanglement bounds


def log_negativity(rho: Mstate, cut: Partition) -> float:
    """log2 of the trace norm of the partial transpose across ``cut``.
    Parties outside the cut are traced out first."""
    return _log_negativity(cut.restrict(rho), cut.left)


def _log_negativity(reduced: Mstate, left: tuple[str, ...]) -> float:
    """`log_negativity` of a state restricted to a checked cut, ``left``
    its left group.  The trace norm is at least 1, above `_log2`'s floor."""
    return max(float(_log2(trace_norm(_partial_transpose(reduced, left)))), 0.0)


def coherent_info_lower(rho: Mstate, cut: Partition) -> float:
    """Hashing-type lower bound on distillable entanglement across ``cut``:
    the larger of the two coherent informations, floored at zero."""
    reduced = cut.restrict(rho)
    sides = (vn_entropy(_marginal(reduced, cut.left)), vn_entropy(_marginal(reduced, cut.right)))
    return _coherent_info(reduced, sides)


def _coherent_info(reduced: Mstate, sides: tuple[float, float]) -> float:
    """`coherent_info_lower` of a state restricted to a checked cut, given
    the entropies of its left and right groups."""
    s_both = vn_entropy(reduced)
    return max(0.0, sides[0] - s_both, sides[1] - s_both)


def _max_correlated_pattern(reduced: Mstate, cut: Partition) -> np.ndarray | None:
    """If the state is maximally correlated across ``cut`` (supported on the
    paired basis |ii>), return the coefficient matrix a with
    rho = sum_ij a_ij |ii><jj|; otherwise None."""
    dl = reduced.layout.group_dim(cut.left)
    dr = reduced.layout.group_dim(cut.right)
    if dl != dr:
        return None
    ordered = permute_parties(reduced, cut.left + cut.right)
    m = ordered.matrix
    ii = np.arange(dl) * dr + np.arange(dl)
    a = m[np.ix_(ii, ii)]
    residual = np.array(m, copy=True)
    residual[np.ix_(ii, ii)] = 0.0
    if float(np.max(np.abs(residual))) > VALIDATE:
        return None
    return a


def ed_interval(rho: Mstate, cut: Partition) -> Bracket:
    """Bracket the distillable entanglement across ``cut``.

    Generic states get [coherent-information lower, log-negativity upper].
    Maximally correlated states (support on the paired basis) are special:
    there the hashing value H(diag a) - H(spec a) is known to be the exact
    distillable entanglement, so both endpoints collapse onto it and
    ``exact`` is set.
    """
    reduced = cut.restrict(rho)
    sides = (vn_entropy(_marginal(reduced, cut.left)), vn_entropy(_marginal(reduced, cut.right)))
    return _ed_interval(reduced, cut, sides)


def _ed_interval(reduced: Mstate, cut: Partition, sides: tuple[float, float]) -> Bracket:
    """`ed_interval` of a state restricted to the checked ``cut``, given the
    entropies of its left and right groups."""
    a = _max_correlated_pattern(reduced, cut)
    if a is not None:
        value = max(
            spectrum_entropy(np.real(np.diag(a))) - matrix_entropy(a), 0.0
        )
        return Bracket(value, value, True)
    return Bracket(_coherent_info(reduced, sides), _log_negativity(reduced, cut.left), False)


def regularized_eoa(rho: Mstate, alice: str | Sequence[str] | None = None) -> float:
    """Many-copy-rate assisted entanglement across ``alice`` vs the rest:
    min of the two marginal entropies.  Exact, no optimization."""
    a_labels, rest = check_groups(rho.layout, *default_groups(rho.layout, alice, None))
    s_a = vn_entropy(_marginal(rho, a_labels))
    s_c = vn_entropy(_marginal(rho, rest))
    return min(s_a, s_c)


__all__ = [
    "MeasureEstimate",
    "Bracket",
    "measure_ensemble",
    "flag_state",
    "povm_flag_mutual_info",
    "one_way_ci",
    "discord",
    "eoa",
    "eof",
    "kw_discord",
    "log_negativity",
    "coherent_info_lower",
    "ed_interval",
    "regularized_eoa",
]
