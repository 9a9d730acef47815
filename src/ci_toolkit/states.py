"""Multipartite states over labeled parties.

A state lives on a `SystemLayout`: an ordered tuple of (label, dim) parties,
leftmost party most significant in the flat index (row-major, matching
`np.kron`). A state is an `Mstate`, a density operator; a `PureState` is
the `Mstate` of a unit vector that keeps the vector, so every function that
takes a state takes a pure one as it is.  Weighted collections are
`Ensemble`.

Labels are checked in one place: a `SystemLayout` rejects a repeated one,
so every operation that adds or renames parties (`tensor`, `merge_groups`,
`purify`, a flagged or dilated state) raises ``DuplicateParty`` by
building its layout.  One function, `_relaid`, carries a state, or copies
of it side by side, onto a new layout or party order, and a `PureState` it
carries stays one.

Each state is derived once. An `Mstate` keeps the spectrum its PSD check
computes, in the form the entropy kernel in `info` reads it, so no entropy
diagonalizes a state's matrix again. What is derived from a state is kept
in its one memo: `marginal`, the one way to take a reduced state, names the
kept group and keeps each reduction there, keyed by the set of dropped
labels, so asking for the same marginal twice builds it once; `info` keeps
the state's entropy there, and `measures` the trace norm of each partial
transpose. The party-group check runs on every call, before that lookup. A
`PureState` stores the exact pure spectrum instead of diagonalizing its
density operator.

The JSON state-file format consumed by the CLI is defined by
`load_state_file` / `state_from_dict` at the bottom of this module.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionTooLarge,
    DuplicateParty,
    InvalidArgument,
    InvalidMatrix,
    InvalidPartition,
    InvalidPreset,
    LayoutMismatch,
    NotPSD,
    StateFileError,
    UnknownParty,
)
from .tolerances import DIAG, SLACK, VALIDATE, ZERO

# the domain: no layout, and so no state, has a total dimension above this
DIM_CAP = 64


def as_labels(spec) -> tuple[str, ...]:
    """Normalize a label argument: a single string or an iterable of strings."""
    if isinstance(spec, str):
        return (spec,)
    labels = tuple(spec)
    for x in labels:
        if not isinstance(x, str):
            raise InvalidArgument(f"party labels must be strings, got {labels!r}")
    return labels


@dataclass(frozen=True)
class SystemLayout:
    """Ordered parties (label, dim); labels non-empty strings and unique,
    every dim an integer >= 2 (a bool is not one; a NumPy integer is), and
    a total dimension of at most `DIM_CAP` (``DimensionTooLarge`` beyond).
    Every state is built on a layout, so this is where the cap is checked."""

    parties: tuple[tuple[str, int], ...]
    # set once by the checks; every party-group check reads the labels
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels, dims = [], []
        for label, dim in self.parties:
            if not isinstance(label, str) or not label:
                raise InvalidArgument(f"party label must be a non-empty string, got {label!r}")
            if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
                raise InvalidArgument(f"party {label!r}: dim must be an integer, got {dim!r}")
            labels.append(label)
            dims.append(int(dim))
        labels, dims = tuple(labels), tuple(dims)
        parties = tuple(zip(labels, dims))
        if len(set(labels)) != len(labels) or (dims and min(dims) < 2):
            seen = set()
            for label, dim in parties:
                if label in seen:
                    raise DuplicateParty(f"duplicate party label {label!r}")
                seen.add(label)
                if dim < 2:
                    raise InvalidArgument(f"party {label!r}: dim must be >= 2, got {dim}")
        total = math.prod(dims)
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total_dim", total)
        if total > DIM_CAP:
            raise DimensionTooLarge(
                f"layout {self.describe()}: total dimension {total} exceeds the cap {DIM_CAP}"
            )

    def index(self, label: str) -> int:
        for i, (l, _) in enumerate(self.parties):
            if l == label:
                return i
        raise UnknownParty(f"party {label!r} not in layout {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.parties[self.index(label)][1]

    def group_dim(self, labels) -> int:
        return math.prod(self.dim_of(l) for l in as_labels(labels)) if labels else 1

    def describe(self) -> str:
        return ",".join(f"{l}:{d}" for l, d in self.parties)


# ---------------------------------------------------------------------------
# party groups: the one place a grouping of a layout's labels is checked


def check_groups(layout: SystemLayout, *groups) -> tuple[tuple[str, ...], ...]:
    """Normalize each group with `as_labels` and check it against ``layout``.

    Raises UnknownParty for a label the layout lacks, and InvalidPartition
    for a label named twice (within one group or across groups) or for an
    empty group.  Returns the normalized groups.
    """
    checked = tuple(as_labels(g) for g in groups)
    known = layout.labels
    seen: set[str] = set()
    for g in checked:
        if not g:
            raise InvalidPartition(f"empty party group in {checked}")
        for l in g:
            if l not in known:
                raise UnknownParty(f"party {l!r} not in layout {known}")
            if l in seen:
                raise InvalidPartition(f"party {l!r} appears twice in {checked}")
            seen.add(l)
    return checked


def rest_of(layout: SystemLayout, *groups) -> tuple[str, ...]:
    """The labels of ``layout`` that no group names, in layout order."""
    named = {l for g in groups for l in as_labels(g)}
    return tuple(l for l in layout.labels if l not in named)


def check_group_cover(layout: SystemLayout, *groups) -> tuple[tuple[str, ...], ...]:
    """`check_groups`, and raise LayoutMismatch unless the groups together
    name every party of ``layout``.  Returns the normalized groups."""
    checked = check_groups(layout, *groups)
    missing = rest_of(layout, *checked)
    if missing:
        raise LayoutMismatch(
            f"party groups {checked} do not cover the layout; missing {missing}"
        )
    return checked


def default_groups(layout: SystemLayout, *groups) -> tuple:
    """Fill the groups given as None by position: group i becomes
    ``(labels[i],)``, and the last group becomes the rest of the layout,
    which may be empty.  Only fills; `check_groups` and `check_group_cover`
    check.  Raises LayoutMismatch when a position past the end of the
    layout is left to the default."""
    *lead, last = groups
    labels = layout.labels
    filled = []
    for i, g in enumerate(lead):
        if g is None:
            if i >= len(labels):
                raise LayoutMismatch(
                    f"default grouping needs at least {i + 1} parties; "
                    "pass the groups explicitly"
                )
            g = (labels[i],)
        filled.append(g)
    return (*filled, rest_of(layout, *filled) if last is None else last)


def measured_label(layout: SystemLayout, group, dim: int) -> str:
    """The one label of a ``group`` that a caller-supplied POVM on a
    ``dim``-dimensional party measures, checked against ``layout``: the
    group must name one party, of that dimension.  The searches take a
    composite measured group and merge it (`merge_groups`)."""
    (labels,) = check_groups(layout, group)
    if len(labels) != 1:
        raise LayoutMismatch("the measured party must be a single label; merge first")
    (label,) = labels
    d = layout.dim_of(label)
    if d != dim:
        raise LayoutMismatch(f"POVM acts on dimension {dim}, party {label!r} has dimension {d}")
    return label


def _read_diagonal(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of a (..., n, n) stack and, for each matrix, whether it
    reads as diagonal: every off-diagonal entry is at most DIAG times its
    largest diagonal entry.  The rule is decided per matrix, so a matrix's
    reading never depends on the others in its stack; it is the entropy
    kernel's rule, which `Mstate` reads on its one matrix, so a stored
    spectrum is what the kernel would compute."""
    n = mats.shape[-1]
    diag = mats.diagonal(0, -2, -1).real
    offdiag = np.abs(mats.reshape(mats.shape[:-2] + (n * n,)))
    offdiag[..., :: n + 1] = 0.0
    return diag, offdiag.max(axis=-1) <= DIAG * diag.max(axis=-1)


@dataclass(frozen=True)
class Mstate:
    """Density operator on a layout.

    A build makes one read-only complex copy of ``matrix`` and checks it,
    in this order: square of the layout's total dimension, Hermitian within
    1e-10, unit trace within 1e-10, eigenvalues >= -1e-10.  A reduction
    made by `marginal` allows more on two of those checks, each by what its
    parent was allowed (see there); a copy that permutes or merges parties
    allows the smallest eigenvalue of the state it copies, and ``copies``
    side by side that many times its Hermitian allowance.  A matrix a
    caller supplies gets the plain checks.

    ``spectrum`` is stored from that check: the diagonal when the matrix
    reads as diagonal (`_read_diagonal`'s rule), otherwise the ascending
    `eigvalsh` values.  It is exactly what the entropy kernel computes from
    ``matrix``, so `info.vn_entropy` reads it instead of diagonalizing again.
    A `PureState` is the one exception: it stores the exact (0, ..., 0, 1).

    The numbers derived from the state are kept with it, in one memo, each
    made once: the reductions `marginal` makes, keyed by the set of dropped
    labels; its entropy (`info.vn_entropy`); and the trace norm of its
    partial transpose on each group (`measures.log_negativity`).
    """

    layout: SystemLayout
    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)
    # eigenvalue allowance past -VALIDATE, and the Hermitian allowance;
    # only `marginal` and `_relaid` set them
    _psd_slack: float = field(default=0.0, kw_only=True, repr=False, compare=False)
    _hermitian_tol: float = field(default=VALIDATE, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        m.setflags(write=False)
        d = self.layout.total_dim
        if m.shape != (d, d):
            raise InvalidMatrix(
                f"Mstate: matrix shape {m.shape} does not match layout dimension {d}"
            )
        # each check is written so that a NaN anywhere fails it
        tol = self._hermitian_tol
        if not np.abs(m - m.conj().T).max() <= tol:
            raise InvalidMatrix(f"Mstate: matrix is not Hermitian within {tol:g}")
        diag = m.diagonal()
        tr = diag.sum()
        if not abs(tr - 1.0) <= VALIDATE:
            raise InvalidMatrix(f"Mstate: trace {tr:.12g} is not 1 within {VALIDATE:g}")
        w = np.linalg.eigvalsh(m)
        floor = VALIDATE + self._psd_slack
        if not w[0] >= -floor:
            raise NotPSD(f"Mstate: eigenvalue {w[0]:.3e} below -{floor:g}")
        # `_read_diagonal`'s rule on the one matrix
        diag = diag.real
        offdiag = np.abs(m)
        offdiag.reshape(-1)[:: d + 1] = 0.0
        spectrum = diag if offdiag.max() <= DIAG * diag.max() else w
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "_memo", {})

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


class PureState(Mstate):
    """The `Mstate` of a unit vector (norm within 1e-12 of 1), which keeps
    the vector as ``amplitudes``.

    Its density operator is built with the state, and its spectrum is the
    exact (0, ..., 0, 1): an outer product of a unit vector is Hermitian, of
    unit trace and PSD by construction, so no check diagonalizes it, and
    its entropy is exactly 0.
    """

    amplitudes: np.ndarray

    def __init__(self, layout: SystemLayout, amplitudes):
        v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if v.shape != (layout.total_dim,):
            raise InvalidMatrix(
                f"PureState: vector length {v.shape[0]} does not match layout "
                f"dimension {layout.total_dim}"
            )
        if not abs(np.linalg.norm(v) - 1.0) <= ZERO:
            raise InvalidMatrix(f"PureState: vector is not normalized within {ZERO:g}")
        v = np.array(v)
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)
        super().__init__(layout, np.outer(v, v.conj()))

    def __post_init__(self):
        self.matrix.setflags(write=False)
        spectrum = np.zeros(self.layout.total_dim)
        spectrum[-1] = 1.0
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "_memo", {})


@dataclass(frozen=True)
class Ensemble:
    """Weighted collection of states sharing one layout."""

    weights: np.ndarray
    members: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if w.size != len(self.members):
            raise InvalidArgument("Ensemble: weights and members disagree in length")
        if w.size == 0:
            raise InvalidArgument("Ensemble: empty")
        if not np.min(w) >= -ZERO:
            raise InvalidArgument(f"Ensemble: negative weight {np.min(w):.3e}")
        if not abs(w.sum() - 1.0) <= SLACK:
            raise InvalidArgument(f"Ensemble: weights sum to {w.sum():.12g}, not 1")
        layouts = {m.layout for m in self.members}
        if len(layouts) != 1:
            raise InvalidArgument("Ensemble: members do not share a layout")
        wf = np.array(w, copy=True)
        wf.setflags(write=False)
        object.__setattr__(self, "weights", wf)
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def layout(self) -> SystemLayout:
        return self.members[0].layout

    def average(self) -> Mstate:
        acc = np.zeros((self.layout.total_dim,) * 2, dtype=np.complex128)
        for w, m in zip(self.weights, self.members):
            acc += w * m.matrix
        return Mstate(self.layout, acc)


# ---------------------------------------------------------------------------
# structural operations


def tensor(a: Mstate, b: Mstate) -> Mstate:
    """Tensor product; b's parties are appended after a's."""
    layout = SystemLayout(a.layout.parties + b.layout.parties)
    return Mstate(layout, np.kron(a.matrix, b.matrix))


def _tensor_view(matrix: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    return matrix.reshape(*dims, *dims)


def marginal(rho: Mstate, keep) -> Mstate:
    """The reduced state of the group ``keep``: every other party traced
    out.  The kept parties come back in layout order, whatever order
    ``keep`` names them in, and a group naming every party returns ``rho``
    itself.

    The group check runs on every call.  The reduction is then kept in
    ``rho``'s memo, keyed by the set of dropped labels, and a later call for
    the same group returns the same object.  Parties are traced in layout
    order, in one pass.

    The reduction is built as a state, with its checks, and two of them
    allow what tracing out d_dropped dimensions can add to what ``rho``'s
    own checks accepted:

    - the PSD check allows eigenvalues down to -(VALIDATE + d_dropped *
      max(0, -lambda_min(rho))), lambda_min read from ``rho``'s stored
      spectrum, as a traced-out negative eigenvalue is scaled by up to
      d_dropped.  For a PSD ``rho`` that is the plain -VALIDATE check.
    - the Hermitian check allows d_dropped times ``rho``'s allowance
      (VALIDATE for a matrix a caller supplied), as each entry of the
      reduction sums d_dropped entries of ``rho``.
    """
    (kept,) = check_groups(rho.layout, keep)
    return _marginal(rho, kept)


def _marginal(rho: Mstate, kept: tuple[str, ...]) -> Mstate:
    """`marginal` of a group that `check_groups` has already returned for
    ``rho``'s layout, or for the layout of a state ``rho`` was reduced from
    that kept the group, or extended by fresh labels (a purification), with
    any of those labels added: the caller checks once for several
    reductions."""
    drop = tuple([l for l in rho.layout.labels if l not in kept])
    return _reduction(rho, drop) if drop else rho


def _reduction(rho: Mstate, drop: tuple[str, ...]) -> Mstate:
    """The reduction of ``rho`` without the checked labels ``drop``, built
    once and kept on ``rho`` under the set of those labels.  The dropped
    parties are traced in layout order, in one pass."""
    key = frozenset(drop)
    memo = rho._memo
    reduced = memo.get(key)
    if reduced is not None:
        return reduced
    parties = rho.layout.parties
    n = len(parties)
    t = _tensor_view(rho.matrix, rho.layout.dims)
    kept = []
    for i, party in enumerate(parties):
        if party[0] in key:
            # the party's axes, past the kept ones before it and with the
            # i - len(kept) dropped ones before it gone
            j = len(kept)
            t = t.trace(axis1=j, axis2=n - i + 2 * j)
        else:
            kept.append(party)
    layout = SystemLayout(tuple(kept))
    d = layout.total_dim
    dropped = rho.layout.total_dim // d
    reduced = Mstate(
        layout,
        t.reshape(d, d),
        _psd_slack=dropped * _slack_of(rho),
        _hermitian_tol=dropped * rho._hermitian_tol,
    )
    memo[key] = reduced
    return reduced


def _slack_of(rho: Mstate) -> float:
    return max(0.0, -float(rho.spectrum.min()))


def _relaid(rho: Mstate, layout: SystemLayout, perm=None, copies: int = 1) -> Mstate:
    """``rho``, or ``copies`` copies of it side by side (their tensor
    product, with no state built for it), carried onto ``layout``: the
    parties first put in the order ``perm`` (indices into the copies'
    joint layout; None keeps the order), then the flat index read on
    ``layout``.  The one way a state is reordered, renamed or repeated.  A
    `PureState` stays one, its amplitudes moved.  Otherwise the PSD check
    allows ``rho``'s smallest eigenvalue: the eigenvalues are ``rho``'s, or
    products of them, none below that one times the largest.  The Hermitian
    check allows ``copies`` times ``rho``'s allowance: the deviation of a
    product is at most the sum of its factors' deviations, each times the
    other factors' largest entry, which is at most 1."""
    dims = rho.layout.dims * copies
    if isinstance(rho, PureState):
        v = rho.amplitudes
        for _ in range(copies - 1):
            v = np.kron(v, rho.amplitudes)
        if perm is not None:
            v = v.reshape(dims).transpose(perm).reshape(-1)
        return PureState(layout, v)
    m = rho.matrix
    for _ in range(copies - 1):
        m = np.kron(m, rho.matrix)
    if perm is not None:
        n, d = len(dims), len(m)
        m = _tensor_view(m, dims).transpose(*perm, *(n + i for i in perm)).reshape(d, d)
    return Mstate(
        layout, m, _psd_slack=_slack_of(rho), _hermitian_tol=copies * rho._hermitian_tol
    )


def partial_transpose(rho: Mstate, parties) -> np.ndarray:
    """Transpose the listed parties' indices; returns a plain matrix (not a
    state — the result is generally not PSD)."""
    labels = as_labels(parties)
    if not labels:
        raise InvalidArgument("partial_transpose: nothing to transpose")
    check_groups(rho.layout, labels)
    return _partial_transpose(rho, labels)


def _partial_transpose(rho: Mstate, labels: tuple[str, ...]) -> np.ndarray:
    """`partial_transpose` of a nonempty group that `check_groups` has
    already returned for ``rho``'s layout."""
    n = len(rho.layout.parties)
    t = _tensor_view(rho.matrix, rho.layout.dims)
    for l in labels:
        i = rho.layout.index(l)
        t = np.swapaxes(t, i, n + i)
    d = rho.layout.total_dim
    return np.ascontiguousarray(t.reshape(d, d))


def permute_parties(state, order) -> Mstate:
    """Reorder parties to the given label sequence (a permutation), by
    `_relaid`.  The identity order returns ``state`` itself."""
    labels = as_labels(order)
    if sorted(labels) != sorted(state.layout.labels):
        raise InvalidArgument(
            f"permute_parties: {labels} is not a permutation of {state.layout.labels}"
        )
    if labels == state.layout.labels:
        return state
    perm = [state.layout.index(l) for l in labels]
    return _relaid(state, SystemLayout(tuple(state.layout.parties[i] for i in perm)), perm)


def fresh_label(labels: tuple[str, ...], base: str) -> str:
    """``base`` with primes appended until none of ``labels`` is it."""
    label = base
    while label in labels:
        label += "'"
    return label


def merge_groups(rho: Mstate, groups) -> tuple[Mstate, tuple[str, ...]]:
    """Permute ``rho`` so the groups (which must cover its layout) are
    contiguous and merge each multi-party group into a single composite
    party, in one `_relaid` copy, so a `PureState` stays one.  Returns the
    merged state and the per-group labels: a composite is named ``(B+C)``
    after its parties, primed (`fresh_label`) past every label of ``rho``
    and every earlier composite.  When every group is one label, the state
    is the permuted one: ``rho`` itself in layout order."""
    return _merged(rho, check_group_cover(rho.layout, *groups))


def _merged(rho: Mstate, groups) -> tuple[Mstate, tuple[str, ...]]:
    """`merge_groups` of groups that `check_group_cover` has already
    returned for ``rho``'s layout."""
    order = [l for g in groups for l in g]
    if len(order) == len(groups):
        return permute_parties(rho, order), tuple(order)
    new_parties: list[tuple[str, int]] = []
    new_labels: list[str] = []
    for g in groups:
        dim = rho.layout.group_dim(g)
        if len(g) == 1:
            label = g[0]
        else:
            taken = rho.layout.labels + tuple(new_labels)
            label = fresh_label(taken, "(" + "+".join(g) + ")")
        new_parties.append((label, dim))
        new_labels.append(label)
    perm = [rho.layout.index(l) for l in order]
    return _relaid(rho, SystemLayout(tuple(new_parties)), perm), tuple(new_labels)


def _purification(rho: Mstate) -> np.ndarray:
    """`purify`'s amplitudes as a (d, ancilla) matrix, on no layout: a
    purification can pass the dimension cap (a 64-dimensional pure state
    has a 128-dimensional one), so the steering searches read it bare."""
    w, v = np.linalg.eigh(rho.matrix)
    w, v = w[::-1], v[:, ::-1]
    rank = max(int(np.sum(w > ZERO)), 1)
    psi = np.zeros((rho.layout.total_dim, max(rank, 2)), dtype=np.complex128)
    psi[:, :rank] = np.sqrt(np.maximum(w[:rank], 0.0)) * v[:, :rank]
    psi /= np.linalg.norm(psi)
    return psi


def purify(rho: Mstate, ancilla_label: str) -> PureState:
    """Purification with the smallest usable ancilla.

    Ancilla dimension = number of eigenvalues above 1e-12, padded to at least
    2. Ancilla basis order follows descending eigenvalues, so a pure input
    returns (input) x |0>. Deterministic. The ancilla is appended last, and
    the purification is a state like any other: above the cap it raises
    ``DimensionTooLarge``.
    """
    psi = _purification(rho)
    layout = SystemLayout(rho.layout.parties + ((ancilla_label, psi.shape[1]),))
    return PureState(layout, psi.reshape(-1))


# ---------------------------------------------------------------------------
# presets


def _pure(labels_dims, amps) -> PureState:
    return PureState(SystemLayout(tuple(labels_dims)), np.asarray(amps, dtype=np.complex128))


def _preset_ghz(params):
    if params:
        raise InvalidPreset("ghz: takes no params")
    v = np.zeros(8)
    v[0] = v[7] = 1 / math.sqrt(2)
    return _pure((("A", 2), ("B", 2), ("C", 2)), v)


def _preset_w(params):
    if params:
        raise InvalidPreset("w: takes no params")
    v = np.zeros(8)
    v[1] = v[2] = v[4] = 1 / math.sqrt(3)
    return _pure((("A", 2), ("B", 2), ("C", 2)), v)


def _preset_bell(params):
    if params:
        raise InvalidPreset("bell: takes no params")
    v = np.zeros(4)
    v[0] = v[3] = 1 / math.sqrt(2)
    return _pure((("A", 2), ("B", 2)), v)


def family15_bob_states(c: float) -> list[np.ndarray]:
    """The four conditional single-qubit vectors keyed by (a, c) = 00,10,01,11."""
    s = math.sqrt(1.0 - c * c)
    ket0 = np.array([1.0, 0.0], dtype=np.complex128)
    ket1 = np.array([0.0, 1.0], dtype=np.complex128)
    psi = np.array([c, s], dtype=np.complex128)
    psi_perp = np.array([s, -c], dtype=np.complex128)
    return [ket0, ket1, psi, psi_perp]


def _preset_family15(params):
    if len(params) != 1:
        raise InvalidPreset("family15: expected exactly one param (the overlap c)")
    c = float(params[0])
    if not (0.0 < c < 1.0):
        raise InvalidPreset(f"family15: overlap must lie strictly inside (0, 1), got {c}")
    bob = family15_bob_states(c)
    layout = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
    m = np.zeros((8, 8), dtype=np.complex128)
    # branch (a, cbit) -> Bob holds bob[index]; A and C are classical flags
    for idx, (a, cbit) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        va = np.zeros(2); va[a] = 1.0
        vc = np.zeros(2); vc[cbit] = 1.0
        vec = np.kron(va, np.kron(bob[idx], vc))
        m += 0.25 * np.outer(vec, vec.conj())
    return Mstate(layout, m)


def _preset_product_eq10(params):
    if len(params) > 1:
        raise InvalidPreset("product_eq10: at most one param (isotropic weight p)")
    p = float(params[0]) if params else 1.0
    if not (0.0 <= p <= 1.0):
        raise InvalidPreset(f"product_eq10: weight must lie in [0, 1], got {p}")
    bell = np.zeros(4); bell[0] = bell[3] = 1 / math.sqrt(2)
    bell_dm = np.outer(bell, bell)
    mixed = p * bell_dm + (1.0 - p) * np.eye(4) / 4.0
    left = Mstate(SystemLayout((("A", 2), ("B1", 2))), bell_dm)
    right = Mstate(SystemLayout((("B2", 2), ("C", 2))), mixed)
    return tensor(left, right)


def _preset_classical_classical(params):
    if params and len(params) != 4:
        raise InvalidPreset("classical_classical: expected 4 joint probabilities")
    p = np.asarray(params if params else [0.5, 0.0, 0.0, 0.5], dtype=np.float64)
    if np.min(p) < -ZERO or abs(p.sum() - 1.0) > SLACK:
        raise InvalidPreset("classical_classical: params must be probabilities summing to 1")
    return Mstate(SystemLayout((("A", 2), ("B", 2))), np.diag(p.astype(np.complex128)))


def _preset_max_correlated(params):
    if not params:
        raise InvalidPreset("max_correlated: expected flattened re/im coefficient pairs")
    flat = np.asarray(params, dtype=np.float64)
    if flat.size % 2 != 0:
        raise InvalidPreset("max_correlated: params must come in re/im pairs")
    n2 = flat.size // 2
    m = int(round(math.sqrt(n2)))
    if m * m != n2 or m < 2:
        raise InvalidPreset(f"max_correlated: {n2} coefficients do not form an mxm matrix, m>=2")
    a = (flat[0::2] + 1j * flat[1::2]).reshape(m, m)
    if np.max(np.abs(a - a.conj().T)) > SLACK:
        raise InvalidPreset("max_correlated: coefficient matrix is not Hermitian")
    if abs(np.trace(a).real - 1.0) > SLACK:
        raise InvalidPreset("max_correlated: coefficient matrix trace is not 1")
    if np.linalg.eigvalsh(a)[0] < -SLACK:
        raise InvalidPreset("max_correlated: coefficient matrix is not PSD")
    layout = SystemLayout((("X", m), ("Z", m)))  # the cap, before allocating
    d = m * m
    rho = np.zeros((d, d), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            rho[i * m + i, j * m + j] = a[i, j]
    return Mstate(layout, rho)


_PRESETS = {
    "ghz": _preset_ghz,
    "w": _preset_w,
    "bell": _preset_bell,
    "family15": _preset_family15,
    "product_eq10": _preset_product_eq10,
    "classical_classical": _preset_classical_classical,
    "max_correlated": _preset_max_correlated,
}


def preset(name: str, params=()) -> Mstate:
    """Construct a named preset state; see _PRESETS for the catalogue.
    ``params`` must be finite numbers."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise InvalidPreset(f"unknown preset {name!r}; known: {sorted(_PRESETS)}")
    try:
        params = tuple(float(p) for p in params)
    except (TypeError, ValueError):
        raise InvalidPreset(f"preset {name}: params must be numbers, got {params!r}") from None
    if not all(map(math.isfinite, params)):
        raise InvalidPreset(f"preset {name}: params must be finite, got {params}")
    return _PRESETS[name](params)


# ---------------------------------------------------------------------------
# seeded random states (used by the verify suites and tests)


def random_pure_state(parties, seed) -> PureState:
    layout = parties if isinstance(parties, SystemLayout) else SystemLayout(tuple(parties))
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(layout, v / np.linalg.norm(v))


def random_mixed_state(parties, seed, rank: int | None = None) -> Mstate:
    layout = parties if isinstance(parties, SystemLayout) else SystemLayout(tuple(parties))
    d = layout.total_dim
    r = d if rank is None else int(rank)
    if not (1 <= r <= d):
        raise InvalidArgument(f"random_mixed_state: rank must be in [1, {d}], got {r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return Mstate(layout, m / np.trace(m).real)


# ---------------------------------------------------------------------------
# state files


def _file_layout(doc) -> SystemLayout:
    parties = doc.get("parties")
    if not isinstance(parties, list) or not parties:
        raise StateFileError("parties: required, must be a non-empty list")
    out = []
    for i, entry in enumerate(parties):
        if not isinstance(entry, dict):
            raise StateFileError(f"parties[{i}]: must be an object with label and dim")
        label = entry.get("label")
        dim = entry.get("dim")
        if not isinstance(label, str) or not label:
            raise StateFileError(f"parties[{i}].label: must be a non-empty string")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
            raise StateFileError(f"parties[{i}].dim: must be an integer >= 2")
        out.append((label, dim))
    try:
        return SystemLayout(tuple(out))
    except DuplicateParty as exc:
        raise StateFileError(f"parties: {exc}") from exc


def _file_complex_pairs(raw, where: str, count: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != count:
        raise StateFileError(f"{where}: expected a list of {count} [re, im] pairs")
    # one pass when every entry is a [re, im] list (isinstance, in C) of
    # finite numbers: NumPy reads each number by float(), and re + 1j * im
    # is the loop's complex, bit for bit.  Otherwise the loop names the
    # first bad entry
    if all(map(list.__instancecheck__, raw)) and set(map(len, raw)) == {2}:
        try:
            flat = np.fromiter(itertools.chain.from_iterable(raw), np.float64, 2 * count)
        except (TypeError, ValueError, OverflowError):
            flat = None
        if flat is not None and np.isfinite(flat).all():
            return flat[0::2] + 1j * flat[1::2]
    flat = np.empty(count, dtype=np.complex128)
    for i, pair in enumerate(raw):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise StateFileError(f"{where}[{i}]: expected [re, im]")
        try:
            flat[i] = float(pair[0]) + 1j * float(pair[1])
        except (TypeError, ValueError):
            raise StateFileError(f"{where}[{i}]: entries must be numbers")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        i = int(bad[0])
        raise StateFileError(f"{where}[{i}]: entries must be finite, got {raw[i]}")
    return flat


def state_from_dict(doc: dict) -> Mstate:
    """Build a state from a parsed state-file document."""
    if not isinstance(doc, dict):
        raise StateFileError("document: must be a JSON object")
    bodies = [k for k in ("matrix", "ensemble", "preset") if k in doc]
    if len(bodies) != 1:
        raise StateFileError(
            f"document: exactly one of matrix | ensemble | preset required, got {bodies}"
        )
    kind = bodies[0]

    if kind == "preset":
        spec = doc["preset"]
        if not isinstance(spec, dict) or "name" not in spec:
            raise StateFileError("preset: must be an object with a name")
        params = spec.get("params", [])
        if not isinstance(params, list):
            raise StateFileError("preset.params: must be a list")
        try:
            state = preset(spec["name"], params)
        except InvalidPreset as exc:
            raise StateFileError(f"preset: {exc}") from exc
        if "parties" in doc:
            layout = _file_layout(doc)
            if layout.dims != state.layout.dims:
                raise StateFileError(
                    f"parties: dims {layout.dims} do not match preset dims {state.layout.dims}"
                )
            state = _relaid(state, layout)
        return state

    layout = _file_layout(doc)
    d = layout.total_dim

    if kind == "matrix":
        flat = _file_complex_pairs(doc["matrix"], "matrix", d * d)
        try:
            return Mstate(layout, flat.reshape(d, d))
        except (InvalidMatrix, NotPSD) as exc:
            raise StateFileError(f"matrix: {exc}") from exc

    ens = doc["ensemble"]
    if not isinstance(ens, dict):
        raise StateFileError("ensemble: must be an object with weights and vectors")
    weights = ens.get("weights")
    vectors = ens.get("vectors")
    if not isinstance(weights, list) or not weights:
        raise StateFileError("ensemble.weights: required, non-empty list")
    if not isinstance(vectors, list) or len(vectors) != len(weights):
        raise StateFileError("ensemble.vectors: must match weights in length")
    acc = np.zeros((d, d), dtype=np.complex128)
    total = 0.0
    for i, (w, vec) in enumerate(zip(weights, vectors)):
        try:
            w = float(w)
        except (TypeError, ValueError):
            raise StateFileError(f"ensemble.weights[{i}]: must be a number")
        if not math.isfinite(w):
            raise StateFileError(f"ensemble.weights[{i}]: must be finite, got {w}")
        if w < -ZERO:
            raise StateFileError(f"ensemble.weights[{i}]: negative weight {w}")
        v = _file_complex_pairs(vec, f"ensemble.vectors[{i}]", d)
        n = np.linalg.norm(v)
        if n < ZERO:
            raise StateFileError(f"ensemble.vectors[{i}]: zero vector")
        v = v / n
        acc += w * np.outer(v, v.conj())
        total += w
    if abs(total - 1.0) > SLACK:
        raise StateFileError(f"ensemble.weights: sum to {total:.12g}, not 1")
    try:
        return Mstate(layout, acc)
    except (InvalidMatrix, NotPSD) as exc:
        raise StateFileError(f"ensemble: {exc}") from exc


def load_state_file(path) -> Mstate:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"file: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"file: {path} is not valid JSON ({exc})") from exc
    return state_from_dict(doc)
