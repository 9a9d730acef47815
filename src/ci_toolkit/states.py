"""Multipartite states over labeled parties.

A state lives on a `SystemLayout`: an ordered tuple of (label, dim) parties,
leftmost party most significant in the flat index (row-major, matching
`np.kron`). Density operators are `Mstate`, pure vectors `PureState`,
weighted collections `Ensemble`.

Each state is derived once. An `Mstate` keeps the spectrum its PSD check
computes, in the form the entropy kernel in `info` reads it, so no entropy
diagonalizes a state's matrix again. `partial_trace` keeps each reduction
on the state it came from, keyed by the set of dropped labels, so asking
for the same marginal twice builds it once. The party-group checks run on
every call, before that lookup. A `PureState` builds its density operator
once, on the first `to_mstate()`.

The JSON state-file format consumed by the CLI is defined by
`load_state_file` / `state_from_dict` at the bottom of this module.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

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

DEFAULT_DIM_CAP = 64


def dimension_cap() -> int:
    """Current total-dimension cap (env CI_TOOLKIT_DIM_CAP, default 64)."""
    raw = os.environ.get("CI_TOOLKIT_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidArgument(f"CI_TOOLKIT_DIM_CAP must be an integer, got {raw!r}")
    if cap < 2:
        raise InvalidArgument(f"CI_TOOLKIT_DIM_CAP must be >= 2, got {cap}")
    return cap


def check_dimension_cap(total_dim: int, context: str = "state") -> None:
    cap = dimension_cap()
    if total_dim > cap:
        raise DimensionTooLarge(
            f"{context}: total dimension {total_dim} exceeds cap {cap} "
            f"(override with CI_TOOLKIT_DIM_CAP)"
        )


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
    """Ordered parties (label, dim); labels unique, every dim >= 2."""

    parties: tuple[tuple[str, int], ...]

    def __post_init__(self):
        parties = tuple((str(l), int(d)) for l, d in self.parties)
        object.__setattr__(self, "parties", parties)
        seen = set()
        for label, dim in parties:
            if label in seen:
                raise DuplicateParty(f"duplicate party label {label!r}")
            seen.add(label)
            if dim < 2:
                raise InvalidArgument(f"party {label!r}: dim must be >= 2, got {dim}")

    # cached: every party-group check reads the labels
    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.parties)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.parties)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

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


def measured_label(layout: SystemLayout, group) -> str:
    """The one label of a measured ``group``, checked against ``layout``.
    Measurements act on a single party, so a composite must be merged
    first (`merge_groups`)."""
    (labels,) = check_groups(layout, group)
    if len(labels) != 1:
        raise LayoutMismatch("the measured party must be a single label; merge first")
    return labels[0]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.complex128, copy=True)
    a.setflags(write=False)
    return a


def _read_diagonal(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of a (..., n, n) stack and, for each matrix, whether it
    reads as diagonal: every off-diagonal entry is at most DIAG times its
    largest diagonal entry.  The rule is decided per matrix, so a matrix's
    reading never depends on the others in its stack; it is the entropy
    kernel's rule, shared with `Mstate` so a stored spectrum is what the
    kernel would compute."""
    n = mats.shape[-1]
    diag = mats.diagonal(0, -2, -1).real
    offdiag = np.abs(mats.reshape(mats.shape[:-2] + (n * n,)))
    offdiag[..., :: n + 1] = 0.0
    if mats.ndim > 2 and n > 1 and diag.size:
        # an entry (0, 1) above DIAG times the stack's largest diagonal entry
        # rules its matrix out; when that rules out every matrix, as in a
        # poll's generic blocks, the reductions per matrix are skipped
        out = offdiag[..., 1] > DIAG * diag.max()
        if out.all():
            return diag, ~out
    return diag, offdiag.max(axis=-1) <= DIAG * diag.max(axis=-1)


@dataclass(frozen=True)
class Mstate:
    """Density operator on a layout.

    Validated on construction: square matrix of the layout's total dimension,
    Hermitian within 1e-10, unit trace within 1e-10, eigenvalues >= -1e-10.
    A reduction made by `partial_trace` may go lower by what its parent's
    own smallest eigenvalue allows (see there), and a copy that permutes or
    merges parties allows the smallest eigenvalue of the state it copies.

    ``spectrum`` is stored from that check: the diagonal when the matrix
    reads as diagonal (`_read_diagonal`), otherwise the ascending
    `eigvalsh` values.  It is exactly what the entropy kernel computes from
    ``matrix``, so `info.vn_entropy` reads it instead of diagonalizing again.
    The reductions `partial_trace` makes of the state are kept with it.
    """

    layout: SystemLayout
    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _reductions: dict = field(init=False, repr=False, compare=False)
    # eigenvalue allowance past -VALIDATE; only `partial_trace` and the
    # party-reordering copies set it
    _psd_slack: float = field(default=0.0, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.layout.total_dim
        if m.shape != (d, d):
            raise InvalidMatrix(
                f"Mstate: matrix shape {m.shape} does not match layout dimension {d}"
            )
        # each check is written so that a NaN anywhere fails it
        if not np.abs(m - m.conj().T).max() <= VALIDATE:
            raise InvalidMatrix(f"Mstate: matrix is not Hermitian within {VALIDATE:g}")
        tr = m.trace()
        if not abs(tr - 1.0) <= VALIDATE:
            raise InvalidMatrix(f"Mstate: trace {tr:.12g} is not 1 within {VALIDATE:g}")
        m = _freeze(m)
        w = np.linalg.eigvalsh(m)
        floor = VALIDATE + self._psd_slack
        if not w[0] >= -floor:
            raise NotPSD(f"Mstate: eigenvalue {w[0]:.3e} below -{floor:g}")
        diag, flat = _read_diagonal(m)
        spectrum = diag if flat else w
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "_reductions", {})

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def to_mstate(self) -> Mstate:
        return self


@dataclass(frozen=True)
class PureState:
    """Unit vector on a layout (norm within 1e-12 of 1).

    Its density operator is built on the first `to_mstate()` and kept, so
    every later call returns the same `Mstate`.
    """

    layout: SystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if v.shape != (self.layout.total_dim,):
            raise InvalidMatrix(
                f"PureState: vector length {v.shape[0]} does not match layout "
                f"dimension {self.layout.total_dim}"
            )
        if not abs(np.linalg.norm(v) - 1.0) <= ZERO:
            raise InvalidMatrix(f"PureState: vector is not normalized within {ZERO:g}")
        object.__setattr__(self, "amplitudes", _freeze(v))

    @cached_property
    def _density(self) -> Mstate:
        v = self.amplitudes
        return Mstate(self.layout, np.outer(v, v.conj()))

    def to_mstate(self) -> Mstate:
        return self._density


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
            acc += w * m.to_mstate().matrix
        return Mstate(self.layout, acc)


# ---------------------------------------------------------------------------
# structural operations


def tensor(a: Mstate, b: Mstate) -> Mstate:
    """Tensor product; b's parties are appended after a's."""
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise DuplicateParty(f"tensor: labels {sorted(overlap)} appear on both factors")
    layout = SystemLayout(a.layout.parties + b.layout.parties)
    return Mstate(layout, np.kron(a.matrix, b.matrix))


def _tensor_view(matrix: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    return matrix.reshape(*dims, *dims)


def partial_trace(rho: Mstate, discard) -> Mstate:
    """Trace out the listed parties; the kept parties keep their order.

    The group checks run on every call.  The reduction is then kept on
    ``rho``, keyed by the set of dropped labels, and a later call for the
    same set returns the same object.  Parties are traced in layout order,
    whatever order ``discard`` names them in.

    The reduction's PSD check allows eigenvalues down to -(VALIDATE +
    d_dropped * max(0, -lambda_min(rho))), lambda_min read from ``rho``'s
    stored spectrum: tracing out d_dropped dimensions can scale a negative
    eigenvalue that ``rho``'s own check accepted by up to d_dropped.  For a
    PSD ``rho`` that is the plain -VALIDATE check.
    """
    drop = as_labels(discard)
    if not drop:
        raise InvalidArgument("partial_trace: nothing to discard")
    check_groups(rho.layout, drop)
    if len(drop) == len(rho.layout.parties):
        raise InvalidArgument("partial_trace: cannot discard every party")
    key = frozenset(drop)
    reduced = rho._reductions.get(key)
    if reduced is None:
        reduced = _reduce(rho, key)
        rho._reductions[key] = reduced
    return reduced


def _reduce(rho: Mstate, drop: frozenset) -> Mstate:
    dims = list(rho.layout.dims)
    t = _tensor_view(rho.matrix, tuple(dims))
    labels = list(rho.layout.labels)
    dropped = 1
    for l in rho.layout.labels:
        if l in drop:
            i = labels.index(l)
            t = np.trace(t, axis1=i, axis2=len(labels) + i)
            dropped *= dims[i]
            labels.pop(i)
            dims.pop(i)
    d = math.prod(dims)
    layout = SystemLayout(tuple(zip(labels, dims)))
    return Mstate(layout, t.reshape(d, d), _psd_slack=dropped * _slack_of(rho))


def _slack_of(rho: Mstate) -> float:
    return max(0.0, -float(rho.spectrum.min()))


def _relaid(rho: Mstate, layout: SystemLayout, matrix: np.ndarray) -> Mstate:
    """``rho``'s operator on a new layout or party order.  Its eigenvalues
    are ``rho``'s, so its PSD check allows ``rho``'s smallest one."""
    return Mstate(layout, matrix, _psd_slack=_slack_of(rho))


def partial_transpose(rho: Mstate, parties) -> np.ndarray:
    """Transpose the listed parties' indices; returns a plain matrix (not a
    state — the result is generally not PSD)."""
    labels = as_labels(parties)
    if not labels:
        raise InvalidArgument("partial_transpose: nothing to transpose")
    check_groups(rho.layout, labels)
    n = len(rho.layout.parties)
    t = _tensor_view(rho.matrix, rho.layout.dims)
    for l in labels:
        i = rho.layout.index(l)
        t = np.swapaxes(t, i, n + i)
    d = rho.layout.total_dim
    return np.ascontiguousarray(t.reshape(d, d))


def permute_parties(state, order) -> Mstate | PureState:
    """Reorder parties to the given label sequence (a permutation).  The
    identity order returns ``state`` itself."""
    labels = as_labels(order)
    if sorted(labels) != sorted(state.layout.labels):
        raise InvalidArgument(
            f"permute_parties: {labels} is not a permutation of {state.layout.labels}"
        )
    if labels == state.layout.labels:
        return state
    perm = [state.layout.index(l) for l in labels]
    dims = state.layout.dims
    new_layout = SystemLayout(tuple(state.layout.parties[i] for i in perm))
    if isinstance(state, PureState):
        v = state.amplitudes.reshape(dims).transpose(perm).reshape(-1)
        return PureState(new_layout, v)
    n = len(dims)
    t = _tensor_view(state.matrix, dims).transpose(perm + [n + i for i in perm])
    d = state.layout.total_dim
    return _relaid(state, new_layout, t.reshape(d, d))


def merge_parties(state, labels, new_label: str) -> Mstate | PureState:
    """Relabel a contiguous run of parties as one composite party.

    The run must be contiguous in layout order (permute first if not); the
    flat index is unchanged, so no data moves.
    """
    group = as_labels(labels)
    if len(group) == 0:
        raise InvalidArgument("merge_parties: empty group")
    idx = [state.layout.index(l) for l in group]
    if idx != list(range(idx[0], idx[0] + len(idx))):
        raise InvalidArgument(
            f"merge_parties: {group} is not a contiguous run in {state.layout.labels}"
        )
    others = [l for l in state.layout.labels if l not in group]
    if new_label in others:
        raise DuplicateParty(f"merge_parties: label {new_label!r} already present")
    dim = state.layout.group_dim(group)
    parties = (
        state.layout.parties[: idx[0]]
        + ((new_label, dim),)
        + state.layout.parties[idx[0] + len(idx):]
    )
    layout = SystemLayout(parties)
    if isinstance(state, PureState):
        return PureState(layout, state.amplitudes)
    return _relaid(state, layout, state.matrix)


def fresh_label(layout: SystemLayout, base: str) -> str:
    """``base`` with primes appended until no party of ``layout`` has it."""
    label = base
    while label in layout.labels:
        label += "'"
    return label


def merge_groups(rho: Mstate, groups) -> tuple[Mstate, tuple[str, ...]]:
    """Permute ``rho`` so the groups (which must cover its layout) are
    contiguous and merge each multi-party group into a single composite
    party.  Returns the merged state and the per-group labels (composites get
    a synthesized parenthesized name).  When every group is one label, the
    state is the permuted one: ``rho`` itself in layout order."""
    groups = check_group_cover(rho.layout, *groups)
    order = [l for g in groups for l in g]
    state = permute_parties(rho, order)
    if len(order) == len(groups):
        return state, tuple(order)
    new_parties: list[tuple[str, int]] = []
    new_labels: list[str] = []
    for g in groups:
        dim = state.layout.group_dim(g)
        if len(g) == 1:
            label = g[0]
        else:
            label = "(" + "+".join(g) + ")"
            while any(label == l for l in new_labels) or label in rho.layout.labels:
                label += "'"
        new_parties.append((label, dim))
        new_labels.append(label)
    merged = _relaid(state, SystemLayout(tuple(new_parties)), state.matrix)
    return merged, tuple(new_labels)


def purify(rho: Mstate, ancilla_label: str) -> PureState:
    """Purification with the smallest usable ancilla.

    Ancilla dimension = number of eigenvalues above 1e-12, padded to at least
    2. Ancilla basis order follows descending eigenvalues, so a pure input
    returns (input) x |0>. Deterministic. The ancilla is appended last.
    """
    if ancilla_label in rho.layout.labels:
        raise DuplicateParty(f"purify: ancilla label {ancilla_label!r} already present")
    w, v = np.linalg.eigh(rho.matrix)
    w, v = w[::-1], v[:, ::-1]
    rank = max(int(np.sum(w > ZERO)), 1)
    anc = max(rank, 2)
    d = rho.layout.total_dim
    psi = np.zeros((d, anc), dtype=np.complex128)
    for k in range(rank):
        psi[:, k] = math.sqrt(max(w[k], 0.0)) * v[:, k]
    psi /= np.linalg.norm(psi)
    layout = SystemLayout(rho.layout.parties + ((ancilla_label, anc),))
    return PureState(layout, psi.reshape(-1))


# ---------------------------------------------------------------------------
# presets

_QUBIT = np.eye(2, dtype=np.complex128)


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
    d = m * m
    rho = np.zeros((d, d), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            rho[i * m + i, j * m + j] = a[i, j]
    return Mstate(SystemLayout((("X", m), ("Z", m))), rho)


_PRESETS = {
    "ghz": _preset_ghz,
    "w": _preset_w,
    "bell": _preset_bell,
    "family15": _preset_family15,
    "product_eq10": _preset_product_eq10,
    "classical_classical": _preset_classical_classical,
    "max_correlated": _preset_max_correlated,
}


def preset(name: str, params=()) -> Mstate | PureState:
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
    state = _PRESETS[name](params)
    check_dimension_cap(state.layout.total_dim, f"preset {name}")
    return state


# ---------------------------------------------------------------------------
# seeded random states (used by the verify suites and tests)


def random_pure_state(parties, seed) -> PureState:
    layout = parties if isinstance(parties, SystemLayout) else SystemLayout(tuple(parties))
    check_dimension_cap(layout.total_dim, "random_pure_state")
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(layout, v / np.linalg.norm(v))


def random_mixed_state(parties, seed, rank: int | None = None) -> Mstate:
    layout = parties if isinstance(parties, SystemLayout) else SystemLayout(tuple(parties))
    check_dimension_cap(layout.total_dim, "random_mixed_state")
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


def state_from_dict(doc: dict) -> Mstate | PureState:
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
            if isinstance(state, PureState):
                state = PureState(layout, state.amplitudes)
            else:
                state = Mstate(layout, state.matrix)
        return state

    layout = _file_layout(doc)
    check_dimension_cap(layout.total_dim, "state file")
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


def load_state_file(path) -> Mstate | PureState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"file: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"file: {path} is not valid JSON ({exc})") from exc
    return state_from_dict(doc)
