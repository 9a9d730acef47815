"""Bounds on concentrated information and the protocols that witness them.

The central quantity is the mutual information between a reference party
and the rest of the system that survives after the helpers concentrate
their share by local operations and classical communication.  Exact values
are out of reach in general; this module brackets them:

* `ci_lower` / `ci_upper` bracket the unrestricted (two-way) quantity,
* `one_way_ci` (in `measures`) estimates the best single round of
  measure-and-announce, and `oneway_ci_upper` caps it from above,
* closed forms cover pure global states, product states with a pure
  entangled factor, and the many-copy rate,
* `family15_*` builds the classical-flag family whose two-round protocol
  provably beats every single round, and checks the separation numerically,
* `dilated_protocol_state` embeds a measurement step into an isometry so
  information balance can be audited as a conditional mutual information.

Every optimized number carries its direction of error, by the one rule of
`MeasureEstimate`; every closed form is exact up to eigensolver accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    InternalInvariantError,
    InvalidArgument,
    NotPure,
    NotRankOne,
    ShapeMismatch,
)
from .info import (
    Partition,
    _conditional_entropy,
    _mutual_info,
    mutual_info,
    trace_distance,
    vn_entropy,
)
from .measures import (
    Bracket,
    MeasureEstimate,
    _discord,
    _ed_interval,
    _flag_info,
    _log_negativity,
    _off_block_max,
    _one_way_search,
    _steered_entanglement,
    discord,
    measure_ensemble,
)
from .optim import (
    OptimizerConfig,
    Povm,
    haar_unitary,
    rank1_povm,
)
from .states import (
    Mstate,
    SystemLayout,
    _marginal,
    _merged,
    _relaid,
    check_group_cover,
    check_groups,
    default_groups,
    family15_bob_states,
    fresh_label,
    marginal,
    measured_label,
    merge_groups,
    permute_parties,
    preset,
    tensor,
)
from .tolerances import SLACK, VALIDATE, ZERO


def resolve_tripartite(
    layout: SystemLayout,
    alice: str | Sequence[str] | None = None,
    bob: str | Sequence[str] | None = None,
    charlie: str | Sequence[str] | None = None,
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Resolve the (reference, helper, receiver) grouping.

    Defaults follow position (`default_groups`): first party is the
    reference, second the helper, everything else the receiver.  The groups
    must be nonempty, disjoint and jointly cover the layout.
    """
    return check_group_cover(layout, *default_groups(layout, alice, bob, charlie))


def _require_pure(rho: Mstate) -> None:
    if rho.purity() < 1.0 - SLACK:
        raise NotPure(
            f"global state has purity {rho.purity():.9f}; this quantity "
            "is only defined for pure inputs"
        )


# ---------------------------------------------------------------------------
# bound reports


@dataclass(frozen=True)
class BoundCandidate:
    """One competing bound with the name of the argument that produced it."""

    name: str
    value: float


@dataclass(frozen=True)
class CiReport:
    """Bracket on the concentrated information of one state.

    ``lower`` is achievable (largest of the candidate protocols), ``upper``
    is information-theoretic (smallest of the candidate caps); the source
    strings name the winning candidate on each side.
    """

    lower: float
    lower_source: str
    upper: float
    upper_source: str
    lower_candidates: tuple[BoundCandidate, ...]
    upper_candidates: tuple[BoundCandidate, ...]
    config: OptimizerConfig | None
    details: dict


def _upper_candidates(rho: Mstate, a, b, c, entropy):
    """The upper caps of `ci_upper` on the checked cover (a, b, c) of
    ``rho``'s layout; ``entropy`` maps a checked group to its entropy."""
    s_a = entropy(a)
    total = s_a + entropy(b + c) - vn_entropy(rho)
    ed = _ed_interval(rho, Partition(a + b, c), (entropy(a + b), entropy(c)))
    cands = (
        BoundCandidate("total-mutual-info", total),
        BoundCandidate("entropy-plus-distillable", s_a + ed.upper),
    )
    best = min(cands, key=lambda k: (k.value, k.name))
    detail = {"marginal_entropy": s_a, "ed_upper": ed.upper, "ed_exact": ed.exact}
    return best.value, best.name, cands, detail


def ci_upper(
    rho: Mstate,
    alice: str | Sequence[str] | None = None,
    bob: str | Sequence[str] | None = None,
    charlie: str | Sequence[str] | None = None,
) -> float:
    """Information-theoretic cap on the concentrated information: the total
    mutual information, or the reference entropy plus what is distillable
    across the receiver cut, whichever is smaller."""
    a, b, c = resolve_tripartite(rho.layout, alice, bob, charlie)
    return _upper_candidates(rho, a, b, c, lambda g: vn_entropy(_marginal(rho, g)))[0]


def ci_lower(
    rho: Mstate,
    alice: str | Sequence[str] | None = None,
    bob: str | Sequence[str] | None = None,
    charlie: str | Sequence[str] | None = None,
    config: OptimizerConfig | None = None,
) -> CiReport:
    """Achievable lower bound, reported next to the upper cap.

    Two candidate protocols compete: announce nothing (the bare
    reference-receiver mutual information) and the explicitly optimized
    one-round protocol.  The helper-side classical correlation
    I(A:B) - discord is no further candidate: it is the one-round value
    with the receiver ignored, and for every POVM data processing gives
    I(A:CR) >= I(A:R), so the optimized protocol already bounds it.  The
    report keeps both candidates; ``lower`` is their maximum.  The bracket
    invariant lower <= upper is enforced and its violation raises, since it
    would mean an implementation bug rather than a loose bound.

    Each group may name several parties; the helper's is measured as one
    composite party (`one_way_ci`).
    """
    a, b, c = resolve_tripartite(rho.layout, alice, bob, charlie)
    # the groups are checked once, above: what follows reduces by `_marginal`
    # and calls the searches and bounds past their own checks
    rho_ac = _marginal(rho, a + c)
    s_ac = vn_entropy(rho_ac)
    trivial = vn_entropy(_marginal(rho_ac, a)) + vn_entropy(_marginal(rho_ac, c)) - s_ac

    merged, (la, _, _) = _merged(rho, (a, b, c))
    ow = _one_way_search(merged, vn_entropy(_marginal(merged, (la,))), config)

    cands = (
        BoundCandidate("trivial-protocol", trivial),
        BoundCandidate("optimized-one-way", ow.value),
    )
    best = max(cands, key=lambda k: k.value)  # ties keep the earlier one

    upper, upper_source, upper_cands, detail = _upper_candidates(
        rho, a, b, c, lambda g: vn_entropy(_marginal(rho, g))
    )
    if best.value > upper + SLACK:
        raise InternalInvariantError(
            f"lower bound {best.value:.12g} exceeds upper bound {upper:.12g}"
        )
    detail = dict(detail)
    detail["one_way"] = ow
    return CiReport(
        lower=best.value,
        lower_source=best.name,
        upper=upper,
        upper_source=upper_source,
        lower_candidates=cands,
        upper_candidates=upper_cands,
        config=ow.config,
        details=detail,
    )


# ---------------------------------------------------------------------------
# closed forms for special state shapes


def ci_pure_oneway(
    state: Mstate,
    alice: str | Sequence[str] | None = None,
    bob: str | Sequence[str] | None = None,
    charlie: str | Sequence[str] | None = None,
    config: OptimizerConfig | None = None,
) -> MeasureEstimate:
    """One-round concentrated information of a globally pure state: the
    reference entropy plus the assisted entanglement the helper can steer
    into the reference-receiver pair.  The assisted term is variational,
    so the estimate errs downward."""
    _require_pure(state)
    a, b, c = resolve_tripartite(state.layout, alice, bob, charlie)
    s_a = vn_entropy(_marginal(state, a))
    rho_ac = _marginal(state, a + c)
    assisted = _steered_entanglement(rho_ac, a, config, "max")
    info = {"marginal_entropy": s_a, "assisted_entanglement": assisted.value}
    return assisted.derive(s_a + assisted.value, 1, **info)


def ci_pure_regularized(
    state: Mstate,
    alice: str | Sequence[str] | None = None,
    bob: str | Sequence[str] | None = None,
    charlie: str | Sequence[str] | None = None,
) -> float:
    """Many-copy rate of concentrated information for a pure global state:
    S(reference) plus the smaller of S(reference), S(receiver).  Exact."""
    _require_pure(state)
    a, b, c = resolve_tripartite(state.layout, alice, bob, charlie)
    s_a = vn_entropy(_marginal(state, a))
    s_c = vn_entropy(_marginal(state, c))
    return s_a + min(s_a, s_c)


def ci_product_regularized(
    rho: Mstate,
    alice: str | Sequence[str],
    bob_inner: str | Sequence[str],
    bob_outer: str | Sequence[str],
    charlie: str | Sequence[str],
) -> Bracket:
    """Many-copy rate for a state that factors as (reference, helper-inner)
    x (helper-outer, receiver) with the first factor pure.

    The rate is S(reference) + min{S(reference), E_d(helper-outer :
    receiver)}; the distillable term is bracketed by `ed_interval`, and the
    band collapses (``exact``) when that bracket does, or when the
    reference entropy is the smaller term on both ends.  Raises
    ``ShapeMismatch`` if the state does not factor, ``NotPure`` if the
    first factor is mixed.
    """
    a, b1, b2, c = check_group_cover(rho.layout, alice, bob_inner, bob_outer, charlie)
    ordered = permute_parties(rho, a + b1 + b2 + c)
    left = _marginal(ordered, a + b1)
    right = _marginal(ordered, b2 + c)
    residual = float(np.max(np.abs(np.kron(left.matrix, right.matrix) - ordered.matrix)))
    if residual > SLACK:
        raise ShapeMismatch(
            f"state does not factor across (reference, helper-inner) vs "
            f"(helper-outer, receiver); residual {residual:.3e}"
        )
    if left.purity() < 1.0 - SLACK:
        raise NotPure(
            f"the (reference, helper-inner) factor has purity {left.purity():.9f}, "
            "but the closed form needs it pure"
        )
    s_a = vn_entropy(_marginal(left, a))
    # the cut covers ``right``, so it is its own restriction
    sides = (vn_entropy(_marginal(right, b2)), vn_entropy(_marginal(right, c)))
    ed = _ed_interval(right, Partition(b2, c), sides)
    lo = s_a + min(s_a, ed.lower)
    hi = s_a + min(s_a, ed.upper)
    return Bracket(lo, hi, ed.exact or hi - lo <= ZERO)


def discord_via_ci(
    rho: Mstate,
    unmeasured: str | Sequence[str],
    measured: str | Sequence[str],
    config: OptimizerConfig | None = None,
) -> MeasureEstimate:
    """Discord computed through the concentration identity: append a trivial
    receiver, optimize the one-round protocol (which then equals the
    classical correlation), and subtract from the mutual information.
    Agrees with `measures.discord` up to optimizer convergence."""
    x, y = check_group_cover(rho.layout, unmeasured, measured)
    aux = fresh_label(rho.layout.labels, "C")
    vac = Mstate(
        SystemLayout(((aux, 2),)),
        np.diag([1.0, 0.0]).astype(complex),
    )
    merged, (la, _, _) = _merged(tensor(rho, vac), (x, y, (aux,)))
    ow = _one_way_search(merged, vn_entropy(_marginal(merged, (la,))), config)
    i_xy = _mutual_info(rho, x, y)
    return ow.derive(max(i_xy - ow.value, 0.0), -1, mutual_info=i_xy, one_way=ow.value)


# ---------------------------------------------------------------------------
# merging-fidelity corollaries


def lqsm_fidelity_lower(
    rho: Mstate,
    ci_value: float,
    alice: str | Sequence[str] | None = None,
) -> float:
    """Guaranteed state-merging fidelity from a concentrated-information
    value: 2^(-(I_total - ci)/2), where I_total is the mutual information
    between the reference and everyone else.  A non-finite ``ci_value``, or
    one above I_total (beyond 1e-9 slack), is rejected; the gap is floored
    at zero."""
    if not math.isfinite(ci_value):
        raise InvalidArgument(f"concentrated information must be finite, got {ci_value}")
    a, rest = check_groups(rho.layout, *default_groups(rho.layout, alice, None))
    total = _mutual_info(rho, a, rest)
    if ci_value > total + SLACK:
        raise InvalidArgument(
            f"concentrated information {ci_value:.12g} exceeds the total "
            f"mutual information {total:.12g}"
        )
    gap = max(total - ci_value, 0.0)
    return float(2.0 ** (-gap / 2.0))


def oneway_ci_upper(
    rho: Mstate,
    alice: str | Sequence[str] | None = None,
    bob: str | Sequence[str] | None = None,
    charlie: str | Sequence[str] | None = None,
    config: OptimizerConfig | None = None,
    *,
    discord_value: float | None = None,
) -> float:
    """Cap on every single-round protocol: total mutual information plus
    the helper-receiver mutual information, minus the discord seen by the
    helper's measurement.

    The discord term is the variational estimate (an over-estimate), so
    the printed cap can sit below the exact cap by the optimizer's
    convergence slack; pass ``discord_value`` to substitute an externally
    certified number.
    """
    a, b, c = resolve_tripartite(rho.layout, alice, bob, charlie)
    i_total = _mutual_info(rho, a, b + c)
    i_bc = _mutual_info(_marginal(rho, b + c), b, c)
    if discord_value is None:
        merged, _ = _merged(rho, (a + c, b))
        discord_value = _discord(merged, config).value
    return i_total + i_bc - float(discord_value)


class MergeFeasibility(NamedTuple):
    """Zero-communication merge test: feasible iff S(helper | receiver) <= 0."""

    feasible: bool
    conditional_entropy: float


def merge_conditional_entropy_check(
    rho: Mstate,
    bob: str | Sequence[str],
    charlie: str | Sequence[str],
) -> MergeFeasibility:
    """Whether the helper's share can be merged to the receiver at no
    communication cost: true iff the helper's entropy conditioned on the
    receiver is non-positive (within 1e-9).  Both groups must be nonempty
    and disjoint."""
    b, c = check_groups(rho.layout, bob, charlie)
    ce = _conditional_entropy(rho, b, c)
    return MergeFeasibility(ce <= SLACK, ce)


class MonotoneCheck(NamedTuple):
    """Necessary condition for concentrating by merging the helper into the
    receiver: entanglement across (reference,helper):receiver must not be
    smaller than across reference:(helper,receiver)."""

    helper_side: float
    reference_side: float
    passes: bool


def monotone_necessary_check(
    rho: Mstate,
    alice: str | Sequence[str] | None = None,
    bob: str | Sequence[str] | None = None,
    charlie: str | Sequence[str] | None = None,
) -> MonotoneCheck:
    a, b, c = resolve_tripartite(rho.layout, alice, bob, charlie)
    # each cut covers the layout, so neither traces anything out
    lhs = _log_negativity(rho, a + b)
    rhs = _log_negativity(rho, a)
    return MonotoneCheck(lhs, rhs, lhs >= rhs - SLACK)


# ---------------------------------------------------------------------------
# the classical-flag family and its two-round protocol


@dataclass(frozen=True)
class MergeOutcome:
    """Result of running an explicit multi-round concentration protocol."""

    achieved_mi: float
    rounds: int
    transcript: tuple[str, ...]
    final_state: Mstate


def family15_two_round_merge(c: float) -> MergeOutcome:
    """Run the two-round protocol on the classical-flag family state.

    Round 1: the receiver measures its flag qubit in the computational
    basis and announces the outcome z.  Round 2: the helper measures its
    qubit in the z-dependent orthonormal basis (computational for z=0, the
    tilted pair for z=1) and sends the outcome b, which the receiver
    records in a register.  The final reference : (receiver, register)
    mutual information is returned; for every overlap it reaches the full
    bit that no single round can extract.
    """
    rho = preset("family15", (c,))
    bob_vecs = family15_bob_states(c)
    flag_povm = rank1_povm(np.eye(2, dtype=complex), 2)
    round1 = measure_ensemble(rho, flag_povm, "C")

    bases = {
        0: np.array([bob_vecs[0], bob_vecs[1]]),
        1: np.array([bob_vecs[2], bob_vecs[3]]),
    }
    acc = np.zeros((8, 8), dtype=complex)
    for z, (pz, member) in enumerate(zip(round1.weights, round1.members)):
        helper_povm = rank1_povm(bases[z].astype(complex), 2)
        round2 = measure_ensemble(member, helper_povm, "B")
        for b, (qb, ref_state) in enumerate(zip(round2.weights, round2.members)):
            ez = np.zeros((2, 2)); ez[z, z] = 1.0
            eb = np.zeros((2, 2)); eb[b, b] = 1.0
            acc += float(pz) * float(qb) * np.kron(ref_state.matrix, np.kron(ez, eb))
    final = Mstate(SystemLayout((("A", 2), ("C", 2), ("R", 2))), acc)
    achieved = mutual_info(final, Partition("A", ("C", "R")))
    transcript = (
        "round 1: receiver measures its flag qubit in the computational basis "
        "and announces z",
        "round 2: helper measures its qubit in the z-dependent basis and sends "
        "the outcome b",
        "receiver stores b in register R",
    )
    return MergeOutcome(achieved, 2, transcript, final)


@dataclass(frozen=True)
class SeparationReport:
    """Numerical witness that two rounds beat every single round on the
    classical-flag family state."""

    c: float
    total_mi: float
    helper_receiver_mi: float
    receiver_pair_residual: float
    helper_discord: MeasureEstimate
    oneway_upper: float
    two_round_mi: float
    gap: float
    separated: bool


def family15_separation_report(
    c: float,
    config: OptimizerConfig | None = None,
) -> SeparationReport:
    """Compare the two-round protocol against the single-round cap on the
    classical-flag family state at overlap ``c``.

    ``separated`` is true when the two-round mutual information exceeds the
    one-round cap by more than 0.01 bits. The helper-receiver marginal is
    also checked against the maximally mixed two-qubit state (its residual
    is reported), since that is what forces round one to start at the
    receiver."""
    rho = preset("family15", (c,))
    bc = marginal(rho, ("B", "C"))
    iso = Mstate(bc.layout, np.eye(4, dtype=complex) / 4.0)
    residual = trace_distance(bc, iso)
    total = mutual_info(rho, Partition("A", ("B", "C")))
    i_bc = mutual_info(rho, Partition("B", "C"))
    disc = discord(rho, ("A", "C"), "B", config)
    upper = oneway_ci_upper(rho, config=config, discord_value=disc.value)
    outcome = family15_two_round_merge(c)
    gap = outcome.achieved_mi - upper
    return SeparationReport(
        c=c,
        total_mi=total,
        helper_receiver_mi=i_bc,
        receiver_pair_residual=residual,
        helper_discord=disc,
        oneway_upper=upper,
        two_round_mi=outcome.achieved_mi,
        gap=gap,
        separated=gap > 0.01,
    )


# ---------------------------------------------------------------------------
# discord additivity on classical-quantum states

# seeded random product measurements compared against the two-copy search
_PRODUCT_SAMPLES = 4


@dataclass(frozen=True)
class AdditivityCheck:
    """Single-copy vs two-copy discord of a classical-quantum state.

    ``deviation`` is double - 2*single (signed).  ``product_values`` are
    two-copy discords restricted to product measurements (the single-copy
    achiever paired with itself first, then seeded random products); the
    restricted optimum is their minimum, and pairing the achiever with
    itself pins it at exactly twice the single-copy value, which is the
    restriction cross-check callers should assert."""

    single: MeasureEstimate
    double: MeasureEstimate
    deviation: float
    product_values: tuple[float, ...]
    single_classical: float
    double_classical: float


def discord_additivity_check(
    rho: Mstate,
    unmeasured: str | Sequence[str],
    measured: str | Sequence[str],
    config: OptimizerConfig | None = None,
) -> AdditivityCheck:
    """Check discord additivity on two copies of a classical-quantum state.

    Requires the unmeasured side to be classical (block-diagonal) with pure
    conditional states on the measured side -- the shape for which two-copy
    additivity is the interesting question.  Either side may name several
    parties; each is merged into one.  The only size limit is the dimension
    cap on the two-copy state; its measured party of dimension d^2 is
    searched with d^4 outcomes.  Both optimizations run at a doubled
    restart ceiling (more restarts open only when the first eight
    disagree); the two-copy search is additionally warm-started at the
    single-copy achiever paired with itself, so the reported two-copy value
    is never worse than the product strategy it is compared against.
    """
    cfg = config or OptimizerConfig()
    merged, (lx, ly) = merge_groups(rho, (unmeasured, measured))
    dx, dy = merged.layout.dims
    t4 = merged.matrix.reshape(dx, dy, dx, dy)
    off = _off_block_max(t4)
    if off > SLACK:
        raise ShapeMismatch(
            f"unmeasured side is not classical: off-block coherences up to {off:.3e}"
        )
    for i in range(dx):
        block = t4[i, :, i, :]
        tr = float(np.real(np.trace(block)))
        if tr > ZERO:
            top = float(np.linalg.eigvalsh(block)[-1])
            if top < tr - SLACK:
                raise ShapeMismatch(
                    f"conditional state in classical branch {i} is not pure"
                )

    boosted = replace(cfg, restarts=2 * cfg.restarts)
    single = _discord(merged, boosted)

    # the two copies (X1, Y1, X2, Y2) as the pair (X1+X2, Y1+Y2), built once
    lxx, lyy = f"({lx}1+{lx}2)", f"({ly}1+{ly}2)"
    pair_layout = SystemLayout(((lxx, dx * dx), (lyy, dy * dy)))
    pair = _relaid(merged, pair_layout, (0, 2, 1, 3), copies=2)

    # single-copy POVMs have k1 = dy^2 outcomes; the pair's measured party
    # has dimension dy^2, so its search runs over k1^2 of them
    k1 = single.info["outcomes"]
    v1 = single.achiever.vectors
    warm = np.kron(v1, v1)
    double = _discord(pair, boosted, warm_starts=(warm,))

    # the product POVMs' classical correlations, as `povm_flag_mutual_info`
    # reads them
    i_double, s_xx = double.info["mutual_info"], vn_entropy(_marginal(pair, (lxx,)))
    product_values = [i_double - _flag_info(pair, rank1_povm(warm, dy * dy), lyy, s_xx)]
    seeds = np.random.SeedSequence([cfg.seed, 97]).generate_state(2 * _PRODUCT_SAMPLES)
    for j in range(_PRODUCT_SAMPLES):
        up = haar_unitary(k1, int(seeds[2 * j]))[:, :dy]
        uq = haar_unitary(k1, int(seeds[2 * j + 1]))[:, :dy]
        povm = rank1_povm(np.kron(up, uq), dy * dy)
        product_values.append(i_double - _flag_info(pair, povm, lyy, s_xx))

    return AdditivityCheck(
        single=single,
        double=double,
        deviation=double.value - 2.0 * single.value,
        product_values=tuple(product_values),
        single_classical=single.info["classical_correlation"],
        double_classical=double.info["classical_correlation"],
    )


# ---------------------------------------------------------------------------
# measurement dilation


def dilated_protocol_state(
    rho: Mstate,
    povm: Povm,
    bob: str = "B",
    register_label: str = "R",
    env_label: str = "E",
) -> Mstate:
    """Replace a rank-one measurement on ``bob`` by its isometric dilation.

    Bob's system is mapped through V|b> = sum_i conj(v_i[b]) |i>_{B'E}
    |i>_R, an isometry because sum_i v_i v_i^dag = I.  The outcome appears
    coherently twice: in a register R (dimension k, the number of
    outcomes) headed to the receiver, and in one environment copy held
    jointly by B' and E.  B' keeps Bob's label and dimension d, E has
    dimension e = max(2, ceil(k/d)), and copy index i sits at the flat
    B'(x)E position i (positions k .. d*e-1 stay empty).  R and E are
    appended after the existing parties.  Tracing out B' and E recovers
    the flagged post-measurement state exactly; quantities that treat B'
    and E jointly, such as I(A:B'E|CR), are those of any other dilation.

    A single-outcome POVM (necessarily the identity) dilates trivially to
    fresh two-dimensional registers in |0>.  Elements of rank above one
    raise ``NotRankOne``.  A register or environment label already present,
    or the two the same, raises ``DuplicateParty``, and a dilation above
    the dimension cap ``DimensionTooLarge``, before any array is built.
    """
    layout = rho.layout
    d = povm.party_dim
    bob = measured_label(layout, bob, d)
    k = len(povm)
    de = max(2, -(-k // d))
    # the output layout checks the labels and the cap before any array is
    # allocated
    out = SystemLayout(layout.parties + ((register_label, max(k, 2)), (env_label, de)))

    if k == 1:
        vac = np.diag([1.0, 0.0]).astype(complex)
        flagged = tensor(rho, Mstate(SystemLayout(((register_label, 2),)), vac))
        return tensor(flagged, Mstate(SystemLayout(((env_label, 2),)), vac))

    if povm.vectors is not None:
        vecs = np.asarray(povm.vectors)
    else:
        rows = []
        for i, e in enumerate(povm.elements):
            w, u = np.linalg.eigh(e)
            if w.shape[0] > 1 and w[-2] > VALIDATE:
                raise NotRankOne(f"POVM element {i} has rank above one")
            rows.append(math.sqrt(max(float(w[-1]), 0.0)) * u[:, -1])
        vecs = np.array(rows)

    # rows ordered (B', E, R); row (i, i) carries copy i
    w_iso = np.zeros((d * de, k, d), dtype=complex)
    w_iso[np.arange(k), np.arange(k)] = vecs.conj()
    w_iso = w_iso.reshape(d * de * k, d)

    idx = layout.index(bob)
    pre = math.prod(layout.dims[:idx])
    post = math.prod(layout.dims[idx + 1 :])
    left = w_iso @ rho.matrix.reshape(pre, d, -1)
    both = w_iso.conj() @ left.reshape(-1, d, post)
    full = both.reshape(pre, d, de, k, post, pre, d, de, k, post)
    full = full.transpose(0, 1, 4, 3, 2, 5, 6, 9, 8, 7)
    return Mstate(out, full.reshape(out.total_dim, out.total_dim))


__all__ = [
    "BoundCandidate",
    "CiReport",
    "MergeFeasibility",
    "MonotoneCheck",
    "MergeOutcome",
    "SeparationReport",
    "AdditivityCheck",
    "resolve_tripartite",
    "ci_upper",
    "ci_lower",
    "ci_pure_oneway",
    "ci_pure_regularized",
    "ci_product_regularized",
    "discord_via_ci",
    "lqsm_fidelity_lower",
    "oneway_ci_upper",
    "merge_conditional_entropy_check",
    "monotone_necessary_check",
    "family15_two_round_merge",
    "family15_separation_report",
    "discord_additivity_check",
    "dilated_protocol_state",
]
