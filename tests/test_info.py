import ast
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ci_toolkit.errors import (
    InvalidArgument,
    InvalidPartition,
    LayoutMismatch,
    UnknownParty,
)
from ci_toolkit import info, measures, states
from ci_toolkit.info import (
    Partition,
    _entropy_log_stack,
    _entropy_stack,
    _pure_entropy_stack,
    binary_entropy,
    conditional_entropy,
    conditional_mutual_info,
    matrix_entropy,
    mi_continuity_bound,
    mutual_info,
    spectrum_entropy,
    trace_distance,
    uhlmann_fidelity,
    vn_entropy,
)
from ci_toolkit.measures import ed_interval
from ci_toolkit.states import (
    Mstate,
    PureState,
    SystemLayout,
    load_state_file,
    marginal,
    preset,
    rest_of,
    random_mixed_state,
)

THREE = SystemLayout((("A", 2), ("B", 2), ("C", 2)))
ONE = SystemLayout((("Q", 2),))


def test_spectrum_entropy_uniform():
    for n in (2, 4, 8):
        assert np.isclose(spectrum_entropy(np.full(n, 1.0 / n)), math.log2(n))


def test_spectrum_entropy_clips_tiny_and_negative():
    assert spectrum_entropy([1.0 - 1e-13, 1e-13]) <= 1e-10
    assert spectrum_entropy([-0.1, 1.1]) == 0.0
    assert spectrum_entropy([]) == 0.0


def test_spectrum_entropy_keeps_small_weights():
    # no cut: a weight of 1e-13 contributes its -p log2 p, about 4.3e-12
    tiny = 1e-13
    exact = -tiny * math.log2(tiny) - (1.0 - tiny) * math.log2(1.0 - tiny)
    assert abs(spectrum_entropy([1.0 - tiny, tiny]) - exact) <= 1e-24
    assert spectrum_entropy([0.5, 0.5, 0.0, -1e-17]) == 1.0


def _density(n, rank, rng):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_entropy_of_a_pure_diagonal_state_is_positive_zero():
    # the kernel's sum is +0.0 here; negating it would print as -0
    values = [
        spectrum_entropy([1.0, 0.0]),
        matrix_entropy(np.diag([1.0, 0.0])),
        vn_entropy(Mstate(ONE, np.diag([1.0, 0.0]).astype(complex))),
        vn_entropy(preset("classical_classical", (1.0, 0.0, 0.0, 0.0))),
    ]
    for v in values:
        assert v == 0.0 and math.copysign(1.0, v) == 1.0


def _near_diagonal(n, rng):
    # a diagonal density matrix with Hermitian off-diagonals near 1e-15,
    # far below DIAG: it reads as diagonal
    noise = 1e-15 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = np.diag(rng.dirichlet(np.ones(n))) + noise + noise.conj().T
    np.fill_diagonal(m, np.diagonal(m).real)
    return m


@pytest.mark.parametrize("n", [2, 4])
def test_each_entropy_is_independent_of_its_stack(n):
    # near-diagonal matrices read as diagonal on their own; stacked among
    # generic ones they must keep that reading, bit for bit, so that a
    # candidate's value does not depend on what it is pooled with
    rng = np.random.default_rng(606 + n)
    mats = np.stack(
        [_near_diagonal(n, rng) if i % 3 else _density(n, n, rng) for i in range(60)]
    )
    stacked = _entropy_stack(mats)
    alone = np.array([_entropy_stack(mats[i : i + 1])[0] for i in range(len(mats))])
    assert np.array_equal(stacked, alone)
    # and a lone matrix keeps the result of a one-matrix stack of it
    for i in range(len(mats)):
        if i % 3:
            assert _entropy_stack(mats[i]) == alone[i]


def test_one_by_one_blocks_skip_the_eigensolve_bit_for_bit():
    # discord's generic search reads its receiver blocks at dc = 1 as a
    # (..., 1, 1) stack; the shortcut must give the eigh route's bits,
    # zero, subnormal-adjacent, clipped and rounding-imaginary entries included
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 1.0, (64, 4)) + 1j * rng.normal(0.0, 1e-18, (64, 4))
    a[0, :] = [0.0, 1e-300, -1e-17, 1.0]
    mats = a[..., None, None]
    w, u = np.linalg.eigh(mats)
    assert np.array_equal(w, mats.real[..., 0]) and np.array_equal(u, np.ones_like(mats))
    w = np.maximum(w, 0.0)
    logs = info._log2(np.maximum(w, np.finfo(float).eps * w[..., -1:]))
    log = (u * logs[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))
    h_short, log_short = _entropy_log_stack(mats)
    assert np.array_equal(h_short, info._spectrum_h(w))
    assert np.array_equal(log_short, log)


@pytest.mark.parametrize("t", [1e-14, 1e-12, 1e-9, 0.3])
def test_kernel_is_homogeneous(t):
    # h(t sigma) = t h(sigma) - t log2 t for a density matrix sigma: the
    # identity that makes splitting an outcome change nothing
    rng = np.random.default_rng(505)
    sigmas = [
        _density(2, 2, rng),
        _density(4, 4, rng),
        _density(4, 2, rng),
        np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex),
    ]
    # a lone matrix and a one-matrix stack, which take different eigensolvers
    for sigma in sigmas + [s[None] for s in sigmas]:
        expected = t * _entropy_stack(sigma) - t * math.log2(t)
        assert np.all(abs(_entropy_stack(t * sigma) - expected) <= 1e-9 * expected)
    for shape in ((2, 2), (2, 3)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x /= np.linalg.norm(x)
        _, h = _pure_entropy_stack(math.sqrt(t) * x)
        expected = t * _pure_entropy_stack(x)[1] - t * math.log2(t)
        assert abs(h - expected) <= 1e-9 * expected


def test_only_info_takes_logs():
    # every entropy comes from the kernel in info, and so does every other
    # log, log_negativity's too (by `info._log2`)
    logs = {("np", "log2"), ("np", "log"), ("math", "log2"), ("math", "log")}
    exempt = set()
    hits = []
    for path in sorted(Path(info.__file__).resolve().parent.glob("*.py")):
        if path.name == "info.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in exempt
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and (node.func.value.id, node.func.attr) in logs
                and id(node) not in allowed
            ):
                name = f"{node.func.value.id}.{node.func.attr}"
                hits.append(f"{path.name}:{node.lineno}: {name}")
    assert not hits, "take entropies with ci_toolkit.info:\n" + "\n".join(hits)


def test_matrix_entropy_diagonal_fast_path_matches_eigen():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    diag = np.diag(p.astype(complex))
    assert np.isclose(matrix_entropy(diag), spectrum_entropy(p), atol=1e-14)
    # rotate so the fast path cannot trigger; entropy is basis-independent
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    rotated = q @ diag @ q.conj().T
    assert np.isclose(matrix_entropy(rotated), spectrum_entropy(p), atol=1e-10)


def _entropy_panel():
    rng = np.random.default_rng(2024)
    qutrit = SystemLayout((("A", 3), ("B", 2)))
    states = [random_mixed_state(THREE, seed) for seed in (1, 2, 3)]
    states += [random_mixed_state(qutrit, 4), random_mixed_state(qutrit, 5, rank=2)]
    states += [random_mixed_state(THREE, seed, rank=r) for seed, r in ((6, 1), (7, 3))]
    for k in (3, 5, 8):
        p = rng.random(8)
        p[k:] = 0.0
        states.append(Mstate(THREE, np.diag(p / p.sum())))
    pure = random_mixed_state(THREE, 8, rank=1).matrix
    for eps in (1e-13, 1e-9, 1e-4):
        states.append(Mstate(THREE, (1 - eps) * pure + eps * np.eye(8) / 8))
    return states


def test_vn_entropy_reads_exactly_what_matrix_entropy_computes():
    for rho in _entropy_panel():
        parts = [rho] + [marginal(rho, rest_of(rho.layout, l)) for l in rho.layout.labels]
        for s in parts:
            assert vn_entropy(s) == matrix_entropy(s.matrix)


def test_vn_entropy_sums_each_state_spectrum_once(monkeypatch):
    parts = []
    for rho in _entropy_panel():
        parts += [rho] + [marginal(rho, rest_of(rho.layout, l)) for l in rho.layout.labels]
    want = [matrix_entropy(s.matrix).hex() for s in parts]
    calls = []
    spectrum_h = info._spectrum_h

    def counting(w):
        calls.append(w)
        return spectrum_h(w)

    monkeypatch.setattr(info, "_spectrum_h", counting)
    for _ in range(3):
        assert [vn_entropy(s).hex() for s in parts] == want
    assert len(calls) == len(parts)


def test_marginals_are_built_once_across_calls(tmp_path, monkeypatch):
    rho = random_mixed_state(SystemLayout((("A", 2), ("B", 2))), 12)
    pairs = [[float(x.real), float(x.imag)] for x in rho.matrix.reshape(-1)]
    path = tmp_path / "two.json"
    path.write_text(
        json.dumps(
            {"parties": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}], "matrix": pairs}
        )
    )
    loaded = load_state_file(path)
    builds = Counter()
    build = Mstate.__post_init__

    def counting(self):
        builds[self.layout.labels] += 1
        build(self)

    monkeypatch.setattr(Mstate, "__post_init__", counting)
    cut = Partition("A", "B")
    mutual_info(loaded, cut)
    conditional_entropy(loaded, "A", "B")
    ed_interval(loaded, cut)
    assert builds == {("A",): 1, ("B",): 1}


def test_vn_entropy_pure_state_is_zero():
    assert vn_entropy(preset("ghz")) == 0.0
    iso = Mstate(ONE, np.eye(2) / 2.0)
    assert np.isclose(vn_entropy(iso), 1.0)


def test_partition_validation():
    with pytest.raises(InvalidPartition):
        Partition("A", "A").validate(THREE)
    with pytest.raises(InvalidPartition):
        Partition((), "A").validate(THREE)
    with pytest.raises(UnknownParty):
        Partition("A", "Q").validate(THREE)


def test_mutual_info_bell_and_product():
    bell = preset("bell")
    assert np.isclose(mutual_info(bell, Partition("A", "B")), 2.0, atol=1e-12)
    prod = Mstate(
        SystemLayout((("A", 2), ("B", 2))), np.kron(np.eye(2), np.eye(2)) / 4.0
    )
    assert abs(mutual_info(prod, Partition("A", "B"))) <= 1e-12


def test_mutual_info_traces_out_extra_parties():
    ghz = preset("ghz")
    # with C discarded, A and B share one classical bit
    assert np.isclose(mutual_info(ghz, Partition("A", "B")), 1.0, atol=1e-12)


def test_conditional_entropy():
    bell = preset("bell")
    assert np.isclose(conditional_entropy(bell, "A", "B"), -1.0, atol=1e-12)
    cc = preset("classical_classical")
    assert abs(conditional_entropy(cc, "A", "B")) <= 1e-12
    assert np.isclose(conditional_entropy(cc, "A"), 1.0, atol=1e-12)
    with pytest.raises(InvalidPartition):
        conditional_entropy(bell, "A", "A")


def test_conditional_mutual_info_chain_rule():
    for k in range(10):
        rho = random_mixed_state(THREE, 300 + k)
        total = mutual_info(rho, Partition("A", ("B", "C")))
        chained = mutual_info(rho, Partition("A", "C")) + conditional_mutual_info(
            rho, "A", "B", "C"
        )
        assert abs(total - chained) <= 1e-9


def test_conditional_mutual_info_strong_subadditivity():
    for k in range(20):
        rho = random_mixed_state(THREE, 400 + k)
        assert conditional_mutual_info(rho, "A", "B", "C") >= -1e-9


def test_conditional_mutual_info_empty_conditioner():
    bell = preset("bell")
    i_ab = mutual_info(bell, Partition("A", "B"))
    assert np.isclose(conditional_mutual_info(bell, "A", "B"), i_ab, atol=1e-12)
    with pytest.raises(InvalidPartition):
        conditional_mutual_info(bell, "A", "A")


_GROUP_CALLS = {
    "mutual_info": lambda rho: mutual_info(rho, Partition("A", ("B", "C"))),
    "mutual_info-traced": lambda rho: mutual_info(rho, Partition("A", "C")),
    "conditional_entropy": lambda rho: conditional_entropy(rho, "A", ("B", "C")),
    "conditional_entropy-unconditioned": lambda rho: conditional_entropy(rho, "B"),
    "conditional_mutual_info": lambda rho: conditional_mutual_info(rho, "A", "B", "C"),
    "conditional_mutual_info-unconditioned": lambda rho: conditional_mutual_info(
        rho, "A", "B"
    ),
    "coherent_info_lower": lambda rho: measures.coherent_info_lower(rho, Partition("A", "B")),
}


@pytest.mark.parametrize("name", sorted(_GROUP_CALLS))
def test_each_information_call_checks_its_groups_once(monkeypatch, name):
    # one check_groups per call: the reductions after it take the checked
    # groups, from the state or from its checked restriction to the cut
    checks = []
    check = states.check_groups

    def spy(layout, *groups):
        checks.append(groups)
        return check(layout, *groups)

    for module in (states, info, measures):
        monkeypatch.setattr(module, "check_groups", spy)
    _GROUP_CALLS[name](random_mixed_state(THREE, 77))
    assert len(checks) == 1


@pytest.mark.parametrize(
    "x,y,other,error",
    [
        ((), "B", "C", InvalidPartition),
        ("A", "Q", "B", UnknownParty),
        ("A", ("A", "B"), "C", InvalidPartition),
        (("B", "B"), "C", "A", InvalidPartition),
    ],
)
def test_information_calls_keep_every_group_rejection(x, y, other, error):
    # an empty group, an unknown label, a label on both sides and one named
    # twice in a group; `other` is a third, valid group
    rho = random_mixed_state(THREE, 78)
    with pytest.raises(error):
        mutual_info(rho, Partition(x, y))
    with pytest.raises(error):
        conditional_entropy(rho, x, y)
    with pytest.raises(error):
        conditional_mutual_info(rho, x, y)
    with pytest.raises(error):
        conditional_mutual_info(rho, x, y, other)
    with pytest.raises(error):
        measures.coherent_info_lower(rho, Partition(x, y))


def test_uhlmann_fidelity():
    zero = Mstate(ONE, np.diag([1.0, 0.0]))
    one = Mstate(ONE, np.diag([0.0, 1.0]))
    plus = Mstate(ONE, np.full((2, 2), 0.5))
    assert np.isclose(uhlmann_fidelity(zero, zero), 1.0, atol=1e-12)
    assert uhlmann_fidelity(zero, one) <= 1e-12
    assert np.isclose(uhlmann_fidelity(zero, plus), 1 / math.sqrt(2), atol=1e-12)
    other = Mstate(SystemLayout((("P", 2),)), np.diag([1.0, 0.0]))
    with pytest.raises(LayoutMismatch):
        uhlmann_fidelity(zero, other)


def test_trace_distance():
    bell = preset("bell")
    iso = Mstate(bell.layout, np.eye(4) / 4.0)
    assert np.isclose(trace_distance(bell, iso), 0.75, atol=1e-12)
    assert trace_distance(bell, bell) <= 1e-12
    other = Mstate(SystemLayout((("X", 2), ("Y", 2))), np.eye(4) / 4.0)
    with pytest.raises(LayoutMismatch):
        trace_distance(bell, other)


def test_trace_distance_accepts_pure_states():
    assert trace_distance(preset("ghz"), preset("ghz")) <= 1e-12
    d = trace_distance(preset("ghz"), preset("w"))
    assert 0.0 < d <= 1.0


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert np.isclose(binary_entropy(0.5), 1.0)
    assert np.isclose(binary_entropy(0.25), binary_entropy(0.75), atol=1e-14)
    for bad in (-0.1, 1.1):
        with pytest.raises(InvalidArgument):
            binary_entropy(bad)


def test_mi_continuity_bound_formula():
    assert mi_continuity_bound(0.0, 4) == 0.0
    expected = 3 * 0.25 * 2 + 3 * binary_entropy(0.25)
    assert np.isclose(mi_continuity_bound(0.25, 4), expected, atol=1e-14)
    with pytest.raises(InvalidArgument):
        mi_continuity_bound(-0.1, 4)
    with pytest.raises(InvalidArgument):
        mi_continuity_bound(1.5, 4)
    with pytest.raises(InvalidArgument):
        mi_continuity_bound(0.1, 1)


def _row_pairs(kind: str, rng) -> np.ndarray:
    """A (12, 2, n) stack of row pairs x whose Gram matrices x x^dagger are
    of one kind (n = 3, or n = 2 where x is built from G's eigenvectors)."""
    x = rng.standard_normal((12, 2, 3)) + 1j * rng.standard_normal((12, 2, 3))
    if kind == "rank-1":
        x[:, 1] = x[:, 0] * (rng.standard_normal((12, 1)) + 1j * rng.standard_normal((12, 1)))
    x *= np.sqrt(0.3 / np.sum(np.abs(x) ** 2, axis=(1, 2)))[:, None, None]
    if kind == "zero":
        return np.zeros((12, 2, 3), dtype=complex)
    if kind == "scalar":
        return np.sqrt(rng.uniform(0.01, 2.0, (12, 1, 1))) * np.eye(2, dtype=complex)
    if kind == "near-degenerate":
        # eigenvalues w (1 +/- 5e-10), a relative gap of 1e-9, in a random basis
        u = np.linalg.qr(x[:, :, :2])[0]
        w = rng.uniform(0.01, 2.0, (12, 1)) * np.array([1.0 - 5e-10, 1.0 + 5e-10])
        return u * np.sqrt(w)[:, None, :]
    if kind == "tiny":
        return 1e-150 * x
    return x


@pytest.mark.parametrize(
    "kind", ["random", "rank-1", "zero", "scalar", "near-degenerate", "tiny"]
)
def test_log2_coefficients_match_the_eigh_log(kind):
    # log2 G = c0 1 + c1 G, by _entropy_log_stack's eigenvalue rule; on a
    # rank-one G only its support counts, so the logs are compared there,
    # as L G
    x = _row_pairs(kind, np.random.default_rng(len(kind)))
    g = x @ np.conj(np.swapaxes(x, -1, -2))
    # no division by zero, invalid value or overflow at any kind (underflow,
    # as in the eigh path's floor, is not an error)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        _, _, _, hi, lo = info._qubit_spectrum(x)
        c0, c1 = info._log2_coefficients(hi, lo)
    closed = c0[:, None, None] * np.eye(2) + c1[:, None, None] * g
    _, log = _entropy_log_stack(g)
    if kind == "rank-1":
        closed, log = closed @ g, log @ g
    assert np.all(np.isfinite(c0)) and np.all(np.isfinite(c1))
    assert np.abs(closed - log).max() <= 1e-12 * np.abs(log).max()
    if kind in ("scalar", "near-degenerate"):
        # c1 itself, the divided difference of log2 over eigenvalues
        # w (1 -/+ delta): atanh(delta) / (delta w ln 2), 1 / (w ln 2) at
        # delta = 0, with no cancellation however small the gap
        w = 0.5 * (g[:, 0, 0] + g[:, 1, 1]).real
        delta = 5e-10 if kind == "near-degenerate" else 0.0
        ratio = math.atanh(delta) / delta if delta else 1.0
        exact = ratio / (w * math.log(2.0))
        assert np.abs(c1 - exact).max() <= 1e-12 * np.abs(exact).max()


def _mp_spectrum(x):
    # the eigenvalues hi >= lo of x x^dagger for one 2 x n x, in 60-digit
    # arithmetic on the exact values of its double entries
    import mpmath

    with mpmath.workdps(60):
        m = [[mpmath.mpc(complex(e)) for e in row] for row in x]
        g00 = sum(abs(e) ** 2 for e in m[0])
        g11 = sum(abs(e) ** 2 for e in m[1])
        g01 = sum(e0 * mpmath.conj(e1) for e0, e1 in zip(m[0], m[1]))
        hi = (g00 + g11) / 2 + mpmath.sqrt(((g00 - g11) / 2) ** 2 + abs(g01) ** 2)
        lo = (g00 * g11 - abs(g01) ** 2) / hi
        return float(hi), float(lo)


def test_qubit_spectrum_is_within_a_few_ulps_of_mpmath():
    # two hard 2x2 x: a near-degenerate one, a Gaussian-integer quaternion
    # [[a, b], [-conj b, conj a]] (x x^dagger = 30 times 1) with 2^-30 added
    # to its last entry (relative gap 3e-10), and a near-rank-one one, the
    # outer product u v^T with 2^-30 added to its last entry (lo / hi
    # below 1e-21).  The entries are short dyadic numbers, so det x is exact
    # in floating point, and the test sees only what the kernel adds; the
    # textbook lo, p/2 - radius, keeps no correct digit at the second x
    eps = 2.0**-30
    a, b = 3 + 2j, 1 - 4j
    degenerate = np.array([[a, b], [-np.conj(b), np.conj(a) + eps]])
    u, v = np.array([2 + 1j, 1 - 3j]), np.array([1 + 1j, -2 + 1j])
    rank_one = np.outer(u, v) + np.array([[0.0, 0.0], [0.0, eps]])
    # and a near-rank-one 2x4 one, the shape of a steered block across
    # A : BC, where lo sums three nonzero minors; the Gram determinant
    # g00 g11 - |g01|^2 keeps no correct digit of it
    wide = np.outer(u, [1 + 1j, -2 + 1j, 3 - 1j, 1 + 2j])
    wide[1, 3] += eps
    for x in (degenerate, rank_one, wide):
        _, _, p, hi, lo = info._qubit_spectrum(x[None])
        want_hi, want_lo = _mp_spectrum(x)
        assert abs(hi[0] - want_hi) <= 4 * np.spacing(want_hi)
        assert abs(lo[0] - want_lo) <= 4 * np.spacing(want_lo)
        # and the entropy of `_pure_entropy_stack` reads this spectrum
        _, h = _pure_entropy_stack(x[None])
        assert h[0] == -(info._plogp(hi) + info._plogp(lo))[0]
    assert want_lo < 1e-21 * want_hi
