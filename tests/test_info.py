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
from ci_toolkit import info
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
    # every entropy comes from the kernel in info; log_negativity's log2 of
    # a trace norm is the one log outside it
    logs = {("np", "log2"), ("np", "log"), ("math", "log2"), ("math", "log")}
    exempt = {("measures.py", "log_negativity")}
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
    bell = preset("bell").to_mstate()
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
