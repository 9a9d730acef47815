import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ci_toolkit.cli as cli
from ci_toolkit.cli import QUANTITIES, SWEEP_QUANTITIES, build_parser, main
from ci_toolkit.optim import OptimizerConfig
from ci_toolkit.suites import CheckResult

FAST = ["--restarts", "4", "--max-iters", "400", "--tol", "1e-5"]
SUBPROCESS_TIMEOUT = 120
# the directory that holds the package under test, first on a child's path
SOURCE_ROOT = Path(cli.__file__).resolve().parents[1]


def _child_env(**overrides):
    """The environment of a child process that imports the package under
    test, whether or not it is installed."""
    path = os.pathsep.join(filter(None, [str(SOURCE_ROOT), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bell_doc():
    pairs = [[0.0, 0.0]] * 16
    for i in (0, 3, 12, 15):
        pairs[i] = [0.5, 0.0]
    return {
        "parties": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
        "matrix": pairs,
    }


def test_entropy_text_output(capsys):
    code, out, _ = _run(["compute", "entropy", "--preset", "ghz", "--x", "A"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# ci-toolkit compute entropy"
    assert lines[1] == "# state: A:2,B:2,C:2 (preset ghz)"
    assert lines[2].startswith("# config: seed=7 restarts=32 ")
    assert lines[3] == "S(A) = 1.000000 bits (exact)"


def test_entropy_defaults_to_whole_system(capsys):
    code, out, _ = _run(["compute", "entropy", "--preset", "ghz"], capsys)
    assert code == 0
    assert "S(A+B+C) = 0.000000 bits (exact)" in out


@pytest.mark.parametrize(
    "group,row",
    [
        ([], "S(A+B1+B2+C),1.8303011919214212,exact"),
        (["--x", "B2,C"], "S(B2+C),1.8303011919214169,exact"),
    ],
)
def test_entropy_csv_rows_are_pinned(group, row, capsys):
    argv = ["compute", "entropy", "--preset", "product_eq10", "--param", "0.3"]
    code, out, _ = _run(argv + group + ["--format", "csv"], capsys)
    assert code == 0
    assert out == f"name,value,direction\n{row}\n"
    # the spectrum is 0.175 (three times) and 0.475 on B2+C, the rest pure:
    # 3 h(0.175) + h(0.475) with h(x) = -x log2 x
    assert abs(float(row.split(",")[1]) - 1.830301191921417082) <= 1e-14


def test_entropy_rejects_unknown_label(capsys):
    code, out, err = _run(["compute", "entropy", "--preset", "ghz", "--x", "A,Q"], capsys)
    assert code == 2
    assert out == ""
    assert "'Q'" in err


@pytest.mark.parametrize(
    "argv,label",
    [
        (["entropy", "--preset", "ghz", "--x", "A,A"], "A"),
        (["mutual-info", "--preset", "ghz", "--x", "A,A", "--y", "B"], "A"),
        (["cmi", "--preset", "ghz", "--y", "B,B"], "B"),
        (["cond-entropy", "--preset", "ghz", "--x", "A,A", "--y", "B"], "A"),
        (["log-neg", "--preset", "bell", "--x", "A,A", "--y", "B"], "A"),
        (["merge-check", "--preset", "ghz", "--bob", "B,B", "--charlie", "C"], "B"),
        (["lqsm-bound", "--preset", "ghz", "--alice", "A,A", "--ci-value", "1"], "A"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_repeated_label_is_an_input_error(argv, label, capsys):
    code, out, err = _run(["compute", *argv], capsys)
    assert code == 2
    assert out == ""
    assert repr(label) in err


def test_mutual_info_csv(capsys):
    code, out, _ = _run(
        ["compute", "mutual-info", "--preset", "bell", "--format", "csv"], capsys
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "name,value,direction"
    name, value, tag = row.split(",")
    assert name == "I(A:B)"
    assert abs(float(value) - 2.0) <= 1e-12
    assert tag == "exact"


def test_cond_entropy_negative_for_bell(capsys):
    code, out, _ = _run(["compute", "cond-entropy", "--preset", "bell"], capsys)
    assert code == 0
    assert "S(A|B) = -1.000000 bits (exact)" in out


def test_cmi_default_grouping(capsys):
    code, out, _ = _run(["compute", "cmi", "--preset", "ghz"], capsys)
    assert code == 0
    assert "I(A:B|C) = 1.000000 bits (exact)" in out


def test_ci_pure_regularized_closed_form(capsys):
    code, out, _ = _run(["compute", "ci-pure-reg", "--preset", "ghz"], capsys)
    assert code == 0
    assert "ci-pure-regularized = 2.000000 bits (exact, closed form)" in out


def test_ci_product_regularized_exact_row(capsys):
    code, out, _ = _run(
        ["compute", "ci-product-reg", "--preset", "product_eq10", "--param", "0"],
        capsys,
    )
    assert code == 0
    assert "ci-product-regularized = 1.000000 bits (exact, closed form)" in out
    assert "(preset product_eq10(0))" in out


def test_ed_interval_exact_collapses_to_one_row(capsys):
    code, out, _ = _run(["compute", "ed-interval", "--preset", "bell"], capsys)
    assert code == 0
    assert "distillable(A:B) = 1.000000 bits (exact)" in out
    assert "-lower" not in out


def test_eoa_and_eof_rows(capsys):
    code, out, _ = _run(["compute", "eoa", "--preset", "bell"] + FAST, capsys)
    assert code == 0
    assert "eoa(A:B) = 1.000000 bits (lower-est)" in out
    code, out, _ = _run(["compute", "eof", "--preset", "bell"] + FAST, capsys)
    assert code == 0
    assert "eof(A:B) = 1.000000 bits (upper-est)" in out


def test_kw_discord_bell(capsys):
    code, out, _ = _run(["compute", "kw-discord", "--preset", "bell"] + FAST, capsys)
    assert code == 0
    assert "discord(A|B) = 1.000000 bits (upper-est)" in out


def test_one_way_ci_tagged_as_lower(capsys):
    code, out, _ = _run(["compute", "one-way-ci", "--preset", "ghz"] + FAST, capsys)
    assert code == 0
    assert "one-way-ci(A;B>C) = " in out
    assert "(lower-est)" in out


def test_ci_bounds_rows(capsys):
    code, out, _ = _run(
        ["compute", "ci-bounds", "--preset", "ghz", "--restarts", "8",
         "--max-iters", "600", "--tol", "1e-5"],
        capsys,
    )
    assert code == 0
    assert "ci-upper[entropy-plus-distillable] = 2.000000 bits (upper-est)" in out
    assert "ci-lower[" in out


def test_lqsm_bound(capsys):
    code, out, _ = _run(
        ["compute", "lqsm-bound", "--preset", "ghz", "--ci-value", "2"], capsys
    )
    assert code == 0
    assert "merge-fidelity-lower = 1.000000 (exact)" in out  # unitless row
    code, _, err = _run(["compute", "lqsm-bound", "--preset", "ghz"], capsys)
    assert code == 2
    assert "--ci-value" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_lqsm_bound_rejects_non_finite_ci_value(value, capsys):
    code, out, err = _run(
        ["compute", "lqsm-bound", "--preset", "ghz", f"--ci-value={value}"], capsys
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_merge_check_verdict(capsys):
    code, out, _ = _run(["compute", "merge-check", "--preset", "ghz"], capsys)
    assert code == 0
    assert "mergeable-at-zero-cost: yes" in out


def test_monotone_check_verdicts(capsys):
    code, out, _ = _run(["compute", "monotone-check", "--preset", "ghz"], capsys)
    assert code == 0
    assert "monotone-necessary-condition: yes" in out
    code, out, _ = _run(
        ["compute", "monotone-check", "--preset", "product_eq10", "--param", "0"],
        capsys,
    )
    assert code == 0
    assert "log-negativity(A+B1:B2+C) = 0.000000 bits (exact)" in out
    assert "monotone-necessary-condition: no" in out


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["compute", "discord", "--preset", "bell"] + FAST
    _, first, _ = _run(argv, capsys)
    _, second, _ = _run(argv, capsys)
    assert first == second


# Default text output of the variational quantities at the FAST config, pinned
# byte for byte. A change to the search or the objectives that moves any
# printed digit shows up here.
GOLDEN_ROWS = {
    ("one-way-ci", "w"): ["one-way-ci(A;B>C) = 1.584963 bits (lower-est)"],
    ("one-way-ci", "ghz"): ["one-way-ci(A;B>C) = 2.000000 bits (lower-est)"],
    ("discord", "w"): ["discord(A+B|C) = 0.918296 bits (upper-est)"],
    ("discord", "ghz"): ["discord(A+B|C) = 1.000000 bits (upper-est)"],
    ("eoa", "w"): ["eoa(A:B+C) = 0.918296 bits (lower-est)"],
    ("eoa", "ghz"): ["eoa(A:B+C) = 1.000000 bits (lower-est)"],
    ("eof", "w"): ["eof(A:B+C) = 0.918296 bits (upper-est)"],
    ("eof", "ghz"): ["eof(A:B+C) = 1.000000 bits (upper-est)"],
    ("kw-discord", "w"): ["discord(A+B|C) = 0.918296 bits (upper-est)"],
    ("kw-discord", "ghz"): ["discord(A+B|C) = 1.000000 bits (upper-est)"],
    ("ci-bounds", "w"): [
        "ci-lower[optimized-one-way] = 1.584963 bits (lower-est)",
        "ci-upper[total-mutual-info] = 1.836592 bits (upper-est)",
    ],
    ("ci-bounds", "ghz"): [
        "ci-lower[optimized-one-way] = 2.000000 bits (lower-est)",
        "ci-upper[entropy-plus-distillable] = 2.000000 bits (upper-est)",
    ],
}


@pytest.mark.parametrize(
    "quantity,preset", list(GOLDEN_ROWS), ids=[f"{q}-{p}" for q, p in GOLDEN_ROWS]
)
def test_golden_text_output(quantity, preset, capsys):
    code, out, err = _run(["compute", quantity, "--preset", preset] + FAST, capsys)
    assert code == 0, err
    expected = [
        f"# ci-toolkit compute {quantity}",
        f"# state: A:2,B:2,C:2 (preset {preset})",
        "# config: seed=7 restarts=4 tol=1e-05 max-iters=400",
    ] + GOLDEN_ROWS[quantity, preset]
    assert out == "\n".join(expected) + "\n"


def test_ci_bounds_names_the_one_way_protocol_on_product_eq10(capsys):
    code, out, err = _run(
        ["compute", "ci-bounds", "--preset", "product_eq10", "--param", "0.75"], capsys
    )
    assert code == 0, err
    assert out.splitlines()[3:] == [
        "ci-lower[optimized-one-way] = 1.000000 bits (lower-est)",
        "ci-upper[entropy-plus-distillable] = 1.000000 bits (upper-est)",
    ]


def _csv_at_blas_threads(argv):
    outputs = []
    for threads in ("1", "2"):
        env = _child_env(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ci_toolkit.cli", *argv, "--format", "csv"],
            capture_output=True,
            text=True,
            env=env,
            timeout=SUBPROCESS_TIMEOUT,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


@pytest.mark.parametrize("quantity", ["one-way-ci", "eoa", "discord"])
def test_csv_output_independent_of_blas_threads(quantity):
    outputs = _csv_at_blas_threads(["compute", quantity, "--preset", "w", *FAST])
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()[-1].split(",")) == 3


def test_csv_output_independent_of_blas_threads_past_the_scout():
    # 16 restarts: the first eight scout, and their agreement decides
    # whether the other eight run
    outputs = _csv_at_blas_threads(
        ["compute", "one-way-ci", "--preset", "family15", "--param", "0.92",
         "--restarts", "16", "--max-iters", "400", "--tol", "1e-5"]
    )
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[-1].startswith("one-way-ci(")


def test_csv_output_independent_of_blas_threads_on_the_largest_stacks():
    # a 16 x 4 isometry search (K = 16 outcomes on B+C), 16 restarts
    outputs = _csv_at_blas_threads(
        ["compute", "discord", "--preset", "w", "--x", "A", "--y", "B,C", "--restarts", "16"]
    )
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[-1].startswith("discord(A|B+C),")


def test_state_file_input(tmp_path, capsys):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(_bell_doc()))
    code, out, _ = _run(["compute", "entropy", "--state", str(path), "--x", "A"], capsys)
    assert code == 0
    assert f"(file {path})" in out
    assert "S(A) = 1.000000 bits (exact)" in out


def test_state_file_errors_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    code, _, err = _run(["compute", "entropy", "--state", str(broken)], capsys)
    assert code == 2
    assert "error:" in err

    doc = _bell_doc()
    doc["parties"] = "oops"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = _run(["compute", "entropy", "--state", str(bad)], capsys)
    assert code == 2
    assert "parties" in err


def _ensemble_doc():
    return {
        "parties": [{"label": "A", "dim": 2}, {"label": "B", "dim": 2}],
        "ensemble": {
            "weights": [0.5, 0.5],
            "vectors": [
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            ],
        },
    }


def _nan_diagonal():
    doc = _bell_doc()
    doc["matrix"][0] = [float("nan"), 0.0]
    return doc, "matrix[0]"


def _nan_off_diagonal():
    doc = _bell_doc()
    doc["matrix"][3] = [float("nan"), 0.0]
    return doc, "matrix[3]"


def _infinite_entry():
    doc = _bell_doc()
    doc["matrix"][5] = [0.0, float("inf")]
    return doc, "matrix[5]"


def _nan_weight():
    doc = _ensemble_doc()
    doc["ensemble"]["weights"][1] = float("nan")
    return doc, "ensemble.weights[1]"


def _nan_amplitude():
    doc = _ensemble_doc()
    doc["ensemble"]["vectors"][0][2] = [float("nan"), 0.0]
    return doc, "ensemble.vectors[0][2]"


@pytest.mark.parametrize(
    "make",
    [_nan_diagonal, _nan_off_diagonal, _infinite_entry, _nan_weight, _nan_amplitude],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_non_finite_state_file_exits_2(make, tmp_path, capsys):
    doc, field = make()
    path = tmp_path / "state.json"
    # json writes NaN and Infinity literals, which json.load reads back
    path.write_text(json.dumps(doc))
    code, out, err = _run(["compute", "entropy", "--state", str(path), "--x", "A"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and field in err


def _with_ensemble(**fields):
    doc = _ensemble_doc()
    return {**doc, "ensemble": {**doc["ensemble"], **fields}}


# one malformed document per rejection branch of `state_from_dict` and its
# helpers, with the start of the message that names the bad field
MALFORMED = {
    "entry-not-an-object": (
        {**_bell_doc(), "parties": ["A", "B"]},
        "parties[0]: must be an object",
    ),
    "empty-label": (
        {**_bell_doc(), "parties": [{"label": "", "dim": 2}, {"label": "B", "dim": 2}]},
        "parties[0].label: must be a non-empty string",
    ),
    "duplicate-label": (
        {**_bell_doc(), "parties": [{"label": "A", "dim": 2}, {"label": "A", "dim": 2}]},
        "parties: duplicate party label 'A'",
    ),
    "non-numeric-entry": (
        {**_bell_doc(), "matrix": [[0.5, 0.0], ["x", 0.0]] + [[0.0, 0.0]] * 14},
        "matrix[1]: entries must be numbers",
    ),
    "document-not-an-object": ([_bell_doc()], "document: must be a JSON object"),
    "preset-not-an-object": ({"preset": "ghz"}, "preset: must be an object"),
    "preset-params-not-a-list": (
        {"preset": {"name": "family15", "params": 0.5}},
        "preset.params: must be a list",
    ),
    "preset-parties-dims": (
        {
            "preset": {"name": "ghz"},
            "parties": [{"label": "A", "dim": 2}, {"label": "B", "dim": 4}],
        },
        "parties: dims (2, 4) do not match preset dims (2, 2, 2)",
    ),
    "ensemble-not-an-object": (
        {**_ensemble_doc(), "ensemble": [0.5, 0.5]},
        "ensemble: must be an object",
    ),
    "empty-weights": (_with_ensemble(weights=[], vectors=[]), "ensemble.weights: required"),
    "non-numeric-weight": (
        _with_ensemble(weights=["half", 0.5]),
        "ensemble.weights[0]: must be a number",
    ),
    "negative-weight": (
        _with_ensemble(weights=[1.5, -0.5]),
        "ensemble.weights[1]: negative weight",
    ),
    "zero-vector": (
        _with_ensemble(vectors=[[[0.0, 0.0]] * 4, _ensemble_doc()["ensemble"]["vectors"][1]]),
        "ensemble.vectors[0]: zero vector",
    ),
    "weights-off-one": (
        _with_ensemble(weights=[0.5, 0.25]),
        "ensemble.weights: sum to 0.75",
    ),
    # within the 1e-9 weight-sum slack, past the 1e-10 trace check of a state
    "invalid-ensemble-matrix": (
        _with_ensemble(weights=[0.5, 0.5 + 5e-10]),
        "ensemble: Mstate: trace",
    ),
}


@pytest.mark.parametrize("doc, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_state_file_exits_2(doc, field, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["compute", "entropy", "--state", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}"), err


def test_preset_body_relabelled_by_parties(tmp_path, capsys):
    # the mixed family15 body on new labels: the same row, under those labels
    c = "0.9238795325112867"
    code, out, err = _run(
        ["compute", "mutual-info", "--preset", "family15", "--param", c, "--format", "csv"],
        capsys,
    )
    assert code == 0, err
    assert out.splitlines()[-1].startswith("I(A:B+C),")
    path = tmp_path / "state.json"
    path.write_text(json.dumps({
        "preset": {"name": "family15", "params": [float(c)]},
        "parties": [{"label": l, "dim": 2} for l in ("X", "Y", "Z")],
    }))
    code, relabelled, err = _run(
        ["compute", "mutual-info", "--state", str(path), "--format", "csv"], capsys
    )
    assert code == 0, err
    assert relabelled == out.replace("I(A:B+C),", "I(X:Y+Z),")


def test_marginal_of_an_accepted_state_file_is_accepted(tmp_path, capsys):
    # lambda_min = -9e-11 passes the state check; Tr_B scales it by d_B = 4
    eps = 9e-11
    m = np.kron(np.diag([(1 + 4 * eps) / 4, -eps]), np.eye(4))
    doc = {
        "parties": [{"label": "A", "dim": 2}, {"label": "B", "dim": 4}],
        "matrix": [[float(x), 0.0] for x in m.reshape(-1)],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    for quantity in ("entropy", "mutual-info"):
        code, out, err = _run(
            ["compute", quantity, "--state", str(path), "--format", "csv"], capsys
        )
        assert code == 0, err
        assert math.isfinite(float(out.splitlines()[-1].split(",")[1]))


def test_state_source_must_be_unique(capsys, tmp_path):
    code, _, err = _run(["compute", "entropy"], capsys)
    assert code == 2
    assert "exactly one" in err
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(_bell_doc()))
    code, _, err = _run(
        ["compute", "entropy", "--state", str(path), "--preset", "ghz"], capsys
    )
    assert code == 2


def test_bad_preset_exits_2(capsys):
    code, _, err = _run(["compute", "entropy", "--preset", "nope"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "family15", "params": ["x"]},
        {"name": ["ghz"]},
        {"name": "classical_classical", "params": [float("nan"), 0.0, 0.0, 0.5]},
        {"name": "max_correlated", "params": [0.5, 0, float("nan"), 0, float("nan"), 0, 0.5, 0]},
    ],
)
def test_bad_preset_body_in_a_state_file_exits_2(spec, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"preset": spec}))
    code, out, err = _run(["compute", "entropy", "--state", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: preset: ")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_preset_param_exits_2(value, capsys):
    argv = ["compute", "entropy", "--preset", "family15", "--param", value]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "preset" in err and "finite" in err


def test_entropy_of_a_pure_diagonal_state_prints_no_negative_zero(capsys):
    argv = ["compute", "entropy", "--preset", "classical_classical"]
    argv += ["--param", "1", "--param", "0", "--param", "0", "--param", "0"]
    code, out, _ = _run(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "S(A+B),0,exact"
    code, out, _ = _run(argv, capsys)
    assert out.splitlines()[-1] == "S(A+B) = 0.000000 bits (exact)"


def _maximally_mixed_file(tmp_path, parties):
    d = math.prod(dim for _, dim in parties)
    path = tmp_path / "state.json"
    doc = {
        "parties": [{"label": l, "dim": dim} for l, dim in parties],
        "matrix": [[a, 0.0] for a in (np.eye(d) / d).ravel()],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_dimension_cap_exits_3(tmp_path, capsys):
    path = _maximally_mixed_file(tmp_path, (("A", 5), ("B", 13)))
    code, _, err = _run(["compute", "entropy", "--state", path], capsys)
    assert code == 3
    assert "error:" in err and "total dimension 65" in err


@pytest.mark.parametrize(
    "quantity, parties",
    [
        ("ci-product-reg", None),
        ("cmi", (("A", 2),)),
        ("merge-check", (("A", 2),)),
    ],
)
def test_defaults_past_the_end_of_the_layout_exit_2(quantity, parties, tmp_path, capsys):
    if parties is None:
        source = ["--preset", "bell"]
    else:
        source = ["--state", _maximally_mixed_file(tmp_path, parties)]
    code, _, err = _run(["compute", quantity] + source, capsys)
    assert code == 2
    assert err.startswith("error:") and "pass the groups explicitly" in err
    assert "Traceback" not in err


def test_merge_check_needs_a_receiver(capsys):
    # on two parties the default receiver is the empty rest
    code, out, err = _run(["compute", "merge-check", "--preset", "bell"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "empty party group" in err
    assert "Traceback" not in err


def test_cond_entropy_needs_a_conditioner(capsys, tmp_path):
    # --x names every party, so the default --y is the empty rest
    argv = ["compute", "cond-entropy", "--preset", "bell", "--x", "A,B"]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "empty party group in (('A', 'B'), ())" in err
    one = _maximally_mixed_file(tmp_path, [("A", 2)])
    code, out, err = _run(["compute", "cond-entropy", "--state", one], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "empty party group in (('A',), ())" in err


@pytest.mark.parametrize("quantity", ["discord", "kw-discord"])
def test_a_composite_measured_group_is_one_party(quantity, capsys):
    argv = ["compute", quantity, "--preset", "ghz", "--x", "A", "--y", "B,C"]
    code, out, err = _run(argv + ["--format", "csv"], capsys)
    assert code == 0, err
    name, value, tag = out.splitlines()[1].split(",")
    assert (name, tag) == ("discord(A|B+C)", "upper-est")
    assert abs(float(value) - 1.0) <= 1e-9  # D(A|BC) = S(A) on GHZ


@pytest.mark.parametrize("quantity", ["discord", "kw-discord"])
def test_a_measured_group_alone_is_measured_against_the_rest(quantity, capsys):
    # --x defaults to every party --y leaves out
    argv = ["compute", quantity, "--preset", "ghz", "--y", "B", "--format", "csv"]
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    name, value, tag = out.splitlines()[1].split(",")
    assert (name, tag) == ("discord(A+C|B)", "upper-est")
    assert abs(float(value) - 1.0) <= 1e-9  # D(AC|B) = S(B) on GHZ


def test_merge_check_reads_the_reference_from_alice(capsys):
    # the reference takes no part in S(helper|receiver), but it is a group:
    # the default helper is the second party, which --alice B repeats
    code, out, err = _run(["compute", "merge-check", "--preset", "ghz", "--alice", "B"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "party 'B' appears twice" in err


@pytest.mark.parametrize(
    "flags,row",
    [([], "S(B|C)"), (["--alice", "B", "--bob", "A"], "S(A|C)")],
    ids=["default", "alice-B-bob-A"],
)
def test_merge_check_receiver_is_the_rest_of_alice_and_bob(flags, row, capsys):
    code, out, err = _run(["compute", "merge-check", "--preset", "ghz", *flags], capsys)
    assert code == 0, err
    assert out.splitlines()[3:] == [
        f"{row} = 0.000000 bits (exact)",
        "mergeable-at-zero-cost: yes",
    ]


def test_one_way_ci_takes_a_composite_helper(capsys):
    argv = ["compute", "one-way-ci", "--preset", "product_eq10", "--param", "0.75",
            "--alice", "A", "--bob", "B1,B2", "--charlie", "C", *FAST]
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    assert "one-way-ci(A;B1+B2>C) = " in out


def test_a_key_error_inside_a_computation_is_not_reported_as_bad_input(monkeypatch):
    # a missing key is a bug, not an input error: it propagates instead of
    # exiting 2 with an input-error message
    def broken(quantity, state, args, cfg):
        raise KeyError("outcomes")

    monkeypatch.setattr(cli, "_compute_rows", broken)
    with pytest.raises(KeyError):
        main(["compute", "entropy", "--preset", "ghz"])


def test_unknown_quantity_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "nonsense", "--preset", "ghz"])
    assert exc.value.code == 2


def test_out_flag_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "row.txt"
    code, out, _ = _run(
        ["compute", "entropy", "--preset", "bell", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert "S(A+B) = 0.000000 bits (exact)" in text
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "one-way-ci", "--preset", "ghz"],
        ["verify", "continuity"],
    ],
    ids=["compute", "verify"],
)
def test_a_negative_seed_exits_2(argv, capsys):
    code, out, err = _run(argv + ["--seed", "-1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "seed must be >= 0" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "entropy", "--preset", "ghz"],
        ["verify", "continuity"],
        ["sweep", "entropy", "--start", "0.2", "--stop", "0.8", "--steps", "3"],
    ],
    ids=["compute", "verify", "sweep"],
)
def test_an_unwritable_out_exits_2(argv, tmp_path, capsys):
    # the parent directory does not exist, so the file cannot be opened
    target = tmp_path / "missing" / "out.txt"
    code, out, err = _run(argv + ["--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(target) in err, err
    assert "Traceback" not in err
    assert not target.exists()


def test_verify_family15(capsys):
    code, out, _ = _run(["verify", "family15"] + FAST, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# ci-toolkit verify family15"
    body = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(body) == 7
    assert all(l.startswith("PASS  family15/") for l in body)
    assert lines[-1] == "7/7 checks passed"


def test_verify_reports_failures_with_exit_1(monkeypatch, capsys):
    fake = [
        CheckResult("s", "bad", False, "boom"),
        CheckResult("s", "good", True, "ok"),
    ]
    monkeypatch.setattr(cli, "run_suites", lambda names, cfg: fake)
    code, out, _ = _run(["verify", "continuity"], capsys)
    assert code == 1
    assert "FAIL  s/bad: boom" in out
    assert "1/2 checks passed" in out


def test_sweep_entropy_csv(capsys):
    code, out, _ = _run(
        ["sweep", "entropy", "--preset", "family15", "--start", "0.2",
         "--stop", "0.8", "--steps", "3"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,value,lower,upper,direction,seed"
    assert len(lines) == 4
    assert all(l.endswith(",exact,7") for l in lines[1:])
    assert lines[1].startswith("0.2")


def test_sweep_oneway_gap(capsys):
    code, out, _ = _run(
        ["sweep", "oneway-gap", "--start", "0.9238795325112867", "--stop",
         "0.9238795325112867", "--steps", "1"] + FAST,
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",upper-est,7")
    gap = float(lines[1].split(",")[1])
    assert gap > 0.01

    code, _, err = _run(
        ["sweep", "oneway-gap", "--preset", "bell", "--start", "0", "--stop",
         "1", "--steps", "1"],
        capsys,
    )
    assert code == 2
    assert "family15" in err


def test_sweep_rejects_nonpositive_steps(capsys):
    code, _, err = _run(
        ["sweep", "entropy", "--preset", "family15", "--start", "0.2",
         "--stop", "0.8", "--steps", "0"],
        capsys,
    )
    assert code == 2
    assert "--steps" in err


def test_optimizer_knobs_and_their_flag_defaults():
    names = [f.name for f in dataclasses.fields(OptimizerConfig)]
    assert names == ["restarts", "max_iters", "tol", "seed"]
    defaults = OptimizerConfig()
    parser = build_parser()
    for argv in (
        ["compute", "entropy"],
        ["verify", "family15"],
        ["sweep", "entropy", "--start", "0", "--stop", "1", "--steps", "1"],
    ):
        args = parser.parse_args(argv)
        for name in names:
            assert getattr(args, name) == getattr(defaults, name), (argv, name)


def test_quantity_lists_are_stable():
    assert len(QUANTITIES) == 18
    assert SWEEP_QUANTITIES == ("entropy", "ci-bounds", "oneway-gap")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ci_toolkit.cli", "compute", "entropy",
         "--preset", "bell", "--x", "A"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=SUBPROCESS_TIMEOUT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "S(A) = 1.000000 bits (exact)" in proc.stdout


def _declared_script(name):
    """Return the ``module:attr`` target of ``name`` in ``[project.scripts]``.

    A regex rather than ``tomllib``, which Python 3.10 lacks.
    """
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)", text,
                      re.MULTILINE | re.DOTALL)
    assert table, "pyproject.toml has no [project.scripts] table"
    entry = re.search(rf'^\s*"?{re.escape(name)}"?\s*=\s*"([\w.]+):(\w+)"\s*$',
                      table.group(1), re.MULTILINE)
    assert entry, f"[project.scripts] declares no {name} entry"
    return entry.group(1), entry.group(2)


def test_installed_script():
    """The shipped ``ci-toolkit`` console script, installed or not.

    The declared target is called the way the installer's wrapper calls
    it; a ``ci-toolkit`` found on ``PATH`` is run as well.
    """
    module, attr = _declared_script("ci-toolkit")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("ci-toolkit")
    if installed:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(
            [*command, "compute", "mutual-info", "--preset", "bell",
             "--format", "csv"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=SUBPROCESS_TIMEOUT,
        )
        assert proc.returncode == 0, proc.stderr
        name, value, tag = proc.stdout.splitlines()[-1].split(",")
        assert (name, tag) == ("I(A:B)", "exact")
        assert abs(float(value) - 2.0) <= 1e-12


# One invocation per quantity at the FAST config that sets every party flag
# the quantity reads, off the default order where it can, with the rows it
# prints.  ed-interval and ci-product-reg are not exact on product_eq10(0.75),
# so each prints a lower and an upper row.
W = ["--preset", "w"]
EVERY_QUANTITY = {
    "entropy": (W + ["--x", "A"], ["S(A) = 0.918296 bits (exact)"]),
    "mutual-info": (W + ["--x", "B", "--y", "A,C"], ["I(B:A+C) = 1.836592 bits (exact)"]),
    "cond-entropy": (W + ["--x", "B", "--y", "C"], ["S(B|C) = 0.000000 bits (exact)"]),
    "cmi": (W + ["--x", "C", "--y", "A", "--z", "B"], ["I(C:A|B) = 0.918296 bits (exact)"]),
    "discord": (
        W + ["--x", "A,C", "--y", "B"], ["discord(A+C|B) = 0.918296 bits (upper-est)"]
    ),
    "eoa": (W + ["--alice", "B"], ["eoa(B:A+C) = 0.918296 bits (lower-est)"]),
    "eof": (W + ["--alice", "C"], ["eof(C:A+B) = 0.918296 bits (upper-est)"]),
    "kw-discord": (
        W + ["--x", "B,C", "--y", "A"], ["discord(B+C|A) = 0.918296 bits (upper-est)"]
    ),
    "log-neg": (
        W + ["--x", "B", "--y", "A,C"], ["log-negativity(B:A+C) = 0.958144 bits (exact)"]
    ),
    "ed-interval": (
        ["--preset", "product_eq10", "--param", "0.75", "--x", "B2", "--y", "C"],
        [
            "distillable(B2:C)-lower = 0.006607 bits (lower-est)",
            "distillable(B2:C)-upper = 0.700440 bits (upper-est)",
        ],
    ),
    "one-way-ci": (
        W + ["--alice", "B", "--bob", "C", "--charlie", "A"],
        ["one-way-ci(B;C>A) = 1.584963 bits (lower-est)"],
    ),
    "ci-bounds": (
        W + ["--alice", "C", "--bob", "A", "--charlie", "B"],
        [
            "ci-lower[optimized-one-way] = 1.584963 bits (lower-est)",
            "ci-upper[total-mutual-info] = 1.836592 bits (upper-est)",
        ],
    ),
    "ci-pure": (
        W + ["--alice", "B", "--bob", "A", "--charlie", "C"],
        ["ci-pure-one-way = 1.584963 bits (lower-est)"],
    ),
    "ci-pure-reg": (
        W + ["--alice", "C", "--bob", "B", "--charlie", "A"],
        ["ci-pure-regularized = 1.836592 bits (exact, closed form)"],
    ),
    "ci-product-reg": (
        ["--preset", "product_eq10", "--param", "0.75",
         "--alice", "A", "--bob1", "B1", "--bob2", "B2", "--charlie", "C"],
        [
            "ci-product-regularized-lower = 1.006607 bits (lower-est)",
            "ci-product-regularized-upper = 1.700440 bits (upper-est)",
        ],
    ),
    "lqsm-bound": (
        W + ["--alice", "B", "--ci-value", "0.5"], ["merge-fidelity-lower = 0.629250 (exact)"]
    ),
    "merge-check": (
        W + ["--alice", "C", "--bob", "A", "--charlie", "B"],
        ["S(A|B) = 0.000000 bits (exact)", "mergeable-at-zero-cost: yes"],
    ),
    "monotone-check": (
        W + ["--alice", "B", "--bob", "C", "--charlie", "A"],
        [
            "log-negativity(B+C:A) = 0.958144 bits (exact)",
            "log-negativity(B:C+A) = 0.958144 bits (exact)",
            "monotone-necessary-condition: yes",
        ],
    ),
}


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_every_quantity_prints_its_rows(quantity, capsys):
    flags, rows = EVERY_QUANTITY[quantity]
    assert {f[2:] for f in flags} & set(PARTY_FLAGS) == set(READS[quantity].split())
    code, out, err = _run(["compute", quantity, *flags, *FAST], capsys)
    assert code == 0, err
    assert out.splitlines()[3:] == rows
    # CSV keeps the value rows and drops the verdict lines
    code, out, err = _run(["compute", quantity, *flags, *FAST, "--format", "csv"], capsys)
    assert code == 0, err
    names = [row.split(",")[0] for row in out.splitlines()[1:]]
    assert names == [row.split(" = ")[0] for row in rows if " = " in row]


# One sweep per quantity at the FAST config: its parameters, and for each
# the value (or the lower and upper ends) it prints, to 1e-6.
EVERY_SWEEP = {
    "entropy": (
        ["--preset", "family15", "--start", "0.2", "--stop", "0.8", "--steps", "3"],
        "exact",
        [(0.2, 2.0, None, None), (0.5, 2.0, None, None), (0.8, 2.0, None, None)],
    ),
    "ci-bounds": (
        ["--start", "0.5", "--stop", "0.9", "--steps", "2"],
        "interval",
        [(0.5, None, 0.645421, 1.0), (0.9, None, 0.713603, 1.0)],
    ),
    "oneway-gap": (
        ["--start", "0.5", "--stop", "0.95", "--steps", "2"],
        "upper-est",
        [(0.5, 0.354579, None, None), (0.95, 0.168661, None, None)],
    ),
}


@pytest.mark.parametrize("quantity", SWEEP_QUANTITIES)
def test_every_sweep_prints_its_rows(quantity, capsys):
    flags, direction, expected = EVERY_SWEEP[quantity]
    code, out, err = _run(["sweep", quantity, *flags, *FAST], capsys)
    assert code == 0, err
    header, *rows = out.splitlines()
    assert header == "param,value,lower,upper,direction,seed"
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        *numbers, tag, seed = row.split(",")
        assert (tag, seed) == (direction, "7")
        for cell, value in zip(numbers, want):
            if value is None:
                assert cell == ""
            else:
                assert abs(float(cell) - value) <= 1e-6, row


# The party flags each quantity reads; every other party flag exits 2.
READS = {
    "entropy": "x",
    "mutual-info": "x y",
    "cond-entropy": "x y",
    "cmi": "x y z",
    "discord": "x y",
    "eoa": "alice",
    "eof": "alice",
    "kw-discord": "x y",
    "log-neg": "x y",
    "ed-interval": "x y",
    "one-way-ci": "alice bob charlie",
    "ci-bounds": "alice bob charlie",
    "ci-pure": "alice bob charlie",
    "ci-pure-reg": "alice bob charlie",
    "ci-product-reg": "alice bob1 bob2 charlie",
    "lqsm-bound": "alice",
    "merge-check": "alice bob charlie",
    "monotone-check": "alice bob charlie",
}
PARTY_FLAGS = ("alice", "bob", "charlie", "x", "y", "z", "bob1", "bob2")


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_a_party_flag_the_quantity_does_not_read_exits_2(quantity, capsys):
    unread = [f for f in PARTY_FLAGS if f not in READS[quantity].split()]
    assert len(unread) == 8 - len(READS[quantity].split())
    extra = ["--ci-value", "0.5"] if quantity == "lqsm-bound" else []
    for flag in unread:
        argv = ["compute", quantity, "--preset", "ghz", f"--{flag}", "A", *extra]
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, ""), (flag, err)
        assert err.startswith("error:") and f"--{flag};" in err, err


@pytest.mark.parametrize("quantity", [q for q in QUANTITIES if q != "lqsm-bound"])
def test_ci_value_outside_lqsm_bound_exits_2(quantity, capsys):
    code, out, err = _run(["compute", quantity, "--preset", "ghz", "--ci-value", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--ci-value" in err


def test_param_with_a_state_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(_bell_doc()))
    argv = ["compute", "entropy", "--state", str(path), "--param", "0.3"]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--param" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "continuity", "--format", "csv"],
        ["sweep", "entropy", "--start", "0", "--stop", "1", "--steps", "1", "--format", "text"],
    ],
    ids=["verify", "sweep"],
)
def test_format_outside_compute_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--format" in captured.err


@pytest.mark.parametrize("quantity", ["discord", "kw-discord"])
def test_discord_groups_must_cover_every_party(quantity, capsys):
    # mutual-info with the same flags takes the A+B marginal; discord does not
    argv = ["compute", quantity, "--preset", "w", "--x", "A", "--y", "B"]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "missing ('C',)" in err, err
