from cli_surface import GOLDEN, PRESETS, golden_path, invocations, replay


def _first_difference(expected: str, got: str) -> str:
    """The first line at which two renderings differ, expected against got."""
    want, have = expected.splitlines(), got.splitlines()
    for i, (a, b) in enumerate(zip(want, have)):
        if a != b:
            return f"line {i + 1}: expected {a!r}, got {b!r}"
    i = min(len(want), len(have))
    a = want[i] if i < len(want) else "<end>"
    b = have[i] if i < len(have) else "<end>"
    return f"line {i + 1}: expected {a!r}, got {b!r}"


def test_first_difference_names_the_line():
    assert _first_difference("a\nb\nc\n", "a\nx\nc\n") == "line 2: expected 'b', got 'x'"
    assert _first_difference("a\n", "a\nb\n") == "line 2: expected '<end>', got 'b'"


def test_cli_surface_matches_the_golden_files():
    # every invocation in-process, byte for byte against its committed file;
    # rewrite them with `python tests/cli_surface.py` when output moves
    runs = invocations()
    assert {p.name for p in GOLDEN.glob("*.txt")} == {golden_path(n).name for n in runs}
    moved = []
    for name, argv in runs.items():
        expected = golden_path(name).read_text(encoding="utf-8")
        got = replay(argv)
        if got != expected:
            moved.append(f"{name}: {_first_difference(expected, got)}")
    assert moved == [], f"{len(moved)} of {len(runs)} outputs moved:\n" + "\n".join(moved)


def test_each_text_run_is_on_the_first_preset_whose_csv_run_exits_0():
    names = list(PRESETS)
    for text in sorted(GOLDEN.glob("text-*.txt")):
        quantity, preset = next(
            (text.stem[len("text-"):-len(name) - 1], name)
            for name in names
            if text.stem.endswith("-" + name)
        )
        codes = [
            golden_path(f"compute-{quantity}-{name}").read_text(encoding="utf-8").splitlines()[1]
            for name in names
        ]
        assert codes.index("exit: 0") == names.index(preset), text.name
