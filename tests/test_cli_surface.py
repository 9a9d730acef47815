from cli_surface import GOLDEN, golden_path, invocations, replay


def test_cli_surface_matches_the_golden_files():
    # every invocation in-process, byte for byte against its committed file;
    # rewrite them with `python tests/cli_surface.py` when output moves
    runs = invocations()
    assert {p.name for p in GOLDEN.glob("*.txt")} == {golden_path(n).name for n in runs}
    moved = [
        name
        for name, argv in runs.items()
        if replay(argv) != golden_path(name).read_text(encoding="utf-8")
    ]
    assert moved == [], f"{len(moved)} of {len(runs)} outputs moved: {moved}"
