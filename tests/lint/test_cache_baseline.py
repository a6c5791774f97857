"""Lint cache: warm runs parse nothing, edits invalidate the closure."""

from pathlib import Path

from repro.lint import LintCache, Program, lint_paths
from repro.lint.core import expand_paths

FIXTURES = Path(__file__).parent / "fixtures"

CHAIN = {
    "a.py": "def base_us(x_us):\n    return x_us\n",
    "b.py": "from a import base_us\n\n\ndef mid(v_us):\n    return base_us(v_us)\n",
    "c.py": "from b import mid\n\n\ndef top(t_us):\n    return mid(t_us)\n",
}


def _write_chain(root, sources=CHAIN):
    # a src/ root so module names match the `from a import ...` imports
    src_root = root / "src"
    src_root.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, src in sources.items():
        p = src_root / name
        p.write_text(src)
        paths.append(str(p))
    return paths


def test_warm_run_parses_nothing(tmp_path):
    paths = _write_chain(tmp_path / "proj")
    cache = LintCache(tmp_path / "cache")

    cold = Program(paths, cache=cache)
    cold.lint_all()
    assert cold.stats["parsed"] == 3
    assert cold.stats["summary_hits"] == cold.stats["findings_hits"] == 0

    warm = Program(paths, cache=cache)
    warm.lint_all()
    assert warm.stats["parsed"] == 0
    assert warm.parsed_paths() == []
    assert warm.stats["summary_hits"] == 3
    assert warm.stats["findings_hits"] == 3


def test_editing_a_module_invalidates_its_reverse_closure(tmp_path):
    paths = _write_chain(tmp_path / "proj")
    src_root = tmp_path / "proj" / "src"
    cache = LintCache(tmp_path / "cache")
    Program(paths, cache=cache).lint_all()

    # editing the leaf module a.py must re-lint a, b and c (closure) ...
    (src_root / "a.py").write_text("def base_us(x_us):\n    return x_us * 1\n")
    run2 = Program(paths, cache=cache)
    run2.lint_all()
    assert run2.stats["summary_hits"] == 2  # only a.py re-summarised
    assert run2.stats["findings_hits"] == 0  # b and c invalidated too
    assert run2.stats["parsed"] == 3  # re-linting them needs their trees

    # ... while editing the top module c.py re-lints only c
    Program(paths, cache=cache).lint_all()  # re-warm
    (src_root / "c.py").write_text(CHAIN["c.py"] + "\n")
    run3 = Program(paths, cache=cache)
    run3.lint_all()
    assert run3.stats["parsed"] == 1
    assert run3.stats["findings_hits"] == 2  # a.py and b.py untouched


def test_cached_findings_round_trip_exactly(tmp_path):
    target = tmp_path / "bad_nondet.py"
    target.write_text((FIXTURES / "bad_nondet.py").read_text())
    cache = LintCache(tmp_path / "cache")
    cold = Program([str(target)], cache=cache).lint_file(str(target))
    warm_program = Program([str(target)], cache=cache)
    warm = warm_program.lint_file(str(target))
    assert warm_program.stats["findings_hits"] == 1
    assert warm == cold
    assert [f.rule for f in warm] == [f.rule for f in cold]


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    cache = LintCache(tmp_path / "cache")
    Program([str(target)], cache=cache).lint_all()
    for entry in (tmp_path / "cache").rglob("*.json"):
        entry.write_text("{not json")
    rerun = Program([str(target)], cache=cache)
    rerun.lint_all()
    assert rerun.stats["parsed"] == 1  # fell back to parsing, no crash


def test_lint_paths_ignores_cache_misconfiguration(tmp_path):
    # lint_paths without a cache still works end to end
    target = tmp_path / "clean.py"
    target.write_text("VALUE = 3\n")
    assert lint_paths([target]) == []


def test_expand_paths_excludes_fixture_dirs_by_default():
    files = expand_paths([Path(__file__).parent])
    assert not any("fixtures" in Path(f).parts for f in files)
    # explicit fixture files always lint
    explicit = expand_paths([FIXTURES / "bad_units.py"])
    assert len(explicit) == 1
