"""The mutation table of ``tests/mutants.py`` stays applicable.  No mutant
runs here: ``python -m tests.mutants`` runs them."""

import shutil

from . import mutants


def test_every_before_text_occurs_once():
    assert mutants.text_problems() == []


def test_every_entry_names_collected_tests():
    collected = mutants.collected_ids()
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        assert set(m.tests) <= collected, (m.name, set(m.tests) - collected)


def test_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_an_edited_before_text_fails_the_guard(tmp_path):
    # on a copy of src: each entry's before text edited away, then doubled
    src = tmp_path / "src"
    shutil.copytree(mutants.SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    for m in mutants.MUTANTS:
        target = src / m.path
        text = target.read_text(encoding="utf-8")
        for edited, count in ((m.after, 0), (m.before + "\n" + m.before, 2)):
            target.write_text(text.replace(m.before, edited), encoding="utf-8")
            assert mutants.text_problems(src) == \
                [f"{m.name}: `before` occurs {count} times in {m.path}"]
        target.write_text(text, encoding="utf-8")
    assert mutants.text_problems(src) == []
