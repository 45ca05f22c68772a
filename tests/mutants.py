"""Recorded mutations of ``src/kgrid`` and the tests that must kill them.

    python -m tests.mutants [NAME ...]

Each entry of ``MUTANTS`` names one mutation: a file under ``src``, an exact
``before`` text that occurs once in it, the ``after`` text that replaces it,
and the test node ids that must fail once it is applied (deterministic
tests only, so that a kill does not depend on a draw).  The runner copies
``src`` to a temporary directory, applies one entry at a time, and runs only
its named ids against the copy, one pytest process at a time.  An entry is
killed when every named id fails.  The runner prints killed or survived for
each entry, with the first failing assertion of a killed one or the ids
that did not fail, and exits 1 when any mutation survives.

``tests/test_mutants.py`` guards the table in tier-1 without running a
mutant: every ``before`` text occurs exactly once, and every named id is
collected.  A change that moves the guarded code fails there, so no entry
is retired silently.  A mutation run by hand belongs in this table.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src
    before: str
    after: str
    tests: tuple


_MEMO_TESTS = "tests/test_invariant.py::TestBlockMatchMemo::"
_JORDAN_TESTS = ("tests/test_tro.py::TestTripleProducts::test_jordan_tripotent",
                 "tests/test_grids.py::TestSpinGrids::test_grid_identities_dim5")
_LEADING_TESTS = "tests/test_exact.py::TestLeadingColumns::"
_KEY_TESTS = "tests/test_invariant.py::TestStoredKeys::"

MUTANTS = (
    # the mutations recorded by earlier changes
    Mutant("compression-for-every-plain-element", "kgrid/grids.py",
           "unit_monomial = [_unit_monomial_ranks(e) is not None for e in g.elements]",
           "unit_monomial = [type(e) is TroElement for e in g.elements]",
           ("tests/test_grids.py::TestCompression::test_non_monomial_tripotent_falls_back",
            "tests/test_grids.py::TestCompression::test_basis_adjoints_once")),
    Mutant("modulus-test-dropped", "kgrid/exact.py",
           "if any(re * re + im * im != unit for _, (re, im) in entries):",
           "if False:",
           ("tests/test_grids.py::TestCompression::test_non_tripotent_keeps_its_verdict",
            "tests/test_grids.py::TestVerifyGrid::test_scaled_element_reported")),
    Mutant("iii16-gets-ii16-classes", "kgrid/invariant.py",
           "return frozenset({(1,), (2,)} if d.params[0] > 1 or tabulated else {(1,)})",
           "return frozenset({(2,)} if d.params[0] == 16 else {(1,), (2,)} "
           "if d.params[0] > 1 or tabulated else {(1,)})",
           ("tests/test_invariant.py::TestBlockLemma::"
            "test_each_factor_is_one_block_separated_and_recovered",
            "tests/test_invariant.py::TestBlockLemma::"
            "test_cap_sharing_multisets_classify_by_canonical_form")),
    Mutant("candidates-without-iv10", "kgrid/invariant.py",
           "for kind, params in named:",
           "for kind, params in (named[:-1] if (l, r, width) == (16, 16, 2) else named):",
           ("tests/test_invariant.py::TestBlockLemma::"
            "test_each_factor_is_one_block_separated_and_recovered",
            "tests/test_invariant.py::TestBlockLemma::"
            "test_cap_sharing_multisets_classify_by_canonical_form")),
    # recovery reads each family's caps and range from cartan
    Mutant("candidates-not-canonical", "kgrid/invariant.py",
           "if canonicalize_factor(f) == f and tuple(", "if tuple(",
           ("tests/test_invariant.py::TestBlockLemma::"
            "test_each_factor_is_one_block_separated_and_recovered",)),
    Mutant("coincidence-iii2-is-i22", "kgrid/cartan.py",
           '_COINCIDENCES = {CartanDescriptor("III", (1,)): CartanDescriptor("I", (1, 1)),',
           '_COINCIDENCES = {CartanDescriptor("III", (2,)): CartanDescriptor("I", (2, 2)), '
           'CartanDescriptor("III", (1,)): CartanDescriptor("I", (1, 1)),',
           ("tests/test_structure_oracles.py::test_invariants_partition_as_canonical_forms",)),
    Mutant("canonical-i14-is-i22", "kgrid/cartan.py",
           "return d if n <= m else _unchecked(CartanDescriptor, (kind, (m, n)))",
           'return (CartanDescriptor("I", (2, 2)) if {n, m} == {1, 4} else d) '
           "if n <= m else _unchecked(CartanDescriptor, (kind, (m, n)))",
           ("tests/test_structure_oracles.py::test_invariants_partition_as_canonical_forms",)),
    # one mutation per fast path
    Mutant("compressed-ratio-unchecked", "kgrid/exact.py",
           "if ar * de != cr * dw or ai * de != ci * dw:",
           "if False:",
           ("tests/test_grids.py::TestCompression::test_entry_ratio_decides_minimality",
            "tests/test_grids.py::TestCompression::test_entry_ratio_differs[1-2]")),
    Mutant("minimal-span-two", "kgrid/grids.py",
           "return in_line(e.blocks, products)",
           "return element_span_dim([e, *(type(e)(e.space, w) for w in products)]) <= 2",
           ("tests/test_grids.py::TestUnitMonomialRanks::"
            "test_products_spanning_a_plane_are_not_minimal",)),
    Mutant("perm-sign-parity-flipped", "kgrid/cartan.py",
           "{c: (-1 if inv % 2 else 1, 0)}",
           "{c: (1 if inv % 2 else -1, 0)}",
           ("tests/test_cartan.py::TestBMatrix::test_hodge_star_after_a_wedge",)),
    Mutant("word-adjoint-sign", "kgrid/exact.py",
           "if z.bit_count() & 2 else (re, -im)",
           "if z.bit_count() & 1 else (re, -im)",
           ("tests/test_clifford.py::TestWordKernels::test_words_map_to_matrices[5]",
            "tests/test_clifford.py::TestWordKernels::test_basis_products")),
    Mutant("u0-at-even-dimension", "kgrid/grids.py",
           "if n_sym % 2 == 0:",
           "if n_sym % 2 == 1:",
           ("tests/test_grids.py::TestSpinGrids::test_dim5_layout",
            "tests/test_grids.py::TestSpinGrids::test_dim6_has_no_u0",
            "tests/test_invariant.py::TestGridOracle::test_formula_matches_grid[IV(5)]")),
    # the block matcher's memo answers for the pair it is asked about
    Mutant("match-block-memo-wrong-pair", "kgrid/invariant.py",
           "p = _match_block(caps, classes, other[1], other[2])",
           "p = _match_block(caps, classes, caps, classes)",
           tuple(f"{_MEMO_TESTS}test_answers_are_the_searchs[{s}]" for s in range(6))
           + (f"{_MEMO_TESTS}test_second_comparison_misses_nothing",)),
    # the triple kernel of both block formats, exact._triple
    Mutant("triple-without-c-denominator", "kgrid/exact.py",
           "c.num, {}),\n                         a.den * b.den * c.den)",
           "c.num, {}),\n                         a.den * b.den)",
           ("tests/test_tro.py::TestTripleProducts::test_fractional_entries",
            "tests/test_grids.py::TestVerifyGrid::test_catalog_grids_pass[d4]")),
    # the line test of minimality by products
    Mutant("in-line-off-support-unchecked", "kgrid/exact.py",
           "if _entry_counts(w) != counts:", "if False:",
           ("tests/test_exact.py::TestInLine::test_entry_off_the_support[0]",
            "tests/test_exact.py::TestInLine::test_entry_off_the_support[1]",
            "tests/test_grids.py::TestUnitMonomialRanks::"
            "test_product_off_the_support_is_not_minimal")),
    # span solving on leading columns, and coordinates read at leads
    Mutant("span-coords-relation-unchecked", "kgrid/exact.py",
           "if not mat_mul(tags, stack).num:", "if True:",
           (f"{_LEADING_TESTS}test_equal_on_leading_columns",
            f"{_LEADING_TESTS}test_in_span_on_leading_columns_only",
            f"{_LEADING_TESTS}test_sparse_words")),
    Mutant("span-coords-refuses-with-a-vector-left", "kgrid/exact.py",
           "if all(c < size for c, _ in pivots[:k]):", "if True:",
           (f"{_LEADING_TESTS}test_equal_on_leading_columns",
            f"{_LEADING_TESTS}test_sparse_words")),
    Mutant("span-coords-one-leading-column", "kgrid/exact.py",
           "lead = {c for row in rows[:k] for c in sorted(row)[:k]}",
           "lead = {c for row in rows[:k] for c in sorted(row)[:1]}",
           ("tests/test_exact.py::TestKernelAgainstReference::test_span_coords_seeded",)),
    # one key rule for blocks and invariants, set when the invariant is built
    Mutant("sorted-key-keeps-zeros", "kgrid/invariant.py",
           "tuple(sorted(filter(None, c)))", "tuple(sorted(c))",
           ("tests/test_invariant.py::TestKeyRule::test_key_is_set_at_construction",)),
    Mutant("merged-key-drops-zero-class", "kgrid/invariant.py",
           "caps, classes = [], [()] * zero_class", "caps, classes = [], []",
           ("tests/test_invariant.py::TestKeyRule::test_key_is_set_at_construction",)),
    # block keys stored in block order when an invariant is built, and read
    # from each side's own blocks by isomorphism
    Mutant("assembled-keys-reversed", "kgrid/invariant.py",
           "tuple(map(_KEY, parts)), False,", "tuple(map(_KEY, parts))[::-1], False,",
           (f"{_KEY_TESTS}test_assembled_invariants_store_their_blocks_keys",
            f"{_KEY_TESTS}test_isomorphism_computes_no_key")),
    Mutant("buckets-from-a-keys", "kgrid/invariant.py",
           "for key, block in zip(b._block_keys, b.blocks):",
           "for key, block in zip(a._block_keys, b.blocks):",
           (f"{_KEY_TESTS}test_isomorphism_computes_no_key",
            f"{_MEMO_TESTS}test_answers_are_the_searchs[0]")),
    # coordinates off the factor, and a spanning set with a surplus element
    Mutant("intrinsic-jordan-unchecked", "kgrid/cartan.py",
           "for v in (x, y, z):", "for v in ():",
           tuple(f"tests/test_refusals.py::test_refusal[jordan-{name}]"
                 for name in ("off-shape-on-i", "identity-on-ii", "unit-on-iii"))),
    Mutant("surplus-element-unreported", "kgrid/grids.py",
           "elif len(self.element_checks) > self.span_found:", "elif False:",
           ("tests/test_grids.py::TestVerifyGrid::test_surplus_element_reported",)),
    # the Jordan kernel of both block formats, exact._jordan
    Mutant("jordan-halving-dropped", "kgrid/exact.py",
           "return sparse_matrix(a.rows, a.cols, num, 2 * a.den * b.den * c.den)",
           "return sparse_matrix(a.rows, a.cols, num, a.den * b.den * c.den)",
           _JORDAN_TESTS),
    Mutant("jordan-b-without-adjoint", "kgrid/exact.py",
           "bs = adjoint(b).num", "bs = b.num",
           _JORDAN_TESTS),
    Mutant("jordan-cba-dropped", "kgrid/exact.py",
           "    products(products(c.num, bs, {}), a.num, num)\n", "",
           _JORDAN_TESTS),
)


def text_problems(src: Path = SRC) -> list:
    """Each entry whose ``before`` text does not occur exactly once in its
    file under ``src``, or whose ``after`` text contains it."""
    problems = []
    for m in MUTANTS:
        count = (src / m.path).read_text(encoding="utf-8").count(m.before)
        if count != 1:
            problems.append(f"{m.name}: `before` occurs {count} times in {m.path}")
        if m.before in m.after:
            problems.append(f"{m.name}: `after` contains `before`")
    return problems


def _pytest(args: list, src: Path) -> subprocess.CompletedProcess:
    """pytest on the repository's tests, importing kgrid from ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def collected_ids() -> set:
    """The node ids pytest collects from the files the table names."""
    files = sorted({t.split("::")[0] for m in MUTANTS for t in m.tests})
    out = _pytest(["--collect-only", "-q", *files], SRC).stdout
    return {line for line in out.splitlines() if "::" in line}


def run(mutant: Mutant, workdir: Path) -> tuple:
    """(killed, what the named tests reported) for one mutation."""
    src = workdir / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / mutant.path
    text = target.read_text(encoding="utf-8")
    target.write_text(text.replace(mutant.before, mutant.after, 1), encoding="utf-8")
    proc = _pytest(["-q", "-rfE", "--tb=short", *mutant.tests], src)
    lines = proc.stdout.splitlines()
    failed = {line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))}
    passed = [t for t in mutant.tests if t not in failed]
    if passed:
        return False, "did not fail: " + ", ".join(passed)
    return True, next((line.strip() for line in lines if re.match(r"E\s", line)),
                      f"pytest exit {proc.returncode}")


def main(names: list) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    problems = text_problems() + [f"no mutant named {n}" for n in sorted(unknown)]
    for m in chosen:
        if not m.tests:
            problems.append(f"{m.name}: names no test")
    if problems:
        print("\n".join(problems))
        return 1
    survived = 0
    with tempfile.TemporaryDirectory(prefix="kgrid-mutants-") as tmp:
        for m in chosen:
            killed, what = run(m, Path(tmp))
            survived += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {m.name}: {what}", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
