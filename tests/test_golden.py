"""Golden CLI output: a fixed list of commands, each run in-process through
``kgrid.cli.run`` and compared with the stdout, stderr and exit code kept in
``tests/golden/cli.json``.  A change meant to keep every output byte for
byte passes this test without touching that file.

After an intended output change, record the new outputs with
``PYTHONPATH=src python -m tests.test_golden`` and review the diff.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from kgrid.catalog import catalog_descriptors
from kgrid.cli import run

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "cli.json"
ALPHA = "{alpha}"  # stands for the path of golden/alpha.json, the matrix [[2]]
ELAPSED = re.compile(r"\(\d+\.\d+s\)$", re.MULTILINE)  # sweep's wall time

SPECS = [
    "I(3,2)+III(1)+IV(4)+V+VI",
    "I(2,3)+IV(6)+III(4)",
    "IV(5)+I(1,3)+II(5)+III(2)",
    "I(4,1)+IV(7)+I(2,2)",
]
PAIRS = [
    ("I(3,2)+III(1)", "I(1,1)+I(2,3)"),  # isomorphic
    ("IV(4)+V", "I(2,2)+VI"),  # indeterminate
    ("IV(5)", "III(4)"),  # same caps, different gamma
    ("I(1,2)", "I(1,3)"),  # different caps
    ("I(2,2)+V", "IV(4)"),  # different exceptional counts
]
CATALOG = "+".join(map(str, catalog_descriptors()))

COMMANDS = (
    [["invariant", s, *flag] for s in SPECS for flag in ([], ["--json"])]
    + [["classify", a, b, *flag] for a, b in PAIRS for flag in ([], ["--json"])]
    + [
        ["invariant", "I(2,3"],  # parse error, exit 64
        ["classify", "II(4)", "I(1,1)"],  # range error, exit 65
        ["verify", "--json", CATALOG],
        ["table"],
        ["table", "--json"],
        ["lift", ALPHA, "M(1,1)", "M(2,2)"],  # accepted
        ["lift", ALPHA, "M(2,1)", "M(3,3)", "--json"],  # rejected
        ["sweep", "--max-factors", "2"],
        ["sweep", "--max-factors", "2", "--json"],
        # the shared flags ahead of the subcommand
        ["--json", "invariant", "I(2,3)"],
        ["--quiet", "classify", "IV(5)", "III(4)"],
        ["--json", "sweep", "--max-factors", "1"],
        # human-form verify: odd and even spin factors, transposed summands
        ["verify", "I(3,1)+IV(7)+I(1,3)+IV(6)+V"],
        ["verify", "IV(10)"],
        # spin factors past the catalog, both parities
        ["verify", "--json", "IV(11)+IV(12)+IV(13)+IV(14)"],
        ["verify", "IV(16)"],
        # rank-one, symplectic, hermitian and rectangular grids past the catalog
        ["verify", "--json", "I(1,8)+I(8,1)+I(1,9)+II(8)+III(8)+III(10)+I(6,6)"],
        ["verify", "I(20,20)"],
        # rank-one caps and classes past h = 9, and table rows past 7
        ["invariant", "I(1,40)+I(12,1)"],
        ["invariant", "I(1,40)+I(12,1)", "--json"],
        ["table", "--hilbert-max", "12", "--json"],
    ]
)


def outcome(argv: list) -> dict:
    """Exit code, stdout lines and stderr lines of one in-process run, the
    sweep's elapsed time masked."""
    alpha = str(GOLDEN / "alpha.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([alpha if a == ALPHA else a for a in argv])
    stdout = ELAPSED.sub("(<elapsed>)", out.getvalue())
    return {"exit": code, "stdout": stdout.splitlines(keepends=True),
            "stderr": err.getvalue().splitlines(keepends=True)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv)[:60])
def test_output_matches_golden(golden, argv):
    assert outcome(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    record = {" ".join(argv): outcome(argv) for argv in COMMANDS}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
