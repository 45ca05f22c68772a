"""Refusals that no other test reaches: each call raises the named error or
returns None, and each ``kgrid`` command exits with the named code and
message."""

import pytest

from kgrid.cartan import (
    EXCEPTIONAL_16,
    CartanDescriptor,
    CoordinateError,
    ExceptionalFactorError,
    SpinSystem,
    TripleSpec,
    coords_of,
    embedded_basis,
    intrinsic_jordan,
)
from kgrid.cli import run
from kgrid.exact import (ONE, ZERO, Matrix, ShapeError, identity, mat, matrix_unit,
                         trace, zeros)
from kgrid.invariant import KGridInvariant, _match_block
from kgrid.ktheory import DoubleScaledGroup
from kgrid.tro import CliffordElement, TroElement, TroHom, TroSpace

_M11 = TroSpace(((1, 1),))
_IV5 = CartanDescriptor("IV", (5,))


def _two_word_element():
    w = embedded_basis(_IV5)[0]
    return CliffordElement(w.space, (w.word, w.word))


def _off_the_embedded_copy():
    # gamma_1 gamma_2 is a word of IV(5)'s enveloping TRO, not of the factor
    space = embedded_basis(_IV5)[0].space
    return coords_of(_IV5, CliffordElement(space, (matrix_unit(1, 16, 0, 3),)))


def _symmetry_elsewhere():
    identity_m11 = TroElement(_M11, (identity(1),))
    return SpinSystem(identity_m11, (TroElement(TroSpace(((2, 2),)), (identity(2),)),))


def _lift(tmp_path, text):
    path = tmp_path / "alpha.json"
    path.write_text(text)
    return run(["lift", str(path), "M(1,1)", "M(2,2)"]), str(path)


# (name, call, the error it raises, None for a call that returns None, or
# the exit code of a kgrid command; the message)
_REFUSALS = [
    ("scalar-division-by-zero", lambda: ONE / ZERO, ZeroDivisionError,
     "division by zero"),
    ("too-few-entries", lambda: Matrix(2, 2, (ONE,)), ShapeError, "2x2 needs 4 entries"),
    ("degenerate-shape", lambda: zeros(0, 1), ShapeError, "degenerate shape 0x1"),
    ("sum-of-shapes", lambda: zeros(2, 2) + zeros(2, 3), ShapeError, "shape mismatch"),
    ("empty-mat", lambda: mat([]), ShapeError, "at least one row"),
    ("non-square-trace", lambda: trace(zeros(2, 3)), ShapeError, "non-square 2x3"),
    ("unit-outside", lambda: matrix_unit(2, 2, 2, 0), IndexError, r"unit \(2, 0\) outside"),
    ("empty-space", lambda: TroSpace(()), ValueError, "at least one summand"),
    ("block-too-many", lambda: TroElement(_M11, (zeros(1, 1), zeros(1, 1))),
     ShapeError, "1 summands but 2 blocks"),
    ("two-word-clifford", _two_word_element, ShapeError, "one word, not 2 blocks"),
    ("multiplicity-shape", lambda: TroHom(_M11, _M11, ((1, 0),)),
     ShapeError, "must be 1x1"),
    ("cap-lengths", lambda: DoubleScaledGroup((1,), (1, 1)), ValueError, "equal length"),
    ("empty-spec", lambda: TripleSpec(()), ValueError, "at least one factor"),
    ("symmetry-elsewhere", _symmetry_elsewhere, ValueError,
     "symmetry 0 lives in a different space"),
    ("off-the-embedded-copy", _off_the_embedded_copy, CoordinateError,
     r"not in the embedded copy of IV\(5\)"),
    ("jordan-off-shape-on-i", lambda: intrinsic_jordan(
        CartanDescriptor("I", (2, 3)), *[matrix_unit(3, 2, 0, 0)] * 3),
     CoordinateError, r"I\(2,3\) expects a 2x3 coordinate matrix, got \(3, 2\)"),
    ("jordan-identity-on-ii", lambda: intrinsic_jordan(
        CartanDescriptor("II", (5,)), *[identity(5)] * 3),
     CoordinateError, r"not in the coordinate space of II\(5\)"),
    ("jordan-unit-on-iii", lambda: intrinsic_jordan(
        CartanDescriptor("III", (3,)), zeros(3, 3), zeros(3, 3), matrix_unit(3, 3, 0, 1)),
     CoordinateError, r"not in the coordinate space of III\(3\)"),
    ("exceptional-jordan", lambda: intrinsic_jordan(
        EXCEPTIONAL_16, zeros(1, 1), zeros(1, 1), zeros(1, 1)),
     ExceptionalFactorError, "no coordinate model"),
    ("block-caps-differ", lambda: _match_block(((1, 1),), frozenset({(1,)}),
                                               ((2, 2),), frozenset({(1,)})),
     None, None),
    ("class-entry-float", lambda: KGridInvariant(DoubleScaledGroup((1, 2), (2, 1)),
                                                 frozenset({(1.5, 0)})),
     ValueError, "grid class entries must be ints, got 1.5"),
    ("class-entry-bool", lambda: KGridInvariant(DoubleScaledGroup((1, 2), (2, 1)),
                                                frozenset({(0, True)})),
     ValueError, "grid class entries must be ints, got True"),
    ("lift-not-json", lambda tmp: _lift(tmp, "[[1,]]"), 64,
     "parse error at position 4: {path}: Expecting value"),
    ("lift-float-cell", lambda tmp: _lift(tmp, "[[1.5]]"), 1,
     "multiplicity entry 1.5 is not an integer"),
    ("lift-bool-cell", lambda tmp: _lift(tmp, "[[true]]"), 1,
     "multiplicity entry True is not an integer"),
]


@pytest.mark.parametrize("call,outcome,message", [r[1:] for r in _REFUSALS],
                         ids=[r[0] for r in _REFUSALS])
def test_refusal(call, outcome, message, tmp_path, capsys):
    if outcome is None:
        assert call() is None
    elif isinstance(outcome, int):  # a kgrid command: its exit code and stderr
        code, path = call(tmp_path)
        captured = capsys.readouterr()
        assert code == outcome and captured.out == ""
        assert captured.err == f"kgrid: {message.format(path=path)}\n"
    else:
        with pytest.raises(outcome, match=message):
            call()
