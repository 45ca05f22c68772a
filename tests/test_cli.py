import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from kgrid import catalog, cli
from kgrid.cartan import canonicalize_spec, parse_triple_spec
from kgrid.cli import run
from kgrid.invariant import Verdict, k_grid_invariant, recover_factors


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantCommand:
    def test_json_payload(self, capsys):
        code, out, _ = invoke(capsys, "invariant", "I(2,3)", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == {"k": 2, "left": [2, 3], "right": [3, 2]}
        assert payload["gamma"] == [[1, 1]]
        assert payload["exceptional_count"] == 0
        assert payload["published_table_diffs"] == []

    def test_spin_diff_reported(self, capsys):
        code, out, _ = invoke(capsys, "invariant", "IV(5)", "--json")
        assert code == 0
        payload = json.loads(out)
        diffs = payload["published_table_diffs"]
        assert len(diffs) == 1
        assert diffs[0]["factor"] == "IV(5)"
        assert diffs[0]["computed"] == [[2], [4]]
        assert diffs[0]["published"] == [[2]]

    def test_human_output(self, capsys):
        code, out, _ = invoke(capsys, "invariant", "I(2,3)")
        assert code == 0
        assert "left caps" in out and "[2, 3]" in out

    def test_quiet(self, capsys):
        code, out, _ = invoke(capsys, "invariant", "I(2,3)", "--quiet")
        assert code == 0 and out == ""


class TestClassifyCommand:
    def test_isomorphic_exit_zero(self, capsys):
        code, out, _ = invoke(capsys, "classify", "I(2,3)+III(4)", "III(4)+I(2,3)")
        assert code == 0 and "ISOMORPHIC" in out

    def test_not_isomorphic_exit_one(self, capsys):
        code, out, _ = invoke(capsys, "classify", "I(1,2)", "I(1,3)")
        assert code == 1 and "NOT_ISOMORPHIC" in out

    def test_indeterminate_exit_two(self, capsys):
        code, out, _ = invoke(capsys, "classify", "V", "VI")
        assert code == 2 and "INDETERMINATE" in out

    def test_json_carries_exit_code(self, capsys):
        code, out, _ = invoke(capsys, "classify", "IV(4)", "I(2,2)", "--json")
        payload = json.loads(out)
        assert payload["verdict"] == "ISOMORPHIC"
        assert payload["exit_code"] == code == 0


class TestVerifyCommand:
    def test_spin_report(self, capsys):
        code, out, _ = invoke(capsys, "verify", "IV(6)")
        assert code == 0
        assert "ok" in out and "DIFFERS" in out

    def test_json_report(self, capsys):
        code, out, _ = invoke(capsys, "verify", "III(3)+V", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        factors = payload["factors"]
        assert factors[0]["factor"] == "III(3)"
        assert factors[0]["span"]["ok"] is True
        assert factors[1] == {
            "factor": "V",
            "exceptional": True,
            "note": "trivial invariant; no grid model",
            "ok": True,
        }


    def test_failure_lines(self, capsys, monkeypatch):
        # I(3,3) with g[1,2] replaced by a copy of g[1,1] spans only 8
        real = cli.grid_for

        def short_grid(d):
            g = real(d)
            elements = list(g.elements)
            elements[g.labels.index("g[1,2]")] = g.by_label("g[1,1]")
            return dataclasses.replace(g, elements=tuple(elements))
        monkeypatch.setattr(cli, "grid_for", short_grid)
        code, out, _ = invoke(capsys, "verify", "I(3,3)")
        assert code == 1
        assert "I(3,3): FAIL (9 grid elements, span 8/9)" in out.splitlines()
        assert "  failure: span is 8, expected 9" in out.splitlines()


class TestErrorExits:
    def test_parse_error_exit_64(self, capsys):
        code, _, err = invoke(capsys, "invariant", "I(2,3")
        assert code == 64
        assert "position 5" in err

    def test_superscript_digit_exit_64(self, capsys):
        # str.isdigit accepts the superscript two, which int() rejects
        code, out, err = invoke(capsys, "invariant", "I(\u00b2,3)")
        assert code == 64 and out == ""
        assert "position 2" in err

    def test_range_error_exit_65(self, capsys):
        code, _, err = invoke(capsys, "classify", "II(4)", "I(1,1)")
        assert code == 65
        assert "IV(6)" in err  # names the coincidence

    def test_unknown_subcommand_exit_64(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 64

    def test_bad_space_literal_exit_64(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text("[[1]]")
        code, _, err = invoke(capsys, "lift", str(path), "M(2,x)", "M(2,2)")
        assert code == 64

    def test_space_literal_digits_split_by_whitespace_exit_64(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text("[[1]]")
        code, _, err = invoke(capsys, "lift", str(path), "M(1 2,1)", "M(20,20)")
        assert code == 64
        assert "parse error at position 0: bad summand 'M(1 2,1)'" in err

    def test_lift_rows_not_arrays_exit_64(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text("[1, 2]")
        code, _, err = invoke(capsys, "lift", str(path), "M(1,1)", "M(1,1)")
        assert code == 64
        assert "expected a JSON array of rows" in err

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_sweep_max_factors_below_one_exit_64(self, capsys, value):
        code, out, err = invoke(capsys, "sweep", "--max-factors", value)
        assert code == 64 and out == ""
        assert "--max-factors: expected an integer >= 1" in err


def test_runs_share_no_parsed_state(capsys):
    # the parser is built once per process; each run parses afresh
    code, out, _ = invoke(capsys, "invariant", "I(2,3)", "--json")
    assert code == 0 and json.loads(out)["group"]["k"] == 2
    code, out, _ = invoke(capsys, "invariant", "I(2,3)")
    assert code == 0 and out.startswith("factors (canonical): I(2,3)\n")
    code, out, err = invoke(capsys, "invariant")
    assert code == 64 and out == "" and "usage:" in err


class _ClosedPipe:
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedOutputPipe:
    def test_run_exits_141_silently(self, capsys):
        with contextlib.redirect_stdout(_ClosedPipe()):
            code = run(["verify", "I(2,2)"])
        assert code == 141
        assert capsys.readouterr().err == ""

    # buffered, the output fits the buffer and the exit flush meets the closed
    # pipe; unbuffered, the first print does
    @pytest.mark.parametrize("flags", [[], ["-u"]])
    def test_process_exits_141_silently(self, flags):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(catalog.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "kgrid.cli", "verify", "I(2,2)"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestLiftCommand:
    def test_success(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text("[[2]]")
        code, out, _ = invoke(capsys, "lift", str(path), "M(1,1)", "M(2,2)",
                              "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"ok": True, "mult": [[2]], "source": "M(1,1)",
                           "target": "M(2,2)"}

    def test_scalar_string_entries(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text('[["2"]]')
        code, out, _ = invoke(capsys, "lift", str(path), "M(1,1)", "M(2,2)")
        assert code == 0 and "lifted" in out

    def test_violation_names_summand(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text("[[2]]")
        code, out, _ = invoke(capsys, "lift", str(path), "M(2,1)", "M(3,3)",
                              "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["summand"] == 0 and payload["side"] == "left"
        assert payload["needed"] == 4 and payload["cap"] == 3

    def test_negative_entry_rejected(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text("[[-1]]")
        code, out, _ = invoke(capsys, "lift", str(path), "M(1,1)", "M(2,2)",
                              "--json")
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_fractional_entry_rejected(self, capsys, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text('[["1/2"]]')
        code, _, err = invoke(capsys, "lift", str(path), "M(1,1)", "M(2,2)")
        assert code == 1


class TestTableCommand:
    def test_byte_deterministic(self, capsys):
        args = ("table", "--spin-max", "6", "--rect-max", "3")
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_rows_cover_families(self, capsys):
        code, out, _ = invoke(capsys, "table", "--json", "--spin-max", "5",
                              "--rect-max", "2", "--hilbert-max", "2",
                              "--symplectic-max", "5", "--hermitian-max", "2")
        assert code == 0
        rows = {r["factor"]: r for r in json.loads(out)["rows"]}
        assert rows["I(2,2)"]["matches_published"] is True
        assert rows["II(5)"]["gamma_computed"] == [[2]]
        assert rows["IV(4)"]["matches_published"] is False
        assert rows["IV(5)"]["gamma_computed"] == [[2], [4]]
        assert rows["IV(5)"]["gamma_published"] == [[2]]


class TestSweepCommand:
    def test_two_factors(self, capsys):
        code, out, _ = invoke(capsys, "sweep", "--max-factors", "2")
        assert code == 0
        assert out.startswith("560 multisets of <= 2 factors, 350 isomorphism")
        assert "classification mismatches: 0\nrecovery failures: 0\n" in out
        code, out, _ = invoke(capsys, "sweep", "--max-factors", "2", "--json")
        assert code == 0
        assert json.loads(out) == {
            "max_factors": 2, "multisets": 560, "classes": 350,
            "mismatches": [], "recovery_failures": [], "ok": True,
            "near_collisions": [["II(5)+III(6)", "II(6)+III(5)"]],
        }

    @pytest.mark.parametrize("name, wrong, line", [
        ("classify", Verdict("NOT_ISOMORPHIC", None, None, ""),
         "MISMATCH (should be isomorphic): I(1,1) vs I(1,1)"),
        ("recover_factors", parse_triple_spec("I(1,2)"),
         "RECOVERY FAILURE: I(1,1)"),
    ])
    def test_wrong_first_result_exits_one(self, capsys, monkeypatch, name,
                                          wrong, line):
        real, calls = getattr(catalog, name), []

        def first_wrong(*args):
            calls.append(args)
            return wrong if len(calls) == 1 else real(*args)

        monkeypatch.setattr(catalog, name, first_wrong)
        code, out, _ = invoke(capsys, "sweep", "--max-factors", "1")
        assert code == 1 and out.startswith(line + "\n")
        calls.clear()
        code, out, _ = invoke(capsys, "sweep", "--max-factors", "1", "--json")
        payload = json.loads(out)
        assert code == 1 and payload["ok"] is False
        assert len(payload["mismatches"] + payload["recovery_failures"]) == 1

    def test_merged_near_collision_exits_one(self, capsys, monkeypatch):
        # the one near-collision at 2 factors, classified as isomorphic
        real = catalog.classify
        pair = {"II(5)+III(6)", "II(6)+III(5)"}

        def merges_pair(a, b):
            if {str(a), str(b)} == pair:
                return Verdict("ISOMORPHIC", None, None, "")
            return real(a, b)

        monkeypatch.setattr(catalog, "classify", merges_pair)
        line = "MISMATCH (should differ): II(5)+III(6) vs II(6)+III(5)"
        code, out, _ = invoke(capsys, "sweep", "--max-factors", "2")
        assert code == 1 and out.startswith(line + "\n")
        code, out, _ = invoke(capsys, "sweep", "--max-factors", "2", "--json")
        payload = json.loads(out)
        assert code == 1 and payload["ok"] is False
        assert payload["mismatches"] == [line]


class TestLargeParameters:
    # grid classes come from the family formula, so parameters far past any
    # buildable grid cost milliseconds
    def test_rank_one_and_spin(self, capsys):
        text = "I(1,40)+IV(60)"
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "invariant", text, "--json")
        assert code == 0
        payload = json.loads(out)
        left = [comb(40, k) for k in range(1, 41)] + [2 ** 29] * 2
        assert payload["group"]["left"] == left
        assert payload["gamma"] == [[0] * 40 + [2 ** 28] * 2,
                                    [comb(39, t) for t in range(40)] + [0, 0]]
        code, out, _ = invoke(capsys, "classify", text, "IV(60)+I(40,1)")
        assert code == 0 and out.startswith("ISOMORPHIC")
        spec = parse_triple_spec(text)
        assert recover_factors(k_grid_invariant(spec)) == canonicalize_spec(spec)
        code, out, _ = invoke(capsys, "table", "--hilbert-max", "40",
                              "--spin-max", "60")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2 + 10 + 40 + 4 + 7 + 57
        assert lines[-1].startswith("IV(60)")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"large-parameter commands took {elapsed:.2f}s"
