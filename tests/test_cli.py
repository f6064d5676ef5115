"""CLI integration: commands, exit codes, output stability."""

import csv
import hashlib
import io
import math
import os
import struct
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpn.cli import _csv_field, main
from qpn.expr import evaluate, parse
from qpn.net import RunConfig, run
from qpn.netfile import load
from qpn.reference import DEFAULT_TOL_BLOCKING, DEFAULT_TOL_PASSING

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_zeno_n4(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", str(GOLDEN / "zeno_n4.qpn"))
        assert code == 0
        assert "status: quiescent" in out
        line = next(l for l in out.splitlines() if l.strip().startswith("|10>"))
        assert float(line.split("=")[1]) == pytest.approx(math.cos(math.pi / 8) ** 8, abs=1e-9)

    def test_born_seeded_runs_are_identical(self, capsys):
        args = ("simulate", str(GOLDEN / "measurement.qpn"), "--policy", "born", "--seed", "7")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "total = " in out_a

    def test_parse_error_exit_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "broken.qpn"
        bad.write_text('net x\nplace p1 init=1 kind=counter\narc p1 -> t9 w="1"\n')
        code, _, err = run_cli(capsys, "simulate", str(bad))
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "no-such-file.qpn")
        assert code == 2

    def test_step_limit_exit_3(self, capsys, tmp_path):
        looping = tmp_path / "loop.qpn"
        looping.write_text(
            'net loop\nplace p1 init=1 kind=counter\ntrans t1\n'
            'arc p1 -> t1 w="1"\narc t1 -> p1 w="1"\n'
        )
        code, out, err = run_cli(capsys, "simulate", str(looping), "--max-steps", "10")
        assert code == 3
        assert "step limit" in err

    def test_trace_csv(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "simulate", str(GOLDEN / "entanglement.qpn"), "--trace", str(trace_path)
        )
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "step,transition,p1,p2,p3,p4,p5,p6"
        assert lines[1].startswith("0,,")
        assert len(lines) == 4  # header + initial + two firings
        assert lines[2].split(",")[1] == "t1"

    def test_trace_csv_quotes_ids_with_commas_or_quotes(self, capsys, tmp_path):
        """A place id in the header, or a transition id in its column, is an RFC 4180 field: the trace reads
        back with one cell per place on every row, and with the ids as the file declares them."""
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", str(GOLDEN / "odd_ids.qpn"), "--trace", str(trace_path))
        assert code == 0
        with open(trace_path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "transition", "a,b", '"q"', "r"]
        assert [row[1] for row in rows[1:]] == ["", "t,1", "t,1"]
        assert all(len(row) == len(rows[0]) for row in rows)
        assert trace_path.read_text().splitlines()[:2] == ['step,transition,"a,b","""q""",r', "0,,2.0,0.0,1.0"]

    @pytest.mark.parametrize("text", ["a,b", '"q"', "x\ny", "x\ry", 'say "a, b"', "plain", ""])
    def test_csv_field_reads_back_as_its_text(self, text):
        field = _csv_field(text)
        assert next(csv.reader([f"{field},end"])) == [text, "end"]
        assert (field == text) == (not any(c in text for c in ',"\r\n'))

    @pytest.mark.parametrize(
        "net, flags, golden",
        [
            ("passing_n2_m2.qpn", (), "trace_passing_n2_m2.csv"),
            ("measurement.qpn", ("--policy", "born", "--seed", "7"), "trace_measurement_born_seed7.csv"),
            ("priority.qpn", (), "trace_priority.csv"),
        ],
    )
    def test_golden_trace_csv(self, capsys, tmp_path, net, flags, golden):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", str(GOLDEN / net), *flags, "--trace", str(trace_path))
        assert code == 0
        assert trace_path.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_golden_trace_digest_of_a_run_through_loops(self, capsys, tmp_path):
        self._check_digest(capsys, tmp_path, "passing_n40_m60", 8400)

    def test_golden_blocking_trace_digest_of_a_run_through_loops(self, capsys, tmp_path):
        self._check_digest(capsys, tmp_path, "blocking_n60_m60", 7980)

    def _check_digest(self, capsys, tmp_path, net, firings):
        """The net runs at least half of its firings in loops, and its CSV matches a digest that an
        earlier engine wrote."""
        digest, name = (GOLDEN / f"trace_{net}.sha256").read_text().split()
        trace_path = tmp_path / name
        code, _, _ = run_cli(capsys, "simulate", str(GOLDEN / f"{net}.qpn"), "--trace", str(trace_path))
        assert code == 0
        assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == digest
        with mock.patch("qpn.net._STRUCTURES", {}):  # the net warms up its loops alone, as in a fresh process
            petri_net = load((GOLDEN / f"{net}.qpn").read_text()).net
            trace = run(petri_net, petri_net.initial_marking(), RunConfig())
        assert len(trace.steps) == firings
        assert sum(loop.firings for loop in petri_net.compiled().loops.values()) >= firings // 2

    def test_faulting_traced_run_writes_no_trace(self, capsys, tmp_path):
        f = tmp_path / "fault.qpn"
        f.write_text('net fault\nplace c init=3 kind=counter\nplace a init=1e308 kind=amplitude\ntrans t\n'
                     'arc c -> t w="1"\narc t -> a w="1e308"\n')
        trace_path = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "simulate", str(f), "--trace", str(trace_path))
        assert code == 3
        assert err == "error: firing t left place a at inf (at step 0)\n"
        assert out == ""
        assert not trace_path.exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            # the first firing pushes a past the largest float
            ('place c init=3 kind=counter\nplace a init=1e308 kind=amplitude\ntrans t\n'
             'arc c -> t w="1"\narc t -> a w="1e308"\n', "firing t left place a at inf"),
            ('place c init=1 kind=counter\nplace a init=0 kind=amplitude\ntrans t\n'
             'arc c -> t w="1"\narc t -> a w="1/m(a)"\n', "arc t->a w=1/m(a)"),
        ],
        ids=["overflow", "division"],
    )
    def test_runtime_fault_exit_3(self, capsys, tmp_path, body, message):
        f = tmp_path / "fault.qpn"
        f.write_text("net fault\n" + body)
        code, out, err = run_cli(capsys, "simulate", str(f))
        assert code == 3
        assert message in err and "(at step 0)" in err
        assert out == ""

    def test_file_config_defaults_apply(self, capsys, tmp_path):
        f = tmp_path / "conf.qpn"
        f.write_text(
            "net conf\nplace p1 init=1 kind=counter\ntrans t1\n"
            'arc p1 -> t1 w="1"\narc t1 -> p1 w="1"\nconfig max_steps=5\n'
        )
        code, _, _ = run_cli(capsys, "simulate", str(f))
        assert code == 3  # the file's own step budget applies

    def test_file_policy_applies_and_flag_overrides(self, capsys, tmp_path):
        f = tmp_path / "born.qpn"
        f.write_text(
            (GOLDEN / "measurement.qpn").read_text() + "config policy=born seed=6\n"
        )
        code, out, _ = run_cli(capsys, "simulate", str(f))
        assert code == 0
        assert "policy: born  seed: 6" in out
        code, out, _ = run_cli(capsys, "simulate", str(f), "--policy", "det")
        assert code == 0
        assert "policy: det" in out


class TestTables:
    def test_single_passing_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "tables", "--mode", "passing", "--N", "320", "--M", "25"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mode,N,M,net,oracle,paper,delta_net_oracle,delta_net_paper,verdict"
        fields = lines[1].split(",")
        assert fields[:3] == ["passing", "320", "25"]
        assert fields[5] == "0.906"
        assert fields[8] == "PASS"

    def test_blocking_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "tables", "--mode", "blocking", "--N", "320", "--M", "50"
        )
        assert code == 0
        assert out.splitlines()[1].endswith("PASS")

    def test_anomalous_row_reported_not_failed(self, capsys):
        code, out, _ = run_cli(
            capsys, "tables", "--mode", "blocking", "--N", "2500", "--M", "25"
        )
        assert code == 0
        row = out.splitlines()[1]
        assert row.endswith("ANOMALY")

    def test_cell_outside_reference_grid(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--mode", "passing", "--N", "10", "--M", "5")
        assert code == 0
        fields = out.splitlines()[1].split(",")
        assert fields[5] == ""  # no published value
        assert fields[8] == "PASS"

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tables", "--mode", "passing", "--N", "320", "--M", "25", "--format", "md",
        )
        assert code == 0
        assert out.startswith("| mode | N | M |")

    def test_byte_stable(self, capsys):
        args = ("tables", "--mode", "blocking", "--N", "5,3", "--M", "4,2")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b
        # rows emitted in sorted (mode, N, M) order regardless of input order
        cells = [tuple(line.split(",")[:3]) for line in out_a.splitlines()[1:]]
        assert cells == [
            ("blocking", "3", "2"),
            ("blocking", "3", "4"),
            ("blocking", "5", "2"),
            ("blocking", "5", "4"),
        ]

    def test_bad_list_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "tables", "--N", "320;500")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--N", "--M"])
    def test_empty_list_exit_2(self, capsys, flag):
        """An empty --N or --M is an empty list, not the default grid axis."""
        code, out, err = run_cli(capsys, "tables", "--N", "2", "--M", "2", flag, "")
        assert (code, out, err) == (2, "", "error: empty list: ''\n")

    def test_golden_csv(self, capsys):
        """Byte-for-byte regression of the CSV surface on one reference cell."""
        code, out, _ = run_cli(capsys, "tables", "--N", "320", "--M", "25")
        assert code == 0
        assert out == (GOLDEN / "tables_n320_m25.csv").read_text()

    def test_golden_csv_of_a_wide_grid(self, capsys):
        """96 cells of two net structures: all but the first net of each structure
        build their code from the cached structure, with their own literals."""
        code, out, _ = run_cli(
            capsys, "tables", "--mode", "both", "--N", "2,3,5,8,13,21,34,48", "--M", "2,3,5,8,13,24",
        )
        assert code == 0
        assert out == (GOLDEN / "tables_wide.csv").read_text()

    def test_golden_csv_of_cells_that_share_their_loops(self, capsys):
        """The loops of N=320 serve N=321, patched: each cell's inner cycle runs in the loop the first compiled."""
        code, out, _ = run_cli(capsys, "tables", "--mode", "both", "--N", "320,321", "--M", "25")
        assert code == 0
        assert out == (GOLDEN / "tables_n320_321_m25.csv").read_text()

    def test_golden_csv_of_a_deep_cell(self, capsys):
        """The same on a cell whose inner cycles run about 5,000 firings in compiled loops."""
        code, out, _ = run_cli(capsys, "tables", "--mode", "both", "--N", "2500", "--M", "25")
        assert code == 0
        assert out == (GOLDEN / "tables_n2500_m25.csv").read_text()

    def test_golden_csv_of_the_cell_with_the_most_loop_exits(self, capsys):
        """Passing N=320/M=150 leaves its inner loop 148 times, each exit fired as plain steps."""
        code, out, _ = run_cli(capsys, "tables", "--mode", "passing", "--N", "320", "--M", "150")
        assert code == 0
        assert out == (GOLDEN / "tables_passing_n320_m150.csv").read_text()

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tables", "--mode", "passing", "--N", "320", "--M", "25",
            "--tol-passing", "1e-9",
        )
        assert code == 1
        assert out.splitlines()[1].endswith("FAIL")


class TestCheck:
    def test_correlation_holds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", str(GOLDEN / "entanglement.qpn"),
            "--pred", "m(p3)==m(p5) AND m(p4)==m(p6)",
        )
        assert code == 0
        assert "holds on all 8 reachable markings" in out

    def test_counterexample(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", str(GOLDEN / "entanglement.qpn"), "--pred", "m(p3)==0"
        )
        assert code == 1
        assert "counterexample after firing: t1" in out

    def test_amplitude_net_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "check", str(GOLDEN / "zeno_n4.qpn"), "--pred", "0==0"
        )
        assert code == 2
        assert "not a counter place" in err

    def test_bad_predicate_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "check", str(GOLDEN / "entanglement.qpn"), "--pred", "m(p3)=="
        )
        assert code == 2

    def test_undeclared_place_in_predicate_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "check", str(GOLDEN / "entanglement.qpn"), "--pred", "m(p99)==0"
        )
        assert code == 2
        assert "p99" in err


    def test_undeclared_place_after_the_search(self, capsys):
        """The search's own errors come first; a comparison never reached names nothing."""
        code, _, err = run_cli(capsys, "check", str(GOLDEN / "zeno_n4.qpn"), "--pred", "m(p99)==0")
        assert code == 2
        assert "not a counter place" in err
        code, out, _ = run_cli(
            capsys, "check", str(GOLDEN / "entanglement.qpn"), "--pred", "0==0 OR m(p99)==0"
        )
        assert (code, out) == (0, "holds on all 8 reachable markings\n")

    def test_faulting_predicate_exit_3_with_the_reference_message(self, capsys):
        code, _, err = run_cli(
            capsys, "check", str(GOLDEN / "entanglement.qpn"), "--pred", "1/m(p3)>0"
        )
        assert code == 3
        assert err == "error: division by zero in 1/m(p3)\n"


@pytest.mark.parametrize("argv", [["simulate"], ["check", "--pred", "m(p)==1"]])
def test_repeated_consume_golden_net_exits_0(capsys, argv):
    """Two consume arcs of weight 1 from p holding 1: t is disabled, no counter fault."""
    code, out, err = run_cli(capsys, argv[0], str(GOLDEN / "repeated_consume.qpn"), *argv[1:])
    assert (code, err) == (0, "")
    assert "status: quiescent" in out or out == "holds on all 1 reachable markings\n"


class TestMeasure:
    def test_expected_distribution(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "measure", str(GOLDEN / "measurement.qpn"), "--runs", "5000", "--seed", "1",
            "--expect",
        )
        assert code == 0
        assert "worst deviation" in out

    @staticmethod
    def _two_branches(tmp_path, t1_extra):
        """Branches t1 and t2 each deposit 1/sqrt(2) into the place mapped to A."""
        path = tmp_path / "branches.qpn"
        path.write_text(
            'net branches\nplace src init=1 kind=counter\nplace a init=0 kind=amplitude\n'
            'place z init=0 kind=amplitude\ntrans t1\ntrans t2\narc src -> t1 w="1"\n'
            'arc src -> t2 w="1"\narc t1 -> a w="1/sqrt(2)"\narc t2 -> a w="1/sqrt(2)"\n'
            + t1_extra + 'k = 1\nmap a = "A"\nmap z = "Z"\n'
        )
        return str(path)

    def test_expect_pools_branches_with_one_outcome(self, capsys, tmp_path):
        """Two branches that both leave only A expect A once, with their summed probability."""
        path = self._two_branches(tmp_path, "")
        code, out, _ = run_cli(capsys, "measure", path, "--runs", "2000", "--seed", "1", "--expect")
        assert code == 0
        assert out.count("expect ") == 1
        assert "  expect A: 1.000000  observed 1.000000  (0.00 sigma) ok\n" in out

    def test_expect_labels_a_branch_as_a_run_counts_it(self, capsys, tmp_path):
        """A deposit of 1e-10 into Z is below the 1e-9 a run counts, so t1 expects A, not A & Z."""
        path = self._two_branches(tmp_path, 'arc t1 -> z w="1e-10"\n')
        code, out, _ = run_cli(capsys, "measure", path, "--runs", "2000", "--seed", "1", "--expect")
        assert code == 0
        assert "A & Z" not in out
        assert "  expect A: 1.000000  observed 1.000000  (0.00 sigma) ok\n" in out

    def test_seeded_output_matches_golden(self, capsys):
        """The seeded counts and the --expect report, byte for byte as recorded."""
        code, out, err = run_cli(
            capsys,
            "measure", str(GOLDEN / "measurement.qpn"), "--runs", "2000", "--seed", "1", "--expect",
        )
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "measure_runs2000_seed1.txt").read_text(encoding="utf-8")

    def test_seeded_output_matches_golden_on_eight_branches(self, capsys):
        """Eight branches with sqrt(a_i/S) weights: counts and --expect report as recorded."""
        code, out, err = run_cli(
            capsys,
            "measure", str(GOLDEN / "branches8.qpn"), "--runs", "2000", "--seed", "7", "--expect",
        )
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "measure_branches8_runs2000_seed7.txt").read_text(encoding="utf-8")

    def test_unmarked_outcome_has_one_name(self, capsys, tmp_path):
        """A branch that marks no mapped place is named alike in its frequency and expect lines."""
        text = (GOLDEN / "measurement.qpn").read_text(encoding="utf-8")
        path = tmp_path / "unmapped.qpn"
        path.write_text(text.replace('map p4 = "e3"\n', ""), encoding="utf-8")
        code, out, _ = run_cli(capsys, "measure", str(path), "--runs", "300", "--seed", "1", "--expect")
        assert code == 0
        assert "  (no marked outcome): 0.326667 +- 0.027077\n" in out
        assert "  expect (no marked outcome): 0.333333  observed 0.326667  (0.24 sigma) ok\n" in out
        assert "expect :" not in out

    def test_single_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", str(GOLDEN / "measurement.qpn"), "--runs", "1", "--seed", "5"
        )
        assert code == 0
        assert "1.000000" in out

    def test_correlated_outcomes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "measure", str(GOLDEN / "entanglement_mapped.qpn"), "--runs", "400", "--seed", "3",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            name = line.strip().split(":")[0]
            if not name:
                continue
            assert ("A=1" in name) == ("B=0" in name)

    def test_net_without_mapping_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "measure", str(GOLDEN / "entanglement.qpn"), "--runs", "10"
        )
        assert code == 2
        assert "mapping" in err

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QPN_SEED", "123")
        _, out_env, _ = run_cli(capsys, "measure", str(GOLDEN / "measurement.qpn"), "--runs", "50")
        monkeypatch.delenv("QPN_SEED")
        _, out_explicit, _ = run_cli(
            capsys,
            "measure", str(GOLDEN / "measurement.qpn"), "--runs", "50", "--seed", "123",
        )
        assert out_env == out_explicit


    def test_non_finite_born_total_exit_3(self, capsys, tmp_path):
        huge = tmp_path / "huge.qpn"
        huge.write_text(
            'net huge\nplace c init=1 kind=counter\nplace a init=0 kind=amplitude\n'
            'place b init=0 kind=amplitude\ntrans t1\ntrans t2\narc c -> t1 w="1"\n'
            'arc c -> t2 w="1"\narc t1 -> a w="1e200"\narc t2 -> b w="1e200"\n'
            'k = 1\nmap a = "A"\nmap b = "B"\n'
        )
        for argv in (("simulate", str(huge), "--policy", "born"),
                     ("measure", str(huge), "--runs", "1000", "--expect")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 3
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_runs_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "measure", str(GOLDEN / "measurement.qpn"), "--runs", "0")
        assert code == 2
        assert err == "error: --runs must be >= 1, got 0\n"
        assert out == ""


class TestArgumentDomains:
    """Bad flag values and environment settings are one-line usage errors (exit 2)."""

    @pytest.mark.parametrize("value", ["abc", "-1", str(2**64), "1.5", ""])
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", str(GOLDEN / "zeno_n4.qpn")],
            ["simulate", str(GOLDEN / "zeno_n4.qpn")],
            ["measure", str(GOLDEN / "measurement.qpn"), "--runs", "5"],
        ],
    )
    def test_bad_seed_env(self, capsys, monkeypatch, argv, value):
        monkeypatch.setenv("QPN_SEED", value)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "QPN_SEED" in err

    @pytest.mark.parametrize("command", ["simulate", "measure"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed_flag(self, capsys, command, seed):
        extra = ["--runs", "5"] if command == "measure" else []
        code, _, err = run_cli(
            capsys, command, str(GOLDEN / "measurement.qpn"), *extra, "--seed", seed
        )
        assert code == 2
        assert err == f"error: --seed must be an integer in [0, 2^64), got {seed}\n"

    def test_largest_seed_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("QPN_SEED", str(2**64 - 1))
        code, out, _ = run_cli(capsys, "simulate", str(GOLDEN / "measurement.qpn"), "--policy", "born")
        assert code == 0
        assert f"seed: {2**64 - 1}" in out

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_steps_below_one(self, capsys, value):
        code, out, err = run_cli(capsys, "simulate", str(GOLDEN / "zeno_n4.qpn"), "--max-steps", value)
        assert code == 2
        assert out == ""
        assert err == f"error: --max-steps must be >= 1, got {value}\n"

    def test_max_steps_one_is_honoured(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", str(GOLDEN / "zeno_n4.qpn"), "--max-steps", "1")
        assert code == 3
        assert "firings: 1" in out

    def test_max_states_below_one(self, capsys):
        code, _, err = run_cli(
            capsys, "check", str(GOLDEN / "entanglement.qpn"), "--pred", "0==0", "--max-states", "0"
        )
        assert code == 2
        assert err == "error: --max-states must be >= 1, got 0\n"

    @pytest.mark.parametrize("flag", ["--tol-passing", "--tol-blocking"])
    def test_bad_tolerance(self, capsys, flag):
        code, _, err = run_cli(capsys, "tables", "--N", "2", "--M", "2", flag, "nan")
        assert code == 2
        assert err == f"error: {flag} must be a number >= 0, got nan\n"

    def test_unwritable_trace(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "trace.csv"
        code, _, err = run_cli(capsys, "simulate", str(GOLDEN / "zeno_n4.qpn"), "--trace", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot write trace {path}:") and err.count("\n") == 1


_SEED_ENV = st.sampled_from([None, "0", "7", "-1", str(2**64 - 1), str(2**64), "abc", "", "0x10"])
_SMALL_INTS = st.sampled_from(["-1", "0", "1", "3", "x"])
_CYCLE_COUNTS = st.sampled_from(["-1", "0", "1", "3", "x", str(10**400)])
_FILES = st.sampled_from(
    [str(GOLDEN / name) for name in ("measurement.qpn", "entanglement.qpn", "zeno_n4.qpn")]
    + ["no-such-file.qpn"]
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["simulate", "measure", "check", "oracle", "tables", "validate"]))
    flags = []

    def maybe(flag, values):
        if draw(st.booleans()):
            flags.extend([flag, draw(values)])

    if command == "simulate":
        flags.append(draw(_FILES))
        maybe("--policy", st.sampled_from(["det", "born", "x"]))
        maybe("--seed", _SMALL_INTS)
        maybe("--max-steps", _SMALL_INTS)
    elif command == "measure":
        flags.append(draw(_FILES))
        flags += ["--runs", draw(_SMALL_INTS)]
        maybe("--seed", _SMALL_INTS)
        if draw(st.booleans()):
            flags.append("--expect")
    elif command == "check":
        flags.append(draw(_FILES))
        flags += ["--pred", draw(st.sampled_from(["m(p3)==m(p5)", "0==0", "m(p9)==1", "m(p3)=="]))]
        maybe("--max-states", _SMALL_INTS)
    elif command == "oracle":
        flags.append(draw(st.sampled_from(["zeno", "passing", "blocking"])))
        flags += ["--n", draw(_CYCLE_COUNTS)]
        maybe("--m", _CYCLE_COUNTS)
    elif command == "tables":
        maybe("--mode", st.sampled_from(["passing", "blocking", "both"]))
        # always small cells: without --N/--M the command runs the full grid
        flags += ["--N", draw(st.sampled_from(["2", "2,3", "0", "", "x", str(10**400)]))]
        flags += ["--M", draw(st.sampled_from(["2", "3", "-1", ",", str(10**400)]))]
        maybe("--tol-passing", st.sampled_from(["0.1", "-1", "nan", "x"]))
        maybe("--format", st.sampled_from(["csv", "md"]))
    else:
        flags.append(draw(_FILES))
    return [command, *flags]


@settings(max_examples=80, deadline=None)
@given(_argv(), _SEED_ENV)
def test_main_only_returns_documented_codes(argv, seed_env):
    """Any flags and QPN_SEED value end in exit code 0-3, never an exception."""
    env = dict(os.environ)
    env.pop("QPN_SEED", None)
    if seed_env is not None:
        env["QPN_SEED"] = seed_env
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().count("\n") == 1


class TestOracleCmd:
    def test_zeno(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "zeno", "--n", "4")
        assert code == 0
        p10 = float(out.splitlines()[0].split("=")[1])
        assert p10 == pytest.approx(math.cos(math.pi / 8) ** 8)

    def test_blocking(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "blocking", "--n", "320", "--m", "25")
        assert code == 0
        d2 = float(out.splitlines()[1].split("=")[1])
        assert d2 == pytest.approx(0.912, abs=0.01)

    def test_invalid_params_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "oracle", "blocking", "--n", "1", "--m", "25")
        assert code == 2


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", str(GOLDEN / "blocking_n2_m2.qpn"))
        assert code == 0
        assert "24 places, 18 transitions" in out

    def test_broken_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.qpn"
        bad.write_text("net x\nplace p1 init=-3 kind=counter\n")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_file_saved_with_a_utf8_bom(self, capsys, tmp_path):
        """A byte order mark before the header is not part of line 1."""
        plain, bom = tmp_path / "plain.qpn", tmp_path / "bom.qpn"
        plain.write_bytes((GOLDEN / "measurement.qpn").read_bytes())
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for argv in (("validate",), ("measure", "--runs", "200", "--seed", "3", "--expect")):
            code, out, err = run_cli(capsys, argv[0], str(bom), *argv[1:])
            assert (code, err) == (0, "")
            assert out.replace("bom.qpn", "plain.qpn") == run_cli(capsys, argv[0], str(plain), *argv[1:])[1]


@pytest.mark.parametrize("argv", [("simulate",), ("check", "--pred", "m(p)==0"), ("measure", "--runs", "1"),
                                  ("validate",)])
def test_non_utf8_file_exits_2(capsys, argv):
    path = str(GOLDEN / "bad" / "not_utf8.qpn")
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


def _weighted_net(tmp_path, weight):
    """A net whose one firing deposits weight, read over p = 0.7, into q."""
    path = tmp_path / "weighted.qpn"
    path.write_text("net weighted\nplace s init=1 kind=counter\nplace p init=0.7 kind=amplitude\n"
                    f'place q init=0 kind=amplitude\ntrans t\narc s -> t w="1"\narc t -> q w="{weight}"\n')
    return str(path)


class TestDepthBound:
    """Weights and predicates deeper than expr.MAX_DEPTH are usage errors, never a traceback."""

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("weight, column", [
        ("(" * 300 + "m(p)" + ")" * 300, 101),
        ("-" * 3000 + "m(p)", 101),
        ("+".join(["m(p)"] * 300), 505),
    ])
    def test_too_deep_weight_exits_2(self, capsys, tmp_path, command, weight, column):
        code, out, err = run_cli(capsys, command, _weighted_net(tmp_path, weight))
        assert (code, out) == (2, "")
        assert err == ("error: line 7: bad weight expression: nested deeper than 100 levels"
                       f" at line 1, column {column}\n")

    @pytest.mark.parametrize("pred, column", [(" AND ".join(["m(p1)>=0"] * 300), 1310),
                                           ("NOT " * 1200 + "m(p1)>=0", 401)])
    def test_too_deep_predicate_exits_2(self, capsys, pred, column):
        code, out, err = run_cli(capsys, "check", str(GOLDEN / "entanglement.qpn"), "--pred", pred)
        assert (code, out) == (2, "")
        assert err == f"error: nested deeper than 100 levels at line 1, column {column}\n"

    @pytest.mark.parametrize("weight", [
        "(" * 100 + "m(p)" + ")" * 100,
        "+".join(["m(p)"] * 101),
        "-" * 100 + "m(p)",
        "cos(" * 100 + "m(p)" + ")" * 100,
        "m(p)-(" * 99 + "m(p)-1" + ")" * 99,
    ])
    def test_100_levels_simulate_as_evaluated(self, capsys, tmp_path, weight):
        path = _weighted_net(tmp_path, weight)
        code, out, err = run_cli(capsys, "simulate", path)
        assert (code, err) == (0, "")
        doc = load(Path(path).read_text())
        final = run(doc.net, doc.net.initial_marking(), RunConfig()).final
        expected = 0.0 + evaluate(parse(weight), {"p": 0.7})
        assert struct.pack("d", final[2]) == struct.pack("d", expected)
        assert expected == 0.0 or f"  q = {expected!r}" in out.splitlines()


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestSharedParser:
    """main reuses one parser per process: no call sees another call's arguments."""

    def test_seed_flag_does_not_stick(self, capsys, monkeypatch):
        monkeypatch.delenv("QPN_SEED", raising=False)
        net = str(GOLDEN / "measurement.qpn")
        code, seeded, _ = run_cli(capsys, "simulate", net, "--policy", "born", "--seed", "5")
        assert code == 0 and "seed: 5 " in seeded
        code, default, _ = run_cli(capsys, "simulate", net, "--policy", "born")
        assert code == 0 and "seed: 0 " in default

    def test_usage_error_twice(self, capsys):
        first = run_cli(capsys, "simulate", str(GOLDEN / "zeno_n4.qpn"), "--max-steps", "x")
        second = run_cli(capsys, "simulate", str(GOLDEN / "zeno_n4.qpn"), "--max-steps", "x")
        assert first == second
        code, out, err = first
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "qpn simulate: error: argument --max-steps: invalid int value: 'x'"

    def test_help_exits_zero_and_leaves_the_parser_working(self, capsys):
        assert main(["--help"]) == 0
        assert main(["tables", "--help"]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "oracle", "zeno", "--n", "4")
        assert code == 0 and out.startswith("p10 = ")

    def test_tables_after_check_gets_tables_defaults(self, capsys):
        code, _, _ = run_cli(capsys, "check", str(GOLDEN / "entanglement.qpn"), "--pred", "0==0",
                             "--max-states", "100")
        assert code == 0
        code, out, _ = run_cli(capsys, "tables", "--N", "3", "--M", "2")
        explicit = run_cli(capsys, "tables", "--N", "3", "--M", "2", "--mode", "both", "--format", "csv",
                           "--tol-passing", repr(DEFAULT_TOL_PASSING), "--tol-blocking", repr(DEFAULT_TOL_BLOCKING))
        assert (code, out) == explicit[:2]
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["blocking", "passing"]
