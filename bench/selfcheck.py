"""Mutation checks of the benchmark's output checkers.

Each operation of every tiny workload is run for real; its checker must
accept the real output and reject each tampered copy below.  A checker that
accepts a tampered output would let a wrong result count as correct.
"""

from __future__ import annotations

import re
from pathlib import Path

import workloads


def _edit_line(out: str, pattern: str, edit) -> str:
    """Apply `edit` to the first line matching `pattern`."""
    lines = out.split("\n")
    for i, line in enumerate(lines):
        if re.search(pattern, line):
            lines[i] = edit(line)
            break
    return "\n".join(lines)


def _bump_number(line: str) -> str:
    """Change the last number on the line by a small relative amount."""
    match = list(re.finditer(r"-?\d+(\.\d+)?(e-?\d+)?", line))[-1]
    value = float(match.group())
    new = str(int(value) + 1) if match.group().isdigit() else repr(value * (1 + 1e-6) + 1e-6)
    return line[:match.start()] + new + line[match.end():]


def _set_field(index: int, text: str):
    def edit(line: str) -> str:
        fields = line.split(",")
        fields[index] = text
        return ",".join(fields)
    return edit


# (what the tamper does, applies to argv[0], rc/out transform)
TAMPERS = (
    ("exit code 1", "tables", lambda rc, out: (1, out)),
    ("verdict FAIL", "tables", lambda rc, out: (rc, _edit_line(out, r",PASS$", _set_field(8, "FAIL")))),
    ("|net - oracle| 2e-9", "tables", lambda rc, out: (rc, _edit_line(out, r",PASS$", _set_field(6, "2.000e-09")))),
    ("oracle column off", "tables", lambda rc, out: (rc, _edit_line(out, r",PASS$", _set_field(4, "0.123456789")))),
    ("one firing more", "simulate", lambda rc, out: (rc, _edit_line(out, r"firings: ", _bump_number))),
    ("final amplitude off", "simulate", lambda rc, out: (rc, _edit_line(out, r"^  p(11|2) = ", _bump_number))),
    ("exit code 3", "simulate", lambda rc, out: (3, out)),
    ("outside 4 sigma", "measure",
     lambda rc, out: (rc, _edit_line(out, r"\) ok$", lambda line: line[:-3] + ") OUT OF RANGE"))),
    ("outcome count off", "measure", lambda rc, out: (rc, _edit_line(out, r" \+- ", lambda line: line.replace(": 0.", ": 1.", 1)))),
    ("missing expect lines", "measure", lambda rc, out: (rc, out.split("  expect")[0])),
    ("state count off", "check", lambda rc, out: (rc, _edit_line(out, r"^holds on all", _bump_number))),
    ("counterexample path off", "check",
     lambda rc, out: (rc, _edit_line(out, r"^counterexample", lambda line: line + " zz"))),
    ("counterexample marking off", "check", lambda rc, out: (rc, _edit_line(out, r"^marking: ", _bump_number))),
)


def checker_problems(workdir: Path, root: Path, run_cli) -> list[str]:
    """Every real output must pass its check and every applicable tamper must fail it."""
    problems = []
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, 7, "tiny", workdir / name, root)
        for op in plan.ops:
            rc, out, err = run_cli(op.argv)
            if op.check(rc, out, err):
                problems.append(f"{op.label}: checker rejects the real output")
                continue
            tampered_any = False
            for what, command, tamper in TAMPERS:
                if op.argv[0] != command:
                    continue
                bad_rc, bad_out = tamper(rc, out)
                if (bad_rc, bad_out) == (rc, out):
                    continue  # the pattern does not occur in this output
                tampered_any = True
                if not op.check(bad_rc, bad_out, err):
                    problems.append(f"{op.label}: checker accepts tampered output ({what})")
            if "--trace" in op.argv:
                csv_path = Path(op.argv[op.argv.index("--trace") + 1])
                text = csv_path.read_text(encoding="utf-8")
                csv_path.write_text(text[: text.rstrip("\n").rfind("\n") + 1], encoding="utf-8")
                if not op.check(rc, out, err):
                    problems.append(f"{op.label}: checker accepts a trace with its last row cut")
            if not tampered_any:
                problems.append(f"{op.label}: no tamper applies, the checker is untested")
    return problems
