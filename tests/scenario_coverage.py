"""Print the source lines that no shipped scenario runs.

    python tests/scenario_coverage.py

Runs `cli.main` over every scenario in `scenarios/`: `validate`,
`generate`, `compare`, and `run` once in each mode.  Line events come
from `sys.settrace`, installed before `cloudmarket` is imported, so
import-time lines count as run, and the forked trace writer of each
streamed run reports the lines it ran as it exits.  A line is
executable when a code object compiled from the module names it.
Every artifact goes to a temporary directory that is removed afterwards.

What the scenarios never reach is the candidate list for deletion: code
the product cannot run, or a branch that should fail loudly instead.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from types import CodeType

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "cloudmarket"
SCENARIOS = HERE.parent / "scenarios"
MODES = ("market", "system_centric")


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some code object of the module executes."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class LineTracer:
    """Records the lines run in files under `root`.

    A code object is traced until each of its lines has run once; after
    that its frames run untraced, so hot loops cost little.
    """

    def __init__(self, root: Path):
        self.root = str(root)
        self.run: dict[str, set[int]] = {}
        self._left: dict[CodeType, set[int]] = {}

    def _lines_left(self, code: CodeType) -> set[int] | None:
        left = self._left.get(code)
        if left is None and code.co_filename.startswith(self.root):
            left = {line for _, _, line in code.co_lines() if line is not None}
            self._left[code] = left
        return left

    def __call__(self, frame, event, arg):
        left = self._lines_left(frame.f_code)
        if not left:
            return None
        seen = self.run.setdefault(frame.f_code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return local

        # the call event stands for the code object's first line
        seen.add(frame.f_lineno)
        left.discard(frame.f_lineno)
        return local


def _runs(scenario: Path, work: Path) -> list[list[str]]:
    """The CLI argument lists that cover one scenario."""
    import yaml

    out = ["--out", str(work / scenario.stem)]
    runs = [
        ["--scenario", str(scenario), "--mode", mode, *out]
        for mode in ("validate", "generate", "compare")
    ]
    raw = yaml.safe_load(scenario.read_text(encoding="utf-8"))
    for mode in MODES:
        variant = work / f"{scenario.stem}_{mode}.yaml"
        variant.write_text(yaml.safe_dump({**raw, "mode": mode}), encoding="utf-8")
        runs.append(["--scenario", str(variant), "--mode", "run", *out])
    return runs


def _spans(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    tracer = LineTracer(SRC)
    real_exit = os._exit
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        forked = work / "forked_lines.tsv"

        def exit_with_lines(status: int) -> None:
            # a streamed run's trace writer is a forked process that leaves
            # through os._exit: it writes out the lines it ran before it goes
            with forked.open("a", encoding="utf-8") as handle:
                for path, lines in tracer.run.items():
                    handle.writelines(f"{path}\t{line}\n" for line in lines)
            real_exit(status)

        os._exit = exit_with_lines
        sys.settrace(tracer)
        try:
            from cloudmarket import cli

            for scenario in sorted(SCENARIOS.glob("*.yaml")):
                for argv in _runs(scenario, work):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    if code != 0:
                        print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
                        return 1
        finally:
            sys.settrace(None)
            os._exit = real_exit
        for row in forked.read_text(encoding="utf-8").splitlines():
            path, line = row.split("\t")
            tracer.run.setdefault(path, set()).add(int(line))

    total = 0
    for path in sorted(SRC.glob("*.py")):
        unrun = sorted(executable_lines(path) - tracer.run.get(str(path), set()))
        total += len(unrun)
        print(f"{path.name:<14} {len(unrun):>4} unrun  {_spans(unrun)}")
    print(f"{'total':<14} {total:>4} unrun")
    return 0


if __name__ == "__main__":
    sys.exit(main())
