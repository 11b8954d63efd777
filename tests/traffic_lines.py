"""The src lines that the benchmark's in-process workloads, the golden
commands and the answer corpus never run.

Under ``sys.settrace``, in this one process, the script runs

- the rounds of ``bench/workloads.py`` at seed 9101 (the module imported as
  it is): 8 of cartan-sparse, 6 of classes-denseq and 40 of f2-sweep,
  each instance with its check;
- the golden commands of ``golden_commands``, through ``cli.main`` from the
  repository root;
- the seed-16 document fuzz of ``answer_corpus``.

Then it prints each line of ``src/eqcartan`` that none of them ran, grouped
by the function that holds it, and their number.  A line counts when
Python reports it as a line event, so a module's ``def`` and ``class``
lines count through the import.  Tier-1 and CI do not run it; run it
before and after a change that deletes or adds branches, from the
repository root,

    PYTHONPATH=src python tests/traffic_lines.py

It takes a few minutes on a 2-core host.  ``traffic()`` returns the count
of each traced line, for a script that wants the counts.
"""

import collections
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eqcartan"
SEED = 9101
ROUNDS = {"cartan-sparse": 8, "classes-denseq": 6, "f2-sweep": 40}


def _executable_lines(path):
    """{line: qualified name of the innermost function} of a source file:
    each code object is read before the ones it holds, which overwrite."""
    lines, codes = {}, [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        name = getattr(code, "co_qualname", code.co_name)
        lines.update((line, name) for _, _, line in code.co_lines()
                     if line is not None)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def _run_traffic():
    import answer_corpus
    import golden_commands
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from eqcartan import cli

    failed = 0
    for name, rounds in ROUNDS.items():
        workload, ctx = workloads.WORKLOADS[name], {}
        for r in range(rounds):
            for inst in workload.round(SEED, r, ctx):
                failed += inst.check(inst.run()) is not None
    quiet = io.StringIO()
    start = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv, _ in golden_commands.COMMANDS:
            with contextlib.redirect_stdout(quiet), \
                    contextlib.redirect_stderr(quiet):
                cli.main(list(argv))
    finally:
        os.chdir(start)
    with answer_corpus.in_a_scratch_directory():
        corpus = sum(1 for _ in answer_corpus.runs())
    return failed, len(golden_commands.COMMANDS), corpus


def traffic():
    """(count of each traced (file, line) of src, what ran)."""
    hits = collections.Counter()
    src = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename, frame.f_lineno] += 1
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(src):
            hits[frame.f_code.co_filename, frame.f_lineno] += 1
            return local
        return None

    for name in ("EQCARTAN_Q_ORDER", "EQCARTAN_U_ORDER"):
        os.environ.pop(name, None)
    sys.settrace(call)
    try:
        ran = _run_traffic()
    finally:
        sys.settrace(None)
    return hits, ran


def main():
    hits, (failed, goldens, corpus) = traffic()
    print(f"traced {', '.join(f'{n} x{r}' for n, r in ROUNDS.items())} "
          f"({failed} checks failed), {goldens} golden commands and "
          f"{corpus} corpus runs")
    total = 0
    for path in sorted(SRC.glob("*.py")):
        unreached = collections.defaultdict(list)
        for line, name in sorted(_executable_lines(path).items()):
            if not hits[str(path), line]:
                unreached[name].append(line)
        for name, lines in unreached.items():
            total += len(lines)
            print(f"{path.name} {name}: {', '.join(map(str, lines))}")
    print(f"{total} src lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
