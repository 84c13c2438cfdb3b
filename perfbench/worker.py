"""One benchmark iteration, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON names the program's source directory, the commands to run through
``clusterbench.cli.main``, whether to trace, and where to write the result.
The result records when the program was ready (after import and parser
build), each command's exit code, time and captured output, the probe
times around the commands, the peak RSS, and in a traced iteration the spans
and counts.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    from clusterbench import cli

    cli.build_parser()
    ready_ns = time.monotonic_ns()
    if not cli.__file__.startswith(spec["src"]):
        print(f"clusterbench imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    result = {"ready_ns": ready_ns, "commands": []}
    if spec["commands"]:  # none: a set-up probe
        result.update(run_commands(cli, spec["commands"], spec["trace"]))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def probe_s() -> float:
    """Time a fixed integer loop, which measures how fast the machine runs
    Python bytecode at this moment; the program's code never runs in it."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """This process's peak resident set since exec.

    ru_maxrss is not used: it also counts the parent's resident set at the
    fork that started this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_commands(cli, commands, trace: bool) -> dict:
    import contextlib
    import io
    import traceback

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    probes = [probe_s()]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed command, not a crash of the harness
            code = -1
            err.write(traceback.format_exc())
        end = time.perf_counter_ns()
        probes.append(probe_s())
        records.append(
            {"argv": argv, "exit": code, "start_ns": start, "end_ns": end,
             "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
        if code != 0:
            break
    result = {"commands": records, "probes_s": probes, "maxrss_kb": peak_rss_kb()}
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts, missing=tracer.missing)
    return result


if __name__ == "__main__":
    sys.exit(main())
