"""Smoke test of the benchmark itself, on a shrunken configuration.

    python3 perfbench/smoke.py

Run from the root of a checkout. Checks, in about a minute:

* every workload run.py knows, with and without tracing, at the ``smoke`` scale (one
  month, two cyclones) exits 0 and ends with a result line of exactly the
  contracted keys that names every metric of ``BENCHMARK.json`` with its
  unit, each name matching ``[A-Za-z0-9_.-]+``;
* a corrupted result (a cold submit reporting other bytes) makes the run
  incorrect and its exit status non-zero;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.

Exits 0 when every check holds and prints what failed otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import common

NAME = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def result_of(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result(label: str, result: dict | None, expected: dict[str, str]) -> list[str]:
    if result is None:
        return [f"{label}: last line is not a JSON result"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted is {result.get('attempted')}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{label}: failed is {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{label}: metrics differ: {sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"{label}: invalid metric name {name!r}")
        if entry.get("unit") != expected.get(name):
            problems.append(f"{label}: {name} unit {entry.get('unit')!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} value {entry.get('value')!r}")
    return problems


def every_workload(bench: dict) -> list[str]:
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    import run

    # every workload run.py knows, also those left out of BENCHMARK.json
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
                capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"
                                f"{proc.stdout[-500:]}")
                continue
            expected = per_layer if trace else end_to_end
            problems += check_result(label, result_of(proc.stdout), expected)
            print(f"ok {label}", flush=True)
    return problems


def corrupted_result() -> list[str]:
    """A cold submit whose reported bytes differ must fail the run."""
    import run

    inner = run.run_child

    def corrupt(*args, **kwargs):
        out = inner(*args, **kwargs)
        if out is not None:
            out["sha256"] = "0" * 64
        return out

    run.run_child = corrupt
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            status = run.main(["--workload", "fig5_year", "--seed", "1", "--seconds", "1",
                               "--trace", "0", "--scale", "smoke"])
    finally:
        run.run_child = inner
    result = result_of(captured.getvalue())
    problems = []
    if status == 0:
        problems.append("corrupted result: exit status 0")
    if result is None or result.get("correct") is not False or result.get("failed", 0) < 1:
        problems.append(f"corrupted result: not flagged: {captured.getvalue()[-300:]}")
    else:
        print("ok corrupted result trips the correctness check", flush=True)
    return problems


def bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark: exit non-zero, print no result."""
    bare = common.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(common.CHECKOUT / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fig5_year", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_of(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print("ok bare directory fails without a result", flush=True)
    return []


def main() -> int:
    bench = json.loads((common.CHECKOUT / "BENCHMARK.json").read_text())
    problems = every_workload(bench) + corrupted_result() + bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
