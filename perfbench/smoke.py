"""Smoke check of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with ``--smoke`` (a small image and
budget) at both trace levels, and checks that each run exits with code 0 and
prints every metric BENCHMARK.json lists for that level, by name and with the
unit it gives, both in the readable lines and in the closing JSON object.
Correctness of the shrunken solves is reported, not required.  Exits 1 on
any mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec, workload, trace):
    level = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[level]}
    cmd = spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"], None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"result metrics differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, units "
                        f"{sorted(n for n in want if n in got and got[n] != want[n])}")
    printed = {tuple(line.split()[1:2] + line.split()[-1:]) for line in lines[:-1]}
    unprinted = sorted(n for n, u in want.items() if (n, u) not in printed)
    if unprinted:
        problems.append(f"not printed with their units: {unprinted}")
    return problems, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems, result = check_run(spec, workload, trace)
            status = "ok" if not problems else "FAIL"
            detail = "" if result is None else (
                f" correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']}")
            print(f"{workload:12s} trace {trace}: {status}{detail}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
