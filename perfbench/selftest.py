"""Self-test of the benchmark driver's hygiene and determinism.

    python3 perfbench/selftest.py

Runs every workload at tiny size (``--tiny --seconds 1``), untraced
twice with one seed and traced once, each driver in a session of its
own, and asserts that:

* the run succeeds and prints every metric ``BENCHMARK.json`` names;
* no process of the driver's session outlives it;
* no socket file or temp directory survives: the run's scratch
  directory is gone from the checkout and nothing new named
  ``repro-*`` appeared in the system temp dir;
* the timing-independent counts of the two same-seed runs are identical;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the driver exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _session_processes(sid: int) -> list:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[3]) == sid and fields[0] != "Z":
            found.append(int(entry))
    return found


def _tmp_entries() -> set:
    return {name for name in os.listdir(tempfile.gettempdir())
            if name.startswith("repro-")}


def _run(cwd: Path, workload: str, trace: int, seed: int = 7):
    before = _tmp_entries()
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    stdout, stderr = proc.communicate(timeout=180)
    survivors = _session_processes(proc.pid)
    leaked = _tmp_entries() - before
    return proc.returncode, stdout, stderr, survivors, leaked


def _check(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list = []
    names = {0: [m["name"] for m in SPEC["end_to_end"]],
             1: [m["name"] for m in SPEC["per_layer"]]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        counts = []
        for trace in (0, 0, 1):
            label = f"{workload} trace={trace}"
            start = time.monotonic()
            code, stdout, stderr, survivors, leaked = _run(ROOT, workload,
                                                           trace)
            lines = stdout.strip().splitlines()
            _check(code == 0 and bool(lines),
                   f"{label}: exit {code} in {time.monotonic() - start:.1f}s"
                   + ("" if code == 0 else "\n" + stderr[-3000:]), failures)
            if code != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            _check(result["correct"] and result["failed"] == 0,
                   f"{label}: outputs correct", failures)
            _check(sorted(result["metrics"]) == sorted(names[trace]),
                   f"{label}: prints exactly the declared metrics", failures)
            _check(not survivors, f"{label}: no surviving process "
                                  f"{survivors}", failures)
            _check(not (ROOT / ".perfbench_tmp").exists() and not leaked,
                   f"{label}: no socket or temp dir left {sorted(leaked)}",
                   failures)
            if trace == 0:
                counts += [line for line in lines if line.startswith("counts ")]
        _check(len(counts) == 2 and counts[0] == counts[1],
               f"{workload}: timing-independent counts repeat for one seed",
               failures)

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout, _, survivors, _ = _run(bare, "figures-cold", 0)
        _check(code != 0 and '"metrics"' not in stdout and not survivors,
               f"benchmark-only directory: exit {code}, no result", failures)
    finally:
        shutil.rmtree(bare)
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
