"""Self-test of the benchmark at quick (tiny-input) size.

Checks that

* every workload of ``BENCHMARK.json``, untraced and traced, emits
  exactly the metrics it names, each with its declared unit, and passes
  the correctness gate within a few seconds;
* the gate trips on a corrupted recorded cost: the run exits non-zero
  and prints no result;
* without the program sources (only ``BENCHMARK.json`` and this
  directory), the benchmark exits non-zero and prints no result.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
# A quick run is tiny; anything slower than this is a regression of the
# self-test itself.
QUICK_LIMIT_S = 30.0


def _run(args: list[str], cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess[str], float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc, time.perf_counter() - start


def _result(proc: subprocess.CompletedProcess[str]) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def check_metrics(spec: dict, failures: list[str]) -> None:
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        units = {m["name"]: m["unit"] for m in declared}
        for workload in workloads:
            proc, took = _run(
                [str(RUN), "--quick", "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace)]
            )
            label = f"{workload} trace={trace}"
            result = _result(proc)
            if proc.returncode != 0 or result is None:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: not correct or nothing attempted")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != units:
                missing = sorted(set(units) - set(emitted))
                extra = sorted(set(emitted) - set(units))
                wrong = sorted(n for n in set(units) & set(emitted) if units[n] != emitted[n])
                failures.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            if took > QUICK_LIMIT_S:
                failures.append(f"{label}: quick run took {took:.1f} s")
            print(f"ok {label} ({took:.1f} s)")


def check_gate_trips(failures: list[str]) -> None:
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        corrupted = Path(tmp) / "reference.json"
        reference = json.loads((HERE / "reference.json").read_text())
        entry = reference.setdefault("serve-paper@quick", {})
        entry["0"] = entry.get("0", 1.0) * (1.0 + 1e-3)
        corrupted.write_text(json.dumps(reference))
        proc, _ = _run(
            [str(RUN), "--quick", "--workload", "serve-paper", "--seed", "0",
             "--seconds", "1", "--reference", str(corrupted)]
        )
    if proc.returncode == 0 or _result(proc) is not None:
        failures.append("gate did not trip on a corrupted recorded cost")
    elif "does not match the recorded" not in proc.stderr:
        failures.append(f"gate failed for another reason:\n{proc.stderr[-2000:]}")
    else:
        print("ok gate trips on a corrupted recorded cost")


def check_without_sources(failures: list[str]) -> None:
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        proc, took = _run(
            [*spec["command"][1:], "--workload", spec["workloads"][0]["name"],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=Path(tmp),
        )
    if proc.returncode == 0 or _result(proc) is not None or took > 180:
        failures.append("benchmark without program sources did not fail cleanly")
    else:
        print(f"ok fails cleanly without the program sources (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_metrics(spec, failures)
    check_gate_trips(failures)
    check_without_sources(failures)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
