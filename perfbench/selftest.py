"""Fast self-test of the benchmark harness (about a minute).

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It checks that, at reduced sizes (``--smoke``), every workload runs
clean and emits exactly the metrics ``BENCHMARK.json`` names, with
their units, in both modes; that each workload's checks reject a
corrupted output; and that the harness fails without printing a result
when the program sources are missing.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    CENSUS_DEFAULT_SEED,
    PINNED,
    SCALE_FREE_DEFAULT_SEED,
    WORKLOADS,
)

problems: List[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL: {message}")


def run_harness(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_emission(bench: Dict[str, Any]) -> None:
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_harness(ROOT, name, trace)
            where = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where}: {result['attempted']} checks, {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, f"{where}: metrics differ from BENCHMARK.json {key}: "
                   f"{sorted(set(got) ^ set(want))}")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{where}: non-numeric metric value")
            printed = proc.stdout.splitlines()
            for metric, unit in want.items():
                expect(any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                           for line in printed), f"{where}: {metric} not printed with its unit")
            print(f"ok: {where}")


def corrupt_census(out: Dict[str, Any]) -> List[Dict[str, Any]]:
    bad_row = copy.deepcopy(out)
    bad_row["rows"][0]["certified_size"] += 1
    bad_witness = copy.deepcopy(out)
    lines = bad_witness["db"].splitlines()
    for i, line in enumerate(lines):
        payload = json.loads(line)
        if payload.get("type") == "witness":
            config = payload["configuration"]
            config[config.index(payload["k"])] = payload["colors"] - 1
            lines[i] = json.dumps(payload, sort_keys=True)
    bad_witness["db"] = "\n".join(lines) + "\n"
    return [bad_row, bad_witness]


def corrupt_complement(out: Dict[str, Any]) -> List[Dict[str, Any]]:
    bad_color = copy.deepcopy(out)
    colors = bad_color["found"]["cordalis"]["colors"]
    colors[colors.index(0)] = 1
    bad_budget = copy.deepcopy(out)
    bad_budget["budget"] = [0] * 4
    return [bad_color, bad_budget]


def corrupt_corpus(out: Dict[str, Any]) -> List[Dict[str, Any]]:
    dropped = copy.deepcopy(out)
    for status, payload in dropped["responses"]:
        if payload.get("items"):
            payload["items"].pop()
            break
    refused = copy.deepcopy(out)
    refused["responses"][0][0] = 500
    unverified = copy.deepcopy(out)
    unverified["verdicts"][-1] = False
    return [dropped, refused, unverified]


def corrupt_scale_free(out: Dict[str, Any]) -> List[Dict[str, Any]]:
    bad = copy.deepcopy(out)
    bad["rows"][0]["takeover_rate"] = bad["rows"][0]["converged_rate"] + 0.5
    return [bad]


CORRUPTIONS: Dict[str, Callable[[Dict[str, Any]], List[Dict[str, Any]]]] = {
    "census-cold": corrupt_census,
    "complement-dfs": corrupt_complement,
    "corpus": corrupt_corpus,
    "scale-free": corrupt_scale_free,
}


def check_rejection(work: Path) -> None:
    for name, workload in WORKLOADS.items():
        workload.import_modules()
        wl = workload(ROOT, work, 3, True)
        _, out = wl.run_pass()
        _, failures = wl.check(out)
        expect(not failures, f"{name}: clean smoke output rejected: {failures[:3]}")
        for i, bad in enumerate(CORRUPTIONS[name](out)):
            _, failures = wl.check(bad)
            expect(bool(failures), f"{name}: corruption {i} was accepted")
        print(f"ok: {name} checks reject corrupted outputs")
    # the pinned values are only checked at full size on the default seed
    full = WORKLOADS["census-cold"](ROOT, work, 0, False)
    table = copy.deepcopy(PINNED["census_cold_table"])
    table[-1]["method"] = "exhaustive"
    _, failures = full.check({"seed": CENSUS_DEFAULT_SEED, "rows": table, "db": ""})
    expect(any("pinned" in f for f in failures), "census: altered pinned table accepted")
    full = WORKLOADS["scale-free"](ROOT, work, 0, False)
    _, failures = full.check({"seed": SCALE_FREE_DEFAULT_SEED, "rows": []})
    expect(any("pinned" in f for f in failures), "scale-free: altered rows match the pinned digest")
    print("ok: pinned values are enforced")


def check_without_sources(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_harness(bare, "census-cold", 0)
    expect(proc.returncode != 0, "harness succeeded without program sources")
    expect(not proc.stdout.strip(), "harness printed a result without program sources")
    print("ok: fails without program sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        check_emission(bench)
        check_rejection(work)
        check_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
