#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root. Checks that
  * every workload in BENCHMARK.json runs end to end at tiny scale, traced
    and untraced, and exits 0 with a correct result;
  * the result prints every end-to-end (untraced) or per-layer (traced)
    metric of BENCHMARK.json, by name, with its unit, and nothing else;
  * a flipped TSV byte and a wrong reply checksum are each counted as a
    failure and make the run exit non-zero;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the command exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

SECONDS = "3"


def run(args, cwd="."):
    cmd = ["python3", "perfbench/run.py", *args]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith('{"correct"'):
        result = json.loads(lines[-1])
    return p, result


def main():
    spec = json.load(open("BENCHMARK.json"))
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = f"{w['name']} --trace {trace}"
            p, r = run(["--workload", w["name"], "--seed", "1", "--seconds", SECONDS,
                        "--trace", trace, "--tiny", "1"])
            expect(p.returncode == 0 and r is not None and r["correct"] and r["failed"] == 0,
                   f"{name}: exits 0 with a correct result")
            if r is None:
                sys.stderr.write(p.stderr[-3000:])
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == want, f"{name}: prints every {key} metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()),
                   f"{name}: every value is a number")

    for inject in ("tsv", "checksum"):
        p, r = run(["--workload", "serve-wal", "--seed", "2", "--seconds", SECONDS,
                    "--trace", "0", "--tiny", "1", "--inject", inject])
        expect(p.returncode != 0 and r is not None and not r["correct"] and r["failed"] >= 1,
               f"--inject {inject}: counted as a failure, non-zero exit")

    bare = os.path.join(".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
    p, r = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", SECONDS,
                "--trace", "0"], cwd=bare)
    expect(p.returncode != 0 and r is None, "bare directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
