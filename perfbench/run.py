#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the revelio libraries and the benchmark binary from source (Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload and prints, as
its last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. The full result document (host, ISA paths,
compiler, build type, git revision, source digest, workers, store backend,
seed and every metric) is kept under <build>/results/.

    python3 perfbench/run.py --workload attest_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 10] [--trace 0]
    python3 perfbench/run.py --selftest

Exit status: 0 on a correct run, 1 on a correctness violation, 2 when the
benchmark cannot build or run (no result line is printed then).
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attest_warm", "attest_cold", "vm_storage")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def load_spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def check_spec(spec):
    """Every metric name and unit in BENCHMARK.json is well formed."""
    problems = []
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            if not NAME_RE.match(m["name"]):
                problems.append(f"{section}: bad metric name {m['name']!r}")
            if not UNIT_RE.match(m.get("unit", "")):
                problems.append(f"{section}: {m['name']} has no valid unit")
    return problems


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no revelio sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return out


def git_revision():
    if not (ROOT / ".git").exists():  # an export, not a checkout
        return "none"
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return rev.stdout.strip() if rev.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def run_workload(out, workload, seed, seconds, trace):
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc_path = results / f"{workload}-seed{seed}-trace{trace}.json"
    if doc_path.exists():
        doc_path.unlink()
    cmd = [str(out / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(doc_path),
           "--work-dir", str(out / "work"),
           "--git-revision", git_revision(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S}s")
    if not doc_path.is_file():
        raise BenchError(f"{workload} wrote no result (exit {proc.returncode})")
    with open(doc_path) as f:
        return json.load(f)


def result_line(spec, doc, trace):
    """The result line: every metric of the gated set, with its unit.

    A per-layer metric the workload cannot exercise (a session stage on
    vm_storage) reads 0; an end-to-end metric must always be measured.
    """
    section = "per_layer" if trace else "end_to_end"
    measured = doc[section]
    metrics = {}
    for m in spec[section]:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                raise BenchError(f"{doc['workload']} did not measure {name}")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            raise BenchError(f"{name}: unit {got['unit']} != {unit}")
        if not isinstance(got["value"], (int, float)) or got["value"] != got["value"]:
            raise BenchError(f"{name}: not a number: {got['value']!r}")
        metrics[name] = {"value": got["value"], "unit": unit}
    unknown = sorted(set(measured) - {m["name"] for m in spec[section]})
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": metrics}


def print_summary(doc):
    """Human-readable table: every metric the run measured, with units."""
    print(f"== {doc['workload']} seed={doc['seed']} trace={int(doc['trace'])}"
          f" correct={doc['correct']} attempted={doc['attempted']}"
          f" succeeded={doc['succeeded']} failed={doc['failed']}")
    host = doc["host"]
    print("   host: " + ", ".join(f"{k}={host[k]}" for k in sorted(host)))
    for section in ("end_to_end", "extra", "per_layer"):
        for name, m in doc[section].items():
            print(f"   {section:10s} {name:44s} {m['value']:14.4f} {m['unit']}")
    for v in doc["violations"]:
        print(f"   VIOLATION: {v}")


def selftest():
    spec = load_spec()
    problems = check_spec(spec)
    for p in problems:
        log(f"selftest: {p}")
    out = build(["perfbench_selftest"])
    proc = subprocess.run([str(out / "perfbench_selftest")], timeout=600)
    ok = not problems and proc.returncode == 0
    print(f"selftest: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print all metrics")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        spec = load_spec()
        problems = check_spec(spec)
        if problems:
            raise BenchError("; ".join(problems))
        if not args.all and args.workload is None:
            ap.error("--workload, --all or --selftest is required")
        out = build(["perfbench"])
        workloads = WORKLOADS if args.all else (args.workload,)
        lines = []
        for w in workloads:
            doc = run_workload(out, w, args.seed, args.seconds, args.trace)
            print_summary(doc)
            lines.append(result_line(spec, doc, args.trace))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    if args.all:
        line = {"correct": all(l["correct"] for l in lines),
                "attempted": sum(l["attempted"] for l in lines),
                "failed": sum(l["failed"] for l in lines),
                "metrics": {f"{w}.{k}": v for w, l in zip(workloads, lines)
                            for k, v in l["metrics"].items()}}
    else:
        line = lines[0]
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
