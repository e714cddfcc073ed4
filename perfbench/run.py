#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload corpus --seed 42 --seconds 20 --trace 0

Run from the repository root. The script builds the in-process half
(`perfbench/src`, a Cargo package of its own) and then, each in a fresh
process:

1. computes the seed's reference output by a path other than the
   measured one, and checks it against the table in `spec.json` when
   the seed is listed there;
2. with `--trace 0`, sets the workload up several times, timing each
   process from spawn to "ready" (`setup_s`, the median);
3. runs the workload as a closed loop within `--seconds` seconds, in a
   process that runs nothing else, so its peak resident set is the
   workload's (`peak_rss_mib`); the first pass warms the process and
   is left out of the time metrics. With `--trace 1` it runs the
   traced run instead, which reports the per-layer metrics.

Every metric is printed by name with its unit, and the last line of
stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
A pass that fails a check counts in `failed`, and the script then exits
non-zero. Results are appended, with the host's fingerprint, to
`.bench_out/results.jsonl`; traced runs also write their spans there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
# A whole run must end within 180 s; no child may take longer than this.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count() or 1, "cpu_model": model}


def build():
    """Build the benchmark binary; returns its path."""
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr, check=False)
    if done.returncode != 0:
        raise BenchError(f"build failed (exit {done.returncode})")
    return os.path.join(target, "release", "perfbench")


def run_child(binary, args):
    """Run the binary to completion; returns (stdout lines, peak RSS in
    KiB of that process alone)."""
    proc = subprocess.Popen([binary, *args], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}")
    return out.strip().splitlines(), usage.ru_maxrss


def last_json(lines, what):
    if not lines:
        raise BenchError(f"{what} printed nothing")
    return json.loads(lines[-1])


def setup_seconds(binary, workload, seed, repeats):
    """Median time from spawning a process to its workload being set
    up, over `repeats` fresh processes."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [binary, "setup", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up of {workload} failed (exit {proc.returncode})")
    return statistics.median(samples)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    # BENCHMARK.json lists the workloads with bounds; spec.json lists
    # every workload the command runs.
    workloads = set(spec["workloads"])
    if opts.workload not in workloads:
        raise BenchError(f"unknown workload {opts.workload!r}; one of {sorted(workloads)}")
    if opts.seed < 0:
        raise BenchError("--seed must be non-negative")
    wanted = bench["per_layer" if opts.trace else "end_to_end"]
    host = host_fingerprint()

    binary = build()
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]

    # The reference: computed by another path, pinned by the table.
    lines, _ = run_child(binary, ["reference", *common])
    reference = last_json(lines, "reference")
    table = spec["references"].get(str(opts.seed), {})
    pinned = table.get(spec["workloads"][opts.workload]["reference"])
    problems = []
    if pinned is not None and pinned != reference["digest"]:
        problems.append(f"reference digest {reference['digest']} differs "
                        f"from the pinned {pinned}")
    expect = pinned or reference["digest"]

    run_args = [*common, "--seconds", str(opts.seconds), "--expect", expect,
                "--events", str(reference["events"])]
    os.makedirs(OUT_DIR, exist_ok=True)
    metrics = {}
    if opts.trace:
        spans = os.path.join(OUT_DIR, f"spans-{opts.workload}-{opts.seed}.jsonl")
        lines, _ = run_child(binary, ["trace", *run_args, "--tolerance",
                                      str(spec["reconcile_tolerance"]), "--spans", spans])
        child = last_json(lines, "trace")
    else:
        metrics["setup_s"] = {
            "value": setup_seconds(binary, opts.workload, opts.seed,
                                   spec["setup_repeats"]),
            "unit": "s",
        }
        lines, peak_kib = run_child(binary, ["measure", *run_args])
        child = last_json(lines, "measure")
        metrics["peak_rss_mib"] = {"value": peak_kib / 1024.0, "unit": "MiB"}
    metrics.update(child["metrics"])

    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise BenchError(f"metrics {missing} of BENCHMARK.json were not measured")
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            raise BenchError(f"{m['name']} is in {metrics[m['name']]['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
    # Measured but without a bound: printed, not part of the result.
    unbounded = {k: v for k, v in metrics.items() if k not in names}
    metrics = {name: metrics[name] for name in names}

    problems += child["problems"]
    attempted, failed = child["attempted"], child["failed"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']}")
    print(f"workload: {opts.workload} seed={opts.seed} trace={opts.trace} "
          f"passes={attempted} calls={child['calls']} reference={expect}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    calls = child["calls"]
    for name, m in unbounded.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']} "
              f"(no bound; {calls} calls, {calls // 10} above p90)")
    print(f"  {'failed_ratio':<40} {failed / attempted:>16.6g} ({failed}/{attempted} passes)")
    for problem in problems:
        print(f"problem: {problem}")
    record = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
              "seconds": opts.seconds, "host": host, "pass_s": child["pass_s"],
              "problems": problems, **result}
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
