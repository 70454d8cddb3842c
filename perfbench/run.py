"""Layered benchmark for rqwork: one workload per process, one job at a time.

Usage, from the repository root:

    python3 perfbench/run.py --workload mine --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-checksums

The workload runs as a closed loop with one client: it repeats whole
batches (rounds) of the same jobs until the next round would overrun
``--seconds``.  Every job's output is checked after its round.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` every rqwork layer
is wrapped (see ``tracing.py``) and the metrics are the per-layer ones, per
batch.  Each run also appends a record to ``perfbench/results/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import mpmath

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
CHECKSUMS = HERE / "checksums.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 7


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_rqwork():
    """Import rqwork from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rqwork" / "cli.py").is_file():
        fail(f"no rqwork sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rqwork.cli  # noqa: F401
    import rqwork
    where = Path(list(rqwork.__path__)[0]).resolve()
    if where != (SRC / "rqwork").resolve():
        fail(f"rqwork imported from {where}, not from {SRC}")


def measure_setup():
    """Median seconds from a fresh interpreter to ``rqwork.cli`` imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", "import rqwork.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=120,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            fail("importing rqwork.cli failed: "
                 + proc.stderr.decode(errors="replace").strip())
        if i:  # the first start may write bytecode caches
            samples.append(elapsed)
    return statistics.median(samples)


def host_probe():
    """Median seconds of a fixed pure-Python loop: the host's speed right now.

    Recorded beside each run, never in its metrics, so runs taken while a
    shared host was slower or faster can be told apart.
    """
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def environment():
    from rqwork import _backend, series
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "rqwork_backend": _backend.BACKEND,
        "coeff_backend": series.COEFF_BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "machine": platform.machine(),
    }


def run_round(jobs, tracer=None):
    """Run each job once; returns (latencies, outputs, errors, wall)."""
    latencies, outputs, errors = [], [], []
    t_round = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except Exception:  # a crash is a failed operation, not a stop
            out, err = None, traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        errors.append(err)
    if tracer is not None:
        tracer.job = None
    return latencies, outputs, errors, time.perf_counter() - t_round


def check_round(jobs, outputs, errors, problems, failures):
    """Count failed jobs and record wrong outputs of the others.

    ``failures`` maps a failed job's label to its error, ``problems`` lists
    the wrong outputs.
    """
    failed = 0
    for job, out, err in zip(jobs, outputs, errors):
        if err is not None or job.failed(out):
            failed += 1
            failures[job.label] = err or out.stderr.strip()
            continue
        try:
            job.check(out)
        except workloads.CheckFailed as exc:
            problems.append(f"{job.label}: {exc}")
        except Exception:
            problems.append(f"{job.label}: check raised "
                            + traceback.format_exc(limit=3))
    return failed


def output_digest(jobs, outputs, errors):
    h = hashlib.sha256()
    for label, text in sorted(
            (job.label, err.splitlines()[-1] if err is not None
             else job.render(out))
            for job, out, err in zip(jobs, outputs, errors)):
        h.update(label.encode())
        h.update(b"\0")
        h.update(str(text).encode())
        h.update(b"\0")
    return h.hexdigest()


def report_bytes(outputs):
    return sum(len(out.stdout.encode()) for out in outputs
               if hasattr(out, "stdout"))


def run_workload(name, seed, seconds, traced):
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    jobs = workloads.build(name, seed)

    walls, latencies, slowest = [], [], []
    per_job = {job.label: [] for job in jobs}
    attempted = failed = rounds = 0
    problems, failures = [], {}
    digest = None
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        lat, outputs, errors, wall = run_round(jobs, tracer)
        rounds += 1
        attempted += len(jobs)
        walls.append(wall)
        latencies.extend(lat)
        for job, t in zip(jobs, lat):
            per_job[job.label].append(t)
        slowest.append(max(lat))
        if tracer is not None:
            tracer.add("cli.report_bytes", report_bytes(outputs))
        failed += check_round(jobs, outputs, errors, problems, failures)
        if digest is None:
            digest = output_digest(jobs, outputs, errors)
        round_time = time.perf_counter() - t_round
        if time.perf_counter() - t_start + round_time > seconds:
            break

    e2e = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies),
        "slowest_job_s": statistics.median(slowest),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_layer = tracing.per_layer_metrics(tracer, rounds) if traced else None
    for label, err in failures.items():
        print(f"perfbench: failed: {label}: {err}", file=sys.stderr)
    for line in problems[:20]:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    return {
        "rounds": rounds,
        "round_wall_s": walls,
        "job_latency_s": per_job,
        "jobs_per_round": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "e2e": e2e,
        "per_layer": per_layer,
        "output_sha256": digest,
        "tracer": tracer,
    }


def stored_checksum(name, seed):
    try:
        stored = json.loads(CHECKSUMS.read_text())
    except FileNotFoundError:
        return None
    if stored.get("seed") != seed:
        return None
    return stored.get("workloads", {}).get(name)


def write_checksums():
    """Run one round of every workload at the default seed; store digests."""
    digests = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, DEFAULT_SEED)
        _, outputs, errors, _ = run_round(jobs)
        problems = []
        check_round(jobs, outputs, errors, problems, {})
        if problems:
            fail(f"{name}: wrong output, checksums not stored: {problems[0]}")
        digests[name] = output_digest(jobs, outputs, errors)
        print(f"{name}: {digests[name]}")
    doc = {"seed": DEFAULT_SEED, "environment": environment(),
           "workloads": digests}
    CHECKSUMS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-checksums", action="store_true",
                   help="regenerate perfbench/checksums.json and exit")
    p.add_argument("--list", action="store_true",
                   help="print the workload's jobs for --seed and exit")
    args = p.parse_args(argv)
    if not args.write_checksums and args.workload is None:
        p.error("--workload is required")

    import_rqwork()
    if args.write_checksums:
        write_checksums()
        return
    if args.list:
        for job in workloads.build(args.workload, args.seed):
            print(job.label)
        return

    probe = [host_probe()]
    setup_s = measure_setup()
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    probe.append(host_probe())
    e2e = dict(res["e2e"], setup_s=setup_s)
    units = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
             "slowest_job_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in units}

    stored = stored_checksum(args.workload, args.seed)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": res["rounds"], "round_wall_s": res["round_wall_s"],
        "job_latency_s": res["job_latency_s"],
        "jobs_per_round": res["jobs_per_round"],
        "attempted": res["attempted"], "failed": res["failed"],
        "correct": res["correct"],
        "end_to_end": e2e, "per_layer": res["per_layer"],
        "environment": environment(),
        "host_probe_s": probe,
        "output_sha256": res["output_sha256"],
        "checksum_matches_stored": (None if stored is None
                                    else stored == res["output_sha256"]),
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if res["tracer"] is not None:
        res["tracer"].dump(
            RESULTS / f"trace-{args.workload}-seed{args.seed}.json",
            {k: record[k]
             for k in ("workload", "seed", "rounds", "environment")})

    print(json.dumps({"environment": record["environment"],
                      "rounds": res["rounds"],
                      "output_sha256": res["output_sha256"],
                      "checksum_matches_stored":
                          record["checksum_matches_stored"]}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
