#!/usr/bin/env python3
"""The repository benchmark: three StopWatch workloads, timed end to end.

    python3 perfbench/run.py --workload fig4_leak --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. It builds perfbench/main.exe with dune,
runs one untimed reference operation, then timed operations, one process
each and never two at once, until --seconds have passed. Every operation's
digests must equal the committed golden ones (perfbench/golden.json) when the
seed has them, and the reference operation's otherwise. The last line of
stdout is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, each time summed from the
fastest run of each phase and scaled to the reference host speed; with
--trace 1 the operations alternate untraced and traced, and the metrics are
the per-layer ones from the traced operations, as measured. Exits 1 when
an operation fails a check or the build fails. perfbench/NOTES.md lists every
metric and why each workload exists.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(BENCH, "_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("fig4_leak", "kv_base", "fleet_resume")
MIN_OPS = 3
OP_TIMEOUT_S = 40
# The calibration kernel's fastest time on the host the bounds were set on.
# End-to-end times are reported at that host's speed: each is multiplied by
# this over the kernel's fastest time in the same run (NOTES.md says why).
REFERENCE_CALIBRATION_S = 0.0065

# Span name -> per-layer metric holding the span's self time.
SPAN_METRICS = {
    "workload.dsl_load": "workload.dsl_load_s",
    "cloud.build": "cloud.build_s",
    "sim.run": "sim.run_s",
    "obs.snapshot": "obs.snapshot_s",
    "obs.export": "obs.export_s",
    "leak.audit": "leak.audit_s",
    "ckpt.checkpoint": "ckpt.checkpoint_s",
    "ckpt.write": "ckpt.write_s",
    "ckpt.read": "ckpt.read_s",
    "ckpt.restore": "ckpt.restore_s",
    "ckpt.unmarshal": "ckpt.unmarshal_s",
    "bench.op": "bench.glue_s",
}
END_TO_END_TIMES = ("host_s_per_sim_s", "time_to_result_s", "setup_s", "resume_s")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed:\n" + r.stdout + r.stderr)


def run_op(workload, seed, mode):
    """One operation in its own process: its JSON record plus the peak RSS
    the kernel accounted to that process alone."""
    out_path = os.path.join(OUT, "op-%d.json" % os.getpid())
    with open(out_path, "wb") as out:
        p = subprocess.Popen([EXE, workload, str(seed), mode], cwd=ROOT, stdout=out)
    deadline = time.monotonic() + OP_TIMEOUT_S
    while True:
        pid, status, rusage = os.wait4(p.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            p.send_signal(signal.SIGKILL)
            pid, status, rusage = os.wait4(p.pid, 0)
            break
        time.sleep(0.005)
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    os.remove(out_path)
    try:
        rec = json.loads(text)
    except ValueError:
        rec = {"checks": {workload + "/exit": {"digest": "", "error": "exit %d" % p.returncode}}}
    rec["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
    return rec


def failures(rec, reference):
    """One line per failed operation in one record: a reference check whose
    digest differs or that reports an error, or an unexpected failing check
    (an exception)."""
    checks = rec.get("checks", {})
    out = []
    for name, want in reference.items():
        got = checks.get(name, {})
        if got.get("error"):
            out.append("%s: %s" % (name, got["error"]))
        elif got.get("digest") != want:
            out.append("%s: digest %s, want %s" % (name, got.get("digest"), want))
    out += ["%s: %s" % (n, c["error"]) for n, c in checks.items()
            if n not in reference and c.get("error")]
    return out


def self_times(spans):
    """Self seconds per span name: duration minus the time its children
    cover (children of one span never overlap: the driver is sequential)."""
    child_ns = {}
    for _id, parent, _name, t0, t1 in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out = {}
    for sid, _parent, name, t0, t1 in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0 - child_ns.get(sid, 0)) * 1e-9
    return out


def layer_metrics(recs):
    """Per-layer metrics over the traced operations. A span's self time is
    the fastest operation's, as for the end-to-end times; counters repeat
    exactly for a seed and take the median; ratios are formed from those."""
    selfs = [self_times(r["spans"]) for r in recs]
    t = lambda span: min(s.get(span, 0.0) for s in selfs)
    g = lambda k: statistics.median(float(r["layers"].get(k, 0.0)) for r in recs)
    per = lambda a, b: a / b if b else 0.0
    m = {metric: t(span) for span, metric in SPAN_METRICS.items()}
    # fig4_leak only: leak_series minus a plain Scenario.run of each spec.
    m["obs.lineage_s"] = t("sim.run") - t("sim.plain_run") if "sim.plain_run" in selfs[0] else 0.0
    for k in ("profile.engine.dispatch_ns", "profile.net.deliver_ns",
              "profile.vmm.median_ns", "profile.disk.complete_ns"):
        m[k] = min(float(r["layers"].get(k, 0.0)) for r in recs)
    events, sim_s, run_s = g("sim.events"), recs[0]["sim_s"], m["sim.run_s"]
    m.update({
        "sim.events": events,
        "sim.events_per_s": per(events, run_s),
        "sim.events_per_sim_s": per(events, sim_s),
        "sim.ns_per_event": per(run_s * 1e9, events),
        "sim.alloc_words_per_event": per(g("sim.alloc_words"), events),
        "workload.completed_ratio": per(g("workload.completed"), g("workload.issued")),
        "workload.cache_hit_ratio": per(g("workload.hits"), g("workload.hits") + g("workload.misses")),
        "vmm.slices_per_sim_s": per(g("vmm.slices"), sim_s),
        "net.delivered_per_sim_s": per(g("net.delivered"), sim_s),
        "ckpt.image_mb": g("ckpt.image_bytes") / 2 ** 20,
    })
    for k in ("sim.major_collections", "sim.queue_depth_max", "vmm.divergences",
              "net.ingress_replicated", "net.egress_forwarded", "net.mcast_retransmissions",
              "disk.completed", "obs.trace_dropped", "leak.verdicts"):
        m[k] = g(k)
    for k in recs[0]["layers"]:
        if k.startswith("sim.sched."):
            m[k] = g(k)
    return m


def phases(rec):
    """Wall seconds of each top-level phase of one operation (the root
    span's children, keyed by name and occurrence: sim.run#0, sim.run#1 ...)
    plus the root's own time outside them, bench.op#self."""
    spans = rec["spans"]
    root = next(s for s in spans if s[1] == 0)
    out, seen = {}, {}
    for _sid, parent, name, t0, t1 in sorted(spans, key=lambda s: s[3]):
        if parent == root[0]:
            k = seen.get(name, 0)
            seen[name] = k + 1
            out["%s#%d" % (name, k)] = (t1 - t0) * 1e-9
    out["bench.op#self"] = (root[4] - root[3]) * 1e-9 - sum(out.values())
    return out


def e2e_metrics(recs):
    """End-to-end metrics over a run's operations. Each phase counts at the
    fastest any operation ran it, and a metric sums the phases it covers;
    NOTES.md says why this and not a median. Peak RSS is the median."""
    ph = [phases(r) for r in recs]
    best = {k: min(p[k] for p in ph if k in p) for k in ph[0]}
    total = lambda names: sum(v for k, v in best.items() if k.split("#")[0] in names)
    return {
        "host_s_per_sim_s": total({"sim.run"}) / recs[0]["sim_s"],
        "time_to_result_s": sum(best.values()),
        "setup_s": total({"workload.dsl_load", "cloud.build"}),
        "resume_s": total({"ckpt.read", "ckpt.restore"}),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs),
    }


def source_digest():
    """Digest of the sources the benchmark builds, for provenance where the
    tree is not a git checkout."""
    paths = []
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [x for x in dirs if not x.startswith("_")]
            paths += [os.path.join(d, n) for n in files
                      if n.endswith((".ml", ".mli", ".scn", ".py")) or n == "dune"]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                       text=True, timeout=10)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)

    with open(os.path.join(BENCH, "golden.json")) as f:
        golden = json.load(f).get(args.workload, {}).get(str(args.seed))

    attempted = failed = 0
    errors = []

    def tally(rec, reference):
        nonlocal attempted, failed
        errs = failures(rec, reference)
        attempted += max(len(reference), 1)
        failed += min(len(errs), max(len(reference), 1))
        errors.extend(e for e in errs if e not in errors)

    # The untimed warm-up is the reference: a straight run whose digests
    # every timed operation must reproduce, checked against the golden
    # digests when the seed has them.
    warm = run_op(args.workload, args.seed, "reference")
    produced = {n: c.get("digest") for n, c in warm.get("checks", {}).items()}
    reference = golden if golden is not None else produced
    tally(warm, reference)

    plain, traced, kernel_s = [], [], []
    start = time.monotonic()
    # At least MIN_OPS operations, unless they hang: the run must end.
    while (time.monotonic() - start < args.seconds
           or (len(plain) < MIN_OPS and time.monotonic() - start < 2 * args.seconds)):
        for mode in ("op", "traced") if args.trace else ("op",):
            rec = run_op(args.workload, args.seed, mode)
            rec["run_id"] = "%s-%d-%d-%d" % (args.workload, args.seed, os.getpid(),
                                             len(plain) + len(traced))
            tally(rec, reference)
            (traced if mode == "traced" else plain).append(rec)
        kernel_s += [(t1 - t0) * 1e-9 for _id, _parent, name, t0, t1
                     in run_op("calibrate", 0, "op").get("spans", [])
                     if name == "bench.calibrate"]

    # A process that crashed or was killed left no spans to time.
    plain = [r for r in plain if "spans" in r]
    traced = [r for r in traced if "spans" in r]
    if not plain or (args.trace and not traced) or not kernel_s:
        fail("no operation finished")
    # Measured wall times, and the same at the reference host's speed.
    raw = e2e_metrics(plain)
    calibration_s = min(kernel_s)
    scale = REFERENCE_CALIBRATION_S / calibration_s
    e2e = {k: v * scale if k in END_TO_END_TIMES else v for k, v in raw.items()}
    names = {m["name"]: m["unit"] for m in declared["end_to_end" if not args.trace else "per_layer"]}
    if args.trace:
        layers = layer_metrics(traced)
        layers["bench.trace_overhead_s"] = (
            e2e_metrics(traced)["time_to_result_s"] - raw["time_to_result_s"])
        layers["bench.calibration_s"] = calibration_s
        values = {k: layers.get(k, 0.0) for k in names}
        with open(os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed)), "w") as f:
            for r in plain + traced:
                for sid, parent, name, t0, t1 in r["spans"]:
                    f.write(json.dumps({"run_id": r["run_id"], "mode": r["mode"], "id": sid,
                                        "parent": parent, "name": name,
                                        "start_ns": t0, "end_ns": t1}) + "\n")
    else:
        values = {k: e2e[k] for k in names}

    prov = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(plain) + len(traced),
        "nproc": os.cpu_count(), "ocaml": warm.get("ocaml", "unknown"),
        "git_rev": git_rev(), "source_digest": source_digest(),
        "driver": "sequential, shards = 1, one domain, one process per operation",
        "gc": warm.get("gc", {}), "host": platform.machine(),
        "calibration_s": calibration_s, "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(os.path.join(OUT, "rows.jsonl"), "a") as f:
        f.write(json.dumps({"provenance": prov, "metrics": values, "e2e": e2e,
                            "e2e_measured": raw, "attempted": attempted,
                            "failed": failed}) + "\n")

    for e in errors[:20]:
        print("check failed: " + e, file=sys.stderr)
    print("provenance: " + json.dumps(prov))
    print("%-20s %14s %s %14s" % ("metric", "reported", "unit", "measured"))
    units = [(m["name"], m["unit"]) for m in declared["end_to_end"]]
    if args.workload == "fleet_resume":
        units.append(("resume_s", "s"))
    for name, unit in units:
        print("%-20s %14.6f %-4s %14.6f" % (name, e2e[name], unit, raw[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": names[k]} for k, v in values.items()},
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
