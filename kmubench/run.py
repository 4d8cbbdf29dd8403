#!/usr/bin/env python3
"""kmu benchmark: the timing model and the host runtime, end to end.

Run from the repository root:

    python3 kmubench/run.py --workload model_steady --seed 1 \
        --seconds 20 --trace 0

The first run builds kmu (the repository's own CMake build, tests
off) and the in-process driver (kmubench/driver.cc) under
.bench_build/. Every run then prints, as its last stdout line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.

Workloads
  model_steady  long timing-model points (fig03/05/07/08/09 shapes, a
                write mix on 4 shards, an open-loop Poisson/Zipf point),
                each with its plan-matched DRAM baseline, in-process.
  figures       every fig*/abl_* figure binary at jobs=min(nproc, 4),
                each in a private temporary directory.
  host_chase    the host runtime (fibers, SPSC rings, access engines,
                emulated device thread) on a seeded random pointer
                chase over a device image larger than the LLC.

Every end-to-end metric is printed on every workload. The ones that
belong to another workload (for example the host_chase ratios on
model_steady) come from a short ride-along section in a separate
process, so the workload's own wall time, set-up time and peak RSS
stay its own. Apart from setup_s, timings are ratios measured within
one process (see end_to_end()); the raw seconds and rates are in the
per-layer set.

Correctness: model rows must equal kmubench/expected/model_steady.txt
(the open-loop row depends on --seed; for seeds other than 1 it must
repeat exactly across passes), figure CSVs must byte-match
tests/artifacts/ or kmubench/expected/figures/, and every fiber's
final chase position and checksum must match a host-side walk.

Regenerate the benchmark's own expected files after an intended
model change with:

    python3 kmubench/run.py --regen-expected

Self-tests of the span arithmetic and the oracles:

    python3 -m unittest discover -s kmubench -p 'test_*.py'
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import ledger  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
EXPECTED = HERE / "expected"
ARTIFACTS = ROOT / "tests" / "artifacts"
DEFAULT_SEED = 1
OPEN_LOOP_PREFIX = "open_loop"
CHILD_TIMEOUT_S = 170
RIDE_MODEL_S = 3       # budget of the timing-model ride-along section
RIDE_CHASE_PASSES = 4  # passes of the host-chase ride-along section

FIGURES = [
    "fig02_on_demand", "fig03_prefetch_latency",
    "fig04_prefetch_workcount", "fig05_multicore_prefetch",
    "fig06_prefetch_mlp", "fig07_queue_vs_prefetch",
    "fig08_multicore_queues", "fig09_queue_mlp", "fig10_applications",
    "fig_knee", "abl_lfb_sweep", "abl_locality", "abl_attach",
    "abl_sharding", "abl_chipq_sweep", "abl_ctx_cost", "abl_queue_opts",
    "abl_pcie_overhead", "abl_kernel_queue", "abl_smt", "abl_write_mix",
    "abl_outage",
]

# Modelled host-side costs (EXPERIMENTS.md) beside the per-layer
# metric that measures the same operation on this host.
CALIBRATION = [
    ("fiber switch", "ult.switch_ns", 50.0),
    ("descriptor enqueue", "queue.enqueue_ns", 45.0),
    ("doorbell", "access.doorbell_ns", 100.0),
    ("CQ poll", "queue.poll_ns", 15.0),
    ("completion", "queue.completion_ns", 30.0),
]


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def jobs():
    return min(nproc(), 4)


def clean_env():
    """The environment minus every KMU_* knob, so the default (serial
    ladder) kernel is what gets measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("KMU_")}


def run_child(argv, cwd, env=None, stdout_path=None):
    """Run one process to completion. Returns (returncode, wall_s,
    maxrss_mb, stdout_text). Output goes to files, never to a pipe,
    so waiting with wait4 (for the child's own peak RSS) cannot
    deadlock."""
    out_path = Path(stdout_path or (OUT / "child.out"))
    with open(out_path, "wb") as so, open(OUT / "child.err", "wb") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env or clean_env(),
                                stdout=so, stderr=se)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(errors="replace") if stdout_path is None \
        else ""
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, text


def source_stamp():
    """Path, size and mtime of every source file: the build is skipped
    while this is unchanged (a no-op make over 22 targets takes
    seconds)."""
    items = []
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT).parts
        if rel[0] in (".bench_build", ".git") or "__pycache__" in rel \
                or not path.is_file():
            continue
        st = path.stat()
        items.append("%s %d %d" % ("/".join(rel), st.st_size, st.st_mtime_ns))
    return "\n".join(items)


def build():
    """Build kmu's figure binaries and the driver under .bench_build."""
    OUT.mkdir(exist_ok=True)
    stamp_file = OUT / "source.stamp"
    stamp = source_stamp()
    if stamp_file.exists() and stamp_file.read_text() == stamp:
        return
    kmu, drv = OUT / "kmu", OUT / "driver"
    steps = []
    if not (kmu / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(kmu),
                      "-DBUILD_TESTING=OFF"])
    steps.append(["cmake", "--build", str(kmu), "-j", str(nproc()),
                  "--target"] + FIGURES)
    if not (drv / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(drv),
                      "-DKMU_SOURCE_DIR=" + str(ROOT),
                      "-DKMU_BUILD_DIR=" + str(kmu)])
    steps.append(["cmake", "--build", str(drv), "-j", str(nproc())])
    with open(OUT / "build.log", "ab") as log:
        for argv in steps:
            rc = subprocess.call(argv, cwd=ROOT, env=clean_env(),
                                 stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("build step failed: %s (see %s)"
                                 % (" ".join(argv), OUT / "build.log"))
    stamp_file.write_text(stamp)


def driver(mode, **kw):
    """Run the in-process driver; returns (json, maxrss_mb, spawn_ns)."""
    argv = [str(OUT / "driver" / "kmubench_driver"), mode]
    argv += ["%s=%s" % (k, v) for k, v in kw.items()]
    spawn_ns = time.monotonic_ns()
    rc, _, rss, text = run_child(argv, cwd=OUT)
    if rc != 0:
        raise BenchError("driver %s exited %d: %s" % (
            mode, rc, (OUT / "child.err").read_text(errors="replace")))
    return json.loads(text.strip().splitlines()[-1]), rss, spawn_ns


def timed_median(values):
    """Median after dropping the first (warm-up) sample, when there
    are at least three."""
    values = list(values)
    return statistics.median(values[1:] if len(values) >= 3 else values)


class Run:
    """One benchmark invocation: accumulates verified operations,
    metrics and spans across the sections it executes."""

    def __init__(self, seed, seconds, trace):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.spans = ledger.Recorder(on=bool(trace))
        self.expected_rows = ledger.load_rows(EXPECTED / "model_steady.txt")

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def put(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    # -- model ----------------------------------------------------------

    def model(self, budget_s, points="all", min_passes=3):
        doc, rss, spawn_ns = driver(
            "model", seed=self.seed, seconds=budget_s, points=points,
            min_passes=min_passes, trace=self.trace)
        self.spans.extend(doc["spans"])
        seeded = OPEN_LOOP_PREFIX if self.seed != DEFAULT_SEED else None
        self.count(*ledger.check_rows(doc["rows"], self.expected_rows,
                                      seeded))
        rows = {r.split(" ", 1)[0]: ledger.row_fields(r)
                for r in doc["rows"][0]}
        doc["paper_err_pct"] = ledger.paper_err_pct(
            rows["fig05_prefetch_8x8"]["chipq_peak"],
            rows["fig08_swqueue_8x24"]["useful_gbs"],
            rows["fig09_swqueue_1x16_b4"]["work_ipc"]
            / rows["fig09_swqueue_1x16_b4.baseline"]["work_ipc"])
        doc["row_fields"] = rows
        doc["startup_s"] = (doc["first_op_ns"] - spawn_ns) * 1e-9
        doc["rss_mb"] = rss
        return doc

    # -- host chase -----------------------------------------------------

    def chase(self, budget_s, min_passes=3):
        doc, rss, spawn_ns = driver(
            "chase", seed=self.seed, seconds=budget_s,
            min_passes=min_passes, trace=self.trace)
        self.spans.extend(doc["spans"])
        self.count(int(doc["attempted"]), int(doc["failed"]))
        doc["startup_s"] = (doc["first_op_ns"] - spawn_ns) * 1e-9
        doc["rss_mb"] = rss
        return doc

    # -- figures --------------------------------------------------------

    def figure_pass(self, workdir, records):
        """Regenerate every figure once in a fresh private directory;
        returns (wall_s, peak_rss_mb, per-binary wall)."""
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        env = clean_env()
        env["KMU_BENCH_JSON"] = str(workdir / "bench.json")
        per_bench, rss_max, failed_bins = {}, 0.0, set()
        t0 = time.monotonic()
        with self.spans.span("bench.figures_pass"):
            for name in FIGURES:
                with self.spans.span("sweep.bench." + name):
                    rc, wall, rss, _ = run_child(
                        [str(OUT / "kmu" / "bench" / name),
                         "jobs=%d" % jobs()],
                        cwd=workdir, env=env,
                        stdout_path=workdir / (name + ".stdout"))
                per_bench[name] = wall
                rss_max = max(rss_max, rss)
                if rc != 0:
                    failed_bins.add(name)
        wall = time.monotonic() - t0
        with self.spans.span("bench.compare"):
            for csv, want in expected_csvs().items():
                ok = ledger.same_bytes(workdir / csv, want)
                self.count(1, 0 if ok else 1)
        try:
            records.extend(json.loads((workdir / "bench.json").read_text()))
        except (OSError, ValueError):
            self.count(1, 1)
        if failed_bins:
            self.count(len(failed_bins), len(failed_bins))
        return wall, rss_max, per_bench

    def figure_setup(self, workdir):
        """Set-up of every figure binary: launch it with an option it
        rejects, so it stops right before its sweep (after static
        initialisation and, for fig10, application trace capture)."""
        workdir.mkdir(parents=True, exist_ok=True)
        total = 0.0
        for name in FIGURES:
            _, wall, _, _ = run_child(
                [str(OUT / "kmu" / "bench" / name), "kmubench-setup-probe"],
                cwd=workdir, stdout_path=workdir / "probe.stdout")
            total += wall
        return total

    def figures(self, budget_s, min_passes=3):
        """Figure passes for the budget. Traced runs alternate spans on
        and off, like the driver, to measure the span overhead."""
        workdir = OUT / "figures"
        t_start = time.monotonic()
        setups = [self.figure_setup(workdir / "setup") for _ in range(3)]
        walls, probes, rss, benches = [], [], 0.0, {}
        on_off = ([], [])
        while True:
            self.spans.on = bool(self.trace) and len(walls) % 2 == 0
            records = []  # the BENCH records of the last pass
            wall, r, per = self.figure_pass(workdir / "pass", records)
            probes.append(driver("probe")[0]["probe_s"])
            on_off[0 if self.spans.on else 1].append(wall)
            walls.append(wall)
            rss = max(rss, r)
            for k, v in per.items():
                benches.setdefault(k, []).append(v)
            if len(walls) >= min_passes and \
                    time.monotonic() - t_start >= budget_s:
                break
        shutil.rmtree(workdir, ignore_errors=True)
        self.spans.on = bool(self.trace)
        return {"wall_s": walls, "probe_s": probes,
                "setup_s": statistics.median(setups),
                "rss_mb": rss, "bench_s": benches, "records": records,
                "span_on_wall_s": statistics.median(on_off[0] or [0.0]),
                "span_off_wall_s": statistics.median(on_off[1] or [0.0])}


def expected_csvs():
    """Figure CSV name -> committed copy it must byte-match."""
    out = {p.name: p for p in (EXPECTED / "figures").glob("*.csv")}
    for p in ARTIFACTS.glob("*.csv"):
        if p.name.startswith(("fig", "abl_")):
            out[p.name] = p
    return out


def per_probe(values, probes):
    """Median of value / probe over the passes (warm-up dropped)."""
    return timed_median(v / p for v, p in zip(values, probes))


def end_to_end(run, workload):
    """The untraced run: the workload's own section for the whole
    budget, then short ride-alongs for metrics of other workloads.

    Host time drifts by tens of percent on a shared machine, so every
    timing except setup_s is a ratio measured within one process: the
    simulator against a fixed CPU probe (probeSeconds in driver.cc),
    the host runtime against plain loads walking the same image."""
    ride_model = ride_chase = None
    if workload == "model_steady":
        own = run.model(run.seconds)
        setup = own["startup_s"] + timed_median(own["setup_s"])
        wall = per_probe(own["wall_s"], own["probe_s"])
        ride_chase = run.chase(0, min_passes=RIDE_CHASE_PASSES)
    elif workload == "host_chase":
        own = run.chase(run.seconds)
        setup = own["startup_s"] + timed_median(own["setup_s"])
        wall = per_probe(own["wall_s"], own["plain_s"])
        ride_model = run.model(RIDE_MODEL_S, points="anchors")
    else:
        own = run.figures(run.seconds)
        setup = own["setup_s"]
        wall = per_probe(own["wall_s"], own["probe_s"])
        ride_model = run.model(RIDE_MODEL_S, points="anchors")
        ride_chase = run.chase(0, min_passes=RIDE_CHASE_PASSES)
    model = own if workload == "model_steady" else ride_model
    chase = own if workload == "host_chase" else ride_chase
    plain = chase["plain_per_us"]

    run.put("setup_s", setup, "s")
    run.put("wall_per_probe", wall, "ratio")
    run.put("sim_us_per_probe",
            timed_median(u * p for u, p in
                         zip(model["sim_us_per_s"], model["probe_s"])), "us")
    run.put("peak_rss_mb", own["rss_mb"], "MB")
    run.put("verified_frac", 1.0 - run.failed / max(run.attempted, 1),
            "frac")
    run.put("paper_err_pct", model["paper_err_pct"], "%")
    for mech in ("ondemand", "prefetch"):
        run.put("host_%s_vs_plain" % mech,
                per_probe(chase[mech + "_per_us"], plain), "ratio")
    # The SW-queue rate is paced by the emulated 1 us device latency,
    # not by this host's memory, so it stays absolute.
    run.put("host_swqueue_accesses_per_us",
            timed_median(chase["swqueue_per_us"]), "1/us")
    run.put("host_interleave_gain", timed_median(chase["interleave_gain"]),
            "ratio")


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(run, workload):
    """The traced run: the workload's own section with spans (every
    other pass untraced, for the span overhead), one pass of the
    other sections, and the layer probes."""
    half = run.seconds / 2.0
    model = run.model(half if workload == "model_steady" else 0,
                      min_passes=2)
    chase = run.chase(half if workload == "host_chase" else 0,
                      min_passes=2)
    figs = run.figures(half if workload == "figures" else 0, min_passes=2)
    probe, _, _ = driver("ledger")
    run.spans.extend(probe["spans"])
    run.count(2, int(probe["wire_ok"] != 1) + int(probe["trace_same"] != 1))

    c = model["counters"]
    rows = model["row_fields"]
    fig08 = rows["fig08_swqueue_8x24"]
    point_rows = [r for n, r in rows.items() if not n.endswith(".baseline")]
    open_loop = rows["open_loop_swqueue_1x16"]
    put = run.put
    put("sim.events", model["sim.events"], "count")
    put("sim.ns_per_event", model["sim.ns_per_event"], "ns")
    put("sim.hold_ns", probe["sim.hold_ns"], "ns")
    put("sim.lambda_hold_ns", probe["sim.lambda_hold_ns"], "ns")
    put("core.build_s", model["core.build_s"], "s")
    put("core.run_s", model["core.run_s"], "s")
    put("core.baseline_s", model["core.baseline_s"], "s")
    put("core.swq.completions_per_poll",
        ratio(c["completions_handled"], c["poll_passes"]), "ratio")
    lfb_tries = c["lfb.allocs"] + c["lfb.merges"] + c["lfb.rejections"]
    put("mem.lfb.reject_frac", ratio(c["lfb.rejections"], lfb_tries), "frac")
    put("mem.chipq.peak", max(r["chipq_peak"] for r in point_rows), "count")
    put("mem.chipq.stall_frac",
        ratio(c["chip_pcie_queue.full_stalls"], c["chip_pcie_queue.entries"]),
        "frac")
    put("mem.pcie.useful_frac", ratio(fig08["useful_gbs"], fig08["wire_gbs"]),
        "frac")
    put("device.fetcher.desc_per_burst",
        ratio(c["descriptors_fetched"], c["burst_reads"]), "ratio")
    put("device.fetcher.empty_burst_frac",
        ratio(c["empty_bursts"], c["burst_reads"]), "frac")
    put("device.replay_misses",
        sum(r["replay_misses"] for r in point_rows), "count")
    put("check.sweeps", c["checker.sweeps"], "count")
    put("serve.completed_frac",
        ratio(model["serve.completed"], model["serve.offered"]), "frac")
    put("serve.p99_ns", open_loop["serve_p99_ns"], "ns")

    recs = [r for r in figs["records"] if "points" in r]
    put("sweep.points", sum(r["points"] for r in recs), "count")
    put("sweep.speedup_vs_serial",
        ratio(sum(r["serial_est_s"] for r in recs),
              sum(r["wall_s"] for r in recs)), "ratio")
    put("sweep.workers_died", sum(r["workers_died"] for r in recs), "count")
    put("sweep.wire_roundtrip_ns", probe["sweep.wire_roundtrip_ns"], "ns")
    for name in FIGURES:
        put("sweep.bench_s." + name, timed_median(figs["bench_s"][name]), "s")
    for app in ("bfs", "bloom", "kv"):
        put("apps.trace_s." + app, probe["apps.trace_s." + app], "s")
    put("trace.overhead_frac", probe["trace.overhead_frac"], "frac")
    put("ult.switch_ns", probe["ult.switch_ns"], "ns")
    put("ult.spawn_ns", probe["ult.spawn_ns"], "ns")
    put("ult.switches_per_access", chase["ult.switches_per_access"], "ratio")
    put("queue.spsc_ns", probe["queue.spsc_ns"], "ns")
    put("queue.spsc_xthread_mops", probe["queue.spsc_xthread_mops"], "1/us")
    for name in ("queue.enqueue_ns", "queue.poll_ns", "queue.completion_ns",
                 "access.doorbell_ns"):
        put(name, probe[name], "ns")
    put("access.swqueue.reissue_frac", chase["access.swqueue.reissue_frac"],
        "frac")
    # Raw host-time figures behind the end-to-end ratios.
    put("bench.wall_s", timed_median(own_section(workload, model, chase,
                                                 figs)["wall_s"]), "s")
    put("bench.probe_s", timed_median(model["probe_s"]), "s")
    put("sim.us_per_s", timed_median(model["sim_us_per_s"]), "us/s")
    for mech in ("ondemand", "prefetch", "swqueue"):
        put("access.%s_per_us" % mech, timed_median(chase[mech + "_per_us"]),
            "1/us")
    put("access.plain_per_us", timed_median(chase["plain_per_us"]), "1/us")

    own = own_section(workload, model, chase, figs)
    put("bench.span_overhead_frac",
        ratio(own["span_on_wall_s"], own["span_off_wall_s"]) - 1, "frac")
    selfs = ledger.layer_self_ms(run.spans.spans)
    for layer in LAYERS:
        put(layer + ".self_ms", selfs.get(layer, 0.0), "ms")

    print_calibration(run, chase)


# Layers that the benchmark's spans reach directly. mem, device, check
# and serve handlers run as events inside the kernel, so their time is
# part of sim's; their per-layer numbers are the counters above (serve
# also has its own run span: the open-loop point).
LAYERS = ["sim", "core", "serve", "sweep", "apps", "trace", "ult", "queue",
          "access", "bench"]


def own_section(workload, model, chase, figs):
    return {"model_steady": model, "host_chase": chase,
            "figures": figs}[workload]


def print_calibration(run, chase):
    print("calibration ledger: measured / modelled (nproc=%d, LLC=%.0f MiB,"
          " chase image=%d MiB)" % (nproc(), chase["llc_mib"],
                                    chase["image_mib"]))
    for label, metric, model_ns in CALIBRATION:
        got = run.metrics[metric]["value"]
        print("  %-20s %-22s %8.2f ns  model %6.1f ns  ratio %.3f"
              % (label, metric, got, model_ns, got / model_ns))


def regen_expected():
    """Rewrite the benchmark-owned expected files from this tree."""
    build()
    run = Run(DEFAULT_SEED, 0, 0)
    doc, _, _ = driver("model", seed=DEFAULT_SEED, seconds=0, min_passes=1)
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / "model_steady.txt").write_text(
        "".join(row + "\n" for row in doc["rows"][0]))
    workdir = OUT / "figures" / "pass"
    run.figure_pass(workdir, [])
    dest = EXPECTED / "figures"
    dest.mkdir(parents=True, exist_ok=True)
    for csv in sorted(workdir.glob("*.csv")):
        if not (ARTIFACTS / csv.name).exists():
            shutil.copyfile(csv, dest / csv.name)
    shutil.rmtree(OUT / "figures", ignore_errors=True)
    print("expected files rewritten under %s" % EXPECTED)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=["model_steady", "figures", "host_chase"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--regen-expected", action="store_true")
    args = ap.parse_args()
    try:
        if args.regen_expected:
            regen_expected()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        if args.seed < 0:
            ap.error("--seed must not be negative")
        build()
        run = Run(args.seed, args.seconds, args.trace)
        (per_layer if args.trace else end_to_end)(run, args.workload)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("kmubench: %s" % exc, file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in
                declared["per_layer" if args.trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in run.metrics.items()}
    if printed != declared or not all(map(ledger.valid_name, printed)):
        print("kmubench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": run.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
