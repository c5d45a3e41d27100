#!/usr/bin/env python3
"""Benchmark of the dualdense `dcs` pipeline, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in workloads.py.  One invocation generates the
workload's instance from the seed, then measures in closed loop (one client,
one run at a time) for S seconds, each sample in a fresh child process:

  --trace 0  rounds of: the `python -m dualdense dcs` CLI on the files
             (wall time, peak RSS from that child's own rusage), and a
             library child timing load + DualNetwork (setup_s), extract_dcs
             (solve_s) and serialization.  End-to-end metrics.
  --trace 1  rounds of: a child replaying extract_dcs with a span around
             each layer call, an untraced library child (for the tracing
             overhead) and a `python -c "import dualdense.cli"` child.
             Per-layer metrics.

All children run on one CPU, beside a lowest-priority speed probe; each
timed child's times are scaled by the probe's speed during that child's
life, relative to its reference speed (see probe.py).  The raw medians are
kept in the run context.  Timings are medians over the invocation's samples.

Every output is checked: each CLI run must exit 0 and every output of the
invocation, CLI or library, must be byte-identical; the first CLI output is
checked independently against the input files by verify.py.  The last line
of stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the run context (machine, seeds, instance sizes, generation
time, sample counts) and the spans go to `.perfbench/<run>/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
from pathlib import Path

import probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUDGET_S = 170.0  # every invocation must end within 180 s
MB = 1e6

LAYER_SPANS = {
    "formats.parse_conceptual_s": "formats.parse_conceptual",
    "formats.parse_physical_s": "formats.parse_physical",
    "formats.parse_correspondence_s": "formats.parse_correspondence",
    "dualnet.init_s": "dualnet.init",
    "align.build_s": "align.build",
    "peel.peel_s": "peel.peel",
    "pipeline.select_s": "pipeline.select",
    "pipeline.verify_s": "pipeline.verify",
    "pipeline.repair_s": "pipeline.repair",
    "formats.serialize_s": "formats.serialize",
}


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


class SpeedProbe:
    """The probe process and its shared state file."""

    def __init__(self, state: Path, cpu: int, env: dict):
        state.write_bytes(bytes(probe.STATE.size))
        self.reader = probe.Reader(state)
        self.pid = os.posix_spawn(sys.executable, [
            sys.executable, str(HERE / "probe.py"), str(state), str(cpu)], env)
        deadline = time.perf_counter() + 10
        while self.read()[0] == 0:
            if time.perf_counter() > deadline:
                self.close()
                raise BenchError("the speed probe did not start")
            time.sleep(0.01)

    def read(self) -> tuple[float, float]:
        return self.reader.read()

    def close(self) -> None:
        os.kill(self.pid, signal.SIGTERM)
        os.waitpid(self.pid, 0)
        self.reader.close()


class Child:
    """Outcome of one child process; ``scale`` converts its times to the
    probe's reference speed."""

    def __init__(self, rc: int | None, wall_s: float, maxrss_kib: int, stdout: Path,
                 scale: float):
        self.rc, self.wall_s, self.maxrss_kib = rc, wall_s, maxrss_kib
        self.stdout, self.scale = stdout, scale

    @property
    def ok(self) -> bool:
        return self.rc == 0

    def json(self) -> dict:
        return json.loads(self.stdout.read_text(encoding="utf-8").splitlines()[-1])


class Samples:
    """Per-metric sample lists: times scaled to reference speed, plus the
    raw times for the record."""

    def __init__(self):
        self.scaled: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}

    def time(self, name: str, seconds: float, scale: float) -> None:
        self.raw.setdefault(name, []).append(seconds)
        self.scaled.setdefault(name, []).append(seconds * scale)

    def value(self, name: str, value: float) -> None:
        self.scaled.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.scaled[name])


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.w = WORKLOADS[workload]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.start = time.perf_counter()
        self.work = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.probe: SpeedProbe | None = None
        self.speeds: list[float] = []
        self.reused_speeds = 0
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.serial = 0
        self.killed = False

    # -- child processes -------------------------------------------------

    def spawn(self, argv: list[str], timed: bool = True) -> Child:
        """Run one child to completion; its peak RSS comes from wait4 on
        that child alone, and a timed child's ``scale`` from the probe's
        speed meanwhile.  A child still running at the invocation's budget
        is killed and reported with rc None."""
        before = self.probe.read()
        self.serial += 1
        out = self.work / f"child-{self.serial}.out"
        with open(out, "wb") as fh:
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1)])
            pidfd = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(
                    0.0, self.start + BUDGET_S - time.perf_counter()))
                wall = time.perf_counter() - t0
                if not ready:
                    os.kill(pid, signal.SIGKILL)
                    self.killed = True
                _, status, usage = os.wait4(pid, 0)
            finally:
                os.close(pidfd)
        rc = os.waitstatus_to_exitcode(status) if ready else None
        if not timed:
            return Child(rc, wall, usage.ru_maxrss, out, 1.0)
        speed = probe.speed(before, self.probe.read())
        if speed is not None:
            self.speeds.append(speed)
        elif self.speeds:
            # A short child can end before the probe's next slice.
            self.speeds.append(self.speeds[-1])
            self.reused_speeds += 1
        else:
            raise BenchError("the speed probe got no CPU time during the first timed child")
        return Child(rc, wall, usage.ru_maxrss, out,
                     self.speeds[-1] / probe.REFERENCE_UNITS_PER_S)

    def worker(self, task: str, *args: str, timed: bool = True) -> Child:
        return self.spawn([str(HERE / "worker.py"), task, self.w.name, str(self.work), *args],
                          timed)

    def need(self, child: Child, what: str) -> Child:
        if not child.ok:
            raise BenchError(f"{what} failed (exit {child.rc})")
        return child

    def cli(self) -> tuple[Child, Path]:
        output = self.work / f"cli-{self.serial + 1}.json"
        child = self.spawn([
            "-m", "dualdense", "dcs",
            "--conceptual", str(self.work / "conceptual.tsv"),
            "--physical", str(self.work / "physical.tsv"),
            "--correspondence", str(self.work / "correspondence.tsv"),
            *self.w.flags, "--output", str(output)])
        return child, output

    # -- measurement -----------------------------------------------------

    def sample(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(why)
        return ok

    def rounds(self, one_round) -> None:
        """Closed loop: start another round while one more fits in the
        measuring window (always at least one)."""
        window0 = time.perf_counter()
        durations: list[float] = []
        while not self.killed:
            r0 = time.perf_counter()
            one_round()
            now = time.perf_counter()
            durations.append(now - r0)
            if now - window0 + statistics.median(durations) > self.seconds:
                return
            if now + 2 * max(durations) > self.start + BUDGET_S:
                self.notes.append("stopped early to stay within the time budget")
                return

    def run(self) -> tuple[dict, dict]:
        # Children inherit this CPU, which the probe shares (see probe.py).
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.probe = SpeedProbe(self.work / "probe.state", cpu, self.env)
        instance = self.need(self.worker("gen", str(self.seed), timed=False),
                             "instance generation").json()
        self.need(self.spawn(["-c", "import dualdense.cli"], timed=False), "importing dualdense")

        ref_child, ref_path = self.cli()
        if not self.sample(ref_child.ok and ref_path.is_file(), f"CLI exit {ref_child.rc}"):
            raise BenchError(f"the first CLI run failed (exit {ref_child.rc})")
        ref = _sha256(ref_path)
        verdict = self.need(self.worker("check", ref_path.name, timed=False),
                            "output check").json()
        if not verdict["ok"]:
            # Every run of the invocation must reproduce this output, so
            # every run fails with it; the measurement still completes.
            self.notes.extend(verdict["problems"])

        s = Samples()
        spans: list[dict] = []
        counts: dict = {}

        def timed_child(task: str, *args: str) -> tuple[dict | None, float]:
            child = self.worker(task, *args)
            res = child.json() if child.ok else None
            good = res is not None and res["sha256"] == ref
            self.sample(good, f"{task} child: exit {child.rc}" if res is None
                        else f"{task} child output differs from the CLI output")
            return (res if good else None), child.scale

        def cli_round() -> None:
            child, path = self.cli()
            same = child.ok and path.is_file() and _sha256(path) == ref
            self.sample(same, f"CLI exit {child.rc}" if not child.ok
                        else "CLI output differs between runs")
            if path.is_file():
                path.unlink()
            s.time("wall_s", child.wall_s, child.scale)
            s.value("peak_rss_mb", child.maxrss_kib * 1024 / MB)
            res, scale = timed_child("time")
            if res is not None:
                for key in ("setup_s", "solve_s"):
                    s.time(key, res[key], _scale(res["speeds"][key], scale))

        def trace_round() -> None:
            res, scale = timed_child("trace", f"r{self.serial + 1}")
            if res is not None:
                spans.extend(res["spans"])
                counts.update(res["counts"])
                took = {sp["name"]: sp for sp in res["spans"]}
                for metric, name in {"total_s": "dcs", **LAYER_SPANS}.items():
                    sp = took[name]
                    s.time(metric, sp["end"] - sp["start"], _scale(sp["speed"], scale))
                layers = sum(sp["end"] - sp["start"] for sp in res["spans"] if sp["parent"] == 0)
                root = took["dcs"]
                s.value("trace.coverage", layers / (root["end"] - root["start"]))
            plain, scale = timed_child("time")
            if plain is not None:
                s.value("untraced_s", sum(plain[key] * _scale(plain["speeds"][key], scale)
                                          for key in ("setup_s", "solve_s", "serialize_s")))
            startup = self.spawn(["-c", "import dualdense.cli"])
            if self.sample(startup.ok, f"importing dualdense.cli: exit {startup.rc}"):
                s.time("cli.startup_s", startup.wall_s, startup.scale)

        if self.trace:
            self.rounds(trace_round)
        else:
            s.time("wall_s", ref_child.wall_s, ref_child.scale)
            s.value("peak_rss_mb", ref_child.maxrss_kib * 1024 / MB)
            self.rounds(cli_round)
        if not verdict["ok"]:
            self.failed = self.attempted

        needed = {"total_s", "untraced_s", "cli.startup_s"} if self.trace else {
            "wall_s", "setup_s", "solve_s"}
        if needed - s.scaled.keys():
            raise BenchError(f"no successful sample of {sorted(needed - s.scaled.keys())}: "
                             f"{self.notes[-3:]}")
        if self.trace:
            metrics = {"cli.startup_s": (s.median("cli.startup_s"), "s")}
            metrics.update({m: (s.median(m), "s") for m in LAYER_SPANS})
            metrics.update({k: (v, "ratio" if k == "align.gap_yield" else "count")
                            for k, v in counts.items()})
            metrics["formats.output_bytes"] = (counts["formats.output_bytes"], "B")
            metrics["formats.dropped_pairs"] = (instance["dropped_pairs"], "count")
            metrics["trace.coverage"] = (s.median("trace.coverage"), "ratio")
            metrics["trace.overhead_s"] = (s.median("total_s") - s.median("untraced_s"), "s")
        else:
            wall = s.median("wall_s")
            edges = instance["conceptual_edges"] + instance["physical_edges"]
            metrics = {
                "wall_s": (wall, "s"),
                "setup_s": (s.median("setup_s"), "s"),
                "solve_s": (s.median("solve_s"), "s"),
                "peak_rss_mb": (s.median("peak_rss_mb"), "MB"),
                "output_mb": (ref_path.stat().st_size / MB, "MB"),
                "input_edges_per_s": (edges / wall, "edges/s"),
                "density_ratio": (verdict["density_ratio"], "ratio"),
                "ok_ratio": ((self.attempted - self.failed) / self.attempted, "ratio"),
            }

        context = {
            "workload": self.w.name,
            "seed": self.seed,
            "heldout_seed": heldout_seed(self.seed),
            "trace": int(self.trace),
            "machine": machine(),
            "instance": {k: v for k, v in instance.items() if k != "planted"},
            "samples": {k: len(v) for k, v in s.scaled.items()},
            "raw_medians_s": {k: statistics.median(v) for k, v in s.raw.items()},
            "probe_median_units_per_s": statistics.median(self.speeds),
            "probe_reference_units_per_s": probe.REFERENCE_UNITS_PER_S,
            "probe_reused_speeds": self.reused_speeds,
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed / self.attempted,
            "check": verdict,
            "notes": self.notes,
        }
        return context, {"metrics": metrics, "spans": spans, "values": s.scaled,
                         "raw_values": s.raw}

    def cleanup(self) -> None:
        if self.probe is not None:
            self.probe.close()
        for path in self.work.iterdir():
            if (path.suffix in (".tsv", ".out", ".state")
                    or path.name.startswith(("cli-", "traced-"))):
                path.unlink()


def _scale(speed: float | None, fallback: float) -> float:
    """Scale for a phase a child timed itself: its own probe speed when the
    probe ran during it, else the whole child's."""
    return fallback if speed is None else speed / probe.REFERENCE_UNITS_PER_S


def heldout_seed(seed: int) -> int:
    """Seed reserved for confirming a claim made on ``seed``."""
    return seed + 1_000_003


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "platform": platform.platform()}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dualdense" / "__init__.py").is_file():
        print(f"error: no dualdense sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        context, result = bench.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.cleanup()
    (bench.work / "context.json").write_text(
        json.dumps({**context, "values": result["values"], "raw_values": result["raw_values"]},
                   indent=1) + "\n", encoding="utf-8")
    if result["spans"]:
        (bench.work / "spans.json").write_text(json.dumps(result["spans"]) + "\n",
                                               encoding="utf-8")

    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        n = context["samples"].get(name)
        print(f"{args.workload:>10} {name:<32} {value:>16.6g} {unit:<8}"
              + (f" median of {n}" if n else ""))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
