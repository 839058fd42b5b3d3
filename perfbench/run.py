"""covercert benchmark: certified-run time end to end, layer times traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports covercert from its
``src/``.  Every sample is a fresh interpreter (``child.py``) that imports
covercert, validates the workload config and runs ``covercert.cli.run``
once, as a user's ``covercert --config ...`` does, so no cache carries
over between samples.  Samples run one at a time; the run starts another
while it is expected to end within ``--seconds`` (at least three in all).

``--trace 0`` reports the end-to-end metrics: ``run_s`` (wall time of
``cli.run`` per certified run: the run's total ``cli.run`` time divided by
its samples), ``setup_s`` (median time from spawn until the config is
validated) and ``peak_rss_mb`` (median peak resident memory of a sample).
``run_s`` is a mean, not a median, because the host's speed drifts in
stretches of seconds to minutes: a mean weighs each stretch by the time it
lasted, while a median jumps to whichever stretch held the middle sample.
``--trace 1`` alternates traced and untraced samples and reports the
per-layer metrics of ``spans.py`` from the traced ones, plus
``trace.overhead_ratio``, ``cli.cpu_s`` and ``host.calib_ms``.

Every sample's report is checked against ``reference/<workload>.json``:
certificate names, verdicts, and measured/bound/slack values within the
tolerance in ``spec.json``.  ``fail_frac`` is the share of expected
certificates that failed, went inconclusive, disagreed with the reference
or were never written (a crash fails all of them).  All samples of a run
must also write the same report apart from ``generated_at``, and traced
samples must repeat every work count exactly.  The last line of stdout is
the JSON result; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
CHILD_TIMEOUT_S = 120.0
MIN_SAMPLES = 3

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())


def calibrate_ms() -> float:
    """Time of a fixed pure-Python loop that runs no covercert code."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += (i * i) % 7
    return (time.perf_counter() - start) * 1000.0


def spawn(mode: str, config_path: Path, out_dir: Path) -> dict | None:
    """Run one child to completion; its result, or None if it crashed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "result.json"
    result_path.unlink(missing_ok=True)
    with (out_dir / "stderr.txt").open("w") as err:
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(spawn_t), mode,
             str(config_path), str(out_dir), str(result_path)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # also reached when this process is stopped (see main)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not result_path.is_file():
        tail = (out_dir / "stderr.txt").read_text()[-2000:]
        print(f"sample crashed (exit {proc.returncode}): {tail}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def certificate_rows(report: dict) -> list[list]:
    return [[c["name"], c["verdict"], c["measured"], c["bound"], c["slack"]]
            for c in report["certificates"]]


def _same_value(a, b, rtol: float, atol: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol
    return a == b


def check_rows(rows: list[list], expected: list[list]) -> tuple[int, list[str]]:
    """Failed certificates of one report against the reference, with reasons."""
    tol = SPEC["value_tolerance"]
    problems = []
    for i, want in enumerate(expected):
        got = rows[i] if i < len(rows) else None
        if got is None or got[0] != want[0]:
            problems.append(f"missing {want[0]}")
        elif got[1] != want[1] or got[1] in ("fail", "inconclusive"):
            problems.append(f"{want[0]}: verdict {got[1]}, reference {want[1]}")
        elif not all(_same_value(g, w, tol["rtol"], tol["atol"])
                     for g, w in zip(got[2:], want[2:])):
            problems.append(f"{want[0]}: values {got[2:]}, reference {want[2:]}")
    for got in rows[len(expected):]:
        problems.append(f"unexpected {got[0]}")
    return min(len(problems), len(expected)), problems


def report_digest(report: dict) -> str:
    """Hash of the report without its ``generated_at`` stamp."""
    stable = {k: v for k, v in report.items() if k != "generated_at"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "covercert" / "cli.py").is_file():
        print(f"no covercert source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    expected = reference["phases"][str(workloads.phase(args.seed))]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workloads.make_config(args.workload, args.seed),
                                      indent=2))

    start = time.monotonic()
    samples: list[dict] = []
    failed = 0
    digests: dict[str, int] = {}
    while True:
        traced = sum(s["mode"] == "trace" for s in samples)
        plain = len(samples) - traced
        enough = (traced >= 2 and plain >= 1) if args.trace else plain >= MIN_SAMPLES
        # start another sample only if it should end within --seconds
        next_wall = statistics.median(s["wall_s"] for s in samples) if samples else 0.0
        if enough and time.monotonic() - start + next_wall > args.seconds:
            break
        mode = "trace" if args.trace and traced <= plain else "run"
        calib = calibrate_ms()
        out_dir = work / f"sample{len(samples)}"
        began = time.monotonic()
        res = spawn(mode, config_path, out_dir)
        sample = {"mode": mode, "calib_ms": calib, "result": res,
                  "wall_s": time.monotonic() - began}
        report_path = out_dir / "report.json"
        if res is None or not report_path.is_file():
            sample["failed"] = len(expected)
            sample["problems"] = ["no report"]
            samples.append(sample)
            failed += len(expected)
            break
        report = json.loads(report_path.read_text())
        digest = report_digest(report)
        digests[digest] = digests.get(digest, 0) + 1
        sample["failed"], sample["problems"] = check_rows(certificate_rows(report),
                                                          expected)
        failed += sample["failed"]
        samples.append(sample)
        if mode == "trace":
            shutil.copy(out_dir / "spans.npz", work / "spans.npz")
        shutil.rmtree(out_dir)

    ok = [s for s in samples if s["result"] is not None]
    correct = failed == 0 and len(digests) == 1
    for i, s in enumerate(samples):
        r = s["result"] or {}
        print(f"sample {i} mode={s['mode']} calib_ms={s['calib_ms']:.1f} "
              f"setup_s={r.get('setup_s', float('nan')):.4f} "
              f"run_s={r.get('run_s', float('nan')):.4f} "
              f"peak_rss_mb={r.get('peak_rss_mb', float('nan')):.1f} "
              f"cpu_s={r.get('cpu_s', float('nan')):.3f} failed={s['failed']}")
        for problem in s["problems"][:5]:
            print(f"    {problem}")
    if len(digests) > 1:
        print(f"reports differ between samples: {len(digests)} distinct "
              f"(apart from generated_at) over {len(ok)} samples")

    plain = [s["result"] for s in ok if s["mode"] == "run"]
    traced = [s["result"] for s in ok if s["mode"] == "trace"]
    setups = [s["result"]["setup_s"] for s in ok]
    attempted = len(expected) * len(samples)
    metrics: dict[str, dict] = {}
    if plain:
        run_s = [r["run_s"] for r in plain]
        q1, med, q3 = quartiles(run_s)
        print(f"run_s mean {statistics.fmean(run_s):.4f} s per certified run "
              f"(median {med:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(run_s)}; "
              "no tail percentile: fewer than 10 samples lie beyond any)")
        print(f"setup_s median {statistics.median(setups):.4f} s (n={len(setups)})")
        print(f"peak_rss_mb median "
              f"{statistics.median(r['peak_rss_mb'] for r in plain):.1f} MB")
    print(f"fail_frac {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} expected certificates)")
    print(f"report_identical {'yes' if len(digests) == 1 else 'no'} "
          f"across {len(ok)} samples (traced and untraced)")
    print(f"calib_ms median {statistics.median(s['calib_ms'] for s in samples):.1f} ms "
          "(host speed: a fixed loop timed before each sample)")
    if not args.trace and plain:
        metrics = {
            "run_s": {"value": statistics.fmean(r["run_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    elif args.trace and traced and plain:
        layers = [r["layers"] for r in traced]
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        for name, unit in units.items():
            values = [layer[name] for layer in layers if name in layer]
            if unit == "count" and len(set(values)) > 1:
                print(f"work count {name} differs between traced samples: {values}")
                correct = False
            if values:
                value = values[0] if unit == "count" else statistics.median(values)
                metrics[name] = {"value": value, "unit": unit}
        missing = sorted({m for r in traced for m in r.get("missing_spans", [])})
        if missing:
            print(f"traced functions not found in covercert: {missing}")
        untraced_run = statistics.fmean(r["run_s"] for r in plain)
        metrics["trace.overhead_ratio"] = {
            "value": statistics.fmean(r["run_s"] for r in traced) / untraced_run,
            "unit": "ratio"}
        metrics["cli.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in plain),
                                "unit": "s"}
        metrics["host.calib_ms"] = {
            "value": statistics.median(s["calib_ms"] for s in samples), "unit": "ms"}
        for name, m in sorted(metrics.items()):
            print(f"{name} {m['value']} {m['unit']}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
