"""Regenerate ``reference/<workload>.json`` from the covercert in ``src/``.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every seed phase of each workload once and stores, per phase, the
certificate names, verdicts and measured/bound/slack values.  Run it only
on a commit whose certificates are known to be right; ``run.py`` then
checks every sample against what it stored.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, WORK, certificate_rows, spawn
import workloads


def main(names: list[str]) -> int:
    status = 0
    for name in names or sorted(workloads.CONFIGS):
        work = WORK / f"reference-{name}"
        phases = {}
        for ph in range(workloads.PHASES):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            config_path = work / "config.json"
            config_path.write_text(json.dumps(workloads.make_config(name, ph)))
            if spawn("run", config_path, work) is None:
                print(f"{name} phase {ph}: crashed", file=sys.stderr)
                return 1
            rows = certificate_rows(json.loads((work / "report.json").read_text()))
            bad = [row[:2] for row in rows if row[1] != "pass"]
            if bad:
                print(f"{name} phase {ph}: not all certificates pass: {bad}")
                status = 1
            phases[str(ph)] = rows
            print(f"{name} phase {ph}: {len(rows)} certificates")
        shutil.rmtree(work, ignore_errors=True)
        (HERE / "reference").mkdir(exist_ok=True)
        (HERE / "reference" / f"{name}.json").write_text(
            json.dumps({"workload": name, "phases": phases}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
