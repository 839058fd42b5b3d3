"""One benchmark sample: a fresh interpreter that sets up and runs covercert.

    python3 perfbench/child.py SPAWN_T MODE CONFIG OUT_DIR RESULT

``SPAWN_T`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, the covercert import and
config validation, as a user's ``covercert --config ...`` pays them.
``MODE`` is ``run``, or ``trace`` to record spans (``spans.py``).  The
result is written as JSON to ``RESULT``; a crash leaves no result file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    spawn_t, mode, config_path, out_dir, result_path = argv
    sys.path.insert(0, str(SRC))
    from covercert import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"covercert imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    config = cli.RunConfig.from_dict(json.loads(Path(config_path).read_text()))
    result: dict = {"setup_s": time.monotonic() - float(spawn_t)}

    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code, _ = cli.run(config, Path(out_dir))
    result["run_s"] = time.perf_counter() - start
    result["exit_code"] = code
    if tracer is not None:
        tracer.write_spans(Path(out_dir) / "spans.npz")
        result["layers"] = tracer.layer_metrics()
        result["missing_spans"] = tracer.missing

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
