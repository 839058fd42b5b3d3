import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "covercert"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_no_assert_statements():
    """Invariants are checked with explicit raises: ``python -O`` strips
    ``assert`` statements."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _axis(call):
    """The literal ``axis`` of a reduction call: by keyword, or as the first
    argument of a method call such as ``x.max(1)``; None if there is none."""
    node = next((kw.value for kw in call.keywords if kw.arg == "axis"), None)
    receiver = call.func.value
    if node is None and call.args and not (isinstance(receiver, ast.Name)
                                           and receiver.id == "np"):
        node = call.args[0]
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_no_reductions_along_the_last_axis():
    """Point tests loop over the few columns of an (N, d) array with
    ``np.maximum``/``np.minimum``/``&``/``|``: a ``max``, ``min``, ``any`` or
    ``all`` along axis 1 (or -1) runs numpy's inner loop once per row."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("max", "min", "any", "all", "amax", "amin")
             and _axis(node) in (1, -1)]
    assert found == []


def _point_strides(tree):
    """Line numbers of every subscript with a step (``x[::s]``, ``x[a:b:s]``)
    on an expression that names points (``points``, ``pts`` or ``grid``)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript):
            continue
        parts = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                 else [node.slice])
        stepped = any(isinstance(p, ast.Slice) and p.step is not None
                      for p in parts)
        named = ast.unparse(node.value)
        if stepped and any(word in named for word in ("points", "pts", "grid")):
            found.append(node.lineno)
    return found


def test_no_flat_strides_over_points():
    """A sample of a lattice's points is a sub-lattice of every s-th index
    per axis (``Lattice.thinned``): a flat stride of a point list shears
    the sample in d >= 2."""
    assert _point_strides(ast.parse(
        "a = grid[::stride]\nb = check.points[1::4]\nc = axis[::2]\n"
        "d = pts[::-1, 0]")) == [1, 2, 4]
    found = [f"{path.name}:{line}"
             for path in SOURCES
             for line in _point_strides(ast.parse(path.read_text()))]
    assert found == []


def test_all_names_resolve():
    """Every name in a covercert module's ``__all__`` exists on it, so no
    export outlives the code it named."""
    modules = [importlib.import_module(
        "covercert" if path.stem == "__init__" else f"covercert.{path.stem}")
        for path in SOURCES]
    exported = [(module, name) for module in modules
                for name in getattr(module, "__all__", [])]
    assert exported
    assert [f"{module.__name__}.{name}" for module, name in exported
            if not hasattr(module, name)] == []


_LOADED_MODULES = """
import contextlib, io, json, sys
from pathlib import Path
from covercert import cli, radii
off_lattice = []
query = radii.RadiusOracle._off_lattice
def counted(self, k, pts, r0):
    off_lattice.append(len(pts))
    return query(self, k, pts, r0)
radii.RadiusOracle._off_lattice = counted
codes = []
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["--config", config, "--out", out]))
print(json.dumps([codes, sum(off_lattice), sorted(sys.modules)]))
"""


def test_run_loads_no_scipy(tmp_path):
    """A CLI run needs numpy alone: neither scipy, nor numpy.ma (which
    ``np.unique`` imports on first use), nor numpy.polynomial is loaded.  ``boundary_d1`` runs
    the cover and partition suites, ``unit_weights_d1`` adds the chain,
    and ``off_lattice_d1`` checks the cover on a lattice off the radius
    oracle's, so the overlap certificate queries the oracle off its
    lattice."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])])
    off = json.loads((PACKAGE / "configs" / "boundary_d1.json").read_text())
    off.update(name="off_lattice_d1", suite=["radii", "cover"], figures=False,
               resolutions={"candidate": 0.004, "check": 0.003,
                            "quadrature": 0.004})
    (tmp_path / "off_lattice_d1.json").write_text(json.dumps(off))
    configs = [PACKAGE / "configs" / "boundary_d1.json",
               PACKAGE / "configs" / "unit_weights_d1.json",
               tmp_path / "off_lattice_d1.json"]
    outs = [tmp_path / path.stem for path in configs]
    args = [str(a) for pair in zip(configs, outs) for a in pair]
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, off_lattice, modules = json.loads(proc.stdout)
    assert codes == [0, 0, 0]
    assert off_lattice > 0
    assert all((out / "report.json").exists() for out in outs)
    assert [m for m in modules if m.split(".")[0] == "scipy"
            or m in ("numpy.ma", "numpy.polynomial")
            or m.startswith(("numpy.ma.", "numpy.polynomial."))] == []


_TRACED_RUN = """
import contextlib, io, json, sys
from pathlib import Path
from covercert import bumps, cli
from spans import Tracer
from test_golden import SMALL_D2
built = []
build = bumps.build_partition
def recording(cover, *args, **kwargs):
    partition = build(cover, *args, **kwargs)
    built.append((cover.size, max(len(fn.blockers) for fn in partition)))
    return partition
bumps.build_partition = recording
tracer = Tracer()
tracer.install()
config = cli.RunConfig.from_dict(SMALL_D2)
with contextlib.redirect_stdout(io.StringIO()):
    code, _ = cli.run(config, Path(sys.argv[1]))
counts = tracer.layer_metrics()
print(json.dumps([code, built, counts["bumps.max_blockers"],
                  counts["cover.centers"]]))
"""


def test_tracer_hooks_read_the_built_partition(tmp_path):
    """The benchmark's span tracer, installed as a traced run installs it,
    counts the blockers and centers of the partition and cover the run
    builds: its hooks read ``build_partition``'s result."""
    root = PACKAGE.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), str(root / "perfbench"), str(root / "tests"),
         *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, built, max_blockers, centers = json.loads(proc.stdout)
    assert code == 0
    assert len(built) == 1
    assert [centers, max_blockers] == built[0]
    assert max_blockers > 0
