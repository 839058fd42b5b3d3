"""Span tracing of covercert's public functions, from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper
that records one span per call (name, start, end, parent) in memory, plus
exact work counts taken from the call's arguments and result.  A method is
replaced on its class, so it is traced however the class was imported
(``from .radii import RadiusOracle`` in ``cover``).  A module-level function
is replaced in every covercert module that holds it by name (``from .cover
import neighbor_sets`` in ``bumps``, ``from .report import report_to_json``
in ``cli``), because a wrapper is only reached through the name the caller
looks up.

``layer_metrics`` turns the spans into per-layer self times (span duration
minus the time covered by its child spans) and adds the counts.
"""

from __future__ import annotations

import inspect
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> (module, attribute path).  Each span name is the layer's
# module plus the function or method it times.
TARGETS = {
    "piecewise.eval": ("covercert.piecewise", "PiecewisePoly.__call__"),
    "bumps.build_partition": ("covercert.bumps", "build_partition"),
    "bumps.certify_partition": ("covercert.bumps", "certify_partition"),
    "bumps.partition_sum": ("covercert.bumps", "partition_sum"),
    "bumps.partials_table": ("covercert.bumps", "PartitionFn.partials_table"),
    "radii.oracle_init": ("covercert.radii", "RadiusOracle.__init__"),
    "radii.lattice_points": ("covercert.radii", "RadiusOracle.lattice_points"),
    "radii.lattice_values": ("covercert.radii", "RadiusOracle.lattice_values"),
    "radii.min_value": ("covercert.radii", "RadiusOracle.min_value"),
    "radii.value": ("covercert.radii", "RadiusOracle.value"),
    "radii.snap": ("covercert.radii", "RadiusOracle.snap"),
    "cover.build_cover": ("covercert.cover", "build_cover"),
    "cover.separation_holds": ("covercert.cover", "separation_holds"),
    "cover.verify_covering": ("covercert.cover", "verify_covering"),
    "cover.overlap_profile": ("covercert.cover", "overlap_profile"),
    "cover.neighbor_sets": ("covercert.cover", "neighbor_sets"),
    "cover.chain_certificate": ("covercert.cover", "chain_certificate"),
    "cover.balls_containing": ("covercert.cover", "Cover.balls_containing"),
    "cover.locate_core": ("covercert.cover", "Cover.locate_core"),
    "certify.verify_disjoint_supports": ("covercert.certify", "verify_disjoint_supports"),
    "certify.verify_ball_weight_bound": ("covercert.certify", "verify_ball_weight_bound"),
    "certify.membership_certificate": ("covercert.certify", "membership_certificate"),
    "certify.verify_integral_bound": ("covercert.certify", "verify_integral_bound"),
    "certify.domination_certificate": ("covercert.certify", "domination_certificate"),
    "certify.union_cell_midpoints": ("covercert.certify", "union_cell_midpoints"),
    "certify.functional_values": ("covercert.certify", "JFunctional.values"),
    "certify.mixed_partial_many": ("covercert.certify", "mixed_partial_many"),
    "certify.mixed_partial": ("covercert.certify", "mixed_partial"),
    "weights.check_omega": ("covercert.weights", "check_omega"),
    "weights.psi_mass_certificate": ("covercert.weights", "psi_mass_certificate"),
    "domains.sample_ring": ("covercert.domains", "ExhaustionDomain.sample_ring"),
    "cli.run": ("covercert.cli", "run"),
    "cli.subsample": ("covercert.cli", "_subsample"),
    "cli.export_figures": ("covercert.cli", "export_figures"),
    "cli.report_to_json": ("covercert.cli", "report_to_json"),
}

# per-layer time metric -> span names whose self times it sums
TIME_METRICS = {
    "piecewise.eval_s": ["piecewise.eval"],
    "bumps.build_partition_s": ["bumps.build_partition"],
    "bumps.certify_partition_s": ["bumps.certify_partition"],
    "bumps.partition_sum_s": ["bumps.partition_sum"],
    "bumps.partials_table_s": ["bumps.partials_table"],
    "radii.level_build_s": ["radii.lattice_points", "radii.lattice_values",
                            "radii.min_value"],
    "radii.value_s": ["radii.value"],
    "radii.snap_s": ["radii.snap"],
    "cover.greedy_s": ["cover.build_cover"],
    "cover.separation_s": ["cover.separation_holds"],
    "cover.covering_s": ["cover.verify_covering"],
    "cover.overlap_s": ["cover.overlap_profile"],
    "cover.neighbors_s": ["cover.neighbor_sets"],
    "cover.ball_query_s": ["cover.balls_containing", "cover.locate_core"],
    "cover.radius_chain_s": ["cover.chain_certificate"],
    "certify.disjoint_s": ["certify.verify_disjoint_supports"],
    "certify.ball_weight_s": ["certify.verify_ball_weight_bound"],
    "certify.membership_s": ["certify.membership_certificate"],
    "certify.integral_bound_s": ["certify.verify_integral_bound"],
    "certify.domination_s": ["certify.domination_certificate"],
    "certify.union_midpoints_s": ["certify.union_cell_midpoints"],
    "certify.functional_s": ["certify.functional_values"],
    "certify.mixed_partial_s": ["certify.mixed_partial_many", "certify.mixed_partial"],
    "weights.check_omega_s": ["weights.check_omega"],
    "weights.psi_mass_s": ["weights.psi_mass_certificate"],
    "domains.sample_ring_s": ["domains.sample_ring"],
    "cli.figures_s": ["cli.export_figures"],
    "cli.report_write_s": ["cli.report_to_json"],
}

# per-layer count metric -> span names whose call counts it sums
CALL_COUNTS = {
    "piecewise.eval_calls": ["piecewise.eval"],
    "bumps.partials_table_calls": ["bumps.partials_table"],
    "radii.oracles": ["radii.oracle_init"],
    "radii.value_calls": ["radii.value"],
    "radii.snap_calls": ["radii.snap"],
    "cover.ball_queries": ["cover.balls_containing", "cover.locate_core"],
}

# counts gathered by the hooks (sums; the max_ entries are maxima)
HOOK_COUNTS = [
    "piecewise.eval_points", "bumps.max_blockers", "bumps.partials_table_points",
    "radii.lattice_cells", "radii.value_repeats", "cover.candidates",
    "cover.centers", "cover.max_neighbors", "certify.quad_points",
    "weights.omega_points", "domains.sample_ring_points", "cli.check_points",
    "cli.max_subsample_stride",
]


def _lattice_cells(oracle) -> int:
    """Cells of a grid oracle's lattice (the oracle's own axis rule)."""
    if getattr(oracle, "strategy", None) != "grid_oracle":
        return 0
    cells = 1
    for lo, hi in zip(oracle.box.lower, oracle.box.upper):
        cells *= int(math.floor((hi - lo) / oracle.resolution + 1e-12)) + 1
    return cells


class Tracer:
    """In-memory span recorder over the TARGETS of an imported covercert."""

    def __init__(self):
        self.names: list[str] = list(TARGETS)
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = [-1]
        self.counts = {key: 0 for key in HOOK_COUNTS}
        self.value_keys: set = set()
        self.missing: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "covercert" or name.startswith("covercert.")]
        for span, (mod_name, path) in TARGETS.items():
            owner = sys.modules.get(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(original, self.name_ids[span],
                                 self._hook(span, original))
            setattr(owner, attr, wrapper)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _wrap(self, fn, name_id, hook):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- work counts ---------------------------------------------------------

    def _parent(self) -> str | None:
        top = self.stack[-1]
        return self.names[self.span_name[top]] if top >= 0 else None

    def _hook(self, span: str, original):
        c = self.counts
        sig = inspect.signature(original)

        def arg(args, kwargs, name, pos):
            # every call site in covercert passes these positionally
            if len(args) > pos:
                return args[pos]
            return sig.bind(*args, **kwargs).arguments[name]

        if span == "piecewise.eval":
            def hook(args, kwargs, result):
                c["piecewise.eval_points"] += int(np.size(args[1]))
        elif span == "bumps.build_partition":
            def hook(args, kwargs, result):
                most = max((len(getattr(fn, "blockers", ())) for fn in result),
                           default=0)
                c["bumps.max_blockers"] = max(c["bumps.max_blockers"], most)
        elif span == "bumps.partials_table":
            def hook(args, kwargs, result):
                pts = np.asarray(arg(args, kwargs, "pts", 1))
                c["bumps.partials_table_points"] += 1 if pts.ndim == 1 else len(pts)
        elif span == "radii.oracle_init":
            def hook(args, kwargs, result):
                c["radii.lattice_cells"] += _lattice_cells(args[0])
        elif span == "radii.value":
            keys = self.value_keys

            def hook(args, kwargs, result):
                z = np.asarray(arg(args, kwargs, "z", 2), dtype=float)
                key = (id(args[0]), int(arg(args, kwargs, "k", 1)),
                       z.reshape(-1).tobytes())
                if key in keys:
                    c["radii.value_repeats"] += 1
                else:
                    keys.add(key)
        elif span == "radii.lattice_points":
            def hook(args, kwargs, result):
                if self._parent() == "cover.build_cover":
                    c["cover.candidates"] += len(result)
        elif span == "cover.build_cover":
            def hook(args, kwargs, result):
                c["cover.centers"] += int(result.size)
        elif span == "cover.neighbor_sets":
            def hook(args, kwargs, result):
                most = int(result.details.get("max_neighbors", 0))
                c["cover.max_neighbors"] = max(c["cover.max_neighbors"], most)
        elif span == "certify.union_cell_midpoints":
            def hook(args, kwargs, result):
                c["certify.quad_points"] += len(result)
        elif span == "weights.check_omega":
            def hook(args, kwargs, result):
                c["weights.omega_points"] += len(arg(args, kwargs, "grid", 4))
        elif span == "domains.sample_ring":
            def hook(args, kwargs, result):
                c["domains.sample_ring_points"] += len(result)
                parent = self._parent()
                if parent == "cli.run":
                    c["cli.check_points"] += len(result)
                elif parent == "cover.build_cover":
                    c["cover.candidates"] += len(result)
        elif span == "cli.subsample":
            def hook(args, kwargs, result):
                size = len(arg(args, kwargs, "grid", 0))
                cap = arg(args, kwargs, "cap", 1)
                stride = math.ceil(size / cap) if size > cap else 1
                c["cli.max_subsample_stride"] = max(c["cli.max_subsample_stride"],
                                                    stride)
        else:
            hook = None
        return hook

    # -- results -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Spans as parallel arrays plus the name table, for later inspection."""
        np.savez_compressed(
            path, name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            start=np.asarray(self.span_start), end=np.asarray(self.span_end),
            names=np.asarray(self.names))

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span name: summed self time (s) and call count."""
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        inner = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(inner, parent[nested], dur[nested])
        own = dur - inner
        per_name = np.bincount(name, weights=own, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return per_name, calls

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts, hook counts and their ratios."""
        per_name, calls = self.self_times()
        ids = self.name_ids
        out: dict[str, float] = {}
        for metric, spans in TIME_METRICS.items():
            out[metric] = float(sum(per_name[ids[s]] for s in spans))
        for metric, spans in CALL_COUNTS.items():
            out[metric] = int(sum(calls[ids[s]] for s in spans))
        out.update(self.counts)
        out["radii.value_repeat_ratio"] = (
            out["radii.value_repeats"] / out["radii.value_calls"]
            if out["radii.value_calls"] else 0.0)
        out["cover.accept_ratio"] = (
            out["cover.centers"] / out["cover.candidates"]
            if out["cover.candidates"] else 0.0)
        return out
