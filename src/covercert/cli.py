"""Config-driven certificate runs.

A run configuration (JSON) declares a domain, a weight family, the levels
and resolutions, and which certificate suites to execute.  The runner
builds everything in dependency order, prints one line per certificate,
writes a JSON report (and optional CSV figure data), and exits 0 only when
no certificate failed; inconclusive verdicts fail the run only under
``--strict``.

Exit codes: 0 all certificates pass, 1 at least one failed, 2 the
configuration was rejected, 3 the run crashed with an unexpected error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import bumps, certify, cover as cover_mod, domains, radii, weights
from .errors import ConfigError, CoverCertError, NoRingPointsError
from .functions import coord_gaussian, gaussian, spline_bump
from .indexcalc import IndexCalculus
from .piecewise import _distinct
from .report import FAIL, INCONCLUSIVE, Certificate, report_to_json, summarize

SUITES = ("omega", "psi", "radii", "cover", "partition", "chain")
TEST_FUNCTIONS = ("gaussian", "coord_gaussian", "spline_bump")
NEGATIVE_CONTROLS = ("drop_center", "shrink_separation", "deflate_a1")


def _is_a(value, typ) -> bool:
    """``isinstance(value, typ)``, except that a JSON boolean, which Python
    counts as an int, is no number."""
    return isinstance(value, typ) and not isinstance(value, bool)


@dataclass
class RunConfig:
    name: str
    domain: dict
    family: dict
    n: int
    m: int
    truncation: domains.Box
    candidate_resolution: float
    check_resolution: float
    quadrature_resolution: float
    smoothness_order: int
    alpha_max: int
    offset_count: int = 5
    tolerance: float = 1e-9
    suite: tuple[str, ...] = SUITES
    test_functions: tuple[str, ...] = ("gaussian",)
    negative_control: str | None = None
    figures: bool = False
    psi_box: domains.Box | None = None
    psi_resolution: float | None = None
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        problems: list[str] = []

        def need(key, typ=None):
            if key not in data:
                problems.append(f"missing field {key!r}")
                return None
            value = data[key]
            if typ is not None and not _is_a(value, typ):
                problems.append(f"field {key!r} must be {typ}")
                return None
            return value

        name = data.get("name", "run")
        dom = need("domain", dict)
        fam = need("family", dict)
        if "dimension" in (dom or {}) and not _is_a(dom["dimension"], int):
            problems.append("domain.dimension must be an integer")
        figures = data.get("figures", False)
        if not isinstance(figures, bool):
            problems.append("field 'figures' must be true or false")
        n = need("n", int)
        m = need("m", int)
        res = need("resolutions", dict) or {}
        trunc = need("truncation", dict) or {}
        order = data.get("smoothness_order", 6)
        alpha_max = data.get("alpha_max", 2)
        offset_count = data.get("offset_count", 5)
        tolerance = data.get("tolerance", 1e-9)
        psi_resolution = res.get("psi")

        for key in ("candidate", "check", "quadrature"):
            value = res.get(key)
            if not _is_a(value, (int, float)) or \
                    not math.isfinite(value) or value <= 0:
                problems.append(f"resolutions.{key} must be a finite number > 0")
        if isinstance(n, int) and n < 1:
            problems.append("n must be >= 1")
        if isinstance(m, int) and m < 0:
            problems.append("m must be >= 0")
        if not _is_a(order, int) or order < 1:
            problems.append("smoothness_order must be a positive integer")
        if not _is_a(alpha_max, int) or alpha_max < 0:
            problems.append("alpha_max must be an integer >= 0")
        if not _is_a(offset_count, int) or offset_count < 3 \
                or offset_count % 2 == 0:
            problems.append("offset_count must be an odd integer >= 3")
        if not _is_a(tolerance, (int, float)) or \
                not math.isfinite(tolerance) or tolerance < 0:
            problems.append("tolerance must be a finite number >= 0")
        if psi_resolution is not None and (
                not _is_a(psi_resolution, (int, float))
                or not math.isfinite(psi_resolution) or psi_resolution <= 0):
            problems.append("resolutions.psi must be a finite number > 0")

        suite = data.get("suite", list(SUITES))
        if not isinstance(suite, list):
            problems.append("field 'suite' must be a list")
            suite = []
        suite = tuple(suite)
        for entry in suite:
            if entry not in SUITES:
                problems.append(f"unknown suite entry {entry!r}")
        fns = data.get("test_functions", ["gaussian"])
        if not isinstance(fns, list):
            problems.append("field 'test_functions' must be a list")
            fns = []
        fns = tuple(fns)
        for entry in fns:
            if entry not in TEST_FUNCTIONS:
                problems.append(f"unknown test function {entry!r}")
        control = data.get("negative_control")
        if control is not None and control not in NEGATIVE_CONTROLS:
            problems.append(f"unknown negative control {control!r}")

        box = None
        psi_box = None
        if not problems:
            try:
                box = domains.Box(tuple(map(float, trunc.get("lower", ()))),
                                  tuple(map(float, trunc.get("upper", ()))))
                if not box.is_bounded:
                    problems.append("the truncation box must be finite")
            except (TypeError, ValueError) as exc:
                problems.append(f"bad truncation box: {exc}")
            if "psi_box" in data:
                spec = data["psi_box"]
                try:
                    psi_box = domains.Box(tuple(map(float, spec["lower"])),
                                          tuple(map(float, spec["upper"])))
                    if not psi_box.is_bounded:
                        problems.append("psi_box must be finite")
                except (TypeError, ValueError, KeyError) as exc:
                    problems.append(f"bad psi_box: {exc}")

        if _is_a(m, int) and _is_a(order, int) and _is_a(alpha_max, int):
            # partial derivatives exist classically up to order - 1 per axis
            if "partition" in suite and alpha_max > order - 1:
                problems.append(
                    f"alpha_max {alpha_max} exceeds the smoothness budget "
                    f"{order - 1} (order error)")
            if "chain" in suite:
                if m < 1:
                    problems.append("the chain suite requires m >= 1")
                if m + 1 > order - 1:
                    problems.append(
                        f"m {m} exceeds the smoothness budget: need "
                        f"m + 1 <= {order - 1} (order error)")
                dim = (dom or {}).get("dimension") or len(trunc.get("lower", ()))
                if isinstance(dim, int) and dim * (m + 1) > order:
                    problems.append(
                        f"chain needs smoothness_order >= d(m+1) = {dim * (m + 1)} "
                        "(order error)")

        if problems:
            raise ConfigError("; ".join(problems))
        return cls(
            name=name, domain=dom, family=fam, n=n, m=m, truncation=box,
            candidate_resolution=float(res["candidate"]),
            check_resolution=float(res["check"]),
            quadrature_resolution=float(res["quadrature"]),
            smoothness_order=order, alpha_max=alpha_max,
            offset_count=offset_count, tolerance=float(tolerance),
            suite=suite, test_functions=fns, negative_control=control,
            figures=figures,
            psi_box=psi_box,
            psi_resolution=psi_resolution, raw=data,
        )


def build_domain(spec: dict) -> domains.ExhaustionDomain:
    kind = spec.get("kind")
    try:
        if kind == "full_space":
            return domains.full_space(int(spec["dimension"]))
        if kind == "expanding_boxes":
            axes = spec.get("axes")
            return domains.expanding_boxes(
                int(spec["dimension"]),
                axes=tuple(axes) if axes is not None else None,
                closed=bool(spec.get("closed", False)))
        if kind == "bounded_box":
            box = domains.Box(tuple(map(float, spec["lower"])),
                              tuple(map(float, spec["upper"])))
            return domains.constant_exhaustion(domains.BoxRegion(box),
                                               name="bounded_box")
        if kind == "shrinking_boxes":
            return domains.shrinking_boxes(
                spec["lower"], spec["upper"],
                closed=bool(spec.get("closed", False)))
    except KeyError as exc:
        raise ConfigError(
            f"domain kind {kind!r} needs the field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain of kind {kind!r}: {exc}") from None
    raise ConfigError(f"unknown domain kind {kind!r}")


def build_family(spec: dict, domain: domains.ExhaustionDomain) -> weights.WeightFamily:
    kind = spec.get("kind")
    try:
        if kind == "schwartz":
            return weights.schwartz_family(domain)
        if kind == "boundary":
            return weights.boundary_family(domain)
        if kind == "constant":
            return weights.constant_weight_family(domain, spec.get("radius"))
        if kind == "exp":
            mu_spec = spec.get("mu", {})
            mu = weights.MuSpec(
                variant=mu_spec.get("variant", "zero"),
                delta=mu_spec.get("delta"),
                power=mu_spec.get("power"),
                gamma=mu_spec.get("gamma"),
                block=tuple(mu_spec["block"]) if "block" in mu_spec else None)
            a_spec = spec.get("a", {"kind": "linear", "scale": 1.0})
            if isinstance(a_spec, list):
                a = a_spec
            else:
                scale = float(a_spec.get("scale", 1.0))
                a = lambda i: scale * i
            return weights.make_exp_family(
                mu, a, domain, constant_radius=bool(spec.get("constant_radius")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad family of kind {kind!r}: {exc}") from None
    raise ConfigError(f"unknown family kind {kind!r}")


def make_test_function(name: str, dimension: int):
    if name == "gaussian":
        return gaussian(dimension)
    if name == "coord_gaussian":
        return coord_gaussian(dimension)
    return spline_bump(dimension)


def run(config: RunConfig, out_dir: Path, strict: bool = False,
        echo=print) -> tuple[int, dict]:
    """Execute the configured suites and write report (and figure) files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    domain = build_domain(config.domain)
    for key, box in (("truncation", config.truncation),
                     ("psi_box", config.psi_box)):
        if box is not None and box.dimension != domain.dimension:
            raise ConfigError(f"{key} has dimension {box.dimension}, the "
                              f"domain {domain.dimension}")
    family = build_family(config.family, domain)
    n, m = config.n, config.m
    certificates: list[Certificate] = []

    oracle = radii.RadiusOracle(family, domain, n,
                                config.candidate_resolution,
                                box=config.truncation)
    check = domain.ring_lattice(n, config.check_resolution, config.truncation)
    if len(check.points) == 0:
        raise NoRingPointsError("the check lattice contains no ring points")

    if "omega" in config.suite:
        # point checks read the check lattice thinned to 2,500 points
        sample, stride = check.thinned(2500)
        for which in (weights.OMEGA1, weights.OMEGA2, weights.OMEGA3):
            if not family.claims_condition(which):
                continue
            cert = weights.check_omega(family, which, n, n, sample.points,
                                       offset_count=config.offset_count,
                                       tol=config.tolerance)
            cert.resolutions["stride"] = stride
            certificates.append(cert)
            if which == weights.OMEGA1 and config.negative_control == "deflate_a1":
                deflated = weights.check_omega(
                    family, which, n, n, sample.points,
                    offset_count=config.offset_count, tol=config.tolerance,
                    claimed_bound=0.5 * (cert.measured or 1.0))
                deflated.name += ":negative_control"
                deflated.details["negative_control"] = "deflate_a1"
                deflated.resolutions["stride"] = stride
                certificates.append(deflated)

    if "psi" in config.suite and family.psi is not None:
        certificates.append(weights.psi_mass_certificate(
            family, n, config.psi_box or config.truncation,
            config.psi_resolution or config.check_resolution * 4))

    if "radii" in config.suite:
        certificates.append(radii.positivity_certificate(
            family, domain, n, 3, config.candidate_resolution,
            box=config.truncation, oracle=oracle))

    built_cover = None
    partition = None
    needs_cover = {"cover", "partition", "chain"} & set(config.suite)
    if needs_cover:
        built_cover = cover_mod.build_cover(
            family, domain, n, config.candidate_resolution,
            box=config.truncation, oracle=oracle)
        if config.negative_control == "drop_center" and built_cover.size > 1:
            built_cover = cover_mod.without_center(built_cover,
                                                   built_cover.size // 2)
        if config.negative_control == "shrink_separation":
            z = built_cover.centers[0] + built_cover.r1[0] / 8.0
            built_cover = cover_mod.with_extra_center(built_cover, z)

    if "cover" in config.suite:
        ok, pair = cover_mod.separation_holds(built_cover)
        certificates.append(Certificate(
            name=f"separation[{family.name},n={n}]",
            claim="cover.separation",
            verdict="pass" if ok else FAIL,
            details={} if ok else {"witness_pair": list(pair)},
        ))
        certificates.append(cover_mod.verify_covering(built_cover, check))
        certificates.append(cover_mod.overlap_profile(built_cover, check, oracle))
        certificates.append(cover_mod.neighbor_sets(built_cover, oracle))
        certificates.append(cover_mod.chain_certificate(built_cover, oracle))

    if "partition" in config.suite or "chain" in config.suite:
        partition = bumps.build_partition(built_cover, config.smoothness_order)

    if "partition" in config.suite:
        grid, grid_stride = check.thinned(12000)
        certificates.extend(bumps.certify_partition(
            partition, built_cover, oracle, config.alpha_max, grid,
            stride=grid_stride, tol=config.tolerance))

    if "chain" in config.suite:
        calc = IndexCalculus(family)
        certificates.append(certify.verify_disjoint_supports(
            built_cover, partition))
        certificates.append(certify.verify_ball_weight_bound(
            family, built_cover, oracle, calc, m=n, j=1,
            p_exp=built_cover.dimension, tol=config.tolerance))
        fs = [make_test_function(fn_name, domain.dimension)
              for fn_name in config.test_functions]
        if fs:
            sample, stride = check.thinned(2500)
            members = [certify.membership_certificate(
                f, family, n, m, sample.points) for f in fs]
            bounds = certify.verify_integral_bound(
                fs, partition, built_cover, m, config.quadrature_resolution,
                tol=config.tolerance)
            dominations = certify.domination_certificate(
                fs, family, domain, n, m, built_cover, partition, oracle,
                calc, check.points, config.quadrature_resolution,
                tol=config.tolerance)
            # per test function: membership, integral bound, domination and
            # the functional's bound
            for i, member in enumerate(members):
                member.resolutions["stride"] = stride
                certificates += [member, bounds[i], *dominations[2 * i:2 * i + 2]]

    for cert in certificates:
        echo(cert.one_line())

    report = {
        "version": "1",
        "name": config.name,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": config.raw,
        "certificates": [c.as_dict() for c in certificates],
        "summary": summarize(certificates),
    }
    (out_dir / "report.json").write_text(report_to_json(report))

    if config.figures and built_cover is not None:
        export_figures(config, built_cover, partition, out_dir)

    failed = any(c.verdict == FAIL for c in certificates)
    if strict:
        failed = failed or any(c.verdict == INCONCLUSIVE for c in certificates)
    return (1 if failed else 0), report


def export_figures(config: RunConfig, built_cover, partition,
                   out_dir: Path) -> None:
    """CSV data behind the cover, cutoff-support, and pullback figures."""
    d = built_cover.dimension
    _write_csv(out_dir / "cover.csv",
               ["k", *(f"z{i + 1}" for i in range(d)), "rho", "r1"],
               [np.arange(built_cover.size), *built_cover.centers.T,
                built_cover.rho, built_cover.r1])

    if partition is None:
        return

    grid = built_cover.domain.ring_lattice(
        built_cover.level, max(config.check_resolution * 8,
                               config.candidate_resolution * 4),
        config.truncation)
    # each cutoff's values at the grid points of its closed support box,
    # cutoff by cutoff
    rows, ks = grid.cells(*grid.boxes(partition.centers, partition.half,
                                      strict=False))
    rows, ks = rows[rows >= 0], ks[rows >= 0]
    _write_csv(out_dir / "cutoffs.csv",
               [*(f"x{i + 1}" for i in range(d)), "k", "value"],
               [*grid.points[rows].T, ks,
                bumps.cutoff_values(partition, grid.points[rows], ks)])

    # 9 points per axis across each core box, in lexicographic order, and
    # each partition function at their images in its outer ball
    zetas = domains.Lattice.linspace(built_cover.centers,
                                     built_cover.core_halfwidths, 9)
    ks = np.arange(len(partition))
    values = bumps.function_values(partition, built_cover.rescale(zetas), ks)
    _write_csv(out_dir / "pullback.csv",
               [*(f"zeta{i + 1}" for i in range(d)), "k", "value"],
               [*zetas.points.T, np.repeat(ks, 9 ** d), values])


# rows per block of a figure file: bounds the formatted strings held at once
_CSV_ROWS = 1024


def _write_csv(path: Path, header, columns) -> None:
    """The columns (64-bit floats or ints) under ``header``, as the
    ``csv`` module's excel dialect writes them: ``repr`` of each float,
    ``str`` of each int, comma-separated, each line ended by CRLF.

    The rows are formatted, joined and written in blocks, each column of a
    block formatting each of its distinct values once, so memory does not
    grow with the file.
    """
    fmts = [repr if column.dtype.kind == "f" else str for column in columns]
    with path.open("w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            cells = []
            for column, fmt in zip(columns, fmts):
                first, inverse = _distinct(column[lo:lo + _CSV_ROWS])
                text = [fmt(v) for v in column[lo + first].tolist()]
                cells.append(np.array(text, dtype=object)[inverse].tolist())
            handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def shipped_config_path(name: str) -> Path:
    return Path(str(resources.files("covercert").joinpath("configs", name)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="covercert",
        description="Run cover/partition/inequality certificate suites "
                    "from a JSON configuration.")
    parser.add_argument("--config", required=True,
                        help="path to a run configuration (JSON)")
    parser.add_argument("--out", default="covercert-out",
                        help="output directory for report and figure files")
    parser.add_argument("--suite",
                        help="comma-separated suite subset overriding the config")
    parser.add_argument("--strict", action="store_true",
                        help="treat inconclusive verdicts as failures")
    args = parser.parse_args(argv)

    try:
        data = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.suite:
        data = dict(data)
        data["suite"] = args.suite.split(",")

    try:
        config = RunConfig.from_dict(data)
        code, report = run(config, Path(args.out), strict=args.strict)
    except (ConfigError, CoverCertError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means a certificate failed; a crash must not read as one.
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    summary = report["summary"]
    print(f"{summary['pass']}/{summary['total']} certificates passed "
          f"({summary['fail']} failed, {summary['inconclusive']} inconclusive)")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
