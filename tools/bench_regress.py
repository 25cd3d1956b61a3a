#!/usr/bin/env python3
"""Benchmark regression gate: byte-exact diff + figure shape checks.

Usage:
  tools/bench_regress.py --baselines bench/baselines --fresh <dir> [--update]

The simulator's determinism contract (see DESIGN.md, "Benchmark reporting")
makes every BENCH_<figure>.json bit-identical across reruns and --threads
settings, so the primary gate is a *byte* comparison against the committed
baselines — any counter or modeled-time drift shows up as a unified diff.

On top of that, shape checks assert the paper's headline effects on the
fresh reports (mirroring tests/figures_test.cc and the orderings of
tests/integration_test.cc): the NPJ collapse once its hash table leaves
GPU memory, Figure 1's in-core and out-of-core orderings, the TLB latency
plateaus, the Shared partitioner's IOMMU cliff, the Triton join's rising
link utilization and cliff-free cache scaling, and NVLink's lead over
PCI-e.
They catch a semantically broken report even when somebody refreshes the
baselines wholesale.

--update copies the fresh reports over the baselines *after* the shape
checks pass, so a refreshed baseline can never encode a flattened figure.
"""

import argparse
import difflib
import json
import math
import os
import shutil
import sys

# Figures every run must produce; a missing report fails the gate.
# "micro" is the simulator-primitive microbenchmark suite (bench/micro/);
# its modeled half is gated exactly like the paper figures.
EXPECTED_FIGURES = [
    "fig01", "fig04", "fig06", "fig07", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
    "ablation", "ext_skew", "ext_pcie", "ext_serve", "ext_coproc", "micro",
]

SCHEMA_VERSION = 1

_errors = []


def fail(figure, message):
    _errors.append(f"[{figure}] {message}")


# --- report access helpers -------------------------------------------------


def series(report, name):
    """Points of one series, ordered as emitted (axis order)."""
    return [p for p in report["points"] if p["series"] == name]


def series_names(report):
    seen = []
    for p in report["points"]:
        if p["series"] not in seen:
            seen.append(p["series"])
    return seen


def value(point):
    return point["value"]["mean"]


def at_x(points, x):
    for p in points:
        if p.get("x") == x:
            return p
    return None


# --- generic checks --------------------------------------------------------


def check_generic(figure, report):
    if report.get("schema_version") != SCHEMA_VERSION:
        fail(figure, f"schema_version {report.get('schema_version')!r}, "
                     f"want {SCHEMA_VERSION}")
    if report.get("figure") != figure:
        fail(figure, f"figure field {report.get('figure')!r} does not match "
                     f"file name")
    points = report.get("points", [])
    if not points:
        fail(figure, "no points in report")
    for i, p in enumerate(points):
        if not p.get("series"):
            fail(figure, f"point {i} has no series")
        for stat_key in ("value", "seconds"):
            stat = p.get(stat_key)
            if stat is None:
                continue
            for k in ("mean", "min", "max"):
                v = stat.get(k)
                # Non-finite doubles are serialized as strings ("NaN",
                # "Infinity"); either form is a broken measurement.
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    fail(figure, f"point {i} ({p['series']}): {stat_key}.{k} "
                                 f"is not finite: {v!r}")
        for k, v in (p.get("extra") or {}).items():
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                fail(figure, f"point {i} ({p['series']}): extra[{k!r}] is "
                             f"not finite: {v!r}")


# --- per-figure shape checks (mirroring figures_test, integration_test) ----


def check_fig01(figure, report):
    # Figure 1's regions (integration_test Figure1Orderings): in core the
    # NPJ wins, Triton beats the CPU and stays within 70% of the NPJ; out of
    # core Triton beats both, and the collapsed NPJ by more than 2x (the
    # paper's motivating comparison).
    npj = series(report, "GPU NPJ")
    tri = series(report, "GPU Triton Join")
    cpu = series(report, "CPU Radix Join")
    if not npj or not tri or not cpu:
        fail(figure, f"missing series; have {series_names(report)}")
        return
    lo, hi = min(p["x"] for p in tri), max(p["x"] for p in tri)
    n, t, c = at_x(npj, lo), at_x(tri, lo), at_x(cpu, lo)
    if n and t and c:
        if not value(n) > value(t) > value(c):
            fail(figure, f"in core ({lo} MTuples) want NPJ ({value(n):.3g}) "
                         f"> Triton ({value(t):.3g}) > CPU ({value(c):.3g})")
        if value(t) <= 0.7 * value(n):
            fail(figure, f"in core Triton ({value(t):.3g}) should be >70% "
                         f"of NPJ ({value(n):.3g})")
    n, t, c = at_x(npj, hi), at_x(tri, hi), at_x(cpu, hi)
    if n and t and c:
        if value(t) <= 2.0 * value(n):
            fail(figure, f"Triton ({value(t):.3g}) should be >2x NPJ "
                         f"({value(n):.3g}) at {hi} MTuples")
        if value(t) <= value(c):
            fail(figure, f"out of core Triton ({value(t):.3g}) should beat "
                         f"CPU ({value(c):.3g}) at {hi} MTuples")


def check_fig07(figure, report):
    # Latency plateaus: within each chase series, the mean latency must be
    # non-decreasing as the memory range grows (monotone staircase).
    for name in series_names(report):
        pts = series(report, name)
        for a, b in zip(pts, pts[1:]):
            if value(b) < 0.98 * value(a):
                fail(figure, f"{name}: latency fell from {value(a):.1f} ns "
                             f"(x={a['x']}) to {value(b):.1f} ns "
                             f"(x={b['x']}); expected a monotone staircase")
        # GPU memory misses cost ~1.2-1.5x a hit; CPU-memory page walks
        # cost 4-7x. Require a clear rise without assuming which memory.
        if pts and value(pts[-1]) < 1.15 * value(pts[0]):
            fail(figure, f"{name}: no miss plateau (first {value(pts[0]):.1f}"
                         f" ns, last {value(pts[-1]):.1f} ns)")


def check_fig13(figure, report):
    # NPJ collapse: the perfect-hashing NPJ's in-core throughput must be
    # >3x its largest out-of-core workload (figures_test Figure13).
    npj = series(report, "NPJ-perfect")
    tri = series(report, "Triton-chain")
    if not npj or not tri:
        fail(figure, f"missing series; have {series_names(report)}")
        return
    in_core = value(npj[0])
    out_core = value(npj[-1])
    if in_core <= 3.0 * out_core:
        fail(figure, f"NPJ-perfect in-core ({in_core:.3g}) should be >3x "
                     f"out-of-core ({out_core:.3g})")
    # And the Triton join must not collapse with it: no step down the
    # size sweep loses more than 30%.
    if value(tri[-1]) <= 2.0 * out_core:
        fail(figure, f"Triton-chain ({value(tri[-1]):.3g}) should be >2x the "
                     f"collapsed NPJ ({out_core:.3g})")
    for a, b in zip(tri, tri[1:]):
        if value(b) < 0.7 * value(a):
            fail(figure, f"Triton-chain lost >30% from x={a['x']} "
                         f"({value(a):.3g}) to x={b['x']} ({value(b):.3g})")
    # Linear probing collapses harder than perfect hashing out of core
    # (join_test NpjOutOfCoreLinearProbingCollapses).
    linear = series(report, "NPJ-linear")
    if not linear:
        fail(figure, f"missing NPJ-linear; have {series_names(report)}")
    elif value(linear[-1]) * 5.0 >= out_core:
        fail(figure, f"NPJ-linear out of core ({value(linear[-1]):.3g}) "
                     f"should be >5x below NPJ-perfect ({out_core:.3g})")


def check_fig14(figure, report):
    # The Triton join's link utilization rises with the data size and is
    # above 50% at the largest (integration_test
    # TritonUtilizationRisesWithDataSize); out of core, linear probing
    # sends the IOMMU >4x the requests per tuple of perfect hashing.
    tri = series(report, "Triton (bucket chaining)")
    perfect = series(report, "NPJ (perfect)")
    linear = series(report, "NPJ (linear probing)")
    if not tri or not perfect or not linear:
        fail(figure, f"missing series; have {series_names(report)}")
        return
    for a, b in zip(tri, tri[1:]):
        if value(b) < 0.95 * value(a):
            fail(figure, f"Triton utilization fell from {value(a):.3g}% "
                         f"(x={a['x']}) to {value(b):.3g}% (x={b['x']})")
    if value(tri[-1]) <= 50.0:
        fail(figure, f"Triton utilization at x={tri[-1]['x']} is "
                     f"{value(tri[-1]):.3g}%, want >50%")

    def iommu(p):
        return p["extra"]["iommu_req_per_tuple"]

    if iommu(linear[-1]) <= 4.0 * iommu(perfect[-1]):
        fail(figure, f"NPJ-linear IOMMU requests/tuple "
                     f"({iommu(linear[-1]):.3g}) should be >4x NPJ-perfect's "
                     f"({iommu(perfect[-1]):.3g}) at x={linear[-1]['x']}")


def check_fig16(figure, report):
    # GPU partitioning beats CPU partitioning, but by less than 2x (paper:
    # 1.2-1.3x; integration_test GpuPartitionedBeatsCpuPartitioned).
    tri = series(report, "Triton")
    cpu = series(report, "CPU-partitioned")
    if not tri or not cpu:
        fail(figure, f"missing series; have {series_names(report)}")
        return
    for t, c in zip(tri, cpu):
        ratio = value(t) / value(c)
        if not 1.0 < ratio < 2.0:
            fail(figure, f"Triton / CPU-partitioned is {ratio:.3g} at "
                         f"x={t['x']}, want in (1, 2)")


def check_fig17(figure, report):
    # Hierarchical must beat Standard at every size (paper: 3.6-4x).
    hier = series(report, "Hierarchical")
    std = series(report, "Standard")
    for h, s in zip(hier, std):
        if value(h) <= value(s):
            fail(figure, f"Hierarchical ({value(h):.3g}) should beat "
                         f"Standard ({value(s):.3g}) at x={h['x']}")


def check_fig18(figure, report):
    # Shared's IOMMU-requests-per-tuple cliff past fanout 64, while
    # Hierarchical stays orders of magnitude lower (figures_test Figure18d).
    shared = series(report, "Shared")
    hier = series(report, "Hierarchical")
    if not shared or not hier:
        fail(figure, f"missing series; have {series_names(report)}")
        return

    def iommu(p):
        return p["extra"]["iommu_req_per_tuple"]

    shared_lo, shared_hi = iommu(shared[0]), iommu(shared[-1])
    hier_hi = iommu(hier[-1])
    if shared_hi <= 10.0 * (shared_lo + 1e-9):
        fail(figure, f"Shared IOMMU cliff missing: lo={shared_lo:.3g} "
                     f"hi={shared_hi:.3g}")
    if hier_hi >= shared_hi / 8.0:
        fail(figure, f"Hierarchical IOMMU hi ({hier_hi:.3g}) should be <1/8 "
                     f"of Shared's ({shared_hi:.3g})")


def check_fig19(figure, report):
    # The Triton join scales smoothly with cache size: no cliff, i.e. the
    # best cache point is within 2x of the worst (paper: 1.1-1.4x).
    for name in series_names(report):
        if not name.startswith("Triton/"):
            continue
        vals = [value(p) for p in series(report, name)]
        if max(vals) > 2.0 * min(vals):
            fail(figure, f"{name}: cache cliff (min {min(vals):.3g}, max "
                         f"{max(vals):.3g}); expected smooth scaling")


def check_ext_pcie(figure, report):
    # Fast interconnects are the point: Triton@NVLink must beat
    # Triton@PCIe by more than 2x on every workload, and on PCI-e the CPU
    # radix join wins (integration_test PcieMakesTheCpuWin).
    nvlink = series(report, "Triton@NVLink")
    pcie = series(report, "Triton@PCIe")
    cpu = series(report, "CPU radix")
    if not nvlink or not pcie or not cpu:
        fail(figure, f"missing series; have {series_names(report)}")
        return
    for a, b, c in zip(nvlink, pcie, cpu):
        if value(a) <= 2.0 * value(b):
            fail(figure, f"NVLink ({value(a):.3g}) should beat PCIe "
                         f"({value(b):.3g}) by >2x at x={a['x']}")
        if value(c) <= value(b):
            fail(figure, f"CPU radix ({value(c):.3g}) should beat "
                         f"Triton@PCIe ({value(b):.3g}) at x={a['x']}")


def check_ext_serve(figure, report):
    # Total work is fixed while tenants grow, so aggregate throughput must
    # not collapse when probes are batched: batching amortizes the
    # per-dispatch overhead the unbatched series pays per request.
    batched = series(report, "probes-batched")
    unbatched = series(report, "probes-unbatched")
    joins = series(report, "joins")
    if not batched or not unbatched or not joins:
        fail(figure, f"missing series; have {series_names(report)}")
        return
    if value(batched[-1]) < 0.4 * value(batched[0]):
        fail(figure, f"batched probe throughput collapsed as tenants grew: "
                     f"{value(batched[0]):.3g} -> {value(batched[-1]):.3g} "
                     f"(want last >= 0.4x first)")
    if value(batched[-1]) <= 1.5 * value(unbatched[-1]):
        fail(figure, f"batching should win clearly at max tenants: batched "
                     f"{value(batched[-1]):.3g} vs unbatched "
                     f"{value(unbatched[-1]):.3g} (want >1.5x)")
    if value(joins[-1]) < 0.5 * value(joins[0]):
        fail(figure, f"join throughput collapsed under carve contention: "
                     f"{value(joins[0]):.3g} -> {value(joins[-1]):.3g} "
                     f"(want last >= 0.5x first)")


def check_ext_coproc(figure, report):
    # The co-processing scheduler must justify itself: at every size the
    # adaptive hybrid is at least as fast as the best single backend, and
    # each fixed-ratio sweep is unimodal — modeled seconds descend toward
    # the optimum and ascend after it (small tolerance for pair-granularity
    # plateaus).
    def seconds(point):
        return point["seconds"]["mean"]

    cpu = series(report, "cpu-only")
    gpu = series(report, "gpu-only")
    hybrid = series(report, "hybrid-adaptive")
    if not cpu or not gpu or not hybrid:
        fail(figure, f"missing series; have {series_names(report)}")
        return
    for c, g, h in zip(cpu, gpu, hybrid):
        best = min(seconds(c), seconds(g))
        if seconds(h) > best * 1.001:
            fail(figure, f"adaptive hybrid ({seconds(h):.4g}s) slower than "
                         f"best single backend ({best:.4g}s) at "
                         f"x={h['x']}")

    sweeps = [n for n in series_names(report) if n.startswith("sweep@")]
    if not sweeps:
        fail(figure, f"no sweep@ series; have {series_names(report)}")
        return
    tol = 1.005
    for name in sweeps:
        pts = sorted(series(report, name), key=lambda p: p["x"])
        secs = [seconds(p) for p in pts]
        k = secs.index(min(secs))
        for i in range(1, k + 1):
            if secs[i] > secs[i - 1] * tol:
                fail(figure, f"{name}: not descending toward the optimum at "
                             f"x={pts[i]['x']} ({secs[i-1]:.4g} -> "
                             f"{secs[i]:.4g})")
        for i in range(k + 1, len(secs)):
            if secs[i] < secs[i - 1] / tol:
                fail(figure, f"{name}: not ascending past the optimum at "
                             f"x={pts[i]['x']} ({secs[i-1]:.4g} -> "
                             f"{secs[i]:.4g})")


def check_ablation(figure, report):
    # Overlapping the second pass with the join is one of the design
    # choices that pays: the serial join phase must be slower.
    full = series(report, "full Triton join")
    serial = series(report, "- kernel overlap (serial join phase)")
    if not full or not serial:
        fail(figure, f"missing series; have {series_names(report)}")
        return
    if value(serial[0]) >= value(full[0]):
        fail(figure, f"removing kernel overlap ({value(serial[0]):.3g}) "
                     f"should be slower than the full join "
                     f"({value(full[0]):.3g})")


def check_micro(figure, report):
    # The microbench suite embeds its own invariants: the sanitizer shadow
    # round-trips must be violation-free, and the per-tuple and bulk
    # functional-store variants must produce identical buffer checksums
    # (the report-level face of the in-binary bit-identity probe).
    shadow = series(report, "sanitizer-shadow")
    if not shadow or any(value(p) != 0 for p in shadow):
        fail(figure, "sanitizer-shadow reported violations (want 0)")
    per_tuple = series(report, "store-per-tuple")
    bulk = series(report, "store-run")
    if not per_tuple or not bulk:
        fail(figure, f"missing store series; have {series_names(report)}")
        return
    if value(per_tuple[0]) != value(bulk[0]):
        fail(figure, f"store checksums diverge: per-tuple "
                     f"{value(per_tuple[0])!r} vs bulk {value(bulk[0])!r}")


SHAPE_CHECKS = {
    "fig01": check_fig01,
    "fig07": check_fig07,
    "fig13": check_fig13,
    "fig14": check_fig14,
    "fig16": check_fig16,
    "fig17": check_fig17,
    "fig18": check_fig18,
    "fig19": check_fig19,
    "ablation": check_ablation,
    "ext_pcie": check_ext_pcie,
    "ext_serve": check_ext_serve,
    "ext_coproc": check_ext_coproc,
    "micro": check_micro,
}


# --- drivers ---------------------------------------------------------------


def load(path, figure):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(figure, f"cannot load {path}: {e}")
        return None


def byte_diff(figure, baseline_path, fresh_path):
    with open(baseline_path, "rb") as f:
        want = f.read()
    with open(fresh_path, "rb") as f:
        got = f.read()
    if want == got:
        return True
    diff = difflib.unified_diff(
        want.decode("utf-8", "replace").splitlines(keepends=True),
        got.decode("utf-8", "replace").splitlines(keepends=True),
        fromfile=f"baseline/{os.path.basename(baseline_path)}",
        tofile=f"fresh/{os.path.basename(fresh_path)}",
    )
    text = "".join(diff)
    # Large drifts would swamp the log; the head of the diff names the
    # first diverging quantity, which is what matters.
    lines = text.splitlines(keepends=True)
    if len(lines) > 120:
        text = "".join(lines[:120]) + f"... ({len(lines) - 120} more lines)\n"
    fail(figure, "report differs from baseline:\n" + text)
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", required=True,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--fresh", required=True,
                        help="directory of freshly generated BENCH_*.json")
    parser.add_argument("--update", action="store_true",
                        help="refresh the baselines from --fresh after the "
                             "shape checks pass")
    parser.add_argument("--figures", default=None,
                        help="comma-separated subset of figures to gate "
                             "(default: all); e.g. --figures micro or "
                             "--figures fig13,fig18")
    args = parser.parse_args()

    if args.figures is None:
        figures = EXPECTED_FIGURES
    else:
        figures = [f.strip() for f in args.figures.split(",") if f.strip()]
        unknown = [f for f in figures if f not in EXPECTED_FIGURES]
        if unknown:
            print(f"bench_regress: unknown figure(s) {unknown}; expected "
                  f"among {EXPECTED_FIGURES}", file=sys.stderr)
            return 2

    identical = 0
    for figure in figures:
        name = f"BENCH_{figure}.json"
        fresh_path = os.path.join(args.fresh, name)
        if not os.path.exists(fresh_path):
            fail(figure, f"missing fresh report {fresh_path}")
            continue

        report = load(fresh_path, figure)
        if report is None:
            continue
        check_generic(figure, report)
        shape = SHAPE_CHECKS.get(figure)
        if shape:
            shape(figure, report)

        if not args.update:
            baseline_path = os.path.join(args.baselines, name)
            if not os.path.exists(baseline_path):
                fail(figure, f"missing baseline {baseline_path} "
                             f"(run with --update to create it)")
            elif byte_diff(figure, baseline_path, fresh_path):
                identical += 1

    if _errors:
        print(f"bench_regress: {len(_errors)} failure(s)\n", file=sys.stderr)
        for e in _errors:
            print(e, file=sys.stderr)
            print(file=sys.stderr)
        print("If the change in modeled performance is intended, refresh "
              "the baselines:\n  cmake --build build --target "
              "refresh-baselines", file=sys.stderr)
        return 1

    if args.update:
        os.makedirs(args.baselines, exist_ok=True)
        for figure in figures:
            name = f"BENCH_{figure}.json"
            shutil.copyfile(os.path.join(args.fresh, name),
                            os.path.join(args.baselines, name))
        print(f"bench_regress: refreshed {len(figures)} baselines "
              f"in {args.baselines} (shape checks passed)")
    else:
        print(f"bench_regress: {identical}/{len(figures)} reports "
              f"byte-identical to baselines; all shape checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
