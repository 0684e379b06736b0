"""``repro-perf``: run the perf suite and gate regressions.

Examples
--------
Run the full suite and write ``BENCH_perf.json`` at the repo root::

    repro-perf run

CI smoke mode (reduced op counts) with a speedup reference::

    repro-perf run --scale 0.2 --repeats 1 \
        --reference benchmarks/perf_prechange.json

Gate against the committed baseline (fails the process on a >15 %
throughput regression; ``--warn-only`` downgrades that to a warning,
which is how PR builds run it)::

    repro-perf compare BENCH_perf.json benchmarks/perf_baseline.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.perf.bench import DEFAULT_ARTIFACT, run_suite
from repro.perf.compare import DEFAULT_METRIC, DEFAULT_THRESHOLD, compare_files
from repro.perf.scenarios import SCENARIOS, scenario_names


def profile_scenario(
    name: str, scale: float = 0.5, top: int = 30, sort: str = "cumulative"
) -> int:
    """cProfile one scenario run and print the hottest functions.

    The next hot-path hunt starts here instead of from scratch::

        repro-perf profile ycsb_latency --scale 0.5 --top 30
    """
    import cProfile
    import pstats

    try:
        fn = SCENARIOS[name]
    except KeyError:
        print(
            f"unknown scenario {name!r}; "
            f"registered: {', '.join(scenario_names())}",
            file=sys.stderr,
        )
        return 2
    profiler = cProfile.Profile()
    profiler.enable()
    fn(scale)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description="Simulator perf benchmarks and regression gating.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the perf suite")
    run_p.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help=f"subset to run (default: all of {', '.join(scenario_names())})",
    )
    run_p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="measurement-window scale factor (CI smoke uses 0.2)",
    )
    run_p.add_argument(
        "--repeats",
        type=int,
        default=3,
        help=(
            "wall-clock repeats per scenario; the fastest is kept "
            "(event counts are deterministic, wall time is not — "
            "best-of-3 rides out background load on shared hosts)"
        ),
    )
    run_p.add_argument(
        "--json-out",
        default=DEFAULT_ARTIFACT,
        help=f"artifact path (default: {DEFAULT_ARTIFACT})",
    )
    run_p.add_argument(
        "--reference",
        default=None,
        help="BENCH JSON to embed per-scenario speedup ratios against",
    )
    run_p.add_argument(
        "--campaign-dir",
        default=None,
        metavar="DIR",
        help="journal finished scenarios under a campaign directory; "
        "a killed suite resumes from the unfinished ones",
    )

    cmp_p = sub.add_parser(
        "compare", help="diff a BENCH_perf.json against a baseline"
    )
    cmp_p.add_argument("current", help="freshly produced BENCH JSON")
    cmp_p.add_argument("baseline", help="committed baseline BENCH JSON")
    cmp_p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional throughput drop (default 0.15)",
    )
    cmp_p.add_argument(
        "--metric",
        default=DEFAULT_METRIC,
        help=f"scenario metric to gate on (default {DEFAULT_METRIC})",
    )
    cmp_p.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (PR builds)",
    )

    prof_p = sub.add_parser(
        "profile",
        help="cProfile one scenario and dump the hottest functions",
    )
    prof_p.add_argument("scenario", help="scenario to profile")
    prof_p.add_argument(
        "--scale",
        type=float,
        default=0.5,
        help="measurement-window scale factor (default 0.5: profiling "
        "overhead makes full-scale runs needlessly slow)",
    )
    prof_p.add_argument(
        "--top",
        type=int,
        default=30,
        help="number of functions to print (default 30)",
    )
    prof_p.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
        help="pstats sort key (default cumulative)",
    )

    ls_p = sub.add_parser("list", help="list registered perf scenarios")
    del ls_p
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in scenario_names():
            print(name)
        return 0

    if args.command == "run":
        journal = None
        if args.campaign_dir:
            from repro.experiments.context import CampaignContext

            journal = CampaignContext(args.campaign_dir)
        result = run_suite(
            names=args.scenarios or None,
            scale=args.scale,
            repeats=args.repeats,
            reference_path=args.reference,
            journal=journal,
        )
        if journal is not None:
            journal.close()
            print(
                f"journal: {journal.hits} scenario(s) served from "
                f"{args.campaign_dir}, {journal.misses} measured"
            )
        result.write_json(args.json_out)
        for name, timing in result.scenarios.items():
            print(
                f"{name:<24} wall {timing.wall_s:7.3f}s  "
                f"{timing.events_per_s:>12.0f} events/s  "
                f"{timing.sim_ns_per_s:>12.0f} sim-ns/s  "
                f"{timing.ops_per_s:>10.0f} ops/s"
            )
        if result.reference:
            for name, ratios in result.reference["speedup"].items():
                shown = ", ".join(
                    f"{metric} {ratio:.2f}x" for metric, ratio in ratios.items()
                )
                print(f"{name:<24} vs {result.reference['path']}: {shown}")
        print(f"wrote {args.json_out}")
        return 0

    if args.command == "profile":
        return profile_scenario(
            args.scenario, scale=args.scale, top=args.top, sort=args.sort
        )

    if args.command == "compare":
        result = compare_files(
            args.current,
            args.baseline,
            threshold=args.threshold,
            metric=args.metric,
        )
        print(result.report())
        if not result.ok and args.warn_only:
            print("(warn-only: not failing the build)")
            return 0
        return 0 if result.ok else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
