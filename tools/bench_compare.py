#!/usr/bin/env python3
"""Diff a smoke BENCH_*.json report against its committed baseline.

The ctest ``bench_gates`` (bench/bench_gates.cmake) runs the smoke benches
and this script gates the result:
it walks baseline and current reports in parallel and fails (exit 1) on a
regression beyond --threshold (default 25%) in any *gated* metric.

Metrics are classified by key name:

* booleans (``backends_agree_1e6``, ``serial_parallel_identical`` ...) —
  a true in the baseline must stay true;
* ``*ratio*`` / ``*warm_lp_solves*`` — deterministic counters where
  higher is better, gated at ``current < baseline * (1 - threshold)``;
* ``*iterations*`` / ``*lp_solves*`` / ``*gap*`` — deterministic, lower
  is better, gated at ``current > baseline * (1 + threshold)`` (gaps get
  a 1e-9 absolute floor so exact-zero baselines don't trip on rounding
  noise);
* ``*alloc*`` / ``*heap_block*`` — allocation counters, lower is
  better; exact-zero baselines get a small absolute
  floor (an occasional one-off allocation in a thousand solves is not a
  regression);
* ``*state_bytes*`` / ``*heap_bytes*`` — deterministic sizes of what a
  tenant keeps (its snapshot bytes, its live heap), lower is better;
* ``*seconds*`` / ``*speedup*`` — wall-clock measurements: machine- and
  noise-dependent (sub-millisecond cases swing far more than 25% between
  identical runs), so they are skipped unless --gate-timing is passed.
  The deterministic counters above are the portable perf trajectory; the
  timing fields ride along in the archived artifacts;
* everything else (objectives, sweep configuration) is context, not a
  gate.

``--require KEY`` (repeatable; a dotted path for nesting with ``[i]`` for
list elements, e.g. ``cases[0].revised_allocations_per_solve``) insists
the key exists in *both* reports: the walk above only gates keys present
in the baseline, so a metric that silently vanishes from a regenerated
baseline — or was never produced because the drill that feeds it didn't
run — would otherwise pass unchecked. The cluster smoke uses it to make
``warm_hit_after_failover`` and ``backend_failover_observed`` mandatory,
not merely non-regressing.

``--exact KEY`` (repeatable, same path syntax) implies ``--require KEY``
and fails unless the two reports hold the same value there. It is for the
counters and objectives that are deterministic, such as LP solves, pivots,
columns, evaluations and objectives: any drift in them is a changed
algorithm, so a re-baseline shows as a reviewed diff instead of a move
inside the band.

Exit codes: 0 ok, 1 regression, 2 usage / unreadable report.
"""

import argparse
import json
import re
import sys

GAP_ABSOLUTE_FLOOR = 1e-9
ALLOC_ABSOLUTE_FLOOR = 0.5


def classify(key):
    """Returns one of 'higher', 'lower', 'timing', None."""
    k = key.lower()
    if "seconds" in k or "speedup" in k:
        return "timing"
    # Match order is load-bearing twice over: "iterations" itself contains
    # the substring "ratio", and "warm_lp_solves" contains "lp_solves".
    if "warm_lp_solves" in k:
        return "higher"
    if "alloc" in k or "heap_block" in k:
        return "lower"
    if "state_bytes" in k or "heap_bytes" in k:
        return "lower"
    if "iterations" in k or "lp_solves" in k or "gap" in k:
        return "lower"
    if "ratio" in k:
        return "higher"
    return None


class Comparison:
    def __init__(self, threshold, gate_timing):
        self.threshold = threshold
        self.gate_timing = gate_timing
        self.failures = []
        self.checked = 0

    def fail(self, path, message):
        self.failures.append(f"{path}: {message}")

    def compare_metric(self, path, key, base, cur):
        if isinstance(base, bool) or isinstance(cur, bool):
            self.checked += 1
            if base is True and cur is not True:
                self.fail(path, f"flipped to {cur!r} (baseline true)")
            return
        if not isinstance(base, (int, float)):
            return
        if not isinstance(cur, (int, float)):
            # A numeric baseline metric that is no longer numeric is a
            # corrupted report, not a pass.
            self.fail(path, f"baseline is numeric but current is {cur!r}")
            return
        kind = classify(key)
        if kind == "timing":
            if not self.gate_timing:
                return
            kind = "higher" if "speedup" in key.lower() else "lower"
        if kind is None:
            return
        self.checked += 1
        if kind == "higher":
            floor = base * (1.0 - self.threshold)
            if cur < floor:
                self.fail(
                    path,
                    f"{cur:.6g} fell below {floor:.6g} "
                    f"(baseline {base:.6g}, -{self.threshold:.0%} allowed)",
                )
        else:  # lower is better
            ceiling = base * (1.0 + self.threshold)
            if "gap" in key.lower():
                ceiling = max(ceiling, GAP_ABSOLUTE_FLOOR)
            if "alloc" in key.lower() or "heap_block" in key.lower():
                ceiling = max(ceiling, ALLOC_ABSOLUTE_FLOOR)
            if cur > ceiling:
                self.fail(
                    path,
                    f"{cur:.6g} exceeds {ceiling:.6g} "
                    f"(baseline {base:.6g}, +{self.threshold:.0%} allowed)",
                )

    def walk(self, path, base, cur):
        if isinstance(base, dict) and isinstance(cur, dict):
            for key in base:
                if key not in cur:
                    self.fail(f"{path}.{key}", "missing from current report")
                    continue
                child = f"{path}.{key}" if path else key
                if isinstance(base[key], (dict, list)):
                    self.walk(child, base[key], cur[key])
                else:
                    self.compare_metric(child, key, base[key], cur[key])
        elif isinstance(base, list) and isinstance(cur, list):
            if len(base) != len(cur):
                self.fail(path, f"case count {len(base)} -> {len(cur)}")
            for i, (b, c) in enumerate(zip(base, cur)):
                self.walk(f"{path}[{i}]", b, c)
        elif isinstance(base, (dict, list)):
            # A structural node degraded to a scalar/null: everything under
            # it silently disappears from the gate unless flagged here.
            self.fail(path, f"baseline is {type(base).__name__} but current "
                            f"is {cur!r}")


PATH_PART = re.compile(r"([^.\[\]]+)((?:\[\d+\])*)")


def parse_path(path):
    """Splits 'cases[0].n' into ['cases', 0, 'n']; None if malformed."""
    steps = []
    for part in path.split("."):
        match = PATH_PART.fullmatch(part)
        if match is None:
            return None
        steps.append(match.group(1))
        steps.extend(int(i) for i in re.findall(r"\d+", match.group(2)))
    return steps


def lookup(report, steps):
    """Resolves parse_path steps in nested dicts and lists."""
    node = report
    for step in steps:
        if isinstance(step, int):
            if not isinstance(node, list) or step >= len(node):
                return False, None
        elif not isinstance(node, dict) or step not in node:
            return False, None
        node = node[step]
    return True, node


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(
        description="Fail when a smoke BENCH report regresses vs its baseline."
    )
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("current", help="freshly generated BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed relative regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--gate-timing",
        action="store_true",
        help="also gate *_seconds / *speedup* metrics (only meaningful for "
        "long-running cases on one quiet machine)",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="KEY",
        help="key path that must exist in both reports (repeatable; dotted, "
        "with [i] for list elements); a missing required key fails the gate "
        "even if nothing regressed",
    )
    parser.add_argument(
        "--exact",
        action="append",
        default=[],
        metavar="KEY",
        help="key path whose value must equal the baseline's (repeatable; "
        "implies --require); for deterministic counters and objectives",
    )
    args = parser.parse_args()
    if not 0 <= args.threshold < 1:
        print("bench_compare: --threshold must be in [0, 1)", file=sys.stderr)
        sys.exit(2)
    required = []
    for flag, keys, exact in (("--require", args.require, False),
                              ("--exact", args.exact, True)):
        for key in keys:
            steps = parse_path(key)
            if steps is None:
                print(f"bench_compare: malformed {flag} path {key!r}",
                      file=sys.stderr)
                sys.exit(2)
            required.append((key, steps, exact))

    baseline = load(args.baseline)
    current = load(args.current)
    comparison = Comparison(args.threshold, args.gate_timing)
    comparison.walk("", baseline, current)
    for key, steps, exact in required:
        lookups = []
        for label, report in (("baseline", baseline), ("current", current)):
            found, value = lookup(report, steps)
            if not found:
                comparison.fail(key, f"required key missing from {label}")
            lookups.append((found, value))
        (base_found, base), (cur_found, cur) = lookups
        if exact and base_found and cur_found and base != cur:
            comparison.fail(key, f"{cur!r} differs from baseline {base!r} "
                                 "(exact)")
        comparison.checked += 1

    name = baseline.get("bench", args.baseline) if isinstance(baseline, dict) else args.baseline
    if comparison.failures:
        print(f"bench_compare: {name}: {len(comparison.failures)} regression(s) "
              f"({comparison.checked} metrics checked):")
        for failure in comparison.failures:
            print(f"  REGRESSION {failure}")
        sys.exit(1)
    print(f"bench_compare: {name}: OK "
          f"({comparison.checked} metrics within {args.threshold:.0%})")


if __name__ == "__main__":
    main()
