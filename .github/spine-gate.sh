#!/usr/bin/env bash
# Gates one benchmark spine run. Usage, from the repo root:
#
#   .github/spine-gate.sh RUN [BASE]
#
# RUN holds the last stdout line of `bash benchmark/run.sh --workload W`;
# BASE, when given, holds the same line from the base commit. The gate
# fails when RUN is not correct, when any operation failed (a missed
# live_update notification counts as one), or, given BASE, when
# alloc_kb_op or allocs_op exceeds BASE's value by more than its bound
# in BENCHMARK.json. Every metric is printed; the latency floors and
# setup_s are not gated, since shared runners are too noisy for them.
set -euo pipefail
jq -rn --slurpfile run "$1" --slurpfile base "${2:-/dev/null}" \
	--slurpfile spec BENCHMARK.json '
	$run[0] as $r | $base[0] as $b
	| ($spec[0].end_to_end | map({(.name): .bound}) | add) as $bound
	| [ if $r.correct != true then "correct is \($r.correct)" else empty end,
	    if $r.failed != 0 then "\($r.failed) failed operations" else empty end,
	    if $b then
	      ("alloc_kb_op", "allocs_op") as $m
	      | ($b.metrics[$m].value * (1 + $bound[$m])) as $max
	      | if ($r.metrics[$m].value | type) != "number" then "\($m) missing"
	        elif $r.metrics[$m].value > $max then
	          "\($m) \($r.metrics[$m].value) exceeds \($max) (base \($b.metrics[$m].value), bound \($bound[$m]))"
	        else empty end
	    else empty end ] as $fail
	| ($r.metrics | to_entries[]
	   | "\(.key) = \(.value.value) \(.value.unit)"
	     + if $b then " (base \($b.metrics[.key].value))" else "" end),
	  ($fail[] | "FAIL: \(.)"),
	  if $fail != [] then "spine gate failed\n" | halt_error(1) else "spine gate passed" end'
