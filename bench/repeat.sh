#!/usr/bin/env bash
# Repeats the benchmark and judges its steadiness by the rule the benchmark's
# acceptance uses: per workload and end-to-end metric, the distance between
# the first and third quartile of a set's runs as a share of their median must
# stay within the metric's bound in BENCHMARK.json, and the median of a later
# set may not be worse than the first set's by more than the bound. setup_s is
# exempt from the first rule. Exits non-zero when a rule is broken.
#
#   bench/repeat.sh [-n runs-per-set] [-s sets] [-o output-dir]
#
# Run i of set j uses seed 100*j+i, so sets do not share seeds; pass the same
# -o directory again to add sets to earlier ones.
set -euo pipefail
runs=10 sets=2 out=""
while getopts "n:s:o:" flag; do
	case "$flag" in
	n) runs="$OPTARG" ;;
	s) sets="$OPTARG" ;;
	o) out="$OPTARG" ;;
	*) exit 2 ;;
	esac
done
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${out:-$root/.bench_build/repeat}"
mkdir -p "$out"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"

cd "$root"
for set in $(seq 1 "$sets"); do
	for run in $(seq 1 "$runs"); do
		for workload in $workloads; do
			seed=$((100 * set + run))
			file="$out/$workload.set$set.seed$seed.json"
			[ -s "$file" ] && continue
			echo "set $set run $run: $workload seed $seed" >&2
			bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 > "$file.tmp"
			mv "$file.tmp" "$file"
		done
	done
done

python3 - "$root/BENCHMARK.json" "$out" <<'PY'
import glob, json, os, re, statistics, sys

spec = json.load(open(sys.argv[1]))
out = sys.argv[2]
broken = False
print(f"{'workload':<14}{'metric':<16}{'set':>4}{'runs':>5}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}  verdict")
for w in (w["name"] for w in spec["workloads"]):
    sets = {}
    for path in glob.glob(os.path.join(out, f"{w}.set*.seed*.json")):
        s = int(re.search(r"\.set(\d+)\.", path).group(1))
        run = json.load(open(path))
        if not run["correct"] or run["failed"]:
            print(f"{w}: {path} is not a correct run")
            broken = True
        sets.setdefault(s, []).append(run["metrics"])
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        first = None
        for s in sorted(sets):
            values = [r[name]["value"] for r in sets[s]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict = "SPREAD"
            elif name != "setup_s" and spread > bound / 3:
                verdict = "ok (above a third of the bound)"
            if first is None:
                first = med
            else:
                worse = (med - first) / first if lower else (first - med) / first
                if worse > bound:
                    verdict = f"DRIFT {worse:+.1%} from set {min(sets)}"
            if verdict.isupper() or verdict.startswith("DRIFT"):
                broken = True
            print(f"{w:<14}{name:<16}{s:>4}{len(values):>5}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>8.1%}{bound:>7.0%}  {verdict}")
sys.exit(1 if broken else 0)
PY
