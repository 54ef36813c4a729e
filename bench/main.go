// Command bench is the repository's end-to-end, layer-by-layer benchmark: one
// process that serves a generated polygen federation over loopback TCP the
// way polygend and lqpd do, drives it closed-loop, checks every answer, and
// prints every metric by name. See README.md for the method.
//
// Usage (from the repository root; run.sh builds and forwards its arguments):
//
//	bash bench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	seed := flag.Int64("seed", 1, "seed of every generator and of the operation schedule")
	seconds := flag.Int("seconds", 15, "how long the measured run lasts")
	trace := flag.Int("trace", 0, "0 measures the end-to-end metrics untraced; 1 runs with the timing shims on and reports the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for data directories; a subdirectory is made and removed")
	out := flag.String("out", "", "also write the full result, led by the host record, to this file")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	commit := flag.String("commit", "unknown", "git commit of the checkout, for the host record")
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}

	// Every data directory of this process goes under one scratch directory.
	err := os.MkdirAll(*dir, 0o755)
	var scratch string
	if err == nil {
		scratch, err = os.MkdirTemp(*dir, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: scratch, sizes: fullSizes, clients: clientCount(),
	}
	began := time.Now()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	host := hostRecord(cfg, *commit)
	host["wall_s"] = time.Since(began).Seconds()
	report(os.Stdout, host, res)
	if *out != "" {
		if err := writeResult(*out, host, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *traceOut != "" && cfg.trace {
		if err := writeSpans(*traceOut, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}

	// The contract's last line: one JSON object.
	last, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}

// hostRecord says where and how the numbers were taken. Latencies are the
// sandbox's — files sit in the page cache and fsync is cheap — not a device's.
func hostRecord(cfg config, commit string) map[string]any {
	return map[string]any{
		"go":            runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"numcpu":        runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"clients":       cfg.clients,
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"traced":        cfg.trace,
		"commit":        commit,
		"latency_of":    "sandbox (page cache, cheap fsync), not a storage device",
		"scaling_valid": runtime.NumCPU() > 1,
	}
}

// report prints the host record and every metric by name with its unit.
func report(f *os.File, host map[string]any, res *result) {
	for _, k := range sortedKeys(host) {
		fmt.Fprintf(f, "# %s: %v\n", k, host[k])
	}
	for _, k := range sortedKeys(res.counts) {
		fmt.Fprintf(f, "# %s: %d\n", k, res.counts[k])
	}
	for _, k := range sortedKeys(res.metrics) {
		fmt.Fprintf(f, "%-40s %14.6g %s\n", k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	fmt.Fprintf(f, "attempted %d, failed %d, correct %v\n", res.attempted, res.failed, res.correct)
	for _, p := range res.problems {
		fmt.Fprintf(f, "PROBLEM: %s\n", p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeResult writes the full result file: host record first.
func writeResult(path string, host map[string]any, res *result) error {
	for name, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	doc := struct {
		Host      map[string]any    `json:"host"`
		Counts    map[string]int    `json:"counts"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Correct   bool              `json:"correct"`
		Problems  []string          `json:"problems,omitempty"`
		Metrics   map[string]metric `json:"metrics"`
	}{host, res.counts, res.attempted, res.failed, res.correct, res.problems, res.metrics}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
