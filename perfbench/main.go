// Command perfbench is the repository's end-to-end benchmark of DANCE's
// online phase. It runs danced in-process — the real dance.Service handler
// behind a loopback HTTP listener — and drives it with a seeded stream of
// shopper requests through dance.AcquireClient, with real JSON on the wire.
// It checks every output and prints every metric by name with its unit.
//
// # Op and load
//
// One op is one shopper request: POST /v1/acquire, then POST /v1/execute of
// the returned plan. Load is a closed loop of one shopper in the same
// process, because a shopper waits for its plan before buying; the timed
// ops are ops 0, 1, … of the seeded request stream. Every request has its
// own search seed, so no two share a fingerprint and coalescing is bypassed
// by design. One shopper rather than one per CPU: on a 2-vCPU machine two
// shoppers doubled the run-to-run spread of every timing (interquartile
// range about 12% of the median against 6% on bulk-execute with the same
// seed), and the free CPU keeps the garbage collector and the loopback
// servers off the op's path. It also makes interval attribution in the
// traced run exact, so both runs measure the same load.
//
// # Workloads
//
// Each workload's marketplace is one fixed dataset; the seed draws the
// request stream, that is every timed op's search seed. Set-up serves the
// same warm-up requests in every run.
//
//   - resample-search: the paper's TPC-H marketplace (dance.GenerateTPCH,
//     scale 15) in memory, persist off. Requests cycle through TPC-H Q1–Q3
//     with η-resampling (eta 150, resample_rate 0.3, as in Fig 8) under the
//     dance policy. A distinct seed makes every resampled join cold, so MCMC
//     evaluation dominates each op while no per-op sampling happens: a
//     search gain shows here, and a persist or transport gain must read as
//     no change.
//   - bulk-execute: the synthetic chain:3 marketplace (internal/workload)
//     with a 50k-row base the shopper owns, sample rate 0.2, η-resampled
//     requests (eta 2000) with the budget pinned to the cheapest correct
//     plan. Acquire takes a few ms; execute buys full listings, joins 50k
//     rows and measures realized correlation and quality. This is where
//     retiring the row store pays off and where a search gain must read as
//     no change; it has the largest working set. The planted ρ makes
//     realized correlation checkable.
//   - pilot-durable: the synthetic star:4 marketplace (2000 base rows, 2000
//     keys, fanout 2) served by marketplace.Handler on loopback and reached
//     through marketplace.NewClient, so CSV crosses the wire. danced
//     journals to an fsync'd persist.FileStore and, at set-up, restores
//     from a copy of a pre-built journal of 10⁴ ledger entries. Requests use
//     the try-before-you-buy policy, so every op buys pilot and delta
//     samples and journals its charges and plan: marketplace transport,
//     sampling and persist writes block every op, and setup_s measures
//     journal replay.
//
// # End-to-end metrics (untraced run, --trace 0)
//
//	ops_per_s           ops/s   higher  passing ops ÷ timed wall time
//	acquire_p50_ms      ms      lower   client-side acquire latency, median
//	acquire_p90_ms      ms      lower   … 90th percentile (≥10 samples beyond it)
//	execute_p50_ms      ms      lower   client-side execute latency, median
//	execute_p90_ms      ms      lower   … 90th percentile
//	cpu_ms_per_op       ms/op   lower   process user+sys CPU in the timed phase ÷ ops
//	setup_s             s       lower   median of the run's cold starts: persist open,
//	                                    NewService restore, Offline, warm-up ops
//	heap_live_mb        MB      lower   live heap after runtime.GC() at the end
//	spend_usd_per_op    usd/op  lower   danced ledger charges of the timed ops ÷ ops
//	realized_corr_bits  bits    higher  mean realized correlation of the purchases
//	success_frac        ratio   higher  ops passing every check ÷ ops attempted
//
// The latency sample count is printed with the metrics.
//
// # Per-layer metrics (traced run, --trace 1)
//
// The traced run times each layer from outside, at the calls into it:
// wrappers around marketplace.Market, the pricing.Model given to
// marketplace.NewInMemory and persist.Store, plus HTTP middleware around
// Service.Handler() and marketplace.Handler. Spans are kept in memory,
// written to a JSON-lines dump (.bench_build/spans/<workload>-seed<n>.jsonl)
// and summarized from it; a layer's
// self time is its spans less the time its child layers' spans cover.
// search and relation are residuals: the acquire (execute) handler span
// less its marketplace, pricing and persist children, so search also holds
// core/policy/joingraph/sampling compute and relation also holds
// infotheory/fd. Persist and pricing calls take no context and are
// attributed to an op by interval, which is exact with one shopper. The
// traced run's ops alternate untraced and traced, and trace.overhead_frac
// compares the two.
//
//	layer        should move                                   shows on / should not move on
//	service      acquire_p50_ms                                bulk-execute / none
//	search       acquire_p50/p90_ms, ops_per_s, cpu_ms_per_op  resample-search, some pilot-durable, bulk-execute
//	relation     execute_p50/p90_ms, ops_per_s, heap_live_mb   bulk-execute / resample-search (small)
//	marketplace  acquire_p50_ms (pilot-durable), setup_s,      as stated / resample-search per op
//	             execute_p50_ms (bulk-execute)
//	pricing      acquire_p50_ms, execute_p50_ms                cache-cold starts (setup_s) / warm ops
//	persist      acquire_p90_ms, execute_p90_ms, ops_per_s;    pilot-durable only / the other two
//	             load_ms → setup_s
//	offline      setup_s                                       every workload, at set-up only
//	runtime      cpu_ms_per_op, heap_live_mb                   every workload
//	trace        none                                          none
//
// perfbench -h lists every per-layer metric with its unit.
//
// # Checks
//
// Every acquire must return a non-empty plan and every execute must
// succeed; on bulk-execute and pilot-durable the realized correlation must
// be within experiments.RecoveryEpsilon of the planted ρ. A failed check
// fails the op. At the end danced's GET /v1/ledger total, less the restored
// journal's, must equal the marketplace's InMemory.Ledger().Total(), and
// Service.Stats() must show no coalesced or shed request.
//
// # Running
//
// From the repository root (bash perfbench/run.sh builds the command under
// .bench_build/ and runs it):
//
//	bash perfbench/run.sh --workload resample-search --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload pilot-durable --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh summarize .bench_build/spans/pilot-durable-seed1.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it stamps the run
// with GOMAXPROCS, nproc, CPU model, Go version, git commit, seed and
// whether it was traced.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
)

// gitCommit is set at build time by run.sh ("unknown" outside a git tree).
var gitCommit = "unknown"

// scratchDir holds the build, the scratch files of runs and span dumps,
// relative to the directory perfbench runs in.
const scratchDir = ".bench_build"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "summarize" {
		return summarizeCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := options{coldStarts: 9, warmups: 2, dir: scratchDir}
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload to run: resample-search, bulk-execute or pilot-durable")
	fs.Int64Var(&opts.seed, "seed", 1, "seed of the request stream")
	fs.Float64Var(&opts.seconds, "seconds", 30, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	opts.trace = trace == 1
	if _, err := workloadByName(opts.workload); err != nil || trace < 0 || trace > 1 || opts.seconds <= 0 || opts.seed < 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload resample-search|bulk-execute|pilot-durable, --trace 0|1, --seconds > 0 and --seed ≥ 0")
		return 2
	}
	opts.spans = filepath.Join(opts.dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed))

	res, err := runBench(ctx, opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer()
	}
	printMetrics(stdout, defs, res.metrics)
	if !opts.trace {
		fmt.Fprintf(stdout, "latency samples: %.0f acquires and as many executes\n", res.metrics["latency_samples"])
	} else {
		fmt.Fprintf(stdout, "span dump: %s\n", opts.spans)
	}
	stamp, _ := json.Marshal(stampOf(opts))
	fmt.Fprintf(stdout, "stamp: %s\n", stamp)
	out := map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metricsJSON(defs, res.metrics),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printMetrics writes one human-readable line per metric.
func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-46s %14.6f %-9s (%s is better)\n", d.name, values[d.name], d.unit, d.better)
	}
}

// metricsJSON is the "metrics" object of the result line.
func metricsJSON(defs []metricDef, values map[string]float64) map[string]any {
	out := map[string]any{}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return out
}

// stamp records where and how a result was measured.
type stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
}

func stampOf(opts options) stamp {
	return stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     gitCommit,
		Workload:   opts.workload,
		Seed:       opts.seed,
		Traced:     opts.trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// summarizeCmd prints the per-layer metrics of a span dump.
func summarizeCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: perfbench summarize <span dump>")
		return 2
	}
	recs, err := readDump(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printMetrics(stdout, perLayer(), summarize(recs))
	return 0
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprint(w, `perfbench: end-to-end benchmark of danced's online phase (see the package doc).

usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       perfbench summarize <span dump>

--trace 0 measures the end-to-end metrics; --trace 1 alternates untraced and
traced ops, dumps the spans and prints the per-layer metrics. Both run one
shopper in a closed loop. The last output line is the JSON result.

flags:
`)
	fs.PrintDefaults()
	fmt.Fprintln(w, "\nworkloads:")
	for _, d := range workloads {
		fmt.Fprintf(w, "  %-16s %s\n", d.name, d.why)
	}
	fmt.Fprintln(w, "\nend-to-end metrics (--trace 0):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-20s %-7s %-6s %s\n", d.name, d.unit, d.better, d.doc)
	}
	fmt.Fprintln(w, "\nper-layer metrics (--trace 1), by layer → the end-to-end metrics it should move:")
	for _, l := range layers {
		fmt.Fprintf(w, "  %s (%s)\n    moves: %s\n", l.name, l.module, l.moves)
		for _, d := range l.metrics {
			fmt.Fprintf(w, "    %-46s %-8s %s\n", d.name, d.unit, d.doc)
		}
	}
}
