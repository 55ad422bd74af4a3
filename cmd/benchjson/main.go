// benchjson converts `go test -bench -benchmem` output into a stable JSON
// map (benchmark name → ns/op, B/op, allocs/op) and gates benchmarks against
// a committed baseline. It anchors the repo's performance trajectory: each
// perf PR checks in a BENCH_<n>.json emitted by this tool, and CI fails when
// a gated benchmark regresses past the tolerance against the baseline.
//
// Emit (reads bench output from stdin):
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson -out BENCH_3.json
//
// Gate (reads bench output from stdin, compares ns/op against a baseline):
//
//	go test -run '^$' -bench BenchmarkHeuristicTPCEParallel -benchmem . |
//	    go run ./cmd/benchjson -baseline BENCH_3.json \
//	        -check BenchmarkHeuristicTPCEParallel -max-regress 0.20
//
// B/op ceilings on the current run alone (bytes per op depend on the code,
// not on the machine, so they hold on any runner):
//
//	go test -run '^$' -bench BenchmarkEvaluateTPCHResample -benchmem . |
//	    go run ./cmd/benchjson -max-bytes 'BenchmarkEvaluateTPCHResample<=120000'
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"github.com/dance-db/dance/internal/cli"
)

// Result is one benchmark's measurements.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// mem reports whether the line carried B/op (-benchmem): without it the
	// zero field is not a measurement.
	mem bool
}

// benchLine matches `BenchmarkName-8   123   456.7 ns/op   89 B/op   10 allocs/op`.
// The -N GOMAXPROCS suffix is stripped so names are stable across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parse(ctx context.Context, r *bufio.Scanner) (map[string]Result, error) {
	out := map[string]Result{}
	for r.Scan() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := benchLine.FindStringSubmatch(r.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", r.Text(), err)
		}
		res := Result{NsPerOp: ns}
		if m[3] != "" {
			res.BytesPerOp, _ = strconv.ParseInt(m[3], 10, 64)
		}
		if m[4] != "" {
			res.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		res.mem = m[3] != ""
		out[m[1]] = res
	}
	return out, r.Err()
}

func main() {
	ctx, stop := cli.RootContext()
	defer stop()
	out := flag.String("out", "", "write parsed results as JSON to this file ('-' for stdout)")
	baseline := flag.String("baseline", "", "committed baseline JSON to gate against")
	check := flag.String("check", "", "comma-separated benchmark names to gate (ns/op)")
	maxRegress := flag.Float64("max-regress", 0.20, "allowed fractional ns/op regression vs the baseline")
	calibrate := flag.String("calibrate", "", "benchmark used as a machine-speed anchor: gated ns/op are divided by this benchmark's ns/op in both the current run and the baseline, so a baseline measured on different hardware still gates relative regressions")
	requireFaster := flag.String("require-faster", "", "comma-separated 'A<B' pairs asserting benchmark A's ns/op is below B's in the current input — ordering invariants (e.g. the incremental escalation beating the full rebuild) that must hold on any machine")
	requireRatio := flag.String("require-ratio", "", "comma-separated 'A/B>=R' specs asserting benchmark A's ns/op is at least R times B's in the current input — speedup floors (e.g. the serial 1M search costing ≥ 2× the parallel one), discounted by -ratio-slack")
	ratioSlack := flag.Float64("ratio-slack", 0, "fractional discount on every -require-ratio floor: a spec 'A/B>=R' passes when A/B ≥ R×(1−slack). Smoke runs with -benchtime=1x are noisy, so CI gates them with slack while the nightly full-size run gates strict (slack 0)")
	maxBytes := flag.String("max-bytes", "", "comma-separated 'A<=N' specs asserting benchmark A's B/op in the current input is at most N — allocation ceilings that hold on any machine (needs -benchmem output)")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	results, err := parse(ctx, sc)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("benchjson: no benchmark lines on stdin"))
	}

	if *out != "" {
		enc, err := marshalStable(results)
		if err != nil {
			fatal(err)
		}
		if *out == "-" {
			fmt.Println(string(enc))
		} else if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	if *requireFaster != "" {
		if err := checkFaster(results, *requireFaster); err != nil {
			fatal(err)
		}
	}

	if *requireRatio != "" {
		if err := checkRatio(results, *requireRatio, *ratioSlack); err != nil {
			fatal(err)
		}
	}

	if err := checkCeiling(results, *maxBytes); err != nil {
		fatal(err)
	}

	if *baseline != "" && *check != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var base map[string]Result
		if err := json.Unmarshal(raw, &base); err != nil {
			fatal(fmt.Errorf("benchjson: parse baseline %s: %w", *baseline, err))
		}
		// With -calibrate, both sides are expressed as multiples of the
		// anchor benchmark's ns/op on their own machine, cancelling raw
		// machine speed (CI runners vs the laptop that emitted the
		// baseline).
		curScale, baseScale, unit := 1.0, 1.0, "ns/op"
		if *calibrate != "" {
			cb, ok := base[*calibrate]
			if !ok || cb.NsPerOp <= 0 {
				fatal(fmt.Errorf("benchjson: calibration benchmark %s missing from baseline", *calibrate))
			}
			cc, ok := results[*calibrate]
			if !ok || cc.NsPerOp <= 0 {
				fatal(fmt.Errorf("benchjson: calibration benchmark %s missing from input", *calibrate))
			}
			curScale, baseScale, unit = cc.NsPerOp, cb.NsPerOp, "×"+*calibrate
		}
		failed := false
		for _, name := range strings.Split(*check, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			b, ok := base[name]
			if !ok {
				// "once one exists": a baseline without the benchmark does
				// not gate it.
				fmt.Printf("benchjson: %s absent from baseline, skipping gate\n", name)
				continue
			}
			cur, ok := results[name]
			if !ok {
				fatal(fmt.Errorf("benchjson: gated benchmark %s missing from input", name))
			}
			got, ref := cur.NsPerOp/curScale, b.NsPerOp/baseScale
			limit := ref * (1 + *maxRegress)
			if got > limit {
				fmt.Printf("benchjson: FAIL %s: %.4g %s exceeds baseline %.4g %s by more than %.0f%%\n",
					name, got, unit, ref, unit, *maxRegress*100)
				failed = true
			} else {
				fmt.Printf("benchjson: ok %s: %.4g %s (baseline %.4g, limit %.4g)\n",
					name, got, unit, ref, limit)
			}
		}
		if failed {
			os.Exit(1)
		}
	}
}

// checkFaster enforces 'A<B' ordering invariants on the parsed results.
func checkFaster(results map[string]Result, spec string) error {
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		// A full Split (not SplitN) rejects chained specs like "A<B<C"
		// outright: SplitN would silently fold the tail into the second
		// operand and report it as a missing benchmark instead of the
		// malformed spec it is.
		parts := strings.Split(pair, "<")
		if len(parts) != 2 {
			return fmt.Errorf("benchjson: malformed -require-faster pair %q (want exactly one 'A<B')", pair)
		}
		a, b := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		if a == "" || b == "" {
			return fmt.Errorf("benchjson: malformed -require-faster pair %q (empty benchmark name)", pair)
		}
		ra, ok := results[a]
		if !ok {
			return fmt.Errorf("benchjson: -require-faster benchmark %s missing from input", a)
		}
		rb, ok := results[b]
		if !ok {
			return fmt.Errorf("benchjson: -require-faster benchmark %s missing from input", b)
		}
		if ra.NsPerOp >= rb.NsPerOp {
			return fmt.Errorf("benchjson: FAIL %s (%.4g ns/op) is not faster than %s (%.4g ns/op)",
				a, ra.NsPerOp, b, rb.NsPerOp)
		}
		fmt.Printf("benchjson: ok %s (%.4g ns/op) < %s (%.4g ns/op)\n", a, ra.NsPerOp, b, rb.NsPerOp)
	}
	return nil
}

// checkRatio enforces 'A/B>=R' speedup floors on the parsed results,
// discounted by slack: A/B must be at least R×(1−slack). Specs are
// validated strictly — a malformed spec is a CI configuration bug and must
// fail loudly, not silently gate nothing.
func checkRatio(results map[string]Result, spec string, slack float64) error {
	if slack < 0 || slack >= 1 {
		return fmt.Errorf("benchjson: -ratio-slack %g out of range [0, 1)", slack)
	}
	for _, one := range strings.Split(spec, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		sides := strings.Split(one, ">=")
		if len(sides) != 2 {
			return fmt.Errorf("benchjson: malformed -require-ratio spec %q (want exactly one 'A/B>=R')", one)
		}
		names := strings.Split(sides[0], "/")
		if len(names) != 2 {
			return fmt.Errorf("benchjson: malformed -require-ratio spec %q (want exactly one 'A/B' on the left)", one)
		}
		a, b := strings.TrimSpace(names[0]), strings.TrimSpace(names[1])
		if a == "" || b == "" {
			return fmt.Errorf("benchjson: malformed -require-ratio spec %q (empty benchmark name)", one)
		}
		want, err := strconv.ParseFloat(strings.TrimSpace(sides[1]), 64)
		if err != nil || want <= 0 {
			return fmt.Errorf("benchjson: malformed -require-ratio spec %q (ratio must be a positive number)", one)
		}
		ra, ok := results[a]
		if !ok {
			return fmt.Errorf("benchjson: -require-ratio benchmark %s missing from input", a)
		}
		rb, ok := results[b]
		if !ok {
			return fmt.Errorf("benchjson: -require-ratio benchmark %s missing from input", b)
		}
		if rb.NsPerOp <= 0 {
			return fmt.Errorf("benchjson: -require-ratio benchmark %s has non-positive ns/op", b)
		}
		got := ra.NsPerOp / rb.NsPerOp
		floor := want * (1 - slack)
		if got < floor {
			return fmt.Errorf("benchjson: FAIL %s/%s = %.3f, below the required %.3g (%.3g after %.0f%% slack)",
				a, b, got, want, floor, slack*100)
		}
		fmt.Printf("benchjson: ok %s/%s = %.3f ≥ %.3g (floor %.3g after slack)\n", a, b, got, want, floor)
	}
	return nil
}

// checkCeiling enforces 'A<=N' ceilings on the B/op of the current input.
// A benchmark that ran without -benchmem has no B/op and fails, as does a
// malformed spec: either would otherwise gate nothing.
func checkCeiling(results map[string]Result, spec string) error {
	for _, one := range strings.Split(spec, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		sides := strings.Split(one, "<=")
		if len(sides) != 2 {
			return fmt.Errorf("benchjson: malformed B/op ceiling %q (want exactly one 'A<=N')", one)
		}
		name := strings.TrimSpace(sides[0])
		if name == "" {
			return fmt.Errorf("benchjson: malformed B/op ceiling %q (empty benchmark name)", one)
		}
		limit, err := strconv.ParseInt(strings.TrimSpace(sides[1]), 10, 64)
		if err != nil || limit < 0 {
			return fmt.Errorf("benchjson: malformed B/op ceiling %q (the ceiling must be a non-negative integer)", one)
		}
		r, ok := results[name]
		if !ok {
			return fmt.Errorf("benchjson: B/op ceiling benchmark %s missing from input", name)
		}
		if !r.mem {
			return fmt.Errorf("benchjson: B/op ceiling benchmark %s ran without -benchmem", name)
		}
		if r.BytesPerOp > limit {
			return fmt.Errorf("benchjson: FAIL %s: %d B/op exceeds the ceiling %d", name, r.BytesPerOp, limit)
		}
		fmt.Printf("benchjson: ok %s: %d B/op ≤ %d\n", name, r.BytesPerOp, limit)
	}
	return nil
}

// marshalStable renders the map with sorted keys so emitted files diff
// cleanly between runs.
func marshalStable(results map[string]Result) ([]byte, error) {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		enc, err := json.Marshal(results[n])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  %q: %s", n, enc)
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}")
	return []byte(b.String()), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
