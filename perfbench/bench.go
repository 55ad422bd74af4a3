package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options are one run's settings.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	coldStarts int
	warmups    int
	// ops, when positive, runs exactly that many timed ops instead of
	// running for seconds, so count metrics repeat exactly for a seed.
	ops int
	// dir holds the run's scratch files and, when traced, its span dump.
	dir   string
	spans string
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	problems  []string
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runBench generates the workload's inputs from the seed, cold-starts the
// system several times, and measures one timed phase on the last start,
// untraced or traced.
func runBench(ctx context.Context, opts options) (*result, error) {
	def, err := workloadByName(opts.workload)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(opts.dir, fmt.Sprintf("run-%d-%s", os.Getpid(), def.name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sc, err := def.generate(ctx, opts.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", def.name, err)
	}

	var tr *recorder
	if opts.trace {
		tr = newRecorder()
		tr.on.Store(true)
	}
	sys, setup, err := coldStarts(ctx, sc, tr, dir, opts)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	res := &result{metrics: map[string]float64{"setup_s": median(setup)}}
	if opts.trace {
		tr.on.Store(false)
		err = tracedPhase(ctx, sys, tr, opts, res)
	} else {
		err = timedPhase(ctx, sys, opts, res)
	}
	if err != nil {
		return nil, err
	}
	if err := sys.checkInvariants(ctx); err != nil {
		res.problem("%v", err)
	}
	if err := sys.close(); err != nil {
		res.problem("shutdown: %v", err)
	}
	res.correct = res.failed == 0 && len(res.problems) == 0
	return res, nil
}

// coldStarts brings the system up opts.coldStarts times from nothing —
// persist open, NewService restore, Offline, warm-up ops — and returns the
// last system with every start's duration. Input generation and copying
// the journal to restore are not timed.
func coldStarts(ctx context.Context, sc *scenario, tr *recorder, dir string, opts options) (*system, []float64, error) {
	var (
		sys   *system
		times []float64
	)
	for k := 1; k <= opts.coldStarts; k++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, err
			}
			sys = nil
		}
		journalDir := ""
		if sc.journal != "" {
			journalDir = filepath.Join(dir, fmt.Sprintf("start-%d", k))
			if err := copyJournal(sc.journal, journalDir); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		kctx, root := tr.start(withTrace(ctx, traceCtx{op: int64(-k)}), "setup")
		s, err := sc.bringUp(kctx, tr, journalDir, true)
		if err != nil {
			return nil, nil, fmt.Errorf("cold start %d: %w", k, err)
		}
		sys = s
		for w := 0; w < opts.warmups; w++ {
			if r := sys.runOp(kctx, tr, int64(-k), sc.warmupOp(w)); r.err != nil {
				sys.close()
				return nil, nil, fmt.Errorf("cold start %d warm-up: %w", k, r.err)
			}
		}
		root.end(0)
		times = append(times, time.Since(start).Seconds())
	}
	return sys, times, nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedPhase is the untraced measurement: one shopper in a closed loop
// runs ops 0, 1, … of the request stream until the time (or op count) is
// up.
func timedPhase(ctx context.Context, sys *system, opts options, res *result) error {
	sc := sys.sc
	before, err := sys.ledgerTotal(ctx)
	if err != nil {
		return err
	}
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(opts.seconds * float64(time.Second)))
	var all []opResult
	for i := 0; !done(opts, i, deadline) && ctx.Err() == nil; i++ {
		all = append(all, sys.runOp(ctx, nil, int64(i+1), sc.timedOp(i)))
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	if err := ctx.Err(); err != nil {
		return err
	}
	after, err := sys.ledgerTotal(ctx)
	if err != nil {
		return err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	ok := tally(all, res)
	var acq, exe []float64
	for _, r := range all {
		if r.err == nil {
			acq = append(acq, ms(r.acquire))
			exe = append(exe, ms(r.execute))
		}
	}
	m := res.metrics
	m["ops_per_s"] = float64(ok) / wall.Seconds()
	m["acquire_p50_ms"] = percentile(acq, 0.50)
	m["acquire_p90_ms"] = percentile(acq, 0.90)
	m["execute_p50_ms"] = percentile(exe, 0.50)
	m["execute_p90_ms"] = percentile(exe, 0.90)
	m["cpu_ms_per_op"] = ms(cpu) / float64(max(ok, 1))
	m["heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	m["spend_usd_per_op"] = (after - before) / float64(max(ok, 1))
	m["latency_samples"] = float64(len(acq))
	return nil
}

// done reports whether a timed phase that has run i ops is over.
func done(opts options, i int, deadline time.Time) bool {
	if opts.ops > 0 {
		return i >= opts.ops
	}
	return !time.Now().Before(deadline)
}

// tally counts attempted and failed ops into res, fills the quality
// metrics, and returns the number of ops that passed every check.
func tally(all []opResult, res *result) int {
	ok, corr := 0, 0.0
	for _, r := range all {
		res.attempted++
		if r.err != nil {
			res.failed++
			if res.failed <= 3 {
				res.problem("op failed: %v", r.err)
			}
			continue
		}
		ok++
		corr += r.realized
	}
	res.metrics["realized_corr_bits"] = corr / float64(max(ok, 1))
	res.metrics["success_frac"] = float64(ok) / float64(max(res.attempted, 1))
	return ok
}

// tracedPhase is the traced measurement. With one shopper, spans of calls
// without a context (pricing, persist) belong to the one op in flight. Ops
// alternate untraced (even) and traced (odd); the untraced ones
// give the baseline of trace.overhead_frac and the runtime metrics. The
// spans are dumped to opts.spans and summarized from the dump.
func tracedPhase(ctx context.Context, sys *system, tr *recorder, opts options, res *result) error {
	sc := sys.sc
	before, err := sys.ledgerTotal(ctx)
	if err != nil {
		return err
	}
	stats0 := sys.svc.Stats()
	journal0 := fileSize(sys.journal)
	runtime.GC()
	var (
		all                []opResult
		times              [2]time.Duration // untraced, traced
		counts             [2]int
		m0, m1             runtime.MemStats
		alloc, gcs, pauses uint64
	)
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for i := 0; !done(opts, i, deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		slot := i % 2 // 0 untraced, 1 traced
		traced := slot == 1
		if traced {
			tr.on.Store(true)
		} else {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		r := sys.runOp(ctx, tr, int64(i+1), sc.timedOp(i))
		d := time.Since(t0)
		if traced {
			tr.on.Store(false)
		} else {
			runtime.ReadMemStats(&m1)
			alloc += m1.TotalAlloc - m0.TotalAlloc
			gcs += uint64(m1.NumGC - m0.NumGC)
			pauses += m1.PauseTotalNs - m0.PauseTotalNs
		}
		times[slot] += d
		counts[slot]++
		all = append(all, r)
		tr.count(int64(i+1), "search.evals", float64(r.evals))
		tr.count(int64(i+1), "relation.joined_rows", float64(r.joinedRows))
	}
	after, err := sys.ledgerTotal(ctx)
	if err != nil {
		return err
	}
	stats1 := sys.svc.Stats()
	ok := tally(all, res)
	res.metrics["spend_usd_per_op"] = (after - before) / float64(max(ok, 1))

	untraced := float64(max(counts[0], 1))
	tr.value("ops", float64(len(all)))
	tr.value("service.coalesced", float64(stats1.Coalesced-stats0.Coalesced))
	tr.value("service.shed", float64(stats1.Shed-stats0.Shed))
	tr.value("persist.journal_bytes", float64(fileSize(sys.journal)-journal0))
	tr.value("runtime.alloc_mb_per_op", float64(alloc)/(1<<20)/untraced)
	tr.value("runtime.gc_cycles_per_op", float64(gcs)/untraced)
	tr.value("runtime.gc_pause_ms_per_op", float64(pauses)/1e6/untraced)
	if counts[0] > 0 && counts[1] > 0 && times[0] > 0 && times[1] > 0 {
		rate := func(s int) float64 { return float64(counts[s]) / times[s].Seconds() }
		tr.value("trace.overhead_frac", 1-rate(1)/rate(0))
	}
	if err := tr.dump(opts.spans); err != nil {
		return err
	}
	recs, err := readDump(opts.spans)
	if err != nil {
		return err
	}
	for k, v := range summarize(recs) {
		res.metrics[k] = v
	}
	return nil
}

func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
