package main

// metricDef describes one reported metric: its unit, which direction is
// better, and what it measures.
type metricDef struct {
	name, unit, better, doc string
}

// endToEnd are the metrics of an untraced run: what a shopper of danced
// sees.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", "ops that passed every check ÷ timed wall time"},
	{"acquire_p50_ms", "ms", "lower", "client-side POST /v1/acquire latency, median"},
	{"acquire_p90_ms", "ms", "lower", "client-side acquire latency, 90th percentile (the highest with ≥10 samples beyond it on every workload)"},
	{"execute_p50_ms", "ms", "lower", "client-side POST /v1/execute latency, median"},
	{"execute_p90_ms", "ms", "lower", "client-side execute latency, 90th percentile"},
	{"cpu_ms_per_op", "ms/op", "lower", "process user+sys CPU over the timed phase ÷ ops"},
	{"setup_s", "s", "lower", "median over the run's cold starts of: persist open, NewService restore, Offline, warm-up ops (input generation excluded)"},
	{"heap_live_mb", "MB", "lower", "live heap after runtime.GC() at the end of the timed phase"},
	{"spend_usd_per_op", "usd/op", "lower", "danced ledger charges of the timed ops (pilots, deltas, purchases) ÷ ops"},
	{"realized_corr_bits", "bits", "higher", "mean realized correlation of the purchases: plan quality, so a faster change that buys worse data shows"},
	{"success_frac", "ratio", "higher", "ops that passed every check ÷ ops attempted (1 − failed fraction; an infeasible or 5xx response fails)"},
}

// layerDef is one layer of the traced run: the module it stands for, the
// end-to-end metrics its numbers should move and on which workload, and its
// metrics.
type layerDef struct {
	name, module, moves string
	metrics             []metricDef
}

var layers = []layerDef{
	{"service", "root package, service.go: danced's HTTP handlers and the client",
		"acquire_p50_ms; shows on bulk-execute (shortest acquire), should not move elsewhere", []metricDef{
			{"service.acquire_handler_p50_ms", "ms", "lower", "danced acquire handler span, median"},
			{"service.acquire_wire_p50_ms", "ms", "lower", "client acquire span − handler span (JSON and loopback), median"},
			{"service.execute_wire_p50_ms", "ms", "lower", "client execute span − handler span, median"},
			{"service.resp_bytes_per_op", "bytes/op", "lower", "danced acquire+execute response bytes per op"},
			{"service.coalesced_per_op", "count/op", "lower", "Service.Stats coalesced requests per op (expected 0)"},
			{"service.shed_per_op", "count/op", "lower", "Service.Stats shed requests per op (expected 0)"},
			{"service.share", "ratio", "lower", "op time outside every other layer ÷ op time"},
		}},
	{"search", "internal/search residual (also core, policy, joingraph, sampling compute)",
		"acquire_p50/p90_ms, ops_per_s, cpu_ms_per_op; shows on resample-search, some on pilot-durable and bulk-execute", []metricDef{
			{"search.acquire_self_p50_ms", "ms", "lower", "acquire handler span − its marketplace, pricing and persist children, median"},
			{"search.acquire_self_p90_ms", "ms", "lower", "the same, 90th percentile"},
			{"search.evals_per_acquire", "count/op", "lower", "PlanInfo.Evals per acquire (exact for a seed and op count)"},
			{"search.share", "ratio", "lower", "search self time ÷ op time"},
		}},
	{"relation", "internal/relation residual (also infotheory, fd)",
		"execute_p50/p90_ms, ops_per_s, heap_live_mb; shows on bulk-execute, small on resample-search", []metricDef{
			{"relation.execute_self_p50_ms", "ms", "lower", "execute handler span − its marketplace, pricing and persist children, median"},
			{"relation.execute_self_p90_ms", "ms", "lower", "the same, 90th percentile"},
			{"relation.joined_rows_per_execute", "rows/op", "lower", "PurchaseInfo.JoinedRows per execute (exact)"},
			{"relation.share", "ratio", "lower", "relation self time ÷ op time"},
		}},
	{"marketplace", "internal/marketplace: market calls, marketd handler and the CSV transport",
		"sampling and transport → acquire_p50_ms (pilot-durable) and setup_s; projection → execute_p50_ms (bulk-execute); should not move on resample-search per op", []metricDef{
			{"marketplace.sample_p50_ms", "ms", "lower", "Market.Sample call, median"},
			{"marketplace.sample_delta_p50_ms", "ms", "lower", "Market.SampleDelta call, median"},
			{"marketplace.execute_projection_p50_ms", "ms", "lower", "Market.ExecuteProjection call, median"},
			{"marketplace.sample_calls_per_op", "count/op", "lower", "Sample calls per op"},
			{"marketplace.sample_delta_calls_per_op", "count/op", "lower", "SampleDelta calls per op"},
			{"marketplace.execute_projection_calls_per_op", "count/op", "lower", "ExecuteProjection calls per op"},
			{"marketplace.quote_calls_per_op", "count/op", "lower", "QuoteProjection calls per op"},
			{"marketplace.rows_per_op", "rows/op", "lower", "rows returned by sample, delta and projection calls per op (exact)"},
			{"marketplace.server_p50_ms", "ms", "lower", "marketd handler span, median (0 in memory)"},
			{"marketplace.transport_p50_ms", "ms", "lower", "market client span − marketd handler span (CSV and loopback), median"},
			{"marketplace.wire_bytes_per_op", "bytes/op", "lower", "marketd response bytes per op"},
			{"marketplace.share", "ratio", "lower", "marketplace self time (less pricing) ÷ op time"},
		}},
	{"pricing", "internal/pricing: the model passed to marketplace.NewInMemory",
		"acquire_p50_ms, execute_p50_ms; shows on cache-cold starts (setup_s), should not move on warm ops", []metricDef{
			{"pricing.calls_per_op", "count/op", "lower", "PriceProjection calls per op"},
			{"pricing.ms_per_op", "ms/op", "lower", "PriceProjection time per op"},
			{"pricing.share", "ratio", "lower", "pricing time ÷ op time"},
		}},
	{"persist", "internal/persist: the journal (fsync included)",
		"acquire_p90_ms, execute_p90_ms, ops_per_s; load_ms → setup_s; shows on pilot-durable only (persist is off elsewhere)", []metricDef{
			{"persist.append_p50_ms", "ms", "lower", "AppendLedger/SavePlan call, median"},
			{"persist.append_p90_ms", "ms", "lower", "AppendLedger/SavePlan call, 90th percentile"},
			{"persist.appends_per_op", "count/op", "lower", "AppendLedger+SavePlan calls per op"},
			{"persist.journal_bytes_per_op", "bytes/op", "lower", "journal growth per op (exact)"},
			{"persist.load_ms", "ms", "lower", "Store.Load time per cold start (journal replay), median"},
			{"persist.share", "ratio", "lower", "persist time ÷ op time"},
		}},
	{"offline", "core offline phase and internal/offline",
		"setup_s on every workload, at set-up only", []metricDef{
			{"offline.offline_ms", "ms", "lower", "Middleware.Offline call per cold start, median"},
			{"offline.restore_ms", "ms", "lower", "dance.NewService call (journal restore) per cold start, median"},
			{"offline.sample_rows", "rows", "lower", "rows bought by the Offline call per cold start (exact)"},
		}},
	{"runtime", "Go runtime, over the untraced ops of the traced run",
		"cpu_ms_per_op, heap_live_mb on every workload", []metricDef{
			{"runtime.alloc_mb_per_op", "MB/op", "lower", "bytes allocated per op"},
			{"runtime.gc_cycles_per_op", "count/op", "lower", "GC cycles per op"},
			{"runtime.gc_pause_ms_per_op", "ms/op", "lower", "GC stop-the-world pause per op"},
		}},
	{"trace", "the benchmark's own tracer",
		"none", []metricDef{
			{"trace.overhead_frac", "ratio", "lower", "1 − traced ÷ untraced ops/s over the alternating ops of the traced run"},
		}},
}

// perLayer lists every per-layer metric in layer order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, l.metrics...)
	}
	return out
}
