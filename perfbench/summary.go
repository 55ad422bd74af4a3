package main

import (
	"sort"
	"strings"
)

// This file is the trace summarizer: it reads the records of a span dump
// and computes every per-layer metric. A layer's self time within an op is
// the time its spans cover minus the time their child layers' spans cover;
// concurrent spans of one layer count once (interval union), so the shares
// of an op's layers add up to 1.
//
// Layers by span name: service.* (danced handler), marketplace.* (market
// calls, client side) and marketd.* (marketplace handler) form the
// marketplace layer, pricing.*, persist.*. search is the acquire handler's
// residual and relation the execute handler's: the handler span less its
// marketplace, pricing and persist children. service is the rest of the op:
// client, JSON and loopback.

type interval struct{ lo, hi int64 }

// coverage is the length of the union of ivs clipped to [lo, hi].
func coverage(ivs []interval, lo, hi int64) int64 {
	var c []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			c = append(c, interval{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	var total, end int64
	for _, iv := range c {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

const forever = int64(1) << 62

// attribute gives every span without an op the op of the innermost op or
// set-up root span that contains it. Exact while one shopper runs ops one
// at a time, as the traced run does.
func attribute(spans []record) {
	var roots []record
	for _, s := range spans {
		if s.Name == "op" || s.Name == "setup" {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	for i := range spans {
		s := &spans[i]
		if s.Op != 0 {
			continue
		}
		j := sort.Search(len(roots), func(j int) bool { return roots[j].Start > s.Start }) - 1
		for ; j >= 0; j-- {
			if roots[j].End >= s.End {
				s.Op = roots[j].Op
				break
			}
		}
	}
}

// opTrace is the spans of one traced op, grouped by layer.
type opTrace struct {
	root, acquire, execute, clientAcq, clientExe record
	market, pricing, persist                     []interval
}

func ivOf(r record) interval { return interval{r.Start, r.End} }

// summarize computes the per-layer metrics from a span dump.
func summarize(recs []record) map[string]float64 {
	var spans []record
	values := map[string]float64{}
	countSum := map[string]float64{}
	countN := map[string]int{}
	for _, r := range recs {
		switch r.Kind {
		case "span":
			spans = append(spans, r)
		case "value":
			values[r.Name] = r.N
		case "count":
			if r.Op > 0 {
				countSum[r.Name] += r.N
				countN[r.Name]++
			}
		}
	}
	attribute(spans)
	byID := map[int64]record{}
	for _, s := range spans {
		byID[s.ID] = s
	}

	ops := map[int64]*opTrace{}
	get := func(op int64) *opTrace {
		t := ops[op]
		if t == nil {
			t = &opTrace{}
			ops[op] = t
		}
		return t
	}
	calls := map[string][]float64{} // per-call durations in ms by span name
	var rows, marketBytes, serviceBytes, pricingCalls float64
	var transport, server []float64
	setup := map[int64]map[string]float64{}
	for _, s := range spans {
		if s.Op < 0 {
			st := setup[s.Op]
			if st == nil {
				st = map[string]float64{}
				setup[s.Op] = st
			}
			switch {
			case s.Name == "offline.offline" || s.Name == "offline.restore":
				st[s.Name] += nsToMS(s.dur())
			case s.Name == "persist.load":
				st["persist.load"] += nsToMS(s.dur())
			case s.Name == "marketplace.sample" || s.Name == "marketplace.sample_delta":
				if byID[s.Parent].Name == "offline.offline" {
					st["offline.sample_rows"] += s.N
				}
			}
			continue
		}
		if s.Op == 0 {
			continue
		}
		t := get(s.Op)
		layer, _, _ := strings.Cut(s.Name, ".")
		switch {
		case s.Name == "op":
			t.root = s
		case s.Name == "client.acquire":
			t.clientAcq = s
		case s.Name == "client.execute":
			t.clientExe = s
		case s.Name == "service.acquire":
			t.acquire = s
			serviceBytes += s.N
		case s.Name == "service.execute":
			t.execute = s
			serviceBytes += s.N
		case layer == "marketplace":
			t.market = append(t.market, ivOf(s))
			calls[s.Name] = append(calls[s.Name], nsToMS(s.dur()))
			if s.Name != "marketplace.quote" {
				rows += s.N
			}
		case layer == "marketd":
			t.market = append(t.market, ivOf(s))
			marketBytes += s.N
			server = append(server, nsToMS(s.dur()))
			if p, ok := byID[s.Parent]; ok && strings.HasPrefix(p.Name, "marketplace.") {
				transport = append(transport, nsToMS(p.dur()-s.dur()))
			}
		case layer == "pricing":
			t.pricing = append(t.pricing, ivOf(s))
			pricingCalls++
		case layer == "persist":
			t.persist = append(t.persist, ivOf(s))
			if s.Name == "persist.append_ledger" || s.Name == "persist.save_plan" {
				calls["persist.append"] = append(calls["persist.append"], nsToMS(s.dur()))
			}
		}
	}

	var (
		searchSelf, relationSelf, handler, acqWire, exeWire    []float64
		total, tSearch, tRelation, tMarket, tPricing, tPersist float64
		n                                                      int
	)
	for _, t := range ops {
		if t.root.Name == "" {
			continue // an untraced op: counts only
		}
		n++
		children := append(append(append([]interval(nil), t.market...), t.pricing...), t.persist...)
		search := t.acquire.dur() - coverage(children, t.acquire.Start, t.acquire.End)
		relation := t.execute.dur() - coverage(children, t.execute.Start, t.execute.End)
		pricing := coverage(t.pricing, 0, forever)
		market := coverage(append(append([]interval(nil), t.market...), t.pricing...), 0, forever) - pricing
		persist := coverage(t.persist, 0, forever)
		searchSelf = append(searchSelf, nsToMS(search))
		relationSelf = append(relationSelf, nsToMS(relation))
		handler = append(handler, nsToMS(t.acquire.dur()))
		acqWire = append(acqWire, nsToMS(t.clientAcq.dur()-t.acquire.dur()))
		exeWire = append(exeWire, nsToMS(t.clientExe.dur()-t.execute.dur()))
		total += float64(t.root.dur())
		tSearch += float64(search)
		tRelation += float64(relation)
		tMarket += float64(market)
		tPricing += float64(pricing)
		tPersist += float64(persist)
	}
	perOp := func(x float64) float64 { return x / float64(max(n, 1)) }
	share := func(x float64) float64 {
		if total == 0 {
			return 0
		}
		return x / total
	}
	allOps := max(values["ops"], 1)
	mean := func(name string) float64 { return countSum[name] / float64(max(countN[name], 1)) }
	setupMedian := func(name string) float64 {
		var xs []float64
		for _, st := range setup {
			xs = append(xs, st[name])
		}
		return median(xs)
	}

	return map[string]float64{
		"service.acquire_handler_p50_ms": percentile(handler, 0.5),
		"service.acquire_wire_p50_ms":    percentile(acqWire, 0.5),
		"service.execute_wire_p50_ms":    percentile(exeWire, 0.5),
		"service.resp_bytes_per_op":      perOp(serviceBytes),
		"service.coalesced_per_op":       values["service.coalesced"] / allOps,
		"service.shed_per_op":            values["service.shed"] / allOps,
		"service.share":                  share(total - tSearch - tRelation - tMarket - tPricing - tPersist),

		"search.acquire_self_p50_ms": percentile(searchSelf, 0.5),
		"search.acquire_self_p90_ms": percentile(searchSelf, 0.9),
		"search.evals_per_acquire":   mean("search.evals"),
		"search.share":               share(tSearch),

		"relation.execute_self_p50_ms":     percentile(relationSelf, 0.5),
		"relation.execute_self_p90_ms":     percentile(relationSelf, 0.9),
		"relation.joined_rows_per_execute": mean("relation.joined_rows"),
		"relation.share":                   share(tRelation),

		"marketplace.sample_p50_ms":                   percentile(calls["marketplace.sample"], 0.5),
		"marketplace.sample_delta_p50_ms":             percentile(calls["marketplace.sample_delta"], 0.5),
		"marketplace.execute_projection_p50_ms":       percentile(calls["marketplace.execute_projection"], 0.5),
		"marketplace.sample_calls_per_op":             perOp(float64(len(calls["marketplace.sample"]))),
		"marketplace.sample_delta_calls_per_op":       perOp(float64(len(calls["marketplace.sample_delta"]))),
		"marketplace.execute_projection_calls_per_op": perOp(float64(len(calls["marketplace.execute_projection"]))),
		"marketplace.quote_calls_per_op":              perOp(float64(len(calls["marketplace.quote"]))),
		"marketplace.rows_per_op":                     perOp(rows),
		"marketplace.server_p50_ms":                   percentile(server, 0.5),
		"marketplace.transport_p50_ms":                percentile(transport, 0.5),
		"marketplace.wire_bytes_per_op":               perOp(marketBytes),
		"marketplace.share":                           share(tMarket),

		"pricing.calls_per_op": perOp(pricingCalls),
		"pricing.ms_per_op":    perOp(nsToMS(int64(tPricing))),
		"pricing.share":        share(tPricing),

		"persist.append_p50_ms":        percentile(calls["persist.append"], 0.5),
		"persist.append_p90_ms":        percentile(calls["persist.append"], 0.9),
		"persist.appends_per_op":       perOp(float64(len(calls["persist.append"]))),
		"persist.journal_bytes_per_op": values["persist.journal_bytes"] / allOps,
		"persist.load_ms":              setupMedian("persist.load"),
		"persist.share":                share(tPersist),

		"offline.offline_ms":  setupMedian("offline.offline"),
		"offline.restore_ms":  setupMedian("offline.restore"),
		"offline.sample_rows": setupMedian("offline.sample_rows"),

		"runtime.alloc_mb_per_op":    values["runtime.alloc_mb_per_op"],
		"runtime.gc_cycles_per_op":   values["runtime.gc_cycles_per_op"],
		"runtime.gc_pause_ms_per_op": values["runtime.gc_pause_ms_per_op"],

		"trace.overhead_frac": values["trace.overhead_frac"],
	}
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }
