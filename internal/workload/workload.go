// Package workload generates synthetic marketplaces with *planted*
// correlations: from a seed and a Spec it builds a catalog of relational
// listings whose join graph hides one known correlation between an attribute
// x (sold by the "base" listing) and an attribute y (sold at the end of a
// chosen join path), and reports the ground truth — the planted correlation
// as actually measurable on the full join, the cheapest correct purchase
// plan, and that plan's exact price under the marketplace's pricing model.
//
// The paper evaluates DANCE only on TPC-H- and TPC-E-shaped marketplaces;
// this package opens the scenario surface: chain, star and snowflake join
// topologies, skewed and NULL-ridden join keys of mixed types, decoy
// listings that sell nothing useful, and several price-curve families. A
// workload is a pure function of (seed, spec): generation touches a single
// PRNG in a fixed order, so the emitted marketplace is byte-identical across
// runs (see TestGenerateDeterministic), which is what lets CI assert
// recovery rates over a seed sweep.
//
// Construction (see DESIGN.md "Synthetic workloads"): every key level has
// the same domain size K. A latent class c(k₀) = k₀ mod Classes lives on the
// base key; each hop of the planted path relabels keys by a seeded
// bijection, so the class survives every join; the terminal listing maps its
// key to a class label y, flipped to a random label with probability Noise.
// The base listing's x is numeric with class-dependent mean. Everything else
// — decoys, extra attributes, NULL rows, fanout duplicates — is noise the
// search has to see through.
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/infotheory"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
)

// Topology names the join-graph shape of the planted path.
type Topology string

// The three topology families. Chain is a single path base → hop₁ → … →
// goal; Star joins base to a hub that fans out to Size spokes (one of which
// sells y); Snowflake extends each spoke by one more dimension hop, with y
// on the planted leaf.
const (
	Chain     Topology = "chain"
	Star      Topology = "star"
	Snowflake Topology = "snowflake"
)

// Spec parameterizes one synthetic marketplace. The zero value is not
// usable; start from DefaultSpec or ParseSpec.
type Spec struct {
	// Topology is the join-graph shape.
	Topology Topology
	// Size is the topology's extent: path hops past the base for Chain
	// (chain:3 = base → hop1 → hop2 → goal), branch count for Star and
	// Snowflake.
	Size int
	// Rows is the base listing's row count.
	Rows int
	// Keys is the join-key domain size at every level.
	Keys int
	// Classes is the latent-class count the correlation is planted on.
	Classes int
	// Noise is the per-key probability that the terminal's y label is
	// flipped to a uniformly random class label (0 = perfectly planted).
	Noise float64
	// Skew is the Zipf s-parameter of the base table's key draw; values
	// ≤ 1 mean uniform (rand.Zipf requires s > 1).
	Skew float64
	// NullRate appends this fraction of extra rows with a NULL join key to
	// every non-base listing (dirty marketplaces).
	NullRate float64
	// KeyKinds is "int", "string", or "mixed" (levels cycle
	// int → string → float).
	KeyKinds string
	// Decoys is the number of extra listings that join the planted path
	// but sell only uncorrelated attributes.
	Decoys int
	// ExtraAttrs adds this many noise attributes to every listing.
	ExtraAttrs int
	// Fanout emits this many rows per key in every non-base listing
	// (per-row extra attributes differ, join pairs repeat).
	Fanout int
	// PriceFamily selects the marketplace pricing model: "entropy"
	// (arbitrage-free default), "flat" (content-blind), or "tiered"
	// (entropy scaled by a per-listing premium).
	PriceFamily string
}

// DefaultSpec returns the baseline spec of a topology: moderate size, clean
// keys, mild label noise, entropy pricing.
func DefaultSpec(topo Topology, size int) Spec {
	return Spec{
		Topology:    topo,
		Size:        size,
		Rows:        600,
		Keys:        36,
		Classes:     5,
		Noise:       0.08,
		Skew:        0,
		NullRate:    0,
		KeyKinds:    "int",
		Decoys:      2,
		ExtraAttrs:  1,
		Fanout:      1,
		PriceFamily: "entropy",
	}
}

// Validate checks the spec's domain.
func (s Spec) Validate() error {
	switch s.Topology {
	case Chain, Star, Snowflake:
	default:
		return fmt.Errorf("workload: unknown topology %q", s.Topology)
	}
	if s.Size < 1 {
		return fmt.Errorf("workload: size %d < 1", s.Size)
	}
	if s.Rows < 1 || s.Keys < 2 || s.Classes < 2 {
		return fmt.Errorf("workload: rows/keys/classes (%d/%d/%d) too small", s.Rows, s.Keys, s.Classes)
	}
	if s.Classes > s.Keys {
		return fmt.Errorf("workload: classes %d exceed key domain %d", s.Classes, s.Keys)
	}
	// NaN fails every range comparison and +Inf is not negative, so the
	// float knobs are checked for finiteness first: a NaN spec does not
	// round-trip to an equal Spec, and an infinite skew hangs the Zipf draw.
	for _, f := range []struct {
		name string
		v    float64
	}{{"noise", s.Noise}, {"null", s.NullRate}, {"skew", s.Skew}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s %v is not finite", f.name, f.v)
		}
	}
	if s.Noise < 0 || s.Noise > 1 || s.NullRate < 0 || s.NullRate > 0.5 {
		return fmt.Errorf("workload: noise %v or null rate %v out of range", s.Noise, s.NullRate)
	}
	if s.Skew < 0 {
		return fmt.Errorf("workload: negative skew %v", s.Skew)
	}
	switch s.KeyKinds {
	case "int", "string", "mixed":
	default:
		return fmt.Errorf("workload: unknown key kinds %q (want int, string or mixed)", s.KeyKinds)
	}
	if s.Decoys < 0 || s.ExtraAttrs < 0 {
		return fmt.Errorf("workload: negative decoys %d or extra attrs %d", s.Decoys, s.ExtraAttrs)
	}
	if s.Fanout < 1 {
		return fmt.Errorf("workload: fanout %d < 1", s.Fanout)
	}
	switch s.PriceFamily {
	case "entropy", "flat", "tiered":
	default:
		return fmt.Errorf("workload: unknown price family %q (want entropy, flat or tiered)", s.PriceFamily)
	}
	return nil
}

// GroundTruth is what the generator knows and the acquisition must recover.
type GroundTruth struct {
	// X and Y are the planted attribute names ("x" on the base listing,
	// "y" on the terminal).
	X string `json:"x"`
	Y string `json:"y"`
	// Rho is the planted correlation CORR(X, Y) as measured on the full
	// join along Path — the value a correct acquisition realizes exactly.
	Rho float64 `json:"rho"`
	// Path lists the listing names of the planted join path, base first.
	Path []string `json:"path"`
	// Queries is the cheapest correct plan: the minimal projection
	// purchases (join keys plus x and y) along Path, in path order.
	Queries []pricing.Query `json:"queries"`
	// PlanCost is the exact price of Queries under the workload's pricing
	// model (the source-less acquisition: x is bought too).
	PlanCost float64 `json:"plan_cost"`
	// PlanCostOwned is PlanCost minus the base query: the cost when the
	// shopper owns the base table and only buys the rest of the path.
	PlanCostOwned float64 `json:"plan_cost_owned"`
}

// Workload is one generated marketplace plus its ground truth.
type Workload struct {
	Spec Spec
	Seed int64
	// Listings are the marketplace datasets in registration order (base
	// first, then the path, then decoys).
	Listings []*relation.Table
	// FDs are the published functional dependencies per listing.
	FDs map[string][]fd.FD
	// Truth is the planted ground truth.
	Truth GroundTruth

	model pricing.Model
}

// PricingModel returns the pricing model of the spec's price family (shared
// by Marketplace and the ground-truth plan cost).
func (w *Workload) PricingModel() pricing.Model { return w.model }

// Base returns the x-holding base listing.
func (w *Workload) Base() *relation.Table { return w.Listings[0] }

// Marketplace builds a fresh in-memory marketplace serving every listing.
func (w *Workload) Marketplace() *marketplace.InMemory {
	m := marketplace.NewInMemory(w.model)
	for _, t := range w.Listings {
		m.Register(t, w.FDs[t.Name])
	}
	return m
}

// MarketplaceWithoutBase builds a marketplace without the base listing, for
// the owned-source variant: the shopper registers Base with core.Dance's
// AddSource and only the rest of the catalog is for sale.
func (w *Workload) MarketplaceWithoutBase() *marketplace.InMemory {
	m := marketplace.NewInMemory(w.model)
	for _, t := range w.Listings[1:] {
		m.Register(t, w.FDs[t.Name])
	}
	return m
}

// PriceModel instantiates a price family by name ("entropy", "flat",
// "tiered"). Servers that load a workload directory (marketd -dir) use it
// to price listings with the same model the recorded ground-truth plan
// cost was computed under.
func PriceModel(family string) pricing.Model {
	switch family {
	case "flat":
		return pricing.FlatModel{PerAttribute: 2}
	case "tiered":
		return tieredModel{base: pricing.Cached(pricing.DefaultEntropyModel())}
	default:
		return pricing.Cached(pricing.DefaultEntropyModel())
	}
}

// tieredModel scales an arbitrage-free base model by a deterministic
// per-listing premium in {1, 1.25, …, 2}: marketplaces price popular
// listings up, and a constant per-instance factor preserves the monotone +
// subadditive (arbitrage-free) structure of the base model.
type tieredModel struct {
	base pricing.Model
}

func (m tieredModel) Name() string { return "tiered:" + m.base.Name() }

func (m tieredModel) PriceProjection(t *relation.Table, attrs []string) (float64, error) {
	p, err := m.base.PriceProjection(t, attrs)
	if err != nil {
		return 0, err
	}
	return p * tierFactor(t.Name), nil
}

func tierFactor(name string) float64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return 1 + 0.25*float64(h.Sum32()%5)
}

// keyKind returns the key Value kind at a path level under the spec.
func (s Spec) keyKind(level int) relation.Kind {
	switch s.KeyKinds {
	case "string":
		return relation.KindString
	case "mixed":
		switch level % 3 {
		case 0:
			return relation.KindInt
		case 1:
			return relation.KindString
		default:
			return relation.KindFloat
		}
	default:
		return relation.KindInt
	}
}

// keyValue encodes key ordinal k at a level as a relation Value of the
// level's kind. Float keys carry a fractional offset so they never collide
// with int keys under the columnar int/float unification.
func (s Spec) keyValue(level, k int) relation.Value {
	switch s.keyKind(level) {
	case relation.KindString:
		return relation.StringValue(fmt.Sprintf("K%03d", k))
	case relation.KindFloat:
		return relation.FloatValue(float64(k) + 0.25)
	default:
		return relation.IntValue(int64(k))
	}
}

// builder accumulates generation state.
type builder struct {
	spec Spec
	rng  *rand.Rand
	w    *Workload
}

// Generate builds the workload of (spec, seed). The same arguments always
// produce byte-identical tables and identical ground truth.
func Generate(spec Spec, seed int64) (*Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b := &builder{
		spec: spec,
		rng:  rand.New(rand.NewSource(seed)),
		w: &Workload{
			Spec:  spec,
			Seed:  seed,
			FDs:   map[string][]fd.FD{},
			model: PriceModel(spec.PriceFamily),
		},
	}
	var pathKeys []string // key attribute names along the planted path
	switch spec.Topology {
	case Chain:
		pathKeys = b.buildChain()
	case Star:
		pathKeys = b.buildStar(false)
	case Snowflake:
		pathKeys = b.buildStar(true)
	}
	b.buildDecoys(pathKeys)
	if err := b.groundTruth(); err != nil {
		return nil, err
	}
	return b.w, nil
}

// drawBaseKey samples a base-key ordinal, Zipf-skewed when Skew > 1.
func (b *builder) drawBaseKey(zipf *rand.Zipf) int {
	if zipf != nil {
		return int(zipf.Uint64())
	}
	return b.rng.Intn(b.spec.Keys)
}

// addExtraAttrs appends the spec's per-listing noise columns to a schema
// under construction, returning the generator for one row's extra values.
// Even columns are small-domain categorical ints, odd ones numeric floats.
func (b *builder) extraColumns(table string) []relation.Column {
	cols := make([]relation.Column, 0, b.spec.ExtraAttrs)
	for i := 0; i < b.spec.ExtraAttrs; i++ {
		name := fmt.Sprintf("%s_e%d", table, i)
		if i%2 == 0 {
			cols = append(cols, relation.Cat(name, relation.KindInt))
		} else {
			cols = append(cols, relation.Num(name, relation.KindFloat))
		}
	}
	return cols
}

func (b *builder) extraValues() []relation.Value {
	vals := make([]relation.Value, 0, b.spec.ExtraAttrs)
	for i := 0; i < b.spec.ExtraAttrs; i++ {
		if i%2 == 0 {
			vals = append(vals, relation.IntValue(int64(b.rng.Intn(8))))
		} else {
			vals = append(vals, relation.FloatValue(float64(b.rng.Intn(10000))/100))
		}
	}
	return vals
}

// buildBase emits the base listing: Rows rows of (k0, x, extras) with the
// class-dependent numeric x. Returns nothing; the base is Listings[0].
func (b *builder) buildBase() {
	s := b.spec
	cols := append([]relation.Column{
		relation.Cat("k0", s.keyKind(0)),
		relation.Num("x", relation.KindFloat),
	}, b.extraColumns("base")...)
	base := relation.NewTable("base", relation.NewSchema(cols...))
	var zipf *rand.Zipf
	if s.Skew > 1 {
		zipf = rand.NewZipf(b.rng, s.Skew, 1, uint64(s.Keys-1))
	}
	for i := 0; i < s.Rows; i++ {
		k := b.drawBaseKey(zipf)
		class := k % s.Classes
		x := float64(class)*8 + b.rng.Float64()*3
		row := append([]relation.Value{b.spec.keyValue(0, k), relation.FloatValue(x)}, b.extraValues()...)
		base.Append(row)
	}
	b.w.Listings = append(b.w.Listings, base)
	b.w.FDs["base"] = nil
}

// bridge emits one key-relabeling listing name(inAttr → outAttr) using a
// fresh bijection, with fanout duplicates, extra attributes, and NULL rows.
// It returns the bijection (ordinal at inLevel → ordinal at outLevel).
func (b *builder) bridge(name, inAttr, outAttr string, inLevel, outLevel int) []int {
	s := b.spec
	perm := b.rng.Perm(s.Keys)
	cols := append([]relation.Column{
		relation.Cat(inAttr, s.keyKind(inLevel)),
		relation.Cat(outAttr, s.keyKind(outLevel)),
	}, b.extraColumns(name)...)
	t := relation.NewTable(name, relation.NewSchema(cols...))
	for k := 0; k < s.Keys; k++ {
		for f := 0; f < s.Fanout; f++ {
			row := append([]relation.Value{
				s.keyValue(inLevel, k),
				s.keyValue(outLevel, perm[k]),
			}, b.extraValues()...)
			t.Append(row)
		}
	}
	b.appendNullRows(t, func() []relation.Value {
		return append([]relation.Value{
			relation.Null(),
			s.keyValue(outLevel, b.rng.Intn(s.Keys)),
		}, b.extraValues()...)
	})
	b.w.Listings = append(b.w.Listings, t)
	b.w.FDs[name] = []fd.FD{fd.New(outAttr, inAttr)}
	return perm
}

// terminal emits the y-selling listing keyed by keyAttr at keyLevel, where
// classOf maps the listing's key ordinal back to the planted class.
func (b *builder) terminal(name, keyAttr string, keyLevel int, classOf []int) {
	s := b.spec
	cols := append([]relation.Column{
		relation.Cat(keyAttr, s.keyKind(keyLevel)),
		relation.Cat("y", relation.KindString),
	}, b.extraColumns(name)...)
	t := relation.NewTable(name, relation.NewSchema(cols...))
	for k := 0; k < s.Keys; k++ {
		class := classOf[k]
		if b.rng.Float64() < s.Noise {
			class = b.rng.Intn(s.Classes)
		}
		label := relation.StringValue(fmt.Sprintf("L%02d", class))
		for f := 0; f < s.Fanout; f++ {
			row := append([]relation.Value{s.keyValue(keyLevel, k), label}, b.extraValues()...)
			t.Append(row)
		}
	}
	b.appendNullRows(t, func() []relation.Value {
		return append([]relation.Value{
			relation.Null(),
			relation.StringValue(fmt.Sprintf("L%02d", b.rng.Intn(s.Classes))),
		}, b.extraValues()...)
	})
	b.w.Listings = append(b.w.Listings, t)
	b.w.FDs[name] = []fd.FD{fd.New("y", keyAttr)}
}

// appendNullRows dirties a listing with NullRate extra rows (NULL join key).
func (b *builder) appendNullRows(t *relation.Table, row func() []relation.Value) {
	n := int(b.spec.NullRate * float64(t.NumRows()))
	for i := 0; i < n; i++ {
		t.Append(row())
	}
}

// invert returns the inverse of a key bijection.
func invert(perm []int) []int {
	inv := make([]int, len(perm))
	for k, v := range perm {
		inv[v] = k
	}
	return inv
}

// buildChain emits base → hop1 → … → hop{Size-1} → goal and records the
// planted path. It returns the key attribute names along the path.
func (b *builder) buildChain() []string {
	s := b.spec
	b.buildBase()
	path := []string{"base"}
	keys := []string{"k0"}
	// classOf[k] is the planted class of key ordinal k at the current
	// level; hops relabel it by their bijection.
	classOf := make([]int, s.Keys)
	for k := range classOf {
		classOf[k] = k % s.Classes
	}
	level := 0
	for hop := 1; hop < s.Size; hop++ {
		name := fmt.Sprintf("hop%d", hop)
		in, out := fmt.Sprintf("k%d", level), fmt.Sprintf("k%d", level+1)
		perm := b.bridge(name, in, out, level, level+1)
		next := make([]int, s.Keys)
		for k, class := range classOf {
			next[perm[k]] = class
		}
		classOf = next
		level++
		path = append(path, name)
		keys = append(keys, out)
	}
	b.terminal("goal", fmt.Sprintf("k%d", level), level, classOf)
	path = append(path, "goal")
	b.w.Truth.Path = path
	return keys
}

// buildStar emits base → hub → spokes (star) or base → hub → arms → tips
// (snowflake, deep=true); one branch is planted with y, the others sell
// uncorrelated labels. Returns the planted path's key attribute names.
func (b *builder) buildStar(deep bool) []string {
	s := b.spec
	b.buildBase()
	planted := b.rng.Intn(s.Size)

	// Hub: k0 plus one branch key per spoke, each through its own
	// bijection. Branch key level is 1 (tips live at level 2).
	perms := make([][]int, s.Size)
	cols := []relation.Column{relation.Cat("k0", s.keyKind(0))}
	for j := 0; j < s.Size; j++ {
		perms[j] = b.rng.Perm(s.Keys)
		cols = append(cols, relation.Cat(fmt.Sprintf("bk%d", j+1), s.keyKind(1)))
	}
	cols = append(cols, b.extraColumns("hub")...)
	hub := relation.NewTable("hub", relation.NewSchema(cols...))
	for k := 0; k < s.Keys; k++ {
		for f := 0; f < s.Fanout; f++ {
			row := []relation.Value{s.keyValue(0, k)}
			for j := 0; j < s.Size; j++ {
				row = append(row, s.keyValue(1, perms[j][k]))
			}
			hub.Append(append(row, b.extraValues()...))
		}
	}
	b.appendNullRows(hub, func() []relation.Value {
		row := []relation.Value{relation.Null()}
		for j := 0; j < s.Size; j++ {
			row = append(row, s.keyValue(1, b.rng.Intn(s.Keys)))
		}
		return append(row, b.extraValues()...)
	})
	b.w.Listings = append(b.w.Listings, hub)
	var hubFDs []fd.FD
	for j := 0; j < s.Size; j++ {
		hubFDs = append(hubFDs, fd.New(fmt.Sprintf("bk%d", j+1), "k0"))
	}
	b.w.FDs["hub"] = hubFDs

	path := []string{"base", "hub"}
	keys := []string{"k0", fmt.Sprintf("bk%d", planted+1)}
	for j := 0; j < s.Size; j++ {
		bk := fmt.Sprintf("bk%d", j+1)
		// classOf at the branch-key level.
		classOf := make([]int, s.Keys)
		inv := invert(perms[j])
		for k := range classOf {
			classOf[k] = inv[k] % s.Classes
		}
		if !deep {
			if j == planted {
				b.terminal(fmt.Sprintf("spoke%d", j+1), bk, 1, classOf)
				path = append(path, fmt.Sprintf("spoke%d", j+1))
			} else {
				b.decoyTerminal(fmt.Sprintf("spoke%d", j+1), bk, 1, j+1)
			}
			continue
		}
		ck := fmt.Sprintf("ck%d", j+1)
		perm := b.bridge(fmt.Sprintf("arm%d", j+1), bk, ck, 1, 2)
		next := make([]int, s.Keys)
		for k, class := range classOf {
			next[perm[k]] = class
		}
		if j == planted {
			b.terminal(fmt.Sprintf("tip%d", j+1), ck, 2, next)
			path = append(path, fmt.Sprintf("arm%d", j+1), fmt.Sprintf("tip%d", j+1))
			keys = append(keys, ck)
		} else {
			b.decoyTerminal(fmt.Sprintf("tip%d", j+1), ck, 2, j+1)
		}
	}
	b.w.Truth.Path = path
	return keys
}

// decoyTerminal emits a listing shaped like a terminal but selling an
// uncorrelated label attribute w{idx}.
func (b *builder) decoyTerminal(name, keyAttr string, keyLevel, idx int) {
	s := b.spec
	attr := fmt.Sprintf("w%d", idx)
	cols := append([]relation.Column{
		relation.Cat(keyAttr, s.keyKind(keyLevel)),
		relation.Cat(attr, relation.KindString),
	}, b.extraColumns(name)...)
	t := relation.NewTable(name, relation.NewSchema(cols...))
	for k := 0; k < s.Keys; k++ {
		label := relation.StringValue(fmt.Sprintf("W%02d", b.rng.Intn(s.Classes)))
		for f := 0; f < s.Fanout; f++ {
			row := append([]relation.Value{s.keyValue(keyLevel, k), label}, b.extraValues()...)
			t.Append(row)
		}
	}
	b.appendNullRows(t, func() []relation.Value {
		return append([]relation.Value{
			relation.Null(),
			relation.StringValue(fmt.Sprintf("W%02d", b.rng.Intn(s.Classes))),
		}, b.extraValues()...)
	})
	b.w.Listings = append(b.w.Listings, t)
	b.w.FDs[name] = []fd.FD{fd.New(attr, keyAttr)}
}

// buildDecoys attaches Spec.Decoys extra listings round-robin over the
// planted path's key attributes (pathKeys[i] lives at key level i).
func (b *builder) buildDecoys(pathKeys []string) {
	for j := 0; j < b.spec.Decoys; j++ {
		lvl := j % len(pathKeys)
		b.decoyTerminal(fmt.Sprintf("decoy%d", j+1), pathKeys[lvl], lvl, 100+j)
	}
}

// groundTruth joins the planted path on the full data, measures ρ, and
// prices the cheapest correct plan.
func (b *builder) groundTruth() error {
	w := b.w
	byName := map[string]*relation.Table{}
	for _, t := range w.Listings {
		byName[t.Name] = t
	}
	steps := make([]relation.PathStep, len(w.Truth.Path))
	prev := byName[w.Truth.Path[0]]
	steps[0] = relation.PathStep{Table: prev}
	for i := 1; i < len(w.Truth.Path); i++ {
		cur := byName[w.Truth.Path[i]]
		on := relation.SharedAttrs(prev.Schema, cur.Schema)
		if len(on) != 1 {
			return fmt.Errorf("workload: path step %s—%s shares %v (want exactly one key)", prev.Name, cur.Name, on)
		}
		steps[i] = relation.PathStep{Table: cur, On: on}
		prev = cur
	}
	// The planted join runs on the columnar kernels with one worker per CPU:
	// the million-row specs make the row path (which materializes every
	// joined row) prohibitively slow, and the columnar result is pinned
	// bit-identical to it for every worker count.
	workers := runtime.GOMAXPROCS(0)
	acc := relation.ToColumnar(steps[0].Table)
	for i := 1; i < len(steps); i++ {
		next, err := relation.EquiJoinColumnar(acc, relation.ToColumnar(steps[i].Table), steps[i].On, nil,
			relation.JoinOptions{Workers: workers})
		if err != nil {
			return fmt.Errorf("workload: planted join: %w", err)
		}
		acc = next
	}
	w.Truth.X, w.Truth.Y = "x", "y"
	rho, err := infotheory.CorrelationColumnar(acc, []string{"x"}, []string{"y"}, nil)
	if err != nil {
		return fmt.Errorf("workload: planted correlation: %w", err)
	}
	w.Truth.Rho = rho

	// Cheapest correct plan: along the planted path each listing sells
	// exactly its join keys plus the planted attribute it holds. Off-path
	// shortcuts to y do not exist by construction (y is sold only by the
	// terminal, reachable only through the path), so no cheaper correct
	// plan exists under a monotone pricing model.
	for i, name := range w.Truth.Path {
		t := byName[name]
		need := map[string]bool{}
		if i > 0 {
			for _, a := range steps[i].On {
				need[a] = true
			}
		}
		if i+1 < len(steps) {
			for _, a := range steps[i+1].On {
				need[a] = true
			}
		}
		if i == 0 {
			need["x"] = true
		}
		if i == len(steps)-1 {
			need["y"] = true
		}
		attrs := make([]string, 0, len(need))
		for a := range need {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		price, err := w.model.PriceProjection(t, attrs)
		if err != nil {
			return fmt.Errorf("workload: pricing plan query on %s: %w", name, err)
		}
		w.Truth.Queries = append(w.Truth.Queries, pricing.Query{Instance: name, Attrs: attrs})
		w.Truth.PlanCost += price
		if i > 0 {
			w.Truth.PlanCostOwned += price
		}
	}
	return nil
}
