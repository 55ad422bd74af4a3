// Package tpch generates a schema-faithful, scaled-down TPC-H-like dataset.
//
// Substitution note (see DESIGN.md): the paper uses the official TPC-H
// benchmark at up to 6M rows. This generator reproduces what the
// experiments actually depend on — the 8-table FK topology, shared join
// attribute names, value skew, planted correlations, declared FDs, and the
// paper's "fake join attribute" h_key bridging customer and supplier — at a
// configurable scale.
//
// Join attributes share names across tables (custkey, nationkey, …) because
// the join graph connects instances by shared attribute names, exactly as
// the paper's example acquisition output does: orders(totalprice, custkey),
// customer(custkey, H), supplier(H, nationkey), nation(nationkey,
// regionkey), region(regionkey, rname).
package tpch

import (
	"fmt"
	"math/rand"

	"github.com/dance-db/dance/internal/dirty"
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
)

// Config controls generation.
type Config struct {
	// Scale multiplies table cardinalities; Scale 1 yields ~240 lineitem
	// rows, Scale 25 ≈ 6000 (the default used by experiments).
	Scale int
	// Seed fixes the PRNG.
	Seed int64
	// DirtyFraction is the share of rows modified in the six non-reference
	// tables (the paper uses 0.3; region and nation stay clean).
	DirtyFraction float64
}

// Dataset is the generated database: tables in a fixed order plus declared
// FDs per table.
type Dataset struct {
	Tables []*relation.Table
	FDs    map[string][]fd.FD
}

// TableNames lists the 8 tables in generation order.
var TableNames = []string{
	"region", "nation", "supplier", "customer",
	"part", "partsupp", "orders", "lineitem",
}

// DirtyTables are the six tables the paper injects inconsistency into.
var DirtyTables = []string{"supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// Table returns the named table or nil.
func (d *Dataset) Table(name string) *relation.Table {
	for _, t := range d.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

var (
	regionNames  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames  = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	brands       = []string{"Brand#11", "Brand#12", "Brand#21", "Brand#22", "Brand#31", "Brand#32", "Brand#41", "Brand#51"}
	partTypes    = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	orderStatus  = []string{"F", "O", "P"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes    = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	returnFlags  = []string{"A", "N", "R"}
	lineStatuses = []string{"F", "O"}
	instructs    = []string{"COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"}
)

// Sizes returns the per-table row counts at the given scale.
func Sizes(scale int) map[string]int {
	if scale < 1 {
		scale = 1
	}
	return map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": 10 * scale,
		"customer": 30 * scale,
		"part":     20 * scale,
		"partsupp": 40 * scale,
		"orders":   60 * scale,
		"lineitem": 240 * scale,
	}
}

// Generate builds the dataset.
func Generate(cfg Config) *Dataset {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := Sizes(cfg.Scale)
	d := &Dataset{FDs: map[string][]fd.FD{}}

	// region(regionkey, rname, rcomment, rpop) — 4 attributes (Table 5:
	// region is the minimum-attribute TPC-H table).
	region := relation.NewTable("region", relation.NewSchema(
		relation.Cat("regionkey", relation.KindInt),
		relation.Cat("rname", relation.KindString),
		relation.Cat("rcomment", relation.KindString),
		relation.Num("rpop", relation.KindInt),
	))
	for i := 0; i < sizes["region"]; i++ {
		region.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(regionNames[i%len(regionNames)]),
			relation.StringValue(fmt.Sprintf("region comment %d", i)),
			relation.IntValue(int64(100+rng.Intn(900))),
		)
	}
	d.Tables = append(d.Tables, region)
	d.FDs["region"] = []fd.FD{fd.New("rname", "regionkey")}

	// nation(nationkey, nname, regionkey, ncomment).
	nation := relation.NewTable("nation", relation.NewSchema(
		relation.Cat("nationkey", relation.KindInt),
		relation.Cat("nname", relation.KindString),
		relation.Cat("regionkey", relation.KindInt),
		relation.Cat("ncomment", relation.KindString),
	))
	for i := 0; i < sizes["nation"]; i++ {
		nation.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(nationNames[i%len(nationNames)]),
			relation.IntValue(int64(i%sizes["region"])),
			relation.StringValue(fmt.Sprintf("nation comment %d", i)),
		)
	}
	d.Tables = append(d.Tables, nation)
	d.FDs["nation"] = []fd.FD{fd.New("nname", "nationkey"), fd.New("regionkey", "nationkey")}

	// The fake join attribute h_key (the paper's "H") bridges customer and
	// supplier directly; its domain is small so the bridge is selective.
	hDomain := 5 + 3*cfg.Scale

	// supplier(suppkey, sname, nationkey, h_key, sacctbal, sphonecc, sphone).
	// sphonecc is the denormalized country calling code: nationkey →
	// sphonecc is a duplicate-LHS FD (like the paper's Zipcode → State)
	// that dirt injection can actually degrade.
	supplier := relation.NewTable("supplier", relation.NewSchema(
		relation.Cat("suppkey", relation.KindInt),
		relation.Cat("sname", relation.KindString),
		relation.Cat("nationkey", relation.KindInt),
		relation.Cat("h_key", relation.KindInt),
		relation.Num("sacctbal", relation.KindFloat),
		relation.Cat("sphonecc", relation.KindInt),
		relation.Cat("sphone", relation.KindString),
	))
	supplierNation := make([]int64, sizes["supplier"])
	for i := 0; i < sizes["supplier"]; i++ {
		// Cycle nations first so every nation has suppliers (as in real
		// TPC-H), keeping the nation—supplier join fully matched.
		nk := int64(i % sizes["nation"])
		supplierNation[i] = nk
		supplier.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("Supplier#%04d", i)),
			relation.IntValue(nk),
			relation.IntValue(int64(rng.Intn(hDomain))),
			relation.FloatValue(float64(rng.Intn(1000000))/100),
			relation.IntValue(nk+10),
			relation.StringValue(fmt.Sprintf("%02d-%07d", nk+10, rng.Intn(10000000))),
		)
	}
	d.Tables = append(d.Tables, supplier)
	d.FDs["supplier"] = []fd.FD{
		fd.New("nationkey", "suppkey"), fd.New("h_key", "suppkey"), fd.New("sphonecc", "nationkey")}

	// customer(custkey, cname, nationkey, h_key, cacctbal, mktsegment,
	// cphonecc, cphone). cphonecc mirrors sphonecc (nationkey → cphonecc).
	customer := relation.NewTable("customer", relation.NewSchema(
		relation.Cat("custkey", relation.KindInt),
		relation.Cat("cname", relation.KindString),
		relation.Cat("nationkey", relation.KindInt),
		relation.Cat("h_key", relation.KindInt),
		relation.Num("cacctbal", relation.KindFloat),
		relation.Cat("mktsegment", relation.KindString),
		relation.Cat("cphonecc", relation.KindInt),
		relation.Cat("cphone", relation.KindString),
	))
	for i := 0; i < sizes["customer"]; i++ {
		nk := int64(i % sizes["nation"]) // full nation coverage
		// Planted structure: market segment depends (noisily) on nation,
		// so segment↔nation correlations exist for the search to find.
		seg := segments[(int(nk)+rng.Intn(2))%len(segments)]
		customer.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("Customer#%05d", i)),
			relation.IntValue(nk),
			relation.IntValue(int64(rng.Intn(hDomain))),
			relation.FloatValue(float64(rng.Intn(1000000))/100),
			relation.StringValue(seg),
			relation.IntValue(nk+10),
			relation.StringValue(fmt.Sprintf("%02d-%07d", nk+10, rng.Intn(10000000))),
		)
	}
	d.Tables = append(d.Tables, customer)
	d.FDs["customer"] = []fd.FD{
		fd.New("nationkey", "custkey"), fd.New("h_key", "custkey"), fd.New("cphonecc", "nationkey")}

	// part(partkey, pname, brand, pmfgr, ptype, psize, retailprice).
	// pmfgr is determined by brand (brand → pmfgr, as in real TPC-H where
	// the brand string embeds the manufacturer).
	part := relation.NewTable("part", relation.NewSchema(
		relation.Cat("partkey", relation.KindInt),
		relation.Cat("pname", relation.KindString),
		relation.Cat("brand", relation.KindString),
		relation.Cat("pmfgr", relation.KindString),
		relation.Cat("ptype", relation.KindString),
		relation.Num("psize", relation.KindInt),
		relation.Num("retailprice", relation.KindFloat),
	))
	for i := 0; i < sizes["part"]; i++ {
		brand := brands[rng.Intn(len(brands))]
		// Retail price depends on brand plus noise.
		base := float64(900 + 13*indexOf(brands, brand)*17)
		part.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("part %04d", i)),
			relation.StringValue(brand),
			relation.StringValue("Manufacturer#"+brand[6:7]),
			relation.StringValue(partTypes[rng.Intn(len(partTypes))]),
			relation.IntValue(int64(1+rng.Intn(50))),
			relation.FloatValue(base+float64(rng.Intn(10000))/100),
		)
	}
	d.Tables = append(d.Tables, part)
	d.FDs["part"] = []fd.FD{fd.New("brand", "partkey"), fd.New("pmfgr", "brand")}

	// partsupp(partkey, suppkey, psnation, availqty, supplycost). psnation
	// denormalizes the supplier's nation (suppkey → psnation).
	partsupp := relation.NewTable("partsupp", relation.NewSchema(
		relation.Cat("partkey", relation.KindInt),
		relation.Cat("suppkey", relation.KindInt),
		relation.Cat("psnation", relation.KindInt),
		relation.Num("availqty", relation.KindInt),
		relation.Num("supplycost", relation.KindFloat),
	))
	for i := 0; i < sizes["partsupp"]; i++ {
		sk := int64(rng.Intn(sizes["supplier"]))
		partsupp.AppendValues(
			relation.IntValue(int64(rng.Intn(sizes["part"]))),
			relation.IntValue(sk),
			relation.IntValue(supplierNation[sk]),
			relation.IntValue(int64(rng.Intn(10000))),
			relation.FloatValue(float64(rng.Intn(100000))/100),
		)
	}
	d.Tables = append(d.Tables, partsupp)
	d.FDs["partsupp"] = []fd.FD{fd.New("psnation", "suppkey")}

	// orders(orderkey, custkey, onation, orderstatus, totalprice, orderdate,
	// orderpriority). onation denormalizes the customer's nation
	// (custkey → onation), a duplicate-LHS FD since customers repeat.
	orders := relation.NewTable("orders", relation.NewSchema(
		relation.Cat("orderkey", relation.KindInt),
		relation.Cat("custkey", relation.KindInt),
		relation.Cat("onation", relation.KindInt),
		relation.Cat("orderstatus", relation.KindString),
		relation.Num("totalprice", relation.KindFloat),
		relation.Cat("orderdate", relation.KindString),
		relation.Cat("orderpriority", relation.KindString),
	))
	custNation := customer.MustProject("custkey", "nationkey")
	nationOf := map[int64]int64{}
	for _, r := range custNation.Rows {
		nationOf[r[0].I] = r[1].I
	}
	for i := 0; i < sizes["orders"]; i++ {
		// First pass cycles customers so everyone has at least one order
		// (keeping the customer—orders join fully matched); the rest are
		// random repeat purchases.
		ck := int64(i % sizes["customer"])
		if i >= sizes["customer"] {
			ck = int64(rng.Intn(sizes["customer"]))
		}
		// Planted correlation: total price depends on the customer's
		// nation (regional purchasing power) plus noise — this is the
		// signal the acquisition queries hunt for.
		nk := nationOf[ck]
		price := float64(1000+400*nk) + float64(rng.Intn(40000))/100
		orders.AppendValues(
			relation.IntValue(int64(i)),
			relation.IntValue(ck),
			relation.IntValue(nk),
			relation.StringValue(orderStatus[rng.Intn(len(orderStatus))]),
			relation.FloatValue(price),
			relation.StringValue(fmt.Sprintf("199%d-%02d-%02d", rng.Intn(8), 1+rng.Intn(12), 1+rng.Intn(28))),
			relation.StringValue(priorities[rng.Intn(len(priorities))]),
		)
	}
	d.Tables = append(d.Tables, orders)
	d.FDs["orders"] = []fd.FD{fd.New("custkey", "orderkey"), fd.New("onation", "custkey")}

	// lineitem — 20 attributes (Table 5: the maximum-attribute table).
	lineitem := relation.NewTable("lineitem", relation.NewSchema(
		relation.Cat("orderkey", relation.KindInt),
		relation.Cat("partkey", relation.KindInt),
		relation.Cat("suppkey", relation.KindInt),
		relation.Cat("linenumber", relation.KindInt),
		relation.Num("quantity", relation.KindInt),
		relation.Num("extendedprice", relation.KindFloat),
		relation.Num("discount", relation.KindFloat),
		relation.Num("tax", relation.KindFloat),
		relation.Cat("returnflag", relation.KindString),
		relation.Cat("linestatus", relation.KindString),
		relation.Cat("shipdate", relation.KindString),
		relation.Cat("commitdate", relation.KindString),
		relation.Cat("receiptdate", relation.KindString),
		relation.Cat("shipinstruct", relation.KindString),
		relation.Cat("shipmode", relation.KindString),
		relation.Cat("lcomment", relation.KindString),
		relation.Cat("lwarehouse", relation.KindInt),
		relation.Cat("lcarrier", relation.KindString),
		relation.Cat("lbatch", relation.KindInt),
		relation.Cat("lhazmat", relation.KindString),
	))
	lineCounter := map[int64]int64{} // per-order line numbers → (orderkey, linenumber) is a key
	for i := 0; i < sizes["lineitem"]; i++ {
		ok := int64(i % sizes["orders"]) // every order ships something
		if i >= sizes["orders"] {
			ok = int64(rng.Intn(sizes["orders"]))
		}
		lineCounter[ok]++
		qty := int64(1 + rng.Intn(50))
		price := float64(qty) * (10 + float64(rng.Intn(9000))/100)
		mode := shipModes[rng.Intn(len(shipModes))]
		lineitem.AppendValues(
			relation.IntValue(ok),
			relation.IntValue(int64(rng.Intn(sizes["part"]))),
			relation.IntValue(int64(rng.Intn(sizes["supplier"]))),
			relation.IntValue(lineCounter[ok]),
			relation.IntValue(qty),
			relation.FloatValue(price),
			relation.FloatValue(float64(rng.Intn(11))/100),
			relation.FloatValue(float64(rng.Intn(9))/100),
			relation.StringValue(returnFlags[rng.Intn(len(returnFlags))]),
			relation.StringValue(lineStatuses[rng.Intn(len(lineStatuses))]),
			relation.StringValue(fmt.Sprintf("199%d-%02d-%02d", rng.Intn(8), 1+rng.Intn(12), 1+rng.Intn(28))),
			relation.StringValue(fmt.Sprintf("199%d-%02d-%02d", rng.Intn(8), 1+rng.Intn(12), 1+rng.Intn(28))),
			relation.StringValue(fmt.Sprintf("199%d-%02d-%02d", rng.Intn(8), 1+rng.Intn(12), 1+rng.Intn(28))),
			relation.StringValue(instructs[rng.Intn(len(instructs))]),
			relation.StringValue(mode),
			relation.StringValue(fmt.Sprintf("comment %d", i)),
			relation.IntValue(int64(rng.Intn(12))),
			relation.StringValue(fmt.Sprintf("carrier-%d", indexOf(shipModes, mode))),
			relation.IntValue(int64(rng.Intn(40))),
			relation.StringValue([]string{"Y", "N"}[rng.Intn(2)]),
		)
	}
	d.Tables = append(d.Tables, lineitem)
	d.FDs["lineitem"] = []fd.FD{
		fd.New("quantity", "orderkey", "linenumber"),
		fd.New("lcarrier", "shipmode"),
	}

	// Dirty the six non-reference tables.
	if cfg.DirtyFraction > 0 {
		tm := map[string]*relation.Table{}
		for _, t := range d.Tables {
			tm[t.Name] = t
		}
		dirty.InjectTables(tm, d.FDs, DirtyTables, cfg.DirtyFraction, rng)
	}
	return d
}

func indexOf(xs []string, v string) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
