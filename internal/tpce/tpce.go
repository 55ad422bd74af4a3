// Package tpce generates a schema-faithful, scaled-down TPC-E-like dataset
// with 29 tables (Table 5 of the paper: 29 instances, min size 4 (exchange),
// max size watch_item, min 3 attributes (sector), max 28 (customer)).
//
// Substitution note (see DESIGN.md): the official EGen generator produces up
// to 10M rows; this generator reproduces the join topology the experiments
// need — in particular the length-8 join spine
//
//	customer_account — customer — watch_list — watch_item — security —
//	company — industry — sector
//
// and the shorter daily_market — security — company (— industry — sector)
// spines used by Q1/Q2, with planted cross-table correlations and declared
// FDs, at a configurable scale.
package tpce

import (
	"fmt"
	"math/rand"

	"github.com/dance-db/dance/internal/dirty"
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/relation"
)

// Config controls generation.
type Config struct {
	Scale int
	Seed  int64
	// DirtyFraction is applied to the 20 DirtyTables (paper: 20 of 29
	// tables modified, 0.2–0.3 share of rows; we default to 0.2).
	DirtyFraction float64
}

// Dataset is the generated database.
type Dataset struct {
	Tables []*relation.Table
	FDs    map[string][]fd.FD
}

// Table returns the named table or nil.
func (d *Dataset) Table(name string) *relation.Table {
	for _, t := range d.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// TableNames lists all 29 tables in generation order.
var TableNames = []string{
	"exchange", "sector", "industry", "company", "security",
	"daily_market", "last_trade", "financial", "news_item", "news_xref",
	"address", "zip_code", "status_type", "taxrate", "customer",
	"customer_account", "customer_taxrate", "broker", "charge", "commission_rate",
	"holding", "holding_history", "holding_summary", "settlement", "trade",
	"trade_history", "trade_type", "watch_item", "watch_list",
}

// DirtyTables are the 20 tables dirtied by the experiments; the 9 small
// reference tables stay clean.
var DirtyTables = []string{
	"company", "security", "daily_market", "last_trade", "financial",
	"news_item", "news_xref", "address", "customer", "customer_account",
	"customer_taxrate", "broker", "holding", "holding_history", "holding_summary",
	"settlement", "trade", "trade_history", "watch_item", "watch_list",
}

const (
	numSectors    = 12
	numIndustries = 36
	numExchanges  = 4
	numStatuses   = 5
	numTradeTypes = 5
)

// Sizes returns per-table row counts at the given scale.
func Sizes(scale int) map[string]int {
	if scale < 1 {
		scale = 1
	}
	return map[string]int{
		"exchange":         numExchanges,
		"sector":           numSectors,
		"industry":         numIndustries,
		"company":          25 * scale,
		"security":         35 * scale,
		"daily_market":     200 * scale,
		"last_trade":       35 * scale,
		"financial":        50 * scale,
		"news_item":        30 * scale,
		"news_xref":        40 * scale,
		"address":          40 * scale,
		"zip_code":         30 * scale,
		"status_type":      numStatuses,
		"taxrate":          10,
		"customer":         30 * scale,
		"customer_account": 40 * scale,
		"customer_taxrate": 30 * scale,
		"broker":           5 * scale,
		"charge":           15,
		"commission_rate":  20,
		"holding":          100 * scale,
		"holding_history":  100 * scale,
		"holding_summary":  60 * scale,
		"settlement":       80 * scale,
		"trade":            150 * scale,
		"trade_history":    150 * scale,
		"trade_type":       numTradeTypes,
		"watch_item":       400 * scale, // largest table, like the paper's watch_item
		"watch_list":       60 * scale,
	}
}

// Generate builds the dataset.
func Generate(cfg Config) *Dataset {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sz := Sizes(cfg.Scale)
	d := &Dataset{FDs: map[string][]fd.FD{}}
	add := func(t *relation.Table, fds ...fd.FD) {
		d.Tables = append(d.Tables, t)
		d.FDs[t.Name] = fds
	}

	// ---- Market reference spine -------------------------------------------

	exchange := relation.NewTable("exchange", relation.NewSchema(
		relation.Cat("exid", relation.KindInt),
		relation.Cat("exname", relation.KindString),
		relation.Cat("excountry", relation.KindString),
		relation.Num("exopen", relation.KindInt),
	))
	exNames := []string{"NYSE", "NASDAQ", "AMEX", "PCX"}
	for i := 0; i < sz["exchange"]; i++ {
		exchange.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(exNames[i%len(exNames)]),
			relation.StringValue("USA"),
			relation.IntValue(int64(930+i)),
		)
	}
	add(exchange, fd.New("exname", "exid"))

	// sector — 3 attributes, the paper's minimum.
	sector := relation.NewTable("sector", relation.NewSchema(
		relation.Cat("sectorid", relation.KindInt),
		relation.Cat("sectorname", relation.KindString),
		relation.Cat("secabbr", relation.KindString),
	))
	secNames := []string{"Energy", "Materials", "Industrials", "Consumer", "Health", "Financials", "Tech", "Telecom", "Utilities", "RealEstate", "Media", "Transport"}
	for i := 0; i < sz["sector"]; i++ {
		sector.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(secNames[i%len(secNames)]),
			relation.StringValue(secNames[i%len(secNames)][:2]),
		)
	}
	add(sector, fd.New("sectorname", "sectorid"))

	industry := relation.NewTable("industry", relation.NewSchema(
		relation.Cat("indid", relation.KindInt),
		relation.Cat("indname", relation.KindString),
		relation.Cat("sectorid", relation.KindInt),
	))
	sectorOfInd := make([]int64, sz["industry"])
	for i := 0; i < sz["industry"]; i++ {
		sectorOfInd[i] = int64(i % numSectors)
		industry.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("industry-%02d", i)),
			relation.IntValue(sectorOfInd[i]),
		)
	}
	add(industry, fd.New("indname", "indid"), fd.New("sectorid", "indid"))

	company := relation.NewTable("company", relation.NewSchema(
		relation.Cat("companyid", relation.KindInt),
		relation.Cat("compname", relation.KindString),
		relation.Cat("indid", relation.KindInt),
		relation.Cat("ceoname", relation.KindString),
		relation.Cat("compcity", relation.KindString),
	))
	indOfCompany := make([]int64, sz["company"])
	// sectorBase drives the planted price correlation down the spine.
	sectorBase := make([]float64, numSectors)
	for s := range sectorBase {
		sectorBase[s] = 20 + 15*float64(s)
	}
	cities := []string{"NYC", "Boston", "Chicago", "Austin", "Seattle", "Denver"}
	for i := 0; i < sz["company"]; i++ {
		// Cycle industries first for full coverage (keeps the
		// company—industry join matched), then random.
		ind := int64(i % sz["industry"])
		if i >= sz["industry"] {
			ind = int64(rng.Intn(sz["industry"]))
		}
		indOfCompany[i] = ind
		company.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("Company-%03d", i)),
			relation.IntValue(ind),
			relation.StringValue(fmt.Sprintf("CEO-%03d", rng.Intn(1000))),
			relation.StringValue(cities[rng.Intn(len(cities))]),
		)
	}
	add(company, fd.New("compname", "companyid"), fd.New("indid", "companyid"))

	security := relation.NewTable("security", relation.NewSchema(
		relation.Cat("symbol", relation.KindString),
		relation.Cat("secname", relation.KindString),
		relation.Cat("companyid", relation.KindInt),
		relation.Cat("exid", relation.KindInt),
		relation.Cat("issue", relation.KindString),
	))
	companyOfSymbol := make([]int64, sz["security"])
	exchOfSymbol := make([]int64, sz["security"])
	symbols := make([]string, sz["security"])
	for i := 0; i < sz["security"]; i++ {
		comp := int64(i % sz["company"]) // every company lists a security
		if i >= sz["company"] {
			comp = int64(rng.Intn(sz["company"]))
		}
		companyOfSymbol[i] = comp
		exchOfSymbol[i] = int64(rng.Intn(numExchanges))
		symbols[i] = fmt.Sprintf("SYM%04d", i)
		security.AppendValues(
			relation.StringValue(symbols[i]),
			relation.StringValue(fmt.Sprintf("security %04d", i)),
			relation.IntValue(comp),
			relation.IntValue(exchOfSymbol[i]),
			relation.StringValue([]string{"COMMON", "PREF_A", "PREF_B"}[rng.Intn(3)]),
		)
	}
	add(security, fd.New("companyid", "symbol"), fd.New("exid", "symbol"))

	// sectorOfSymbol resolves the planted signal for daily_market and the
	// watch-list bias.
	sectorOfSymbol := func(si int) int64 {
		return sectorOfInd[indOfCompany[companyOfSymbol[si]]]
	}

	dailyMarket := relation.NewTable("daily_market", relation.NewSchema(
		relation.Cat("dmdate", relation.KindString),
		relation.Cat("symbol", relation.KindString),
		relation.Num("dmclose", relation.KindFloat),
		relation.Num("dmhigh", relation.KindFloat),
		relation.Num("dmlow", relation.KindFloat),
		relation.Num("dmvol", relation.KindInt),
	))
	for i := 0; i < sz["daily_market"]; i++ {
		si := rng.Intn(sz["security"])
		base := sectorBase[sectorOfSymbol(si)] + 3*float64(companyOfSymbol[si]%7)
		close := base + rng.Float64()*8
		dailyMarket.AppendValues(
			relation.StringValue(fmt.Sprintf("2006-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))),
			relation.StringValue(symbols[si]),
			relation.FloatValue(close),
			relation.FloatValue(close+rng.Float64()*2),
			relation.FloatValue(close-rng.Float64()*2),
			relation.IntValue(int64(rng.Intn(1000000))),
		)
	}
	add(dailyMarket)

	lastTrade := relation.NewTable("last_trade", relation.NewSchema(
		relation.Cat("symbol", relation.KindString),
		relation.Num("ltprice", relation.KindFloat),
		relation.Num("ltvol", relation.KindInt),
		relation.Cat("ltdate", relation.KindString),
	))
	for i := 0; i < sz["last_trade"]; i++ {
		si := i % sz["security"]
		lastTrade.AppendValues(
			relation.StringValue(symbols[si]),
			relation.FloatValue(sectorBase[sectorOfSymbol(si)]+rng.Float64()*10),
			relation.IntValue(int64(rng.Intn(500000))),
			relation.StringValue("2006-12-29"),
		)
	}
	add(lastTrade, fd.New("ltprice", "symbol"))

	financial := relation.NewTable("financial", relation.NewSchema(
		relation.Cat("companyid", relation.KindInt),
		relation.Cat("fyear", relation.KindInt),
		relation.Num("frevenue", relation.KindFloat),
		relation.Num("fnetincome", relation.KindFloat),
	))
	for i := 0; i < sz["financial"]; i++ {
		comp := int64(rng.Intn(sz["company"]))
		rev := 1e6 * (1 + float64(sectorOfInd[indOfCompany[comp]])) * (1 + rng.Float64())
		financial.AppendValues(
			relation.IntValue(comp),
			relation.IntValue(int64(2000+i%7)),
			relation.FloatValue(rev),
			relation.FloatValue(rev*(0.05+0.1*rng.Float64())),
		)
	}
	add(financial, fd.New("frevenue", "companyid", "fyear"))

	newsItem := relation.NewTable("news_item", relation.NewSchema(
		relation.Cat("newsid", relation.KindInt),
		relation.Cat("headline", relation.KindString),
		relation.Cat("newsdate", relation.KindString),
		relation.Cat("newsauthor", relation.KindString),
	))
	for i := 0; i < sz["news_item"]; i++ {
		newsItem.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("headline %04d", i)),
			relation.StringValue(fmt.Sprintf("2006-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))),
			relation.StringValue(fmt.Sprintf("author-%02d", rng.Intn(40))),
		)
	}
	add(newsItem, fd.New("headline", "newsid"))

	// Three attributes everywhere: sector (3 attrs) stays the narrowest
	// table, matching Table 5 of the paper.
	newsXref := relation.NewTable("news_xref", relation.NewSchema(
		relation.Cat("newsid", relation.KindInt),
		relation.Cat("companyid", relation.KindInt),
		relation.Cat("nxsource", relation.KindString),
	))
	for i := 0; i < sz["news_xref"]; i++ {
		newsXref.AppendValues(
			relation.IntValue(int64(rng.Intn(sz["news_item"]))),
			relation.IntValue(int64(rng.Intn(sz["company"]))),
			relation.StringValue([]string{"wire", "filing", "blog"}[rng.Intn(3)]),
		)
	}
	add(newsXref)

	// ---- Customer-side spine ----------------------------------------------

	address := relation.NewTable("address", relation.NewSchema(
		relation.Cat("addrid", relation.KindInt),
		relation.Cat("street", relation.KindString),
		relation.Cat("city", relation.KindString),
		relation.Cat("statecode", relation.KindString),
		relation.Cat("zipcode", relation.KindInt),
	))
	states := []string{"NJ", "NY", "CA", "TX", "MA", "WA"}
	for i := 0; i < sz["address"]; i++ {
		zip := int64(rng.Intn(sz["zip_code"]))
		address.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("%d Main St", 1+rng.Intn(999))),
			relation.StringValue(cities[rng.Intn(len(cities))]),
			relation.StringValue(states[int(zip)%len(states)]),
			relation.IntValue(zip),
		)
	}
	add(address, fd.New("zipcode", "addrid"), fd.New("statecode", "zipcode"))

	zipCode := relation.NewTable("zip_code", relation.NewSchema(
		relation.Cat("zipcode", relation.KindInt),
		relation.Cat("ziptown", relation.KindString),
		relation.Cat("zipdiv", relation.KindString),
	))
	for i := 0; i < sz["zip_code"]; i++ {
		zipCode.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("town-%03d", i)),
			relation.StringValue(states[i%len(states)]),
		)
	}
	add(zipCode, fd.New("ziptown", "zipcode"))

	statusType := relation.NewTable("status_type", relation.NewSchema(
		relation.Cat("statusid", relation.KindInt),
		relation.Cat("statusname", relation.KindString),
		relation.Cat("statusdesc", relation.KindString),
	))
	statusNames := []string{"ACTIVE", "COMPLETED", "PENDING", "CANCELED", "SUBMITTED"}
	for i := 0; i < numStatuses; i++ {
		statusType.AppendValues(relation.IntValue(int64(i)), relation.StringValue(statusNames[i]),
			relation.StringValue("trade is "+statusNames[i]))
	}
	add(statusType, fd.New("statusname", "statusid"))

	taxrate := relation.NewTable("taxrate", relation.NewSchema(
		relation.Cat("taxid", relation.KindInt),
		relation.Cat("taxname", relation.KindString),
		relation.Num("traterate", relation.KindFloat),
	))
	for i := 0; i < sz["taxrate"]; i++ {
		taxrate.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("tax-%02d", i)),
			relation.FloatValue(0.01*float64(1+i)),
		)
	}
	add(taxrate, fd.New("traterate", "taxid"))

	// customer — 28 attributes, the paper's maximum.
	custCols := []relation.Column{
		relation.Cat("custid", relation.KindInt),
		relation.Cat("clname", relation.KindString),
		relation.Cat("cfname", relation.KindString),
		relation.Cat("ctier", relation.KindInt),
		relation.Cat("cdob", relation.KindString),
		relation.Cat("addrid", relation.KindInt),
		relation.Cat("statusid", relation.KindInt),
		relation.Cat("cgender", relation.KindString),
		relation.Cat("cphone", relation.KindString),
		relation.Cat("cemail", relation.KindString),
		relation.Num("cnetworth", relation.KindFloat),
		relation.Num("cincome", relation.KindFloat),
		relation.Num("cassets", relation.KindFloat),
		relation.Cat("crisk", relation.KindString),
		relation.Cat("cexp", relation.KindInt),
		relation.Cat("cbranch", relation.KindInt),
		relation.Cat("cregion", relation.KindString),
		relation.Cat("cjoined", relation.KindString),
		relation.Cat("cactive", relation.KindString),
		relation.Cat("cmstatus", relation.KindString),
		relation.Cat("cnatid", relation.KindInt),
		relation.Cat("carea", relation.KindString),
		relation.Cat("clocal", relation.KindString),
		relation.Cat("cext", relation.KindString),
		relation.Cat("ccountry", relation.KindString),
		relation.Cat("cemail2", relation.KindString),
		relation.Cat("cadcampaign", relation.KindInt),
		relation.Cat("clang", relation.KindString),
	}
	customer := relation.NewTable("customer", relation.NewSchema(custCols...))
	tierOfCust := make([]int64, sz["customer"])
	prefSector := make([]int64, sz["customer"])
	for i := 0; i < sz["customer"]; i++ {
		tier := int64(1 + rng.Intn(3))
		tierOfCust[i] = tier
		// Customers prefer a sector (used to bias watch lists): higher
		// tiers skew toward higher sector ids — the planted Q3 signal.
		prefSector[i] = (tier*4 + int64(rng.Intn(4))) % numSectors
		row := []relation.Value{
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("lname-%03d", rng.Intn(400))),
			relation.StringValue(fmt.Sprintf("fname-%03d", rng.Intn(200))),
			relation.IntValue(tier),
			relation.StringValue(fmt.Sprintf("19%02d-%02d-%02d", 30+rng.Intn(60), 1+rng.Intn(12), 1+rng.Intn(28))),
			relation.IntValue(int64(rng.Intn(sz["address"]))),
			relation.IntValue(int64(rng.Intn(numStatuses))),
			relation.StringValue([]string{"M", "F"}[rng.Intn(2)]),
			relation.StringValue(fmt.Sprintf("%03d-%04d", rng.Intn(900), rng.Intn(9999))),
			relation.StringValue(fmt.Sprintf("c%d@mail.com", i)),
			relation.FloatValue(float64(tier) * 1e5 * (1 + rng.Float64())),
			relation.FloatValue(float64(tier) * 4e4 * (1 + rng.Float64())),
			relation.FloatValue(float64(tier) * 2e5 * (1 + rng.Float64())),
			relation.StringValue([]string{"LOW", "MED", "HIGH"}[tier-1]),
			relation.IntValue(int64(rng.Intn(30))),
			relation.IntValue(int64(rng.Intn(20))),
			relation.StringValue(states[rng.Intn(len(states))]),
			relation.StringValue(fmt.Sprintf("20%02d-01-01", rng.Intn(7))),
			relation.StringValue([]string{"Y", "N"}[rng.Intn(2)]),
			relation.StringValue([]string{"S", "M", "D"}[rng.Intn(3)]),
			relation.IntValue(int64(rng.Intn(1000000))),
			relation.StringValue(fmt.Sprintf("%03d", rng.Intn(900))),
			relation.StringValue(fmt.Sprintf("%07d", rng.Intn(9999999))),
			relation.StringValue(fmt.Sprintf("%03d", rng.Intn(999))),
			relation.StringValue("USA"),
			relation.StringValue(fmt.Sprintf("c%d@alt.com", i)),
			relation.IntValue(int64(rng.Intn(8))),
			relation.StringValue([]string{"EN", "ES", "FR"}[rng.Intn(3)]),
		}
		customer.Append(row)
	}
	add(customer,
		fd.New("ctier", "custid"), fd.New("addrid", "custid"), fd.New("crisk", "ctier"))

	// catier denormalizes the owner's tier: custid → catier is a
	// duplicate-LHS FD (customers own several accounts) that dirt can
	// degrade, like the paper's Zipcode → State example.
	customerAccount := relation.NewTable("customer_account", relation.NewSchema(
		relation.Cat("acctid", relation.KindInt),
		relation.Cat("custid", relation.KindInt),
		relation.Cat("brokerid", relation.KindInt),
		relation.Cat("catier", relation.KindInt),
		relation.Num("cabalance", relation.KindFloat),
		relation.Cat("caname", relation.KindString),
		relation.Cat("cataxst", relation.KindInt),
	))
	custOfAcct := make([]int64, sz["customer_account"])
	for i := 0; i < sz["customer_account"]; i++ {
		cust := int64(i % sz["customer"]) // every customer has an account
		if i >= sz["customer"] {
			cust = int64(rng.Intn(sz["customer"]))
		}
		custOfAcct[i] = cust
		// Balance tracks the customer tier — the Q3 source signal.
		bal := float64(tierOfCust[cust])*5e4 + rng.Float64()*2e4
		customerAccount.AppendValues(
			relation.IntValue(int64(i)),
			relation.IntValue(cust),
			relation.IntValue(int64(rng.Intn(sz["broker"]))),
			relation.IntValue(tierOfCust[cust]),
			relation.FloatValue(bal),
			relation.StringValue(fmt.Sprintf("acct-%04d", i)),
			relation.IntValue(int64(rng.Intn(3))),
		)
	}
	add(customerAccount, fd.New("custid", "acctid"), fd.New("catier", "custid"))

	customerTaxrate := relation.NewTable("customer_taxrate", relation.NewSchema(
		relation.Cat("taxid", relation.KindInt),
		relation.Cat("custid", relation.KindInt),
		relation.Cat("ctyear", relation.KindInt),
	))
	for i := 0; i < sz["customer_taxrate"]; i++ {
		customerTaxrate.AppendValues(
			relation.IntValue(int64(rng.Intn(sz["taxrate"]))),
			relation.IntValue(int64(i%sz["customer"])),
			relation.IntValue(int64(2000+rng.Intn(7))),
		)
	}
	add(customerTaxrate)

	broker := relation.NewTable("broker", relation.NewSchema(
		relation.Cat("brokerid", relation.KindInt),
		relation.Cat("bname", relation.KindString),
		relation.Num("bnumtrades", relation.KindInt),
		relation.Num("bcomm", relation.KindFloat),
	))
	for i := 0; i < sz["broker"]; i++ {
		broker.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(fmt.Sprintf("Broker-%03d", i)),
			relation.IntValue(int64(rng.Intn(10000))),
			relation.FloatValue(rng.Float64()*1e5),
		)
	}
	add(broker, fd.New("bname", "brokerid"))

	charge := relation.NewTable("charge", relation.NewSchema(
		relation.Cat("tradetypeid", relation.KindInt),
		relation.Cat("cttier", relation.KindInt),
		relation.Num("chargeamt", relation.KindFloat),
	))
	for i := 0; i < sz["charge"]; i++ {
		charge.AppendValues(
			relation.IntValue(int64(i%numTradeTypes)),
			relation.IntValue(int64(1+i/numTradeTypes)),
			relation.FloatValue(float64(1+i)),
		)
	}
	add(charge, fd.New("chargeamt", "cttier", "tradetypeid"))

	commissionRate := relation.NewTable("commission_rate", relation.NewSchema(
		relation.Cat("tradetypeid", relation.KindInt),
		relation.Cat("exid", relation.KindInt),
		relation.Num("crrate", relation.KindFloat),
		relation.Num("crfromqty", relation.KindInt),
	))
	for i := 0; i < sz["commission_rate"]; i++ {
		commissionRate.AppendValues(
			relation.IntValue(int64(i%numTradeTypes)),
			relation.IntValue(int64(i%numExchanges)),
			relation.FloatValue(0.001*float64(1+i)),
			relation.IntValue(int64(100*i)),
		)
	}
	add(commissionRate)

	// ---- Trading tables -----------------------------------------------------

	// texch denormalizes the traded security's exchange: symbol → texch is
	// a duplicate-LHS FD (symbols recur across trades).
	trade := relation.NewTable("trade", relation.NewSchema(
		relation.Cat("tradeid", relation.KindInt),
		relation.Cat("acctid", relation.KindInt),
		relation.Cat("symbol", relation.KindString),
		relation.Cat("texch", relation.KindInt),
		relation.Num("tqty", relation.KindInt),
		relation.Num("tprice", relation.KindFloat),
		relation.Cat("tdate", relation.KindString),
		relation.Cat("statusid", relation.KindInt),
		relation.Cat("tradetypeid", relation.KindInt),
	))
	acctOfTrade := make([]int64, sz["trade"])
	for i := 0; i < sz["trade"]; i++ {
		acct := int64(rng.Intn(sz["customer_account"]))
		acctOfTrade[i] = acct
		si := rng.Intn(sz["security"])
		trade.AppendValues(
			relation.IntValue(int64(i)),
			relation.IntValue(acct),
			relation.StringValue(symbols[si]),
			relation.IntValue(exchOfSymbol[si]),
			relation.IntValue(int64(10*(1+rng.Intn(100)))),
			relation.FloatValue(sectorBase[sectorOfSymbol(si)]+rng.Float64()*10),
			relation.StringValue(fmt.Sprintf("2006-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))),
			relation.IntValue(int64(rng.Intn(numStatuses))),
			relation.IntValue(int64(rng.Intn(numTradeTypes))),
		)
	}
	add(trade, fd.New("acctid", "tradeid"), fd.New("texch", "symbol"))

	tradeHistory := relation.NewTable("trade_history", relation.NewSchema(
		relation.Cat("tradeid", relation.KindInt),
		relation.Cat("thdate", relation.KindString),
		relation.Cat("thstatusid", relation.KindInt),
	))
	for i := 0; i < sz["trade_history"]; i++ {
		tradeHistory.AppendValues(
			relation.IntValue(int64(i%sz["trade"])),
			relation.StringValue(fmt.Sprintf("2006-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))),
			relation.IntValue(int64(rng.Intn(numStatuses))),
		)
	}
	add(tradeHistory)

	tradeType := relation.NewTable("trade_type", relation.NewSchema(
		relation.Cat("tradetypeid", relation.KindInt),
		relation.Cat("ttname", relation.KindString),
		relation.Cat("ttmarket", relation.KindString),
	))
	ttNames := []string{"MARKET-BUY", "MARKET-SELL", "LIMIT-BUY", "LIMIT-SELL", "STOP-LOSS"}
	for i := 0; i < numTradeTypes; i++ {
		tradeType.AppendValues(
			relation.IntValue(int64(i)),
			relation.StringValue(ttNames[i]),
			relation.StringValue([]string{"Y", "N"}[i%2]),
		)
	}
	add(tradeType, fd.New("ttname", "tradetypeid"))

	// hsector denormalizes the held security's sector: symbol → hsector is
	// a duplicate-LHS FD.
	holding := relation.NewTable("holding", relation.NewSchema(
		relation.Cat("tradeid", relation.KindInt),
		relation.Cat("acctid", relation.KindInt),
		relation.Cat("symbol", relation.KindString),
		relation.Cat("hsector", relation.KindInt),
		relation.Num("hqty", relation.KindInt),
		relation.Num("hprice", relation.KindFloat),
	))
	for i := 0; i < sz["holding"]; i++ {
		ti := rng.Intn(sz["trade"])
		si := rng.Intn(sz["security"])
		holding.AppendValues(
			relation.IntValue(int64(ti)),
			relation.IntValue(acctOfTrade[ti]),
			relation.StringValue(symbols[si]),
			relation.IntValue(sectorOfSymbol(si)),
			relation.IntValue(int64(10*(1+rng.Intn(50)))),
			relation.FloatValue(sectorBase[sectorOfSymbol(si)]+rng.Float64()*10),
		)
	}
	add(holding, fd.New("acctid", "tradeid"), fd.New("hsector", "symbol"))

	holdingHistory := relation.NewTable("holding_history", relation.NewSchema(
		relation.Cat("tradeid", relation.KindInt),
		relation.Num("hhbefore", relation.KindInt),
		relation.Num("hhafter", relation.KindInt),
	))
	for i := 0; i < sz["holding_history"]; i++ {
		before := rng.Intn(1000)
		holdingHistory.AppendValues(
			relation.IntValue(int64(rng.Intn(sz["trade"]))),
			relation.IntValue(int64(before)),
			relation.IntValue(int64(before+10*(1+rng.Intn(20)))),
		)
	}
	add(holdingHistory)

	holdingSummary := relation.NewTable("holding_summary", relation.NewSchema(
		relation.Cat("acctid", relation.KindInt),
		relation.Cat("symbol", relation.KindString),
		relation.Num("hsqty", relation.KindInt),
	))
	for i := 0; i < sz["holding_summary"]; i++ {
		holdingSummary.AppendValues(
			relation.IntValue(int64(rng.Intn(sz["customer_account"]))),
			relation.StringValue(symbols[rng.Intn(sz["security"])]),
			relation.IntValue(int64(10*(1+rng.Intn(100)))),
		)
	}
	add(holdingSummary)

	settlement := relation.NewTable("settlement", relation.NewSchema(
		relation.Cat("tradeid", relation.KindInt),
		relation.Cat("scashtype", relation.KindString),
		relation.Num("samt", relation.KindFloat),
	))
	for i := 0; i < sz["settlement"]; i++ {
		settlement.AppendValues(
			relation.IntValue(int64(i%sz["trade"])),
			relation.StringValue([]string{"CASH", "MARGIN"}[rng.Intn(2)]),
			relation.FloatValue(rng.Float64()*1e5),
		)
	}
	add(settlement, fd.New("scashtype", "tradeid"))

	// ---- Watch lists (the Q3 bridge) ---------------------------------------

	watchList := relation.NewTable("watch_list", relation.NewSchema(
		relation.Cat("wlid", relation.KindInt),
		relation.Cat("custid", relation.KindInt),
		relation.Cat("wlname", relation.KindString),
	))
	custOfWl := make([]int64, sz["watch_list"])
	for i := 0; i < sz["watch_list"]; i++ {
		cust := int64(i % sz["customer"])
		custOfWl[i] = cust
		watchList.AppendValues(relation.IntValue(int64(i)), relation.IntValue(cust),
			relation.StringValue(fmt.Sprintf("list-%03d", i)))
	}
	add(watchList, fd.New("custid", "wlid"))

	// Symbols grouped by sector for biased watch-item selection.
	bySector := make([][]int, numSectors)
	for si := 0; si < sz["security"]; si++ {
		s := sectorOfSymbol(si)
		bySector[s] = append(bySector[s], si)
	}
	watchItem := relation.NewTable("watch_item", relation.NewSchema(
		relation.Cat("wlid", relation.KindInt),
		relation.Cat("symbol", relation.KindString),
		relation.Cat("wiactive", relation.KindString),
	))
	for i := 0; i < sz["watch_item"]; i++ {
		wl := rng.Intn(sz["watch_list"])
		var si int
		pref := prefSector[custOfWl[wl]]
		if rng.Float64() < 0.7 && len(bySector[pref]) > 0 {
			si = bySector[pref][rng.Intn(len(bySector[pref]))]
		} else {
			si = rng.Intn(sz["security"])
		}
		watchItem.AppendValues(relation.IntValue(int64(wl)), relation.StringValue(symbols[si]),
			relation.StringValue([]string{"Y", "N"}[rng.Intn(2)]))
	}
	add(watchItem)

	if cfg.DirtyFraction > 0 {
		tm := map[string]*relation.Table{}
		for _, t := range d.Tables {
			tm[t.Name] = t
		}
		dirty.InjectTables(tm, d.FDs, DirtyTables, cfg.DirtyFraction, rng)
	}
	return d
}
