// Command marketd serves an online data marketplace over JSON/HTTP,
// populated either with a generated benchmark dataset or with CSV files
// produced by datagen.
//
// Usage:
//
//	marketd -addr :8080 -dataset tpch -scale 10
//	marketd -addr :8080 -dir ./data/tpch
//
// Endpoints: GET /catalog, GET /fds?name=…, POST /quote, POST /sample,
// POST /query (see internal/marketplace).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/dance-db/dance/internal/cli"
	"github.com/dance-db/dance/internal/fd"
	"github.com/dance-db/dance/internal/marketplace"
	"github.com/dance-db/dance/internal/pricing"
	"github.com/dance-db/dance/internal/relation"
	"github.com/dance-db/dance/internal/tpce"
	"github.com/dance-db/dance/internal/tpch"
	"github.com/dance-db/dance/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataset = flag.String("dataset", "tpch", "tpch or tpce (ignored with -dir)")
		scale   = flag.Int("scale", 5, "scale factor")
		seed    = flag.Int64("seed", 42, "PRNG seed")
		dir     = flag.String("dir", "", "load CSV tables from this directory instead of generating")
	)
	flag.Parse()

	market := marketplace.NewInMemory(priceModelFor(*dir))
	switch {
	case *dir != "":
		if err := loadDir(market, *dir); err != nil {
			log.Fatal(err)
		}
	case *dataset == "tpch":
		d := tpch.Generate(tpch.Config{Scale: *scale, Seed: *seed, DirtyFraction: 0.3})
		for _, t := range d.Tables {
			market.Register(t, d.FDs[t.Name])
		}
	case *dataset == "tpce":
		d := tpce.Generate(tpce.Config{Scale: *scale, Seed: *seed, DirtyFraction: 0.2})
		for _, t := range d.Tables {
			market.Register(t, d.FDs[t.Name])
		}
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}

	ctx, stop := cli.RootContext()
	defer stop()
	infos, err := market.Catalog(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range infos {
		fmt.Printf("listing %s: %d rows, %d attrs\n", info.Name, info.Rows, len(info.Attrs))
	}
	fmt.Printf("marketplace listening on %s\n", *addr)
	if err := serve(ctx, *addr, marketplace.Handler(market)); err != nil {
		log.Fatal(err)
	}
}

// serve runs an http.Server with sane timeouts (a bare ListenAndServe
// leaks slow-loris connections) and drains in-flight purchases when ctx is
// cancelled (SIGINT/SIGTERM) before exiting.
func serve(ctx context.Context, addr string, h http.Handler) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute, // full-table projections can be large
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("shutting down: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// priceModelFor picks the pricing model for a served directory. A workload
// directory written by `datagen -workload` records the spec's price family
// in workload.json; honoring it keeps the marketplace's quotes consistent
// with the ground-truth plan cost recorded next to the data (a tiered or
// flat workload served under the default entropy model would make the
// recorded optimum unreachable). Everything else — generated datasets and
// plain CSV directories — uses the default entropy model (nil).
func priceModelFor(dir string) pricing.Model {
	if dir == "" {
		return nil
	}
	spec, _, _, err := workload.ReadTruth(filepath.Join(dir, "workload.json"))
	if err != nil {
		return nil // not a workload directory
	}
	fmt.Printf("pricing listings with the recorded %q model\n", spec.PriceFamily)
	return workload.PriceModel(spec.PriceFamily)
}

// loadDir registers every .csv in dir; an optional *.fds file declares FDs
// as "table: A,B -> C" lines (fd.Format syntax).
func loadDir(m *marketplace.InMemory, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	fds := map[string][]fd.FD{}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".fds") {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return err
			}
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "" {
					continue
				}
				parts := strings.SplitN(line, ":", 2)
				if len(parts) != 2 {
					return fmt.Errorf("malformed FD line %q", line)
				}
				// Parse drops the FD's unescaped edge whitespace (a CR
				// included) and keeps an escaped one.
				f, err := fd.Parse(parts[1])
				if err != nil {
					return err
				}
				name := strings.TrimSpace(parts[0])
				fds[name] = append(fds[name], f)
			}
		}
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".csv")
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		t, err := relation.ReadCSV(name, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", e.Name(), err)
		}
		m.Register(t, fds[name])
	}
	return nil
}
