package analysis_test

import (
	"testing"

	"github.com/dance-db/dance/internal/analysis"
	"github.com/dance-db/dance/internal/analysis/analysistest"
)

// Each fixture seeds a reproduction of the historical bug class its
// analyzer fossilizes (see DESIGN.md "Invariants & static analysis"); the
// sibling negative fixtures prove the analyzers stay quiet off their turf.

func TestDetfloat(t *testing.T) {
	td := analysistest.TestData()
	analysistest.Run(t, td, analysis.Detfloat, "detfloat/infotheory")
	analysistest.Run(t, td, analysis.Detfloat, "detfloat/web")
}

func TestCtxflow(t *testing.T) {
	td := analysistest.TestData()
	analysistest.Run(t, td, analysis.Ctxflow, "ctxflow/internal/svc")
	analysistest.Run(t, td, analysis.Ctxflow, "ctxflow/internal/edge")
}

func TestLockguard(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Lockguard, "lockguard/pricecache")
}

func TestCachekey(t *testing.T) {
	td := analysistest.TestData()
	analysistest.Run(t, td, analysis.Cachekey, "cachekey/search")
	analysistest.Run(t, td, analysis.Cachekey, "cachekey/web")
	analysistest.Run(t, td, analysis.Cachekey, "cachekey/flow/offline")
	analysistest.Run(t, td, analysis.Cachekey, "cachekey/pricing")
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Lockorder, "lockorder/ab")
}

func TestWirecompat(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Wirecompat, "wirecompat/dance")
}

func TestErrsentinel(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Errsentinel, "errsentinel/client")
}
