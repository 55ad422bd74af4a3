package dance

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// fuzzBytes decodes acquire requests from fuzzer bytes; past the end it
// reads zeros.
type fuzzBytes []byte

func (d *fuzzBytes) byte() byte {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return b
}

// int is small and signed, so fuzzed requests often share their integers.
func (d *fuzzBytes) int() int { return int(int8(d.byte())) }

// float favours the values a float's text rendering could merge: zeros of
// either sign, NaNs with different payloads and infinities.
func (d *fuzzBytes) float() float64 {
	switch sel := d.byte(); sel % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Float64frombits(0x7ff8000000000000 | uint64(d.byte())<<8 | 1)
	case 4:
		return math.Inf(int(sel>>3)%2*2 - 1)
	case 5:
		return float64(d.int()) / 4
	default:
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(d.byte())
		}
		return math.Float64frombits(bits)
	}
}

func (d *fuzzBytes) string() string {
	n := int(d.byte() % 8)
	b := make([]byte, n)
	for i := range b {
		b[i] = d.byte()
	}
	return string(b)
}

// strings returns nil, an empty slice or up to three strings.
func (d *fuzzBytes) strings() []string {
	n := int(d.byte() % 5)
	if n == 0 {
		return nil
	}
	out := make([]string, n-1)
	for i := range out {
		out[i] = d.string()
	}
	return out
}

// params returns nil, an empty map or up to three entries.
func (d *fuzzBytes) params() map[string]float64 {
	n := int(d.byte() % 5)
	if n == 0 {
		return nil
	}
	out := make(map[string]float64, n-1)
	for i := 0; i < n-1; i++ {
		out[d.string()] = d.float()
	}
	return out
}

// set overwrites field f of r with a fresh value; every field of
// AcquireRequest has a case.
func (d *fuzzBytes) set(r *AcquireRequest, f int) {
	switch f {
	case 0:
		r.SourceAttrs = d.strings()
	case 1:
		r.TargetAttrs = d.strings()
	case 2:
		r.Budget = d.float()
	case 3:
		r.Alpha = d.float()
	case 4:
		r.Beta = d.float()
	case 5:
		r.Iterations = d.int()
	case 6:
		r.Eta = d.int()
	case 7:
		r.ResampleRate = d.float()
	case 8:
		r.Landmarks = d.int()
	case 9:
		r.MaxCovers = d.int()
	case 10:
		r.MaxIGraphs = d.int()
	case 11:
		r.Seed = int64(d.int())
	case 12:
		r.Workers = d.int()
	case 13:
		r.Greedy = d.byte()%2 == 1
	case 14:
		r.Policy = d.string()
	case 15:
		r.PolicyParams = d.params()
	case 16:
		r.TimeoutMS = int64(d.int())
	}
}

// sameSearch reports whether a and b ask for the same search: every field
// but Workers and TimeoutMS is equal, any two NaNs are equal, and nil and
// empty slices or maps are equal.
func sameSearch(a, b AcquireRequest) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		switch va.Type().Field(i).Name {
		case "Workers", "TimeoutMS":
			continue
		}
		if !sameValue(va.Field(i), vb.Field(i)) {
			return false
		}
	}
	return true
}

func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !sameValue(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// FuzzAcquireFingerprint checks that coalescing never merges different
// searches: two requests that differ outside Workers and TimeoutMS never
// share a fingerprint. The input names one to three fields to edit, then
// decodes a request and the edited fields' fresh values for a copy of it,
// so every pair compared is a near miss.
func FuzzAcquireFingerprint(f *testing.F) {
	if n := reflect.TypeOf(AcquireRequest{}).NumField(); n != 17 {
		f.Fatalf("AcquireRequest has %d fields; fuzzBytes.set fills 17", n)
	}
	// Seeds, laid out as the target reads them: the edit count less one,
	// the edited fields, the 17 fields of the request in declaration order
	// (a slice or map is its length plus one, then its elements; 0 is nil),
	// then the edited fields' new values.
	xy := "\x02\x01x\x02\x01y" // source [x], target [y]
	zeros := func(n int) string { return strings.Repeat("\x00", n) }
	for _, seed := range []string{
		"",
		// An attribute moved from source to target.
		"\x01\x00\x01" + "\x02\x01a\x02\x01b" + zeros(15) + "\x01" + "\x03\x01a\x01b",
		// Two targets against one holding a NUL.
		"\x00\x01" + "\x02\x01a\x03\x01b\x01c" + zeros(15) + "\x02\x03b\x00c",
		// A zero budget against a negative zero.
		"\x00\x02" + xy + zeros(15) + "\x01",
		// Two NaN budgets with different payloads.
		"\x00\x02" + xy + "\x03\x07" + zeros(14) + "\x03\x09",
		// Nil policy parameters against empty ones.
		"\x00\x0f" + xy + zeros(15) + "\x01",
		// A policy name and a parameter key that mimic the key encoding.
		"\x01\x0e\x0f" + xy + zeros(12) + "\x03d1:" + "\x02\x022:\x05\x01" + "\x00" + "\x01d" + "\x02\x041:2:\x05\x01",
		// Only Workers and TimeoutMS differ: the same search.
		"\x01\x0c\x10" + xy + zeros(15) + "\x08\x7f",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzBytes(data)
		edits := make([]int, 1+int(d.byte()%3))
		for i := range edits {
			edits[i] = int(d.byte() % 17)
		}
		var a AcquireRequest
		for field := 0; field < 17; field++ {
			d.set(&a, field)
		}
		b := a
		for _, field := range edits {
			d.set(&b, field)
		}
		if acquireFingerprint(a) == acquireFingerprint(b) && !sameSearch(a, b) {
			t.Fatalf("different searches share a fingerprint:\n%#v\n%#v", a, b)
		}
	})
}
