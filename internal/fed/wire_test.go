package fed

// Wire-codec tests: round trips are bit-identical, every damaged stream
// is an error of the right class, and the fuzz targets hold the
// hostile-input contract — an error, never a panic, a hang, or an
// allocation sized by an unchecked length field. Seed corpora live
// under testdata/fuzz/<target>/; `go test` replays them, and
// `go test -fuzz FuzzDecodeSweepStream ./internal/fed/` explores.

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/sky"
	"repro/internal/zone"
)

// oddFloats exercises every float class the raw-bits encoding must
// carry unchanged.
var oddFloats = []float64{0, math.Copysign(0, -1), 1.0 / 3, -195.123456789,
	math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64}

func testHits() []fedHit {
	var hits []fedHit
	for i, f := range oddFloats {
		hits = append(hits, fedHit{p: int32(i) - 2, row: zone.ZoneRow{
			ObjID: math.MaxInt64 - int64(i), Ra: f, Dec: -f, Distance: f / 7,
			I: f + 1, Gr: f * 3, Ri: float64(i),
		}})
	}
	return hits
}

func sweepStream(hits []fedHit, count int64, err error) []byte {
	var b []byte
	for i := range hits {
		b = appendHit(b, hits[i].p, &hits[i].row)
	}
	return appendTrailer(b, count, err)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRow(a, b zone.ZoneRow) bool {
	return a.ObjID == b.ObjID && sameBits(a.Ra, b.Ra) && sameBits(a.Dec, b.Dec) &&
		sameBits(a.Distance, b.Distance) && sameBits(a.I, b.I) &&
		sameBits(a.Gr, b.Gr) && sameBits(a.Ri, b.Ri)
}

func TestFrameSizes(t *testing.T) {
	var zr zone.ZoneRow
	var g sky.Galaxy
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"hit", len(appendHit(nil, 0, &zr)), 61},
		{"row", len(appendRow(nil, &g)), 65},
		{"probe", len(appendProbe(nil, 0, zone.Probe{})), 29},
		{"trailer", len(appendTrailer(nil, 0, nil)), 14},
	} {
		if c.got != c.want {
			t.Errorf("%s frame is %d B, want %d", c.name, c.got, c.want)
		}
	}
}

func TestSweepStreamRoundTrip(t *testing.T) {
	want := testHits()
	got, err := decodeSweepStream(bytes.NewReader(sweepStream(want, int64(len(want)), nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].p != want[i].p || !sameRow(got[i].row, want[i].row) {
			t.Errorf("hit %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestExchangeStreamRoundTrip(t *testing.T) {
	var want []sky.Galaxy
	for i, f := range oddFloats {
		want = append(want, sky.Galaxy{ObjID: int64(i) - 3, Ra: f, Dec: -f,
			I: f + 2, Gr: f / 3, Ri: f * 5, SigmaGr: float64(i), SigmaRi: -f})
	}
	var b []byte
	for i := range want {
		b = appendRow(b, &want[i])
	}
	got, err := decodeExchangeStream(bytes.NewReader(appendTrailer(b, int64(len(want)), nil)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ObjID != w.ObjID || !sameBits(g.Ra, w.Ra) || !sameBits(g.Dec, w.Dec) ||
			!sameBits(g.I, w.I) || !sameBits(g.Gr, w.Gr) || !sameBits(g.Ri, w.Ri) ||
			!sameBits(g.SigmaGr, w.SigmaGr) || !sameBits(g.SigmaRi, w.SigmaRi) {
			t.Errorf("row %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestSweepRequestRoundTrip(t *testing.T) {
	var b []byte
	for i, f := range oddFloats {
		b = appendProbe(b, int32(i*7), zone.Probe{Ra: f, Dec: -f, R: f / 2})
	}
	probes, idx, err := decodeSweepRequest(bytes.NewReader(appendTrailer(b, int64(len(oddFloats)), nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != len(oddFloats) || len(idx) != len(oddFloats) {
		t.Fatalf("decoded %d probes / %d indices, want %d", len(probes), len(idx), len(oddFloats))
	}
	for i, f := range oddFloats {
		p := probes[i]
		if idx[i] != int32(i*7) || !sameBits(p.Ra, f) || !sameBits(p.Dec, -f) || !sameBits(p.R, f/2) {
			t.Errorf("probe %d: got %d %+v", i, idx[i], p)
		}
	}
}

// TestSweepStreamPrefixesTransient cuts a valid stream at every byte: a
// worker dying anywhere mid-response — between frames, inside a hit,
// inside the trailer — must read as a transient truncation.
func TestSweepStreamPrefixesTransient(t *testing.T) {
	hits := testHits()
	full := sweepStream(hits, int64(len(hits)), nil)
	for n := 0; n < len(full); n++ {
		_, err := decodeSweepStream(bytes.NewReader(full[:n]), nil)
		if err == nil || !faultinject.IsTransient(err) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want transient", n, len(full), err)
		}
	}
}

// TestSweepStreamCountMismatchTransient: a trailer that counts more or
// fewer hits than arrived means frames were lost or invented in flight.
func TestSweepStreamCountMismatchTransient(t *testing.T) {
	hits := testHits()
	for _, count := range []int64{0, int64(len(hits)) - 1, int64(len(hits)) + 1, -1} {
		_, err := decodeSweepStream(bytes.NewReader(sweepStream(hits, count, nil)), nil)
		if err == nil || !faultinject.IsTransient(err) {
			t.Errorf("trailer count %d over %d hits: err = %v, want transient", count, len(hits), err)
		}
	}
}

// TestStreamErrorTrailer pins the worker-verdict path: an error trailer
// fails the stream with the worker's message and classification.
func TestStreamErrorTrailer(t *testing.T) {
	hits := testHits()[:2]
	_, err := decodeSweepStream(bytes.NewReader(sweepStream(hits, 2, errors.New("disk on fire"))), nil)
	if err == nil || faultinject.IsTransient(err) || !strings.Contains(err.Error(), "disk on fire") {
		t.Errorf("permanent error trailer: err = %v", err)
	}
	_, err = decodeSweepStream(bytes.NewReader(sweepStream(hits, 2, transientf("stripe busy"))), nil)
	if err == nil || !faultinject.IsTransient(err) {
		t.Errorf("transient error trailer: err = %v, want transient", err)
	}
	// Encoders truncate long messages to what decoders accept.
	_, err = decodeSweepStream(bytes.NewReader(sweepStream(nil, 0, errors.New(strings.Repeat("x", 3*maxErrLen)))), nil)
	if err == nil || !strings.Contains(err.Error(), strings.Repeat("x", maxErrLen)) {
		t.Errorf("long error trailer: err = %v", err)
	}
}

// TestStreamCorruptFrames: damaged headers are rejected before anything
// is allocated by them.
func TestStreamCorruptFrames(t *testing.T) {
	trailer := appendTrailer(nil, 0, nil)
	hugeErr := bytes.Clone(trailer)
	le.PutUint32(hugeErr[10:], math.MaxUint32)
	badFlag := bytes.Clone(trailer)
	badFlag[9] = 2
	flagNoErr := bytes.Clone(trailer)
	flagNoErr[9] = 1
	var zr zone.ZoneRow
	for name, stream := range map[string][]byte{
		"unknown tag":             append([]byte{'X'}, trailer...),
		"row frame in hit stream": appendTrailer(appendRow(nil, &sky.Galaxy{}), 1, nil),
		"huge error length":       hugeErr,
		"bad transient flag":      badFlag,
		"transient without error": flagNoErr,
		"json line":               []byte(`{"done":true,"hits":0}` + "\n"),
	} {
		_, err := decodeSweepStream(bytes.NewReader(stream), nil)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A hit frame is not a probe frame either.
	if _, _, err := decodeSweepRequest(bytes.NewReader(appendTrailer(appendHit(nil, 0, &zr), 1, nil))); err == nil {
		t.Error("hit frame accepted as a sweep request")
	}
}

// fuzzSeeds are the encoder-built seeds each fuzz target starts from,
// alongside the committed corpus files.
func fuzzSeeds(f *testing.F, records [][]byte) {
	var valid []byte
	for _, r := range records {
		valid = append(valid, r...)
	}
	f.Add(appendTrailer(bytes.Clone(valid), int64(len(records)), nil))
	f.Add(appendTrailer(bytes.Clone(valid), int64(len(records)), transientf("stripe busy")))
	f.Add(valid)
	f.Add(appendTrailer(nil, 0, nil))
}

// requirePrefix checks the success half of the fuzz contract: a stream
// that decodes cleanly must re-encode to the bytes it was read from.
func requirePrefix(t *testing.T, data, reencoded []byte) {
	t.Helper()
	if !bytes.HasPrefix(data, reencoded) {
		t.Fatalf("decoded stream re-encodes to %x, not a prefix of %x", reencoded, data)
	}
}

func FuzzDecodeSweepStream(f *testing.F) {
	hits := testHits()
	var recs [][]byte
	for i := range hits[:3] {
		recs = append(recs, appendHit(nil, hits[i].p, &hits[i].row))
	}
	fuzzSeeds(f, recs)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeSweepStream(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		requirePrefix(t, data, sweepStream(got, int64(len(got)), nil))
	})
}

func FuzzDecodeExchangeStream(f *testing.F) {
	g := sky.Galaxy{ObjID: 42, Ra: 195.25, Dec: 2.5, I: 17.5, Gr: 1.2, Ri: 0.4, SigmaGr: 0.01, SigmaRi: 0.02}
	fuzzSeeds(f, [][]byte{appendRow(nil, &g), appendRow(nil, &sky.Galaxy{Ra: math.NaN()})})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeExchangeStream(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var b []byte
		for i := range got {
			b = appendRow(b, &got[i])
		}
		requirePrefix(t, data, appendTrailer(b, int64(len(got)), nil))
	})
}

func FuzzDecodeSweepRequest(f *testing.F) {
	fuzzSeeds(f, [][]byte{
		appendProbe(nil, 0, zone.Probe{Ra: 195.1, Dec: 2.2, R: 0.05}),
		appendProbe(nil, 7, zone.Probe{Ra: 0, Dec: -90, R: -1}),
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		probes, idx, err := decodeSweepRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(probes) != len(idx) {
			t.Fatalf("%d probes but %d indices", len(probes), len(idx))
		}
		var b []byte
		for i, p := range probes {
			b = appendProbe(b, idx[i], p)
		}
		requirePrefix(t, data, appendTrailer(b, int64(len(probes)), nil))
	})
}
