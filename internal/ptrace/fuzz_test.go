package ptrace_test

import (
	"bytes"
	"testing"

	"repro/internal/ptrace"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/video"
)

// tandemSeed captures a real tandem run's trace — a representative
// corpus entry with every verdict kind, multiple hops, and both video
// and cross-traffic flows.
func tandemSeed() []byte {
	rec := ptrace.NewRecorder(ptrace.Config{Capacity: 2048, Head: 256, Sample: 4})
	enc := video.CachedCBR(video.Lost(), 1.0e6)
	td := topology.BuildTandem(topology.TandemConfig{
		Seed: 1, Enc: enc, TokenRate: 1.1e6, Depth: 3000,
		SecondBorder: true, Trace: rec,
	})
	td.Run()
	var buf bytes.Buffer
	if _, err := rec.Data().WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzJSONLRoundTrip keeps the retired JSONL v1 corpus under fuzz
// against the one reader left: roundTripProperty requires every '{'-led
// mutation to be refused by name, and any mutation that does decode to
// obey the v2 round trip.
func FuzzJSONLRoundTrip(f *testing.F) {
	// A short pre-v2 recording: header, then one array per event.
	f.Add([]byte(`{"format":"ptrace","version":1,"seen":3,"events":2,"hops":["policer","client"]}
[1000000,1,0,0,1,1,1500,46,0,0,0]
[3000000,8,0,1,1,1,1500,46,0,0,2000000]
`))
	// Minimal header-only capture.
	f.Add([]byte(`{"format":"ptrace","version":1,"seen":0,"events":0,"hops":[]}` + "\n"))
	// Hand-built capture exercising negative, zero and extreme values,
	// blank lines, and an out-of-range hop id.
	f.Add([]byte(`{"format":"ptrace","version":1,"seen":12,"events":3,"hops":["a","b c","d\ne"]}
[0,0,0,0,0,0,0,0,0,-1,0]

[9223372036854775807,14,255,65535,4294967295,18446744073709551615,2147483647,46,-1,-2147483648,-9223372036854775808]
[-5,1,2,9,900,1,1500,10,3,7,250000]
`))
	f.Fuzz(roundTripProperty)
}

// dataEqual compares captures up to nil-vs-empty slice differences
// (an empty capture decodes with non-nil zero-length slices).
func dataEqual(a, b *ptrace.Data) bool {
	if a.Seen != b.Seen || len(a.Hops) != len(b.Hops) || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}

// TestFuzzSeedTimesAreSane sanity-checks the generated corpus entry:
// the tandem capture must hold monotone timestamps (the property the
// analyzer's timeline logic leans on) and resolve every hop name.
func TestFuzzSeedTimesAreSane(t *testing.T) {
	d, err := ptrace.Read(bytes.NewReader(tandemSeed()))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) == 0 {
		t.Fatal("tandem seed capture is empty")
	}
	var last units.Time
	for i, e := range d.Events {
		if e.T < last {
			t.Fatalf("event %d goes back in time: %v after %v", i, e.T, last)
		}
		last = e.T
		if d.HopName(e.Hop) == "" {
			t.Fatalf("event %d has unresolvable hop %d", i, e.Hop)
		}
	}
}
