package ptrace_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/trace"
	"repro/internal/units"
)

// corpusData decodes the tandem fuzz seed — the representative real
// capture the encoding tests and benchmarks share.
func corpusData(t testing.TB) *ptrace.Data {
	t.Helper()
	d, err := ptrace.Read(bytes.NewReader(tandemSeed()))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) == 0 {
		t.Fatal("tandem seed capture is empty")
	}
	return d
}

func encodeV2(t testing.TB, d *ptrace.Data) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomData builds a capture of adversarially jumpy events: every
// field swings across its full range, so nothing about the delta
// packing's "fields rarely change" assumption holds.
func randomData(rng *rand.Rand, n int) *ptrace.Data {
	d := &ptrace.Data{Hops: []string{"", "a", "hop with spaces", "端"}, Seen: rng.Uint64()}
	for i := 0; i < n; i++ {
		d.Events = append(d.Events, ptrace.Event{
			T:        units.Time(rng.Uint64()),
			Delay:    units.Time(rng.Uint64()),
			PktID:    rng.Uint64(),
			Flow:     packet.FlowID(rng.Uint32()),
			Size:     int32(rng.Uint32()),
			QLen:     int32(rng.Uint32()),
			FrameSeq: int32(rng.Uint32()),
			Hop:      ptrace.HopID(rng.Uint32()),
			Kind:     ptrace.Kind(rng.Intn(15)),
			DSCP:     packet.DSCP(rng.Uint32()),
			Flag:     uint8(rng.Uint32()),
		})
	}
	return d
}

// TestV2RoundTripRandomEvents pins exact round-tripping at full field
// range: wrapping delta arithmetic must reproduce every extreme value,
// not just the well-behaved captures real runs produce.
func TestV2RoundTripRandomEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 5, 4095, 4096, 4097, 20000} {
		d := randomData(rng, n)
		enc := encodeV2(t, d)
		got, err := ptrace.Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !dataEqual(d, got) {
			t.Fatalf("n=%d: round trip changed the capture", n)
		}
		if again := encodeV2(t, got); !bytes.Equal(enc, again) {
			t.Fatalf("n=%d: re-encoding is not byte-stable", n)
		}
	}
}

// TestV2RoundTripCorpus pins the same property on the real tandem
// capture: decoding the recorder's file and re-encoding the decoded
// capture reproduces the file byte for byte.
func TestV2RoundTripCorpus(t *testing.T) {
	seed := tandemSeed()
	d, err := ptrace.Read(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeV2(t, d); !bytes.Equal(seed, again) {
		t.Fatalf("re-encoding the decoded corpus is not byte-stable (%d vs %d bytes)", len(again), len(seed))
	}
}

// TestV2RejectsTruncation cuts a valid v2 trace at every length and
// requires a decode error each time: the trailer's event total makes
// silent truncation impossible, which is what lets dstrace trust a
// spilled file from an interrupted run to fail loudly.
func TestV2RejectsTruncation(t *testing.T) {
	d := randomData(rand.New(rand.NewSource(3)), 300)
	enc := encodeV2(t, d)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := ptrace.Read(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(enc))
		}
	}
	// Trailing garbage after a complete trace must also fail.
	if _, err := ptrace.Read(bytes.NewReader(append(append([]byte{}, enc...), 0xFF))); err == nil {
		t.Fatal("trailing byte after the trailer decoded without error")
	}
}

// TestReadFormatSniffs pins the lead-byte sniff all three readers share
// through one decoder: with the rest of a valid trace held fixed, only
// the magic's own first byte decodes, '{' (a pre-v2 JSONL recording) is
// refused by name, and every other lead byte is bad magic.
func TestReadFormatSniffs(t *testing.T) {
	const stale = "JSONL v1 traces are no longer read; re-record with dsbench -trace"
	enc := tandemSeed()
	ft := &trace.Trace{ClipFrames: 1}
	for b := 0; b < 256; b++ {
		in := append([]byte{byte(b)}, enc[1:]...)
		want := "bad magic"
		switch b {
		case int(enc[0]):
			want = ""
		case '{':
			want = stale
		}
		_, errRead := ptrace.Read(bytes.NewReader(in))
		_, _, errStream := ptrace.AnalyzeStream(bytes.NewReader(in), 0)
		_, errJoin := ptrace.AttributeFrameLoss(bytes.NewReader(in), ft)
		for name, err := range map[string]error{"Read": errRead, "AnalyzeStream": errStream, "AttributeFrameLoss": errJoin} {
			if want == "" && err != nil {
				t.Errorf("lead byte %#x: %s rejected a valid trace: %v", b, name, err)
			}
			if want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
				t.Errorf("lead byte %#x: %s err %v, want %q", b, name, err, want)
			}
		}
	}
}

// TestV2Density pins the encoding's cost on the tandem corpus as an
// absolute bound. The v2 design measured ~10 bytes/event on this
// capture (a kind byte, a one-byte bitmap and two or three short
// varints per steady-state event); 12 leaves 20 % for corpus drift and
// fails long before a format regression reaches fixed-width records
// (48 bytes an Event).
func TestV2Density(t *testing.T) {
	d := corpusData(t)
	vb := float64(len(encodeV2(t, d))) / float64(len(d.Events))
	t.Logf("bytes/event: v2 %.2f over %d events", vb, len(d.Events))
	if vb > 12 {
		t.Errorf("v2 costs %.2f bytes/event on the tandem corpus, want <= 12", vb)
	}
}

// FuzzBinaryRoundTrip runs roundTripProperty from v2 seeds: the real
// tandem capture, an empty one, full-range random events and a
// hand-built capture of extreme field values.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(tandemSeed())
	f.Add(encodeV2(f, &ptrace.Data{}))
	f.Add(encodeV2(f, randomData(rand.New(rand.NewSource(1)), 64)))
	// Hand-built capture: negative, zero and extreme field values, hop
	// names with a space and a newline, and an out-of-range hop id.
	f.Add(encodeV2(f, &ptrace.Data{Hops: []string{"a", "b c", "d\ne"}, Seen: 12, Events: []ptrace.Event{
		{FrameSeq: -1},
		{T: math.MaxInt64, Kind: 14, Flag: 255, Hop: 65535, Flow: math.MaxUint32, PktID: math.MaxUint64,
			Size: math.MaxInt32, DSCP: 46, QLen: -1, FrameSeq: math.MinInt32, Delay: math.MinInt64},
		{T: -5, Kind: 1, Flag: 2, Hop: 9, Flow: 900, PktID: 1, Size: 1500, DSCP: 10, QLen: 3, FrameSeq: 7, Delay: 250000},
	}}))
	f.Fuzz(roundTripProperty)
}

// roundTripProperty is the trace reader's fuzz contract. Any input Read
// accepts must re-encode to a byte-stable v2 form that decodes to the
// same Data, and HopName must stay total on whatever hop ids the events
// carry. A '{'-led input (a pre-v2 JSONL recording) must be refused by
// name by both Read and AnalyzeStream. Anything else malformed may be
// rejected, never crash.
func roundTripProperty(t *testing.T, in []byte) {
	d, err := ptrace.Read(bytes.NewReader(in))
	if len(in) > 0 && in[0] == '{' {
		const stale = "JSONL v1 traces are no longer read"
		_, _, errStream := ptrace.AnalyzeStream(bytes.NewReader(in), 0)
		if err == nil || !strings.Contains(err.Error(), stale) || errStream == nil || !strings.Contains(errStream.Error(), stale) {
			t.Fatalf("'{'-led input not refused by name: Read %v, AnalyzeStream %v", err, errStream)
		}
		return
	}
	if err != nil {
		return
	}
	v2 := encodeV2(t, d)
	d2, err := ptrace.Read(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("re-Read of own encoding: %v", err)
	}
	if !dataEqual(d, d2) {
		t.Fatal("round trip changed the capture")
	}
	if !bytes.Equal(v2, encodeV2(t, d2)) {
		t.Fatal("re-encoding is not byte-stable")
	}
	for _, e := range d2.Events {
		_ = d2.HopName(e.Hop)
	}
}

func BenchmarkTraceEncodeV2(b *testing.B) {
	d := corpusData(b)
	var buf bytes.Buffer
	var n int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		var err error
		if n, err = d.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)/float64(len(d.Events)), "bytes/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(d.Events)), "ns/event")
}

func BenchmarkTraceDecodeV2(b *testing.B) {
	enc := tandemSeed()
	events := len(corpusData(b).Events)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ptrace.Read(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}
