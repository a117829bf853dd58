package ptrace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/video"
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

// countingHash hashes what it is written and counts the Write calls.
type countingHash struct {
	hash.Hash
	n      int64
	writes int
}

func (h *countingHash) Write(p []byte) (int, error) {
	h.writes++
	h.n += int64(len(p))
	return h.Hash.Write(p)
}

// TestV2BytesPinned pins the writer's output byte for byte on one
// fixed tandem run (Lost at 1.0 Mb/s, a 1.1 Mb/s 3000 B second border,
// every event offered to a 128 Ki-event ring with a 256-event head),
// both as a ring save (Recorder.WriteTo) and as a spill (SpillTo +
// FinishSpill): how the writer frames its writes may change, the
// bytes may not. The writer takes no buffering from its caller: w gets
// the magic, one Write per block of 4096 events and one for the
// trailer.
func TestV2BytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tandem scenario twice")
	}
	cfg := ptrace.Config{Capacity: 1 << 17, Head: 256, Sample: 1}
	run := func(rec *ptrace.Recorder) {
		topology.BuildTandem(topology.TandemConfig{
			Seed: 1, Enc: video.CachedCBR(video.Lost(), 1.0e6), TokenRate: 1.1e6, Depth: 3000,
			SecondBorder: true, Trace: rec,
		}).Run()
	}
	ring := ptrace.NewRecorder(cfg)
	run(ring)
	saved := &countingHash{Hash: sha256.New()}
	if _, err := ring.WriteTo(saved); err != nil {
		t.Fatal(err)
	}
	spill := ptrace.NewRecorder(cfg)
	spilled := &countingHash{Hash: sha256.New()}
	spill.SpillTo(spilled)
	run(spill)
	spilledEvents := spill.Spilled()
	if err := spill.FinishSpill(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		h      *countingHash
		events uint64
		sum    string
		n      int64
	}{
		{"ring-saved", saved, uint64(len(ring.Data().Events)),
			"d545931021b37adbb256dc271659fabecd893404391921f69f2ef35e032cb7f2", 1_247_510},
		{"spilled", spilled, spilledEvents,
			"82b4e2aa30cf49e8ddc9e5d7706c4a03bc6162f95aa4d54d0bd38c2f1fd7dc44", 23_342_794},
	} {
		if got := hex.EncodeToString(c.h.Sum(nil)); got != c.sum || c.h.n != c.n {
			t.Errorf("%s capture: sha256 %s, %d B; want %s, %d B", c.name, got, c.h.n, c.sum, c.n)
		}
		if want := 2 + int(c.events+4095)/4096; c.h.writes != want {
			t.Errorf("%s capture: %d events in %d writes, want %d (magic, one a block, trailer)",
				c.name, c.events, c.h.writes, want)
		}
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestV2CorruptLengthAllocatesWhatArrives pins that a block length is
// not trusted before its bytes arrive: a 13-byte file claiming a 60 MiB
// block fails as a truncated block after allocating well under 1 MB,
// where one allocation of the claimed length cost 63 MB.
func TestV2CorruptLengthAllocatesWhatArrives(t *testing.T) {
	in := append([]byte("\x89PTRC2\r\n"), binary.AppendUvarint([]byte{1}, 60<<20)...)
	if len(in) != 13 {
		t.Fatalf("corrupt trace is %d bytes, want 13", len(in))
	}
	for name, decode := range map[string]func() error{
		"Read": func() error { _, err := ptrace.Read(bytes.NewReader(in)); return err },
		"AnalyzeStream": func() error {
			_, _, err := ptrace.AnalyzeStream(bytes.NewReader(in), 0)
			return err
		},
	} {
		var err error
		b := allocated(func() { err = decode() })
		if err == nil || !strings.Contains(err.Error(), "truncated v2 block") {
			t.Errorf("%s: err %v, want a truncated v2 block", name, err)
		}
		if b >= 1<<20 {
			t.Errorf("%s allocated %d B on a 13-byte trace, want < 1 MiB", name, b)
		}
	}
}

// TestV2LongBlockFallback pins the decoder's path for a block longer
// than its read buffer: 4096 records of full-range deltas pack into one
// block several times the buffer's 64 KiB, which must round-trip.
func TestV2LongBlockFallback(t *testing.T) {
	d := randomData(rand.New(rand.NewSource(5)), 4096)
	enc := encodeV2(t, d)
	count, n := binary.Uvarint(enc[8:])
	if byteLen, _ := binary.Uvarint(enc[8+n:]); count != 4096 || byteLen <= 1<<16 {
		t.Fatalf("first block holds %d events in %d B, want 4096 in more than 64 KiB", count, byteLen)
	}
	got, err := ptrace.Read(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !dataEqual(d, got) {
		t.Fatal("a block longer than the read buffer did not round-trip")
	}
}

// TestV2AllocatesPerFile pins that neither side of the encoding
// allocates per block: writing or decoding 200 blocks of steady
// records (decoded in place) costs no more than 2 blocks, and decoding
// 16 blocks longer than the read buffer no more than 2, plus a fixed
// slack.
func TestV2AllocatesPerFile(t *testing.T) {
	spill := func(w io.Writer, blocks int) {
		rec := ptrace.NewRecorder(ptrace.Config{})
		rec.SpillTo(w)
		hop := rec.Hop("hop")
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < blocks*4096; i++ {
			rec.Emit(ptrace.Event{T: units.Time(i) * units.Microsecond, Kind: ptrace.Deliver, Hop: hop,
				Flow: 1, PktID: uint64(i), Size: 1200, Delay: units.Time(rng.Intn(1e7))})
		}
		if err := rec.FinishSpill(); err != nil {
			t.Fatal(err)
		}
	}
	// AttributeFrameLoss against a frame trace of no frames is a bare
	// decoding pass: it keeps no state per event.
	decode := func(enc []byte) uint64 {
		var err error
		b := allocated(func() { _, err = ptrace.AttributeFrameLoss(bytes.NewReader(enc), &trace.Trace{}) })
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const slack = 16 << 10
	var few, many bytes.Buffer
	spill(&few, 2)
	spill(&many, 200)
	writeFew := allocated(func() { spill(io.Discard, 2) })
	writeMany := allocated(func() { spill(io.Discard, 200) })
	readFew, readMany := decode(few.Bytes()), decode(many.Bytes())
	rng := rand.New(rand.NewSource(5))
	longFew := decode(encodeV2(t, randomData(rng, 2*4096)))
	longMany := decode(encodeV2(t, randomData(rng, 16*4096)))
	t.Logf("steady blocks: write 2 %d B, 200 %d B; decode 2 %d B, 200 %d B; long blocks: decode 2 %d B, 16 %d B",
		writeFew, writeMany, readFew, readMany, longFew, longMany)
	for _, c := range []struct {
		what      string
		few, many uint64
	}{
		{"writing steady blocks", writeFew, writeMany},
		{"decoding steady blocks", readFew, readMany},
		{"decoding long blocks", longFew, longMany},
	} {
		if c.many > c.few+slack {
			t.Errorf("%s: the longer trace allocated %d B against %d B, more than %d B apart", c.what, c.many, c.few, slack)
		}
	}
}
