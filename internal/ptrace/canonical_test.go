package ptrace

import (
	"bytes"
	"testing"

	"repro/internal/units"
)

// TestCanonicalizePacketIDs pins the relabeling contract: two captures
// whose events are identical except for the absolute packet-id values
// (different counter offsets, different interleaving of id allocation)
// encode to the same bytes after canonicalization.
func TestCanonicalizePacketIDs(t *testing.T) {
	mk := func(ids []uint64) *Data {
		d := &Data{Hops: []string{"", "hub"}}
		for i, id := range ids {
			d.Events = append(d.Events, Event{
				T: units.Time(i) * units.Millisecond, Kind: LinkDeliver,
				Hop: 1, Flow: 7, PktID: id, Size: 1200,
			})
		}
		return d
	}

	// Same packet identity structure — a, b, a, c, b — under two
	// unrelated absolute labelings, plus a zero (no-packet) event.
	a := mk([]uint64{901, 44, 901, 7000, 44, 0})
	b := mk([]uint64{12, 350, 12, 13, 350, 0})
	CanonicalizePacketIDs(a)
	CanonicalizePacketIDs(b)

	want := []uint64{1, 2, 1, 3, 2, 0}
	for i, ev := range a.Events {
		if ev.PktID != want[i] {
			t.Errorf("event %d: canonical id %d, want %d", i, ev.PktID, want[i])
		}
	}

	var ba, bb bytes.Buffer
	if _, err := a.WriteTo(&ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("canonicalized captures are not byte-identical")
	}

	// Structurally different labelings must stay distinguishable.
	c := mk([]uint64{5, 5, 6, 7, 8, 0}) // a, a, b, c, d
	CanonicalizePacketIDs(c)
	var bc bytes.Buffer
	if _, err := c.WriteTo(&bc); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ba.Bytes(), bc.Bytes()) {
		t.Error("different packet-identity structures canonicalized to equal bytes")
	}
}

// TestCanonicalizeV2FixedPoint composes canonicalization with the
// binary encoding: canonicalize → encode v2 → decode → canonicalize
// must be a fixed point, so golden comparisons can route traces
// through a file without the relabeling drifting.
func TestCanonicalizeV2FixedPoint(t *testing.T) {
	d := &Data{Hops: []string{"", "hub", "edge"}, Seen: 17}
	ids := []uint64{901, 44, 901, 7000, 44, 0, 7000, 12345}
	for i, id := range ids {
		d.Events = append(d.Events, Event{
			T: units.Time(i) * units.Millisecond, Kind: Kind(i % int(numKinds)),
			Hop: HopID(i % 3), Flow: 7, PktID: id, Size: 1200,
		})
	}
	CanonicalizePacketIDs(d)
	first := append([]Event(nil), d.Events...)

	var enc bytes.Buffer
	if _, err := d.WriteTo(&enc); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	CanonicalizePacketIDs(got)
	if len(got.Events) != len(first) {
		t.Fatalf("event count changed: %d -> %d", len(first), len(got.Events))
	}
	for i := range first {
		if got.Events[i] != first[i] {
			t.Fatalf("event %d drifted through canonicalize∘v2:\nbefore %+v\nafter  %+v",
				i, first[i], got.Events[i])
		}
	}
	var enc2 bytes.Buffer
	if _, err := got.WriteTo(&enc2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
		t.Error("canonicalized v2 encodings are not byte-identical")
	}
}
