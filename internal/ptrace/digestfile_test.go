package ptrace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

// digestFixture builds a small deterministic summary through the same
// digester the analysis paths use.
func digestFixture() *Summary {
	g := newDigester(units.Second)
	for i := 0; i < 50; i++ {
		g.add(Event{T: units.Time(i) * units.Millisecond, Kind: LinkEnqueue, Hop: 0,
			Flow: 1, QLen: int32(i % 7)})
		g.add(Event{T: units.Time(i) * units.Millisecond, Kind: LinkTx, Hop: 0,
			Flow: 1, Delay: units.Time(100+i) * units.Microsecond})
		g.add(Event{T: units.Time(i) * units.Millisecond, Kind: Deliver, Hop: 1,
			Flow: 1, Delay: units.Time(900+i) * units.Microsecond})
		if i%5 == 0 {
			g.add(Event{T: units.Time(i) * units.Millisecond, Kind: PolicerDrop, Hop: 2, Flow: 1})
		}
	}
	return g.summarize([]string{"hop0", "client", "policer"}, 200)
}

func TestDigestFileRoundTrip(t *testing.T) {
	s := digestFixture()
	var buf bytes.Buffer
	if err := WriteSummary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round trip diverged:\nwrote %+v\nread  %+v", s, got)
	}
	if d := CompareSummaries(s, got, Thresholds{}); d.Breaches != 0 || !d.Clean() {
		t.Errorf("round-tripped digest not clean under zero thresholds: %d breaches", d.Breaches)
	}
	// Deterministic serialization: writing the read-back summary must
	// reproduce the bytes, so golden .digest files can be byte-compared.
	var buf2 bytes.Buffer
	if err := WriteSummary(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("serialization not deterministic")
	}
}

func TestReadSummaryRejectsForeignFiles(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"garbage", "not json", "not a digest file"},
		{"wrong format", `{"format":"something-else","version":1}`, "not a digest file"},
		{"future version", `{"format":"ptrace-digest","version":99,"kinds":1}`, "version 99"},
		{"kind table mismatch", `{"format":"ptrace-digest","version":1,"kinds":1}`, "event kinds"},
		{"no summary", `{"format":"ptrace-digest","version":1,"kinds":` + itoa(int(numKinds)) + `}`, "no summary"},
	}
	for _, c := range cases {
		_, err := ReadSummary(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want substring %q", c.name, err, c.want)
		}
	}
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			return string(b[i:])
		}
	}
}
