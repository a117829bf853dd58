package ptrace

// The on-disk digest format. A .digest file is a serialized Summary —
// the same bounded-memory digest dstrace prints and -compare joins —
// so a scenario can pin its expected behavior once and every later
// run can be gated against it ("dstrace -compare-golden FILE.digest
// run.ptrace") without storing the full golden trace. Digests carry
// no packet ids, and CompareSummaries ignores the capture-size fields
// (Seen, Retained), so the gate keys on behavior, not on trace length.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
)

// digestFormat identifies a digest file; digestVersion is bumped on
// any layout change.
const (
	digestFormat  = "ptrace-digest"
	digestVersion = 1
)

// digestFile is the envelope around the serialized Summary. Kinds
// records the event-kind table size the writer was compiled with:
// HopStats.Counts is a positional array indexed by Kind, so a digest
// written under a different kind table must be regenerated, not
// silently misread.
type digestFile struct {
	Format  string   `json:"format"`
	Version int      `json:"version"`
	Kinds   int      `json:"kinds"`
	Summary *Summary `json:"summary"`
}

// WriteSummary serializes a digest. The output is deterministic for a
// deterministic Summary, so golden digest files can be compared
// byte-for-byte as well as semantically.
func WriteSummary(w io.Writer, s *Summary) error {
	data, err := json.MarshalIndent(digestFile{
		Format: digestFormat, Version: digestVersion, Kinds: int(numKinds), Summary: s,
	}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// readSized reads r to its end into one buffer, sized up front when r
// reports its length (a file, or an in-memory reader), where io.ReadAll
// would double its way there.
func readSized(r io.Reader) ([]byte, error) {
	n := int64(0)
	switch s := r.(type) {
	case interface{ Len() int }:
		n = int64(s.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil {
			n = fi.Size()
		}
	}
	var b bytes.Buffer
	b.Grow(int(n) + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// ReadSummary deserializes a digest written by WriteSummary,
// validating the envelope so a stale or foreign file fails loudly
// instead of producing a nonsense comparison.
func ReadSummary(r io.Reader) (*Summary, error) {
	data, err := readSized(r)
	if err != nil {
		return nil, err
	}
	var df digestFile
	if err := json.Unmarshal(data, &df); err != nil {
		return nil, fmt.Errorf("ptrace: not a digest file: %w", err)
	}
	if df.Format != digestFormat {
		return nil, fmt.Errorf("ptrace: not a digest file (format %q, want %q)", df.Format, digestFormat)
	}
	if df.Version != digestVersion {
		return nil, fmt.Errorf("ptrace: digest version %d not supported (want %d); regenerate the golden", df.Version, digestVersion)
	}
	if df.Kinds != int(numKinds) {
		return nil, fmt.Errorf("ptrace: digest written with %d event kinds, this build has %d; regenerate the golden", df.Kinds, numKinds)
	}
	if df.Summary == nil {
		return nil, fmt.Errorf("ptrace: digest file has no summary")
	}
	return df.Summary, nil
}
