package ptrace

// The binary v2 trace encoding, the one on-disk form of a packet trace.
// A fleet-scale capture (the N = 200k mixtures emit tens of millions of
// verdicts) needs a format whose cost per event is a small constant; v2
// is that format:
//
//	magic (8 bytes, 0x89 "PTRC2" CR LF)
//	blocks:
//	  uvarint count            // events in this block; 0 = trailer
//	  uvarint byteLen          // payload length (length-prefixed)
//	  payload[byteLen]         // `count` packed records, see below
//	trailer (after the count==0 marker):
//	  uvarint hopCount, hopCount × (uvarint len, name bytes)
//	  uvarint seen             // total events emitted during the run
//	  uvarint totalEvents      // must equal the decoded event count
//
// Records are delta-packed varints rather than fixed-width words: each
// event carries its kind byte, then a uvarint presence bitmap naming
// the fields that differ from a reference — T against the previous
// event in the stream, every other field against the previous event
// of the *same kind* — and then one zigzag-varint delta per named
// field. Consecutive same-kind events share hop, DSCP, size and near
// ids, so most fields are absent and a steady-state event costs ~8-12
// bytes (TestV2Density bounds the tandem corpus). Deltas use wrapping
// int64 arithmetic, so every field round-trips exactly at its full
// range, extreme values included.
//
// The hop table and totals live in the *trailer*, not a header, so the
// format can be written incrementally while a simulation runs — the
// Recorder's spill mode streams blocks to a writer during the run and
// seals the trailer afterwards, which is what lets `dsbench -trace`
// capture beyond -trace-cap without growing the ring. The trailing
// totalEvents doubles as the truncation check: a file cut off mid-run
// fails to decode instead of silently passing for a shorter capture.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/packet"
	"repro/internal/units"
)

// magicV2 opens every trace. The 0x89 lead byte keeps it disjoint from
// plain text; CR LF catches line-ending mangling the way PNG's
// signature does.
var magicV2 = [8]byte{0x89, 'P', 'T', 'R', 'C', '2', '\r', '\n'}

// Presence-bitmap bits of one packed record. Frequently-changing
// fields sit in the low seven bits so the uvarint bitmap of a typical
// event is one byte.
const (
	bitT = 1 << iota
	bitPkt
	bitDelay
	bitQLen
	bitFrame
	bitFlow
	bitSize
	bitHop
	bitDSCP
	bitFlag

	knownBits = 1<<10 - 1
)

// Decode sanity bounds: untrusted counts are only trusted up to these
// before the corresponding bytes have actually been read.
const (
	maxBlockBytes = 1 << 26
	maxHopNames   = 1 << 20
	maxHopNameLen = 1 << 20
	// blockEvents is the writer's records-per-block target.
	blockEvents = 4096
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// v2Writer packs events into blocks on the fly. It backs both the
// one-shot Data.WriteTo and the Recorder's spill mode, so it is the one
// place every written event passes, and where a Recorder that digests
// its writes folds them; after the last event, finish seals the
// trailer. All state is O(1): the block
// buffer tops out around blockEvents packed records and is reused.
type v2Writer struct {
	w       io.Writer
	buf     []byte // packed records of the open block
	scratch []byte // block framing scratch
	n       int    // events in the open block
	total   uint64
	written int64
	err     error

	prevT    int64
	prevKind [256]Event // same-kind field references

	// fold, when set, digests every event as it is encoded.
	fold *digester
}

func newV2Writer(w io.Writer) *v2Writer {
	v := &v2Writer{w: w, buf: make([]byte, 0, 1<<14)}
	v.write(magicV2[:])
	return v
}

func (v *v2Writer) write(p []byte) {
	if v.err != nil {
		return
	}
	n, err := v.w.Write(p)
	v.written += int64(n)
	v.err = err
}

// add packs one event into the open block, flushing a full block.
func (v *v2Writer) add(e Event) {
	if v.err != nil {
		return
	}
	ref := &v.prevKind[e.Kind]
	var bits uint64
	if int64(e.T) != v.prevT {
		bits |= bitT
	}
	if e.PktID != ref.PktID {
		bits |= bitPkt
	}
	if e.Delay != ref.Delay {
		bits |= bitDelay
	}
	if e.QLen != ref.QLen {
		bits |= bitQLen
	}
	if e.FrameSeq != ref.FrameSeq {
		bits |= bitFrame
	}
	if e.Flow != ref.Flow {
		bits |= bitFlow
	}
	if e.Size != ref.Size {
		bits |= bitSize
	}
	if e.Hop != ref.Hop {
		bits |= bitHop
	}
	if e.DSCP != ref.DSCP {
		bits |= bitDSCP
	}
	if e.Flag != ref.Flag {
		bits |= bitFlag
	}
	b := append(v.buf, byte(e.Kind))
	b = binary.AppendUvarint(b, bits)
	if bits&bitT != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.T)-v.prevT))
	}
	if bits&bitPkt != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.PktID-ref.PktID)))
	}
	if bits&bitDelay != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Delay)-int64(ref.Delay)))
	}
	if bits&bitQLen != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.QLen)-int64(ref.QLen)))
	}
	if bits&bitFrame != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.FrameSeq)-int64(ref.FrameSeq)))
	}
	if bits&bitFlow != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Flow)-int64(ref.Flow)))
	}
	if bits&bitSize != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Size)-int64(ref.Size)))
	}
	if bits&bitHop != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Hop)-int64(ref.Hop)))
	}
	if bits&bitDSCP != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.DSCP)-int64(ref.DSCP)))
	}
	if bits&bitFlag != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Flag)-int64(ref.Flag)))
	}
	v.buf = b
	v.prevT = int64(e.T)
	*ref = e
	v.n++
	v.total++
	if v.fold != nil {
		v.fold.add(e)
	}
	if v.n >= blockEvents {
		v.flushBlock()
	}
}

// flushBlock frames and writes the open block.
func (v *v2Writer) flushBlock() {
	if v.n == 0 {
		return
	}
	v.scratch = v.scratch[:0]
	v.scratch = binary.AppendUvarint(v.scratch, uint64(v.n))
	v.scratch = binary.AppendUvarint(v.scratch, uint64(len(v.buf)))
	v.write(v.scratch)
	v.write(v.buf)
	v.buf = v.buf[:0]
	v.n = 0
}

// finish flushes the open block and seals the trailer.
func (v *v2Writer) finish(hops []string, seen uint64) (int64, error) {
	v.flushBlock()
	v.scratch = v.scratch[:0]
	v.scratch = binary.AppendUvarint(v.scratch, 0) // trailer marker
	v.scratch = binary.AppendUvarint(v.scratch, uint64(len(hops)))
	v.write(v.scratch)
	for _, h := range hops {
		v.scratch = binary.AppendUvarint(v.scratch[:0], uint64(len(h)))
		v.write(v.scratch)
		v.write([]byte(h))
	}
	v.scratch = binary.AppendUvarint(v.scratch[:0], seen)
	v.scratch = binary.AppendUvarint(v.scratch, v.total)
	v.write(v.scratch)
	return v.written, v.err
}

// streamV2 decodes a trace, feeding each event to fn in order: Read,
// AnalyzeStream and AttributeFrameLoss are all one pass through it. The
// hop table and totals arrive only with the trailer, so they are
// returned rather than available up front; fn must not need them.
func streamV2(r io.Reader, fn func(Event)) (hops []string, seen uint64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != magicV2 {
		if magic[0] == '{' { // the one foreign input users hold: a pre-v2 recording
			return nil, 0, errors.New("ptrace: JSONL v1 traces are no longer read; re-record with dsbench -trace")
		}
		return nil, 0, fmt.Errorf("ptrace: not a packet trace (bad magic)")
	}
	var (
		prevT    int64
		prevKind [256]Event
		payload  []byte
		decoded  uint64
	)
	for {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("ptrace: truncated v2 trace (block header): %w", err)
		}
		if count == 0 {
			break // trailer follows
		}
		byteLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("ptrace: truncated v2 trace (block length): %w", err)
		}
		if byteLen > maxBlockBytes || count > byteLen {
			return nil, 0, fmt.Errorf("ptrace: corrupt v2 block (%d events in %d bytes)", count, byteLen)
		}
		if uint64(cap(payload)) < byteLen {
			payload = make([]byte, byteLen)
		}
		payload = payload[:byteLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, 0, fmt.Errorf("ptrace: truncated v2 block: %w", err)
		}
		c := fieldCursor{p: payload, ok: true}
		for i := uint64(0); i < count; i++ {
			if len(c.p) == 0 {
				return nil, 0, fmt.Errorf("ptrace: v2 block underruns its payload")
			}
			kind := c.p[0]
			c.p = c.p[1:]
			bits, n := binary.Uvarint(c.p)
			if n <= 0 || bits&^uint64(knownBits) != 0 {
				return nil, 0, fmt.Errorf("ptrace: corrupt v2 record bitmap")
			}
			c.p = c.p[n:]
			// An absent field decodes as a zero delta, so every field is
			// uniformly reference + delta.
			ref := &prevKind[kind]
			e := Event{
				Kind:     Kind(kind),
				T:        units.Time(prevT + c.take(bits, bitT)),
				PktID:    ref.PktID + uint64(c.take(bits, bitPkt)),
				Delay:    ref.Delay + units.Time(c.take(bits, bitDelay)),
				QLen:     ref.QLen + int32(c.take(bits, bitQLen)),
				FrameSeq: ref.FrameSeq + int32(c.take(bits, bitFrame)),
				Flow:     packet.FlowID(int64(ref.Flow) + c.take(bits, bitFlow)),
				Size:     ref.Size + int32(c.take(bits, bitSize)),
				Hop:      HopID(int64(ref.Hop) + c.take(bits, bitHop)),
				DSCP:     packet.DSCP(int64(ref.DSCP) + c.take(bits, bitDSCP)),
				Flag:     uint8(int64(ref.Flag) + c.take(bits, bitFlag)),
			}
			if !c.ok {
				return nil, 0, fmt.Errorf("ptrace: truncated v2 record")
			}
			prevT = int64(e.T)
			*ref = e
			decoded++
			fn(e)
		}
		if len(c.p) != 0 {
			return nil, 0, fmt.Errorf("ptrace: v2 block has %d trailing payload bytes", len(c.p))
		}
	}
	nHops, err := binary.ReadUvarint(br)
	if err != nil || nHops > maxHopNames {
		return nil, 0, fmt.Errorf("ptrace: corrupt v2 trailer (hop count)")
	}
	hops = make([]string, 0, min(nHops, 256))
	name := make([]byte, 0, 64)
	for i := uint64(0); i < nHops; i++ {
		ln, err := binary.ReadUvarint(br)
		if err != nil || ln > maxHopNameLen {
			return nil, 0, fmt.Errorf("ptrace: corrupt v2 trailer (hop name length)")
		}
		if uint64(cap(name)) < ln {
			name = make([]byte, ln)
		}
		name = name[:ln]
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, 0, fmt.Errorf("ptrace: truncated v2 trailer (hop names): %w", err)
		}
		hops = append(hops, string(name))
	}
	if seen, err = binary.ReadUvarint(br); err != nil {
		return nil, 0, fmt.Errorf("ptrace: truncated v2 trailer (seen): %w", err)
	}
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("ptrace: truncated v2 trailer (event count): %w", err)
	}
	if total != decoded {
		return nil, 0, fmt.Errorf("ptrace: truncated v2 trace: trailer promises %d events, decoded %d", total, decoded)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("ptrace: trailing data after v2 trailer")
	}
	return hops, seen, nil
}

// fieldCursor walks a block payload's varint fields, latching the
// first truncation instead of erroring at every call site.
type fieldCursor struct {
	p  []byte
	ok bool
}

// take consumes the zigzag-varint delta for the field named by `on`
// when the bitmap includes it; an absent field is a zero delta.
func (c *fieldCursor) take(bits, on uint64) int64 {
	if bits&on == 0 || !c.ok {
		return 0
	}
	u, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.ok = false
		return 0
	}
	c.p = c.p[n:]
	return unzigzag(u)
}
