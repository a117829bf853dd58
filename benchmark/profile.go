package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// Reading a pprof CPU profile without leaving the standard library: the
// file is a gzip-compressed protocol buffer (perftools.profiles.Profile)
// and the layer table needs three of its tables only — samples, the
// leaf location of each, and that location's function name — so a
// varint walk over the wire format is all the decoding there is.

// profSampleFloor is the sample count below which the bucketed shares
// are reported as unresolved.
const profSampleFloor = 500

// profBuckets maps a package to its layer bucket of the prof.* metrics.
var profBuckets = map[string]string{
	"sim":         "prof.sim_share",
	"flowbatch":   "prof.flowbatch_share",
	"link":        "prof.datapath_share",
	"queue":       "prof.datapath_share",
	"tokenbucket": "prof.datapath_share",
	"node":        "prof.datapath_share",
	"client":      "prof.sinks_share",
	"stats":       "prof.sinks_share",
	"server":      "prof.sources_share",
	"traffic":     "prof.sources_share",
	"tcpsim":      "prof.sources_share",
	"render":      "prof.eval_share",
	"vqm":         "prof.eval_share",
	"video":       "prof.eval_share",
	"trace":       "prof.eval_share",
	"ptrace":      "prof.ptrace_share",
	"atomicfile":  "prof.ptrace_share",
}

var profShareNames = []string{
	"prof.sim_share", "prof.flowbatch_share", "prof.datapath_share", "prof.sinks_share",
	"prof.sources_share", "prof.eval_share", "prof.ptrace_share", "prof.runtime_share",
	"prof.other_share",
}

// bucketOf names the prof.* bucket a function's flat samples go to.
func bucketOf(function string) string {
	const internal = "repro/internal/"
	if rest, ok := strings.CutPrefix(function, internal); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if b, ok := profBuckets[pkg]; ok {
			return b
		}
		return "prof.other_share"
	}
	if strings.HasPrefix(function, "runtime.") || strings.HasPrefix(function, "runtime/") ||
		strings.HasPrefix(function, "internal/runtime/") {
		return "prof.runtime_share"
	}
	return "prof.other_share"
}

// profileShares buckets the flat samples of a CPU profile by package.
// It returns the sample count and each bucket's share of it.
func profileShares(data []byte) (samples int64, shares map[string]float64, err error) {
	flat, err := flatSamples(data)
	if err != nil {
		return 0, nil, err
	}
	counts := map[string]int64{}
	for fn, n := range flat {
		counts[bucketOf(fn)] += n
		samples += n
	}
	shares = make(map[string]float64, len(profShareNames))
	for _, name := range profShareNames {
		shares[name] = 0
		if samples > 0 {
			shares[name] = float64(counts[name]) / float64(samples)
		}
	}
	return samples, shares, nil
}

// flatSamples decodes a pprof file into sample counts per leaf function.
func flatSamples(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{} // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> leaf function id
		leafCount = map[uint64]int64{}  // leaf location id -> samples
	)
	err = walk(raw, func(field uint64, v uint64, b []byte) error {
		switch field {
		case 2: // Sample: location_id (1, packed or not), value (2)
			var leaf uint64
			var haveLeaf bool
			var values []uint64
			if err := walk(b, func(f, v uint64, b []byte) error {
				switch f {
				case 1:
					ids := packed(v, b)
					if len(ids) > 0 && !haveLeaf {
						leaf, haveLeaf = ids[0], true
					}
				case 2:
					values = append(values, packed(v, b)...)
				}
				return nil
			}); err != nil {
				return err
			}
			if haveLeaf && len(values) > 0 {
				leafCount[leaf] += int64(values[0]) // sample_type[0] is samples/count
			}
		case 4: // Location: id (1), line (4) repeated; line[0] is the leaf of any inlining
			var id, fn uint64
			var haveFn bool
			if err := walk(b, func(f, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if !haveFn {
						haveFn = true
						return walk(b, func(f, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function: id (1), name (2)
			var id, name uint64
			if err := walk(b, func(f, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for loc, n := range leafCount {
		name := "?"
		if idx := funcName[locFunc[loc]]; idx < uint64(len(strs)) && strs[idx] != "" {
			name = strs[idx]
		}
		out[name] += n
	}
	return out, nil
}

// walk visits the fields of one protobuf message: v is the value of a
// varint field, b the bytes of a length-delimited one.
func walk(msg []byte, visit func(field, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("truncated field key")
		}
		msg = msg[n:]
		field, wire := key>>3, key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("truncated varint")
			}
			msg = msg[n:]
			if err := visit(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("truncated bytes field")
			}
			if err := visit(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// packed returns a repeated varint field's values, whether it arrived
// packed (b) or as one plain varint (v).
func packed(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
