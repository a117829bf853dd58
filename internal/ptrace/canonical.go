package ptrace

// CanonicalizePacketIDs relabels a capture's packet ids densely
// (1, 2, 3, …) in order of first appearance, in place.
//
// Absolute packet ids come from one process-global atomic counter
// (see packet.NewID), so two runs of the same simulation in one
// process — or the shards of one sharded run racing on the counter —
// produce different absolute ids
// for the same packets. Everything else about a trace is a pure
// function of the simulation, so canonicalizing the ids is exactly
// what makes two equivalent captures byte-comparable: after
// relabeling, serial and sharded runs of the same experiment encode
// to identical .ptrace bytes (the shardeq harness pins this). Id 0
// (events that carry no packet) is preserved.
func CanonicalizePacketIDs(d *Data) {
	ids := make(map[uint64]uint64, len(d.Events))
	var next uint64
	for i := range d.Events {
		old := d.Events[i].PktID
		if old == 0 {
			continue
		}
		id, ok := ids[old]
		if !ok {
			next++
			id = next
			ids[old] = id
		}
		d.Events[i].PktID = id
	}
}
