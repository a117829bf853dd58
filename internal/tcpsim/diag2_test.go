package tcpsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestDiagStall(t *testing.T) {
	s := sim.New(7)
	rng := sim.NewRNG(42)
	var dropLog []int64
	snd, rcv, delivered := newPair(t, s, func(p *packet.Packet) bool {
		if rng.Float64() < 0.02 {
			dropLog = append(dropLog, p.Seq)
			return true
		}
		return false
	})
	total := int64(3000 * mss)
	snd.Write(total)
	for sec := 1; sec <= 40; sec++ {
		s.RunUntil(units.Time(sec) * units.Second)
		t.Logf("t=%2d una=%8d nxt=%8d cwnd=%6.0f rto=%v inRec=%v dup=%d timeouts=%d rcvNxt=%d ooo=%d del=%d timerIdle=%v",
			sec, snd.sndUna, snd.sndNxt, snd.cwnd, snd.rto, snd.inRecovery, snd.dupAcks, snd.Timeouts, rcv.rcvNxt, len(rcv.ooo), *delivered, !snd.rtoTimer.Active())
	}
}
