package redirect

import (
	"testing"
	"time"

	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
)

var costs = netmodel.Default()

func TestPerPacketCostIptablesVsEBPF(t *testing.T) {
	ipCPU, ipStats := PerPacketCost(Iptables, 1460, costs)
	ebCPU, ebStats := PerPacketCost(EBPF, 1460, costs)
	if ebCPU >= ipCPU {
		t.Errorf("eBPF (%v) must be cheaper than iptables (%v) for full-size packets", ebCPU, ipCPU)
	}
	if ipStats.StackPasses != 2 || ebStats.StackPasses != 0 {
		t.Errorf("stack passes: iptables=%d eBPF=%d", ipStats.StackPasses, ebStats.StackPasses)
	}
	if ipStats.CopiedBytes != 2*1460 || ebStats.CopiedBytes != 1460 {
		t.Errorf("copied: iptables=%d eBPF=%d", ipStats.CopiedBytes, ebStats.CopiedBytes)
	}
}

func TestModeString(t *testing.T) {
	if Iptables.String() != "iptables" || EBPF.String() != "eBPF" {
		t.Error("mode names")
	}
}

func TestNagleAggregatesToMSS(t *testing.T) {
	s := sim.New(1)
	var flushes []int
	n := NewNagle(s, MSS, time.Millisecond, func(size int) { flushes = append(flushes, size) })
	s.At(0, func() {
		for i := 0; i < 200; i++ { // 200 x 16B = 3200B
			n.Write(16)
		}
	})
	s.Run()
	// 3200 = 2*1460 + 280: two MSS flushes plus one timeout flush.
	if len(flushes) != 3 {
		t.Fatalf("flushes = %v", flushes)
	}
	if flushes[0] != MSS || flushes[1] != MSS || flushes[2] != 280 {
		t.Errorf("flush sizes = %v", flushes)
	}
}

func TestNagleTimeoutFlush(t *testing.T) {
	s := sim.New(1)
	var at []time.Duration
	n := NewNagle(s, MSS, 500*time.Microsecond, func(size int) { at = append(at, s.Now()) })
	s.At(0, func() { n.Write(16) })
	s.Run()
	if len(at) != 1 || at[0] != 500*time.Microsecond {
		t.Errorf("timeout flush at %v", at)
	}
	if n.Buffered() != 0 {
		t.Error("buffer should be empty after flush")
	}
}

func TestNagleLargeWritePassesThrough(t *testing.T) {
	s := sim.New(1)
	var flushes []int
	n := NewNagle(s, MSS, time.Millisecond, func(size int) { flushes = append(flushes, size) })
	s.At(0, func() { n.Write(4 * MSS) })
	s.Run()
	if len(flushes) != 4 {
		t.Errorf("flushes = %v, want 4 MSS segments", flushes)
	}
}

func TestNagleManualFlush(t *testing.T) {
	s := sim.New(1)
	var flushes []int
	n := NewNagle(s, MSS, time.Hour, func(size int) { flushes = append(flushes, size) })
	s.At(0, func() {
		n.Write(100)
		n.Flush()
		n.Flush() // idempotent
	})
	s.RunUntil(time.Second)
	if len(flushes) != 1 || flushes[0] != 100 {
		t.Errorf("flushes = %v", flushes)
	}
}

// TestEBPFSmallPacketsContextSwitches reproduces the shape of Fig. 22: for a
// 16-byte 4kRPS stream, eBPF without Nagle performs far more context
// switches than iptables (whose kernel path aggregates), and adding Nagle to
// eBPF fixes it.
func TestEBPFSmallPacketsContextSwitches(t *testing.T) {
	run := func(mode Mode, useNagle bool) Stats {
		s := sim.New(1)
		r := NewRedirector(s, mode, useNagle, costs)
		interval := time.Second / 4000 // 4kRPS
		sent := 0
		s.Every(interval, func() bool {
			r.Send(16)
			sent++
			return sent < 4000 // one second of traffic
		})
		s.Run()
		r.FlushPending()
		return r.Stats()
	}

	ebpfRaw := run(EBPF, false)
	ebpfNagle := run(EBPF, true)
	iptables := run(Iptables, true)

	if ebpfRaw.ContextSwitches <= iptables.ContextSwitches/10 {
		t.Errorf("raw eBPF should context-switch per packet: %d vs iptables %d",
			ebpfRaw.ContextSwitches, iptables.ContextSwitches)
	}
	if ebpfNagle.ContextSwitches >= ebpfRaw.ContextSwitches/10 {
		t.Errorf("Nagle should collapse context switches: %d vs raw %d",
			ebpfNagle.ContextSwitches, ebpfRaw.ContextSwitches)
	}
	if ebpfNagle.Deliveries >= ebpfRaw.Deliveries {
		t.Error("aggregation must reduce deliveries")
	}
	if ebpfRaw.Packets != 4000 || ebpfNagle.Packets != 4000 {
		t.Errorf("packets accounted: raw=%d nagle=%d", ebpfRaw.Packets, ebpfNagle.Packets)
	}
}

// TestThroughputOrdering reproduces the shape of Figs. 29/30: eBPF beats
// iptables for large packets by ~2x in CPU terms and still wins for small
// packets once Nagle is enabled.
func TestThroughputOrdering(t *testing.T) {
	perByteCPU := func(mode Mode, useNagle bool, pkt int, count int) float64 {
		s := sim.New(1)
		r := NewRedirector(s, mode, useNagle, costs)
		sent := 0
		s.Every(10*time.Microsecond, func() bool {
			r.Send(pkt)
			sent++
			return sent < count
		})
		s.Run()
		r.FlushPending()
		return float64(r.Stats().CPU) / float64(pkt*count)
	}

	big := 4096
	ipBig := perByteCPU(Iptables, true, big, 500)
	ebBig := perByteCPU(EBPF, true, big, 500)
	if ebBig >= ipBig {
		t.Errorf("large packets: eBPF per-byte CPU %v should beat iptables %v", ebBig, ipBig)
	}
	ratio := ipBig / ebBig
	if ratio < 1.2 {
		t.Errorf("large-packet improvement ratio %v, want >= 1.2 (paper ~2x)", ratio)
	}

	small := 500
	ipSmall := perByteCPU(Iptables, true, small, 500)
	ebSmall := perByteCPU(EBPF, true, small, 500)
	if ebSmall >= ipSmall {
		t.Errorf("small packets with Nagle: eBPF %v should beat iptables %v", ebSmall, ipSmall)
	}
}

func TestRedirectorIptablesForcesNagle(t *testing.T) {
	s := sim.New(1)
	r := NewRedirector(s, Iptables, false, costs)
	if r.nagle == nil {
		t.Error("iptables path must aggregate (kernel default)")
	}
	if r.Mode() != Iptables {
		t.Error("mode getter")
	}
}

func TestRedirectorDeliverCallback(t *testing.T) {
	s := sim.New(1)
	r := NewRedirector(s, EBPF, false, costs)
	var got []int
	r.Deliver = func(size int) { got = append(got, size) }
	s.At(0, func() {
		r.Send(100)
		r.Send(200)
	})
	s.Run()
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Errorf("delivered = %v", got)
	}
}
