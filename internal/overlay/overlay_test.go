package overlay

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func sampleInner() Inner {
	return Inner{
		Src:     addr("10.0.1.5"),
		Dst:     addr("10.0.2.9"),
		SrcPort: 40123,
		DstPort: 8080,
		Proto:   6,
	}
}

func TestVXLANRoundTrip(t *testing.T) {
	b, err := VXLAN{VNI: 0xABCDEF}.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != VXLANHeaderLen {
		t.Fatalf("len = %d, want %d", len(b), VXLANHeaderLen)
	}
	vx, rest, err := UnmarshalVXLAN(append(b, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if vx.VNI != 0xABCDEF {
		t.Errorf("VNI = %x", vx.VNI)
	}
	if !bytes.Equal(rest, []byte{1, 2, 3}) {
		t.Errorf("rest = %v", rest)
	}
}

func TestVXLANVNIRange(t *testing.T) {
	if _, err := (VXLAN{VNI: 1 << 24}).Marshal(nil); !errors.Is(err, ErrVNIRange) {
		t.Errorf("expected ErrVNIRange, got %v", err)
	}
	if _, err := (VXLAN{VNI: 1<<24 - 1}).Marshal(nil); err != nil {
		t.Errorf("max VNI should marshal: %v", err)
	}
}

func TestVXLANBadFlags(t *testing.T) {
	b := make([]byte, VXLANHeaderLen)
	if _, _, err := UnmarshalVXLAN(b); !errors.Is(err, ErrBadVXLAN) {
		t.Errorf("expected ErrBadVXLAN, got %v", err)
	}
}

func TestVXLANShortBuffer(t *testing.T) {
	if _, _, err := UnmarshalVXLAN([]byte{vxlanFlagValidVNI, 0}); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("expected ErrShortBuffer, got %v", err)
	}
}

func TestInnerRoundTrip(t *testing.T) {
	in := sampleInner()
	b, err := in.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := UnmarshalInner(append(b, 0xFF))
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Errorf("round trip: got %+v, want %+v", got, in)
	}
	if len(rest) != 1 || rest[0] != 0xFF {
		t.Errorf("rest = %v", rest)
	}
}

func TestInnerRejectsIPv6(t *testing.T) {
	in := sampleInner()
	in.Src = addr("::1")
	if _, err := in.Marshal(nil); err == nil {
		t.Error("expected error for IPv6 src")
	}
}

func TestInnerRoundTripProperty(t *testing.T) {
	f := func(s, d [4]byte, sp, dp uint16, proto uint8) bool {
		in := Inner{
			Src: netip.AddrFrom4(s), Dst: netip.AddrFrom4(d),
			SrcPort: sp, DstPort: dp, Proto: proto,
		}
		b, err := in.Marshal(nil)
		if err != nil {
			return false
		}
		got, rest, err := UnmarshalInner(b)
		return err == nil && got == in && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShimRoundTripProperty(t *testing.T) {
	f := func(id uint64, flags uint16) bool {
		b := Shim{ServiceID: id, Flags: flags}.Marshal(nil)
		got, rest, err := UnmarshalShim(b)
		return err == nil && got.ServiceID == id && got.Flags == flags && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncapsulateDecapsulate(t *testing.T) {
	in := sampleInner()
	payload := []byte("GET / HTTP/1.1")
	pkt, err := Encapsulate(42, in, payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	vx, gotIn, gotPayload, err := Decapsulate(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if vx.VNI != 42 || gotIn != in || !bytes.Equal(gotPayload, payload) {
		t.Errorf("decap mismatch: %v %+v %q", vx.VNI, gotIn, gotPayload)
	}
}

func TestEncapsulateMTU(t *testing.T) {
	in := sampleInner()
	payload := make([]byte, 1500)
	if _, err := Encapsulate(1, in, payload, 1500); !errors.Is(err, ErrMTU) {
		t.Errorf("expected ErrMTU, got %v", err)
	}
	// Raising the device MTU (the paper's mitigation) makes it fit.
	if _, err := Encapsulate(1, in, payload, 9000); err != nil {
		t.Errorf("jumbo MTU should fit: %v", err)
	}
}

func TestVSwitchRegisterIdempotent(t *testing.T) {
	v := NewVSwitch()
	k := ServiceKey{VNI: 7, DstIP: addr("10.0.0.1"), DstPort: 80}
	id1 := v.Register(k)
	id2 := v.Register(k)
	if id1 != id2 {
		t.Errorf("re-registration changed ID: %d vs %d", id1, id2)
	}
	if got, ok := v.Reverse(id1); !ok || got != k {
		t.Errorf("Reverse(%d) = %v, %v", id1, got, ok)
	}
}

func TestVSwitchDisambiguatesOverlappingTenants(t *testing.T) {
	// Two tenants with the identical inner destination must map to different
	// service IDs because their VNIs differ — the crux of §4.2.
	v := NewVSwitch()
	dst := addr("192.168.0.10")
	idA := v.Register(ServiceKey{VNI: 100, DstIP: dst, DstPort: 80})
	idB := v.Register(ServiceKey{VNI: 200, DstIP: dst, DstPort: 80})
	if idA == idB {
		t.Fatal("overlapping inner addresses in different VPCs must get distinct service IDs")
	}
}

func TestVSwitchIngress(t *testing.T) {
	v := NewVSwitch()
	in := sampleInner()
	key := ServiceKey{VNI: 100, DstIP: in.Dst, DstPort: in.DstPort}
	id := v.Register(key)

	pkt, err := Encapsulate(100, in, []byte("hello"), 0)
	if err != nil {
		t.Fatal(err)
	}
	vmPkt, err := v.Ingress(pkt)
	if err != nil {
		t.Fatal(err)
	}
	shim, gotIn, payload, err := ParseVMPacket(vmPkt)
	if err != nil {
		t.Fatal(err)
	}
	if shim.ServiceID != id {
		t.Errorf("shim service ID = %d, want %d", shim.ServiceID, id)
	}
	if gotIn != in {
		t.Errorf("inner header corrupted: %+v", gotIn)
	}
	if string(payload) != "hello" {
		t.Errorf("payload = %q", payload)
	}
}

func TestVSwitchIngressUnregistered(t *testing.T) {
	v := NewVSwitch()
	pkt, err := Encapsulate(100, sampleInner(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Ingress(pkt); err == nil {
		t.Error("expected error for unregistered destination")
	}
}

func TestVSwitchIngressGarbage(t *testing.T) {
	v := NewVSwitch()
	if _, err := v.Ingress([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for truncated packet")
	}
}

func TestParseVMPacketShort(t *testing.T) {
	if _, _, _, err := ParseVMPacket(make([]byte, 5)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("expected ErrShortBuffer, got %v", err)
	}
	if _, _, _, err := ParseVMPacket(make([]byte, ShimHeaderLen+3)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("expected ErrShortBuffer for truncated inner, got %v", err)
	}
}

// FuzzOverlayDecode feeds arbitrary bytes to every decoder a gateway VM or
// the vSwitch runs on packets it did not build. No decoder may panic, each
// must consume exactly its header length, and every header it accepts must
// re-marshal to a value that decodes to itself.
func FuzzOverlayDecode(f *testing.F) {
	vx, _ := VXLAN{VNI: 0xABCDEF}.Marshal(nil)
	f.Add(append(vx, 1, 2, 3))
	in, _ := sampleInner().Marshal(nil)
	f.Add(append(in, 0xFF))
	f.Add(Shim{ServiceID: 1<<63 | 7, Flags: ShimSandboxed | ShimThrottled}.Marshal(nil))
	pkt, _ := Encapsulate(42, sampleInner(), []byte("GET / HTTP/1.1"), 0)
	f.Add(pkt)
	vm, _ := sampleInner().Marshal(Shim{ServiceID: 9}.Marshal(nil))
	f.Add(append(vm, "hello"...))
	f.Add(make([]byte, VXLANHeaderLen))
	f.Add(make([]byte, ShimHeaderLen+3))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		if v, rest, err := UnmarshalVXLAN(b); err == nil {
			if len(rest) != len(b)-VXLANHeaderLen {
				t.Fatalf("UnmarshalVXLAN left %d of %d bytes", len(rest), len(b))
			}
			wire, err := v.Marshal(nil)
			if err != nil {
				t.Fatalf("accepted VXLAN %+v does not marshal: %v", v, err)
			}
			if got, _, err := UnmarshalVXLAN(wire); err != nil || got != v {
				t.Fatalf("VXLAN %+v re-decodes as %+v, %v", v, got, err)
			}
		}
		if h, rest, err := UnmarshalInner(b); err == nil {
			if len(rest) != len(b)-InnerHeaderLen {
				t.Fatalf("UnmarshalInner left %d of %d bytes", len(rest), len(b))
			}
			wire, err := h.Marshal(nil)
			if err != nil {
				t.Fatalf("accepted inner header %+v does not marshal: %v", h, err)
			}
			if got, _, err := UnmarshalInner(wire); err != nil || got != h {
				t.Fatalf("inner header %+v re-decodes as %+v, %v", h, got, err)
			}
		}
		if s, rest, err := UnmarshalShim(b); err == nil {
			if len(rest) != len(b)-ShimHeaderLen {
				t.Fatalf("UnmarshalShim left %d of %d bytes", len(rest), len(b))
			}
			if got, _, err := UnmarshalShim(s.Marshal(nil)); err != nil || got != s {
				t.Fatalf("shim %+v re-decodes as %+v, %v", s, got, err)
			}
		}
		if s, h, payload, err := ParseVMPacket(b); err == nil {
			wire, err := h.Marshal(s.Marshal(nil))
			if err != nil {
				t.Fatalf("accepted VM packet's inner header %+v does not marshal: %v", h, err)
			}
			gs, gh, gp, err := ParseVMPacket(append(wire, payload...))
			if err != nil || gs != s || gh != h || !bytes.Equal(gp, payload) {
				t.Fatalf("VM packet (%+v, %+v, %q) re-decodes as (%+v, %+v, %q), %v", s, h, payload, gs, gh, gp, err)
			}
		}
	})
}
