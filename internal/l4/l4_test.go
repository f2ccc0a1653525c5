package l4

import (
	"fmt"
	"hash/fnv"
	"testing"

	"canalmesh/internal/cloud"
)

// hash5TupleFmt is the fmt+fnv form Hash5Tuple replaced, kept as the oracle:
// the inline hash must agree with it on every key, or every gateway backend
// and beamer pick moves.
func hash5TupleFmt(k cloud.SessionKey) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%d|%d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.Proto)
	return h.Sum64()
}

func TestHash5TupleGolden(t *testing.T) {
	for _, tc := range []struct {
		k    cloud.SessionKey
		want uint64
	}{
		{cloud.SessionKey{SrcIP: "10.0.0.1", SrcPort: 1234, DstIP: "10.0.1.1", DstPort: 80, Proto: 6}, 0x9c6009cde776d8c0},
		{cloud.SessionKey{}, 0x9ff517d7eb35f6f7},
		{cloud.SessionKey{DstPort: 65535, Proto: 255}, 0x815831f01695a687},
		{cloud.SessionKey{SrcIP: "2001:db8::1", SrcPort: 443, DstIP: "fe80::1%eth0", DstPort: 8443, Proto: 17}, 0x6da46936f4d158bf},
		{cloud.SessionKey{SrcIP: "10.9.3.17", SrcPort: 65535, DstIP: "10.1.0.1", DstPort: 0, Proto: 0}, 0xfbaf8fa816a4badf},
		{cloud.SessionKey{SrcIP: "192.168.1.250", SrcPort: 1024, DstIP: "192.168.1.1", DstPort: 53, Proto: 17}, 0xb568b19f8913dea4},
		{cloud.SessionKey{SrcIP: "a|b", SrcPort: 9, DstIP: "c", DstPort: 10, Proto: 1}, 0xc0096cb3e1f10dfe},
	} {
		if got := Hash5Tuple(tc.k); got != tc.want {
			t.Errorf("Hash5Tuple(%v) = %#x, want %#x", tc.k, got, tc.want)
		}
		if ref := hash5TupleFmt(tc.k); ref != tc.want {
			t.Errorf("reference hash of %v = %#x, want %#x", tc.k, ref, tc.want)
		}
	}
}

func FuzzHash5Tuple(f *testing.F) {
	f.Add("10.0.0.1", uint16(1234), "10.0.1.1", uint16(80), uint8(6))
	f.Add("", uint16(0), "", uint16(65535), uint8(255))
	f.Add("2001:db8::1", uint16(443), "fe80::1%eth0", uint16(8443), uint8(17))
	f.Fuzz(func(t *testing.T, src string, sport uint16, dst string, dport uint16, proto uint8) {
		k := cloud.SessionKey{SrcIP: src, SrcPort: sport, DstIP: dst, DstPort: dport, Proto: proto}
		if got, want := Hash5Tuple(k), hash5TupleFmt(k); got != want {
			t.Fatalf("Hash5Tuple(%v) = %#x, fmt+fnv reference %#x", k, got, want)
		}
	})
}
