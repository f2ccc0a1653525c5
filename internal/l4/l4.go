// Package l4 holds the 5-tuple flow hash Layer-4 decisions share. What an
// L4 traversal costs (redirection, kernel stack passes) is priced by
// internal/netmodel, not executed here.
package l4

import "canalmesh/internal/cloud"

// Hash5Tuple returns a stable non-cryptographic hash of the flow key. The
// gateway's backend pick and the Beamer-style redirectors use it so their
// decisions agree.
//
// The hash is FNV-1a-64 over "SrcIP|SrcPort|DstIP|DstPort|Proto" with the
// integers in decimal — the bytes fmt's "%s|%d|%s|%d|%d" renders — computed
// inline, so a flow hashes without a hasher or a formatted string.
func Hash5Tuple(k cloud.SessionKey) uint64 {
	h := fnvString(fnvOffset64, k.SrcIP)
	h = fnvUint(fnvByte(h, '|'), uint64(k.SrcPort))
	h = fnvString(fnvByte(h, '|'), k.DstIP)
	h = fnvUint(fnvByte(h, '|'), uint64(k.DstPort))
	return fnvUint(fnvByte(h, '|'), uint64(k.Proto))
}

// FNV-1a-64 parameters (hash/fnv's offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// fnvUint hashes v's decimal digits, most significant first.
func fnvUint(h uint64, v uint64) uint64 {
	d := uint64(1)
	for d <= v/10 {
		d *= 10
	}
	for ; d > 0; d /= 10 {
		h = fnvByte(h, byte('0'+v/d%10))
	}
	return h
}
