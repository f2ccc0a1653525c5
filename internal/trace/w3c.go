package trace

import (
	"encoding/hex"
	"fmt"
	"strings"
)

// TraceparentHeader is the W3C Trace Context propagation header carried by
// the live data path (NodeAgent -> gateway -> upstream).
const TraceparentHeader = "traceparent"

// flagSampled is the W3C trace-flags bit for a head-sampled trace.
const flagSampled = 0x01

// traceparentLen is the length of a version-00 traceparent value.
const traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// Traceparent renders a version-00 traceparent header value:
// 00-<32 hex trace id>-<16 hex parent span id>-<2 hex flags>.
//
//canal:hotpath
func Traceparent(id TraceID, span SpanID, sampled bool) string {
	b := [traceparentLen]byte{0: '0', 1: '0', 2: '-', 35: '-', 52: '-', 53: '0', 54: '0'}
	hex.Encode(b[3:35], id[:])
	hex.Encode(b[36:52], span[:])
	if sampled {
		b[54] = '0' + flagSampled
	}
	//canal:allow hotpath the returned header value is the one allocation a render makes
	return string(b[:])
}

// ParseTraceparent parses a traceparent header value, returning the trace
// ID, the parent span ID, and the sampled flag. Per the W3C spec it rejects
// the all-zero IDs, non-hex fields, and the reserved version ff; unknown
// future versions are accepted as long as the version-00 prefix fields
// parse. It decodes in place and allocates only the error of a rejection.
//
//canal:hotpath
func ParseTraceparent(s string) (TraceID, SpanID, bool, error) {
	version, rest, _ := strings.Cut(s, "-")
	rawID, rest, _ := strings.Cut(rest, "-")
	rawSpan, rest, ok := strings.Cut(rest, "-")
	if !ok {
		return badTraceparent(s, "want 4 dash-separated fields")
	}
	rawFlags, _, more := strings.Cut(rest, "-")
	if len(version) != 2 || len(rawID) != 32 || len(rawSpan) != 16 || len(rawFlags) != 2 {
		return badTraceparent(s, "bad field lengths")
	}
	var v, flags [1]byte
	if !unhex(v[:], version) || v[0] == 0xff {
		return badTraceparent(s, "bad version")
	}
	if v[0] == 0 && more {
		return badTraceparent(s, "version 00 allows exactly 4 fields")
	}
	var id TraceID
	var span SpanID
	if !unhex(id[:], rawID) {
		return badTraceparent(s, "bad trace id")
	}
	if !unhex(span[:], rawSpan) {
		return badTraceparent(s, "bad span id")
	}
	if !unhex(flags[:], rawFlags) {
		return badTraceparent(s, "bad flags")
	}
	if id.IsZero() || span.IsZero() {
		return badTraceparent(s, "zero trace/span id")
	}
	return id, span, flags[0]&flagSampled != 0, nil
}

// unhex decodes the 2*len(dst) hex digits of s, either case, as hex.Decode
// does.
func unhex(dst []byte, s string) bool {
	for i := range dst {
		hi, lo := fromHex(s[2*i]), fromHex(s[2*i+1])
		if hi > 0xf || lo > 0xf {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func fromHex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 0xff
}

// badTraceparent is every rejection: zero IDs and an error naming what is
// wrong with s.
func badTraceparent(s, why string) (TraceID, SpanID, bool, error) {
	//canal:allow hotpath reject path: one error for a header that is already refused
	return TraceID{}, SpanID{}, false, fmt.Errorf("trace: traceparent %q: %s", s, why)
}
