package trace

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// oracleParseTraceparent is ParseTraceparent as it was before the in-place
// decoder: split on dashes, decode each field with encoding/hex. It stays
// here, unchanged, as the reference FuzzParseTraceparent compares against.
func oracleParseTraceparent(s string) (TraceID, SpanID, bool, error) {
	var id TraceID
	var span SpanID
	parts := strings.Split(s, "-")
	if len(parts) < 4 {
		return id, span, false, fmt.Errorf("trace: traceparent %q: want 4 dash-separated fields", s)
	}
	if len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return id, span, false, fmt.Errorf("trace: traceparent %q: bad field lengths", s)
	}
	version, err := hex.DecodeString(parts[0])
	if err != nil || version[0] == 0xff {
		return id, span, false, fmt.Errorf("trace: traceparent %q: bad version", s)
	}
	if version[0] == 0 && len(parts) != 4 {
		return id, span, false, fmt.Errorf("trace: traceparent %q: version 00 allows exactly 4 fields", s)
	}
	rawID, err := hex.DecodeString(parts[1])
	if err != nil {
		return id, span, false, fmt.Errorf("trace: traceparent %q: bad trace id", s)
	}
	rawSpan, err := hex.DecodeString(parts[2])
	if err != nil {
		return id, span, false, fmt.Errorf("trace: traceparent %q: bad span id", s)
	}
	flags, err := hex.DecodeString(parts[3])
	if err != nil {
		return id, span, false, fmt.Errorf("trace: traceparent %q: bad flags", s)
	}
	copy(id[:], rawID)
	copy(span[:], rawSpan)
	if id.IsZero() || span.IsZero() {
		return TraceID{}, SpanID{}, false, fmt.Errorf("trace: traceparent %q: zero trace/span id", s)
	}
	return id, span, flags[0]&flagSampled != 0, nil
}

// FuzzParseTraceparent checks that the parser and the oracle agree on every
// input: the same IDs and flag, and the same error, text included.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-0F", // upper-case hex
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // reserved version
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong dashes
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e473-600f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",   // 54 bytes
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011", // 56 bytes
		"00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01",  // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, span, sampled, err := ParseTraceparent(s)
		wantID, wantSpan, wantSampled, wantErr := oracleParseTraceparent(s)
		if id != wantID || span != wantSpan || sampled != wantSampled {
			t.Errorf("ParseTraceparent(%q) = %v %v %v, oracle %v %v %v", s, id, span, sampled, wantID, wantSpan, wantSampled)
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("ParseTraceparent(%q) error = %v, oracle %v", s, err, wantErr)
		}
	})
}

// TestParseTraceparentAcceptsWithoutAllocating covers what the hot-path
// ledger's one version-00 value does not: a future version with a fifth
// field is accepted at no allocation too.
func TestParseTraceparentAcceptsWithoutAllocating(t *testing.T) {
	for _, s := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-00-what",
	} {
		var err error
		if n := testing.AllocsPerRun(100, func() { _, _, _, err = ParseTraceparent(s) }); n != 0 || err != nil {
			t.Errorf("ParseTraceparent(%q): %v allocs/op, err %v; want 0, nil", s, n, err)
		}
	}
}
