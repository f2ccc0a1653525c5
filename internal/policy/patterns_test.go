package policy

import (
	"regexp"
	"strings"
	"testing"
)

// TestAnchoredPrefixKeepsRegexSemantics checks that the prefix test Matches
// runs ahead of a regex never changes its verdict: for patterns the prefix
// applies to and patterns it must not (case folding, multi-line ^, an
// alternation, a capture, an unanchored or empty pattern, a U+FFFD literal
// an invalid byte decodes to), Matches agrees with regexp on inputs on both
// sides of the prefix, and the prefix read is the one expected.
func TestAnchoredPrefixKeepsRegexSemantics(t *testing.T) {
	for _, tc := range []struct {
		pattern, prefix string
	}{
		{`^/a.*`, "/a"},
		{`^/ab$`, "/ab"},
		{`(?i)^/ab`, ""},
		{`(?m)^/a`, ""},
		{`^/a|^/b`, ""},
		{`^(/a)`, ""},
		{`^\Q/a.\E`, "/a."},
		{`^$`, ""},
		{`/a`, ""},
		{`^/é/x`, "/é/x"},
		{`^/ab*`, "/a"},
		{`^/a+b`, "/"},
		{`^/a(?i)b`, "/a"},
		{`^\x{FFFD}`, ""},
		{`^/v[0-9]+/r3/.*$`, "/v"},
	} {
		if got := anchoredPrefix(tc.pattern); got != tc.prefix {
			t.Errorf("anchoredPrefix(%q) = %q, want %q", tc.pattern, got, tc.prefix)
		}
		m := Regex(tc.pattern)
		if err := m.Compile(); err != nil {
			t.Fatal(err)
		}
		re := regexp.MustCompile(tc.pattern)
		for _, v := range probeValues(tc.pattern) {
			if got, want := m.Matches(v), re.MatchString(v); got != want {
				t.Errorf("Regex(%q).Matches(%q) = %v, regexp says %v", tc.pattern, v, got, want)
			}
		}
	}
}

// probeValues returns inputs around a pattern's literal text: the text
// itself, each of its prefixes, each extended, case-flipped and shifted
// past a newline, and a fixed set of short paths and invalid bytes.
func probeValues(pattern string) []string {
	lit := strings.NewReplacer(`^`, "", `$`, "", `\Q`, "", `\E`, "", `(?i)`, "", `(?m)`, "",
		`.*`, "", `*`, "", `+`, "", `(`, "", `)`, "", `|`, "", `\x{FFFD}`, "�").Replace(pattern)
	vs := []string{"", "/", "/a", "/A", "/ab", "/AB", "/aB", "/abb", "/a.", "/ax", "/b", "/ba",
		"\n/a", "x/a", "/é/x", "/e/x", "/v1/r3/x", "/v/r3/", "\xff", "\xef\xbf\xbd", "\xff/a"}
	for i := 0; i <= len(lit); i++ {
		p := lit[:i]
		vs = append(vs, p, p+"x", p+"\n", "x"+p, "\n"+p, strings.ToUpper(p), strings.ToLower(p)+"b")
	}
	return vs
}
