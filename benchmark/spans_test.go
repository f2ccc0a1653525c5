package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// selfTime is a span's duration minus the part of its interval that its
// children cover (children may overlap each other and are clipped to the
// parent).
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), parent.Start
	for _, v := range ivs {
		if v.a > edge {
			edge = v.a
		}
		if v.b > edge {
			covered += v.b - edge
			edge = v.b
		}
	}
	return parent.dur() - covered
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 130},
		{Start: 120, End: 150}, // overlaps the first: 110..150 covered once
		{Start: 190, End: 260}, // clipped to the parent: 190..200
		{Start: 10, End: 20},   // outside the parent: ignored
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time = %d, want 100 - 40 - 10 = 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestJoinReconciles(t *testing.T) {
	spans := []span{
		{Req: 7, Name: "client", Start: 1000, End: 1900},
		{Req: 7, Name: "upstream", Parent: "client", Start: 1400, End: 1500},
		{Req: 8, Name: "client", Start: 2000, End: 2300}, // denied: never reached an upstream
		{Req: 9, Name: "upstream", Parent: "client", Start: 1, End: 2},
	}
	js := joinSpans(spans)
	if len(js) != 1 {
		t.Fatalf("joined %d requests, want 1", len(js))
	}
	s := js[0].split()
	if s.pre != 400 || s.upstream != 100 || s.post != 400 || s.resident() != 800 {
		t.Errorf("split %+v", s)
	}
	if s.pre+s.upstream+s.post != spans[0].dur() {
		t.Error("pre + upstream + post must equal the client span")
	}

	derived := withGatewaySpans(spans)
	var children []span
	for _, d := range derived {
		if d.Req == 7 && d.Parent == "client" {
			children = append(children, d)
		}
	}
	if len(children) != 3 {
		t.Fatalf("request 7 has %d child spans, want upstream plus the two derived", len(children))
	}
	if got := selfTime(spans[0], children); got != 0 {
		t.Errorf("client self time = %d, want 0: its children tile it", got)
	}
}

func TestWriteSpansCapsAndOrders(t *testing.T) {
	var spans []span
	for req := spanFileRequests + 10; req >= 0; req-- {
		spans = append(spans,
			span{Req: uint64(req), Name: "b", Parent: "a", Start: 5, End: 6},
			span{Req: uint64(req), Name: "a", Start: 1, End: 9})
	}
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2*spanFileRequests {
		t.Fatalf("wrote %d spans, want those of %d requests", len(got), spanFileRequests)
	}
	if got[0] != (span{Req: 0, Name: "a", Start: 1, End: 9}) || got[1].Name != "b" || got[1].Parent != "a" {
		t.Errorf("first spans %+v %+v: want request 0, root first", got[0], got[1])
	}
	if last := got[len(got)-1]; last.Req != spanFileRequests-1 {
		t.Errorf("last request written is %d, want %d", last.Req, spanFileRequests-1)
	}
}
