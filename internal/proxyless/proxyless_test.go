package proxyless

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestFeatureMatrix(t *testing.T) {
	m := FeatureMatrix()
	if m[FeatureTrafficControl] != Full {
		t.Error("traffic control lives at the gateway: full")
	}
	if m[FeatureNodeObservability] != Unavailable {
		t.Error("node observability is lost without an on-node proxy")
	}
	if m[FeatureGatewayObservability] != Full {
		t.Error("gateway observability remains")
	}
	if m[FeatureEncryption] != SemiManaged {
		t.Error("encryption degrades to semi-managed")
	}
	if m[FeatureAuthentication] != Partial {
		t.Error("authentication degrades to ENI-based partial")
	}
	for f, s := range m {
		if f.String() == "" || s.String() == "" {
			t.Error("stringers must not be empty")
		}
	}
	if Feature(99).String() == "" {
		t.Error("unknown feature should stringify")
	}
}

func pool(n int) []netip.Addr {
	var out []netip.Addr
	for i := 0; i < n; i++ {
		out = append(out, addr(fmt.Sprintf("10.1.0.%d", i+1)))
	}
	return out
}

func TestENIAttachLimits(t *testing.T) {
	m := NewENIManager(3, 10*ENIMemoryKB, pool(10))
	for i := 0; i < 3; i++ {
		if _, err := m.Attach(fmt.Sprintf("c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Attach("c3"); !errors.Is(err, ErrENILimit) {
		t.Errorf("quota: err = %v, want ErrENILimit", err)
	}
	if m.Count() != 3 {
		t.Errorf("Count = %d", m.Count())
	}
}

func TestENIMemoryBudget(t *testing.T) {
	m := NewENIManager(100, 2*ENIMemoryKB, pool(10))
	m.Attach("a")
	m.Attach("b")
	if _, err := m.Attach("c"); !errors.Is(err, ErrENILimit) {
		t.Errorf("memory: err = %v, want ErrENILimit", err)
	}
}

func TestENIIPPoolExhaustion(t *testing.T) {
	m := NewENIManager(100, 1<<20, pool(2))
	m.Attach("a")
	m.Attach("b")
	if _, err := m.Attach("c"); !errors.Is(err, ErrENILimit) {
		t.Errorf("pool: err = %v, want ErrENILimit", err)
	}
}

func TestENIAttachIdempotentAndDetach(t *testing.T) {
	m := NewENIManager(10, 1<<20, pool(10))
	e1, err := m.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := m.Attach("a")
	if e1 != e2 {
		t.Error("re-attach should return the existing interface")
	}
	m.Detach("a")
	if m.Count() != 0 {
		t.Error("detach should remove")
	}
}

func TestENIDistinctIPs(t *testing.T) {
	m := NewENIManager(10, 1<<20, pool(10))
	seen := map[netip.Addr]bool{}
	for i := 0; i < 5; i++ {
		e, err := m.Attach(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if seen[e.IP] {
			t.Fatal("duplicate interface IP")
		}
		seen[e.IP] = true
	}
}
