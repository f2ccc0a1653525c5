package meshcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"net/url"
	"sync"
	"testing"
	"time"
)

// mintCert signs a certificate for spiffeID with ca's key, valid from
// notBefore to notAfter — a lifetime IssueIdentity never stamps.
func mintCert(t *testing.T, ca *CA, spiffeID string, notBefore, notAfter time.Time) []byte {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uri, err := url.Parse(spiffeID)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1 << 40),
		Subject:      pkix.Name{CommonName: spiffeID},
		URIs:         []*url.URL{uri},
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// memoLen is how many certificates ca has memoised.
func memoLen(ca *CA) int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return len(ca.verified)
}

func TestVerifyPeerRefusesExpired(t *testing.T) {
	ca, _, _, _ := testPKI(t)
	for _, c := range []struct {
		name string
		der  []byte
	}{
		{"expired", mintCert(t, ca, "spiffe://tenant1/sa/old", time.Unix(0, 0), time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC))},
		{"not yet valid", mintCert(t, ca, "spiffe://tenant1/sa/new", time.Date(9000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))},
	} {
		if id, _, err := ca.VerifyPeer(c.der); err == nil {
			t.Errorf("%s certificate accepted as %q", c.name, id)
		}
	}
	if n := memoLen(ca); n != 0 {
		t.Errorf("memo holds %d certificates after refusing every one", n)
	}
}

func TestVerifyPeerMemoDoesNotOutliveCert(t *testing.T) {
	ca, _, _, _ := testPKI(t)
	clock := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	ca.now = func() time.Time { return clock }
	der := mintCert(t, ca, "spiffe://tenant1/sa/short", clock.Add(-time.Hour), clock.Add(time.Hour))
	if _, _, err := ca.VerifyPeer(der); err != nil {
		t.Fatal(err)
	}
	if n := memoLen(ca); n != 1 {
		t.Fatalf("memo holds %d certificates, want the one verified", n)
	}
	clock = clock.Add(2 * time.Hour)
	if id, _, err := ca.VerifyPeer(der); err == nil {
		t.Errorf("memoised certificate accepted as %q after its NotAfter", id)
	}
}

func TestIssueIdentityConcurrent(t *testing.T) {
	ca, err := NewCA("tenant1-ca")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 50
	serials := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := ca.IssueIdentity("spiffe://tenant1/sa/w")
				if err != nil {
					t.Error(err)
					return
				}
				cert, err := x509.ParseCertificate(id.CertDER)
				if err != nil {
					t.Error(err)
					return
				}
				serials[g] = append(serials[g], cert.SerialNumber.String())
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool)
	for _, ss := range serials {
		for _, s := range ss {
			if seen[s] {
				t.Errorf("serial %s issued twice", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != goroutines*each {
		t.Errorf("%d distinct serials, want %d", len(seen), goroutines*each)
	}
}

func TestVerifyPeerMemoIsPerCA(t *testing.T) {
	a, client, _, _ := testPKI(t)
	b, err := NewCA("tenant2-ca")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.VerifyPeer(client.CertDER); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if id, _, err := b.VerifyPeer(client.CertDER); err == nil {
			t.Fatalf("CA b accepted %q, which only CA a verified", id)
		}
	}
	if n := memoLen(b); n != 0 {
		t.Errorf("CA b memoised %d certificates it refused", n)
	}
}

func TestVerifyPeerFailuresNotMemoised(t *testing.T) {
	ca, client, _, _ := testPKI(t)
	other, err := NewCA("attacker-ca")
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.IssueIdentity(client.ID)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), client.CertDER...)
	forged[len(forged)-1] ^= 0xFF // the CA's signature no longer matches
	for i := 0; i < 3; i++ {
		for _, c := range []struct {
			name string
			der  []byte
		}{
			{"foreign", foreign.CertDER},
			{"forged", forged},
			{"truncated", client.CertDER[:len(client.CertDER)/2]},
			{"garbage", []byte("junk")},
		} {
			if id, _, err := ca.VerifyPeer(c.der); err == nil {
				t.Fatalf("%s certificate accepted as %q on try %d", c.name, id, i)
			}
		}
	}
	if n := memoLen(ca); n != 0 {
		t.Errorf("memo holds %d certificates, all of them refused", n)
	}
}

func TestVerifyPeerMemoBound(t *testing.T) {
	ca, err := NewCA("tenant1-ca")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]*Identity, maxVerifiedPeers+maxVerifiedPeers/4)
	for i := range ids {
		if ids[i], err = ca.IssueIdentity("spiffe://tenant1/sa/w"); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, id := range ids {
			if got, _, err := ca.VerifyPeer(id.CertDER); err != nil || got != id.ID {
				t.Fatalf("pass %d, identity %d: VerifyPeer = %q, %v", pass, i, got, err)
			}
			if n := memoLen(ca); n > maxVerifiedPeers {
				t.Fatalf("pass %d, identity %d: memo holds %d certificates, bound %d", pass, i, n, maxVerifiedPeers)
			}
		}
	}
}

// TestVerifyPeerConcurrent verifies the same certificates, some memoised and
// some refused, from eight goroutines at once. Run under -race.
func TestVerifyPeerConcurrent(t *testing.T) {
	ca, err := NewCA("tenant1-ca")
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewCA("attacker-ca")
	if err != nil {
		t.Fatal(err)
	}
	var valid, foreign []*Identity
	for i := 0; i < 6; i++ {
		id, err := ca.IssueIdentity("spiffe://tenant1/sa/w")
		if err != nil {
			t.Fatal(err)
		}
		valid = append(valid, id)
		if id, err = other.IssueIdentity("spiffe://tenant1/sa/w"); err != nil {
			t.Fatal(err)
		}
		foreign = append(foreign, id)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := (g + i) % len(valid)
				id, pub, err := ca.VerifyPeer(valid[k].CertDER)
				if err != nil || id != valid[k].ID || !pub.Equal(&valid[k].Key.PublicKey) {
					t.Errorf("goroutine %d: valid certificate %d: %q, %v", g, k, id, err)
					return
				}
				if id, _, err := ca.VerifyPeer(foreign[k].CertDER); err == nil {
					t.Errorf("goroutine %d: foreign certificate %d accepted as %q", g, k, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := memoLen(ca); n != len(valid) {
		t.Errorf("memo holds %d certificates, want the %d valid ones", n, len(valid))
	}
}
