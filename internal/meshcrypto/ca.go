// Package meshcrypto implements the zero-trust cryptographic substrate of
// the mesh: a certificate authority issuing per-workload identities, a
// simplified 1-RTT mutual-TLS handshake (ECDSA identity signatures, ECDHE
// key agreement, HKDF key derivation, AES-GCM record protection), and the
// KeyOps seam that lets the expensive asymmetric operations run locally, on
// accelerated hardware, or on a remote key server (§4.1.3) — including the
// keyless mode where private keys never leave the customer premises
// (Appendix B).
package meshcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// maxVerifiedPeers bounds a CA's memo of verified certificates. A full memo
// is dropped whole and refills from the certificates still in use.
const maxVerifiedPeers = 1024

// CA is the mesh certificate authority. Each tenant gets its own CA so that
// identities are scoped to the tenant's trust domain.
type CA struct {
	name string
	key  *ecdsa.PrivateKey
	cert *x509.Certificate
	der  []byte
	seq  atomic.Int64
	// now is the clock certificate lifetimes are checked against: time.Now,
	// but for tests.
	now func() time.Time

	// verified memoises VerifyPeer: the certificates that passed every check,
	// keyed by their exact DER bytes. It is per CA, so one trust domain's
	// identities never evict another's, and a new CA starts empty.
	mu       sync.Mutex
	verified map[string]verifiedPeer
}

// verifiedPeer is what VerifyPeer learnt from a certificate that passed.
type verifiedPeer struct {
	id                  string
	pub                 *ecdsa.PublicKey
	notBefore, notAfter time.Time
}

// NewCA creates a CA with a fresh P-256 key.
func NewCA(name string) (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: generating CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name},
		NotBefore:             time.Unix(0, 0),
		NotAfter:              time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: self-signing CA cert: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{name: name, key: key, cert: cert, der: der, now: time.Now, verified: make(map[string]verifiedPeer)}, nil
}

// Name returns the CA's common name.
func (ca *CA) Name() string { return ca.name }

// CertDER returns the CA certificate in DER form for distribution.
func (ca *CA) CertDER() []byte { return ca.der }

// Identity is one workload's certified keypair. The SPIFFE-style ID is
// carried as a URI SAN in the certificate, the way Istio identifies pods.
type Identity struct {
	ID      string
	Key     *ecdsa.PrivateKey
	CertDER []byte
}

// IssueIdentity creates a new identity certified by the CA.
func (ca *CA) IssueIdentity(spiffeID string) (*Identity, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: generating identity key: %w", err)
	}
	uri, err := url.Parse(spiffeID)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: bad identity %q: %w", spiffeID, err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(ca.seq.Add(1) + 1),
		Subject:      pkix.Name{CommonName: spiffeID},
		URIs:         []*url.URL{uri},
		NotBefore:    time.Unix(0, 0),
		NotAfter:     time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth, x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return nil, fmt.Errorf("meshcrypto: signing identity cert: %w", err)
	}
	return &Identity{ID: spiffeID, Key: key, CertDER: der}, nil
}

// VerifyPeer checks that a peer certificate was issued by this CA and is
// within its validity window now, and returns the embedded identity. A
// certificate is parsed and its CA signature checked the first time it is
// seen; after that only its lifetime is checked again, and the key returned
// is the one every caller presenting that certificate gets: read it only.
func (ca *CA) VerifyPeer(certDER []byte) (string, *ecdsa.PublicKey, error) {
	now := ca.now()
	ca.mu.Lock()
	p, hit := ca.verified[string(certDER)]
	ca.mu.Unlock()
	if !hit {
		var err error
		if p, err = ca.verify(certDER); err != nil {
			return "", nil, err
		}
	}
	if now.Before(p.notBefore) || now.After(p.notAfter) {
		return "", nil, fmt.Errorf("meshcrypto: peer cert for %s is valid from %v to %v, not at %v",
			p.id, p.notBefore, p.notAfter, now)
	}
	if !hit {
		ca.mu.Lock()
		if len(ca.verified) >= maxVerifiedPeers {
			clear(ca.verified)
		}
		ca.verified[string(certDER)] = p
		ca.mu.Unlock()
	}
	return p.id, p.pub, nil
}

// verify is VerifyPeer's full check of a certificate it has not seen, all
// but the lifetime.
func (ca *CA) verify(certDER []byte) (verifiedPeer, error) {
	cert, err := x509.ParseCertificate(certDER)
	if err != nil {
		return verifiedPeer{}, fmt.Errorf("meshcrypto: parsing peer cert: %w", err)
	}
	if err := cert.CheckSignatureFrom(ca.cert); err != nil {
		return verifiedPeer{}, fmt.Errorf("meshcrypto: peer cert not issued by %s: %w", ca.name, err)
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return verifiedPeer{}, errors.New("meshcrypto: peer cert key is not ECDSA")
	}
	if len(cert.URIs) == 0 {
		return verifiedPeer{}, errors.New("meshcrypto: peer cert carries no identity URI")
	}
	return verifiedPeer{id: cert.URIs[0].String(), pub: pub, notBefore: cert.NotBefore, notAfter: cert.NotAfter}, nil
}
