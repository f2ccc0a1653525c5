package keyserver

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"canalmesh/internal/meshcrypto"
)

func testSetup(t *testing.T) (*meshcrypto.CA, *meshcrypto.Identity, *meshcrypto.Identity, *Server) {
	t.Helper()
	ca, err := meshcrypto.NewCA("ca")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.IssueIdentity("spiffe://t1/sa/web")
	if err != nil {
		t.Fatal(err)
	}
	server, err := ca.IssueIdentity("spiffe://t1/sa/api")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("ks-az1")
	if err != nil {
		t.Fatal(err)
	}
	return ca, client, server, srv
}

func TestEntrustHoldsForget(t *testing.T) {
	_, client, _, srv := testSetup(t)
	if srv.Holds(client.ID) {
		t.Error("fresh server should hold nothing")
	}
	if err := srv.Entrust(client); err != nil {
		t.Fatal(err)
	}
	if !srv.Holds(client.ID) {
		t.Error("entrusted key should be held")
	}
	srv.Forget(client.ID)
	if srv.Holds(client.ID) {
		t.Error("forgotten key should be gone")
	}
}

func TestRemoteHandshakeViaKeyServer(t *testing.T) {
	// Full mTLS handshake where BOTH sides offload their asymmetric phase
	// to the key server — the Canal deployment (on-node proxy + gateway).
	ca, client, server, srv := testSetup(t)
	if err := srv.Entrust(client); err != nil {
		t.Fatal(err)
	}
	if err := srv.Entrust(server); err != nil {
		t.Fatal(err)
	}
	chC, err := srv.Establish("node-proxy-1")
	if err != nil {
		t.Fatal(err)
	}
	chS, err := srv.Establish("gw-replica-1")
	if err != nil {
		t.Fatal(err)
	}
	opsC := NewRemoteKeyOps("node-proxy-1", chC, srv)
	opsS := NewRemoteKeyOps("gw-replica-1", chS, srv)

	hello, off, err := meshcrypto.Offer(client.ID, client.CertDER, ca, opsC)
	if err != nil {
		t.Fatal(err)
	}
	sh, acc, err := meshcrypto.Accept(server.ID, server.CertDER, ca, opsS, hello)
	if err != nil {
		t.Fatal(err)
	}
	cs, fin, peerID, err := off.Finish(sh)
	if err != nil {
		t.Fatal(err)
	}
	if peerID != server.ID {
		t.Errorf("peer = %q", peerID)
	}
	if err := acc.VerifyFinished(fin); err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello through remote mTLS")
	pt, err := acc.Session.Open(cs.Seal(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Error("round trip corrupted")
	}
	if srv.Operations() != 2 {
		t.Errorf("server ops = %d, want 2 (one per side)", srv.Operations())
	}
}

func TestUnverifiedRequesterRejected(t *testing.T) {
	_, client, _, srv := testSetup(t)
	if err := srv.Entrust(client); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Handle("stranger", []byte("sealed?")); !errors.Is(err, ErrUnverifiedRequester) {
		t.Errorf("err = %v, want ErrUnverifiedRequester", err)
	}
}

func TestWrongChannelKeyRejected(t *testing.T) {
	_, client, _, srv := testSetup(t)
	if err := srv.Entrust(client); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Establish("proxy-a"); err != nil {
		t.Fatal(err)
	}
	// An attacker with a channel for a different requester name cannot
	// impersonate proxy-a.
	chB, err := srv.Establish("proxy-b")
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := chB.seal([]byte("request"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Handle("proxy-a", sealed); err == nil {
		t.Error("cross-channel request must fail authentication")
	}
}

func TestRevokedChannel(t *testing.T) {
	_, _, _, srv := testSetup(t)
	ch, err := srv.Establish("proxy-a")
	if err != nil {
		t.Fatal(err)
	}
	srv.Revoke("proxy-a")
	sealed, _ := ch.seal([]byte("x"))
	if _, err := srv.Handle("proxy-a", sealed); !errors.Is(err, ErrUnverifiedRequester) {
		t.Errorf("err = %v, want ErrUnverifiedRequester", err)
	}
}

func TestUnknownIdentityErrorPropagates(t *testing.T) {
	ca, client, _, srv := testSetup(t)
	// Key NOT entrusted.
	ch, err := srv.Establish("proxy-a")
	if err != nil {
		t.Fatal(err)
	}
	ops := NewRemoteKeyOps("proxy-a", ch, srv)
	hello, _, err := meshcrypto.Offer(client.ID, client.CertDER, ca, meshcrypto.NewLocalKeyOps(client))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = meshcrypto.Accept(client.ID, client.CertDER, ca, ops, hello)
	if err == nil || !strings.Contains(err.Error(), "no key stored") {
		t.Errorf("err = %v, want remote unknown-identity error", err)
	}
}

func TestRestartFlushesKeys(t *testing.T) {
	_, client, _, srv := testSetup(t)
	if err := srv.Entrust(client); err != nil {
		t.Fatal(err)
	}
	if err := srv.Restart(); err != nil {
		t.Fatal(err)
	}
	if srv.Holds(client.ID) {
		t.Error("restart must flush all keys")
	}
}

func TestFallbackKeyOps(t *testing.T) {
	ca, client, server, srv := testSetup(t)
	// Remote ops with nothing entrusted: always fails -> falls back to
	// local software crypto.
	ch, err := srv.Establish("proxy-a")
	if err != nil {
		t.Fatal(err)
	}
	remote := NewRemoteKeyOps("proxy-a", ch, srv)
	local := meshcrypto.NewLocalKeyOps(client, server)
	fb := &FallbackKeyOps{Primary: remote, Secondary: local}

	hello, off, err := meshcrypto.Offer(client.ID, client.CertDER, ca, fb)
	if err != nil {
		t.Fatal(err)
	}
	sh, _, err := meshcrypto.Accept(server.ID, server.CertDER, ca, fb, hello)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := off.Finish(sh); err != nil {
		t.Fatal(err)
	}
	if fb.Fallbacks() != 2 {
		t.Errorf("fallbacks = %d, want 2", fb.Fallbacks())
	}
}

func TestCompletionModelDegradationBelowBatchSize(t *testing.T) {
	// Fig. 25: below 8 concurrent connections, local AVX-512 acceleration
	// is slower than unaccelerated software crypto.
	local := CompletionModel{BatchSize: 8, Timeout: time.Millisecond, BatchCost: 125 * time.Microsecond}
	soft := 2 * time.Millisecond // software asymmetric crypto, no batching
	if local.Complete(4) >= soft {
		t.Errorf("4 concurrent: accel %v should still beat 2ms soft in this calibration", local.Complete(4))
	}
	if local.Complete(4) <= local.Complete(8) {
		t.Error("partial batches must be slower than full batches")
	}
	if local.Complete(8) != 125*time.Microsecond {
		t.Errorf("full batch = %v", local.Complete(8))
	}
	if local.Complete(0) != local.Complete(1) {
		t.Error("non-positive concurrency should clamp to 1")
	}
}

func TestCompletionModelRemoteStability(t *testing.T) {
	// Fig. 23: remote completion ~1.7ms regardless of workload because the
	// shared server always has full batches; local is ~1ms only when its
	// own batch fills.
	remote := CompletionModel{BatchSize: 8, Timeout: time.Millisecond, BatchCost: 125 * time.Microsecond, RPCRoundTrip: 500 * time.Microsecond}
	lowLoad := remote.Complete(8) // shared server: batches always full
	if lowLoad != 625*time.Microsecond {
		t.Errorf("remote full-batch completion = %v", lowLoad)
	}
}

func TestChannelOpenShortPayload(t *testing.T) {
	_, _, _, srv := testSetup(t)
	ch, err := srv.Establish("p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.open([]byte{1, 2}); err == nil {
		t.Error("short payload should error")
	}
}
