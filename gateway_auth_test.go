package canal

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// errCaptured is what captureTransport answers in place of a response.
var errCaptured = errors.New("request captured, not sent")

// captureTransport keeps the headers of the request it is handed and sends
// nothing.
type captureTransport struct{ header http.Header }

func (c *captureTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.header = r.Header
	return nil, errCaptured
}

// signedHeaders returns the header set a NodeAgent of tenant1 holding id
// sends with a GET of target on service.
func signedHeaders(tb testing.TB, id *Identity, service, target string) http.Header {
	tb.Helper()
	ct := &captureTransport{}
	agent := &NodeAgent{Tenant: "tenant1", Identity: id, Gateway: "http://gateway.invalid", Client: &http.Client{Transport: ct}}
	if _, err := agent.Get(service, target); !errors.Is(err, errCaptured) {
		tb.Fatalf("signing %s %s: %v", service, target, err)
	}
	return ct.header
}

func TestSignedRequestDoesNotReplayToAnotherService(t *testing.T) {
	web, payments := echoServer("web"), echoServer("payments")
	defer web.Close()
	defer payments.Close()
	gwSrv, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {web.URL}}, true)
	if err := gw.ConfigureService("tenant1", ServiceConfig{Service: "payments", DefaultSubset: "v1"},
		map[string][]string{"v1": {payments.URL}}); err != nil {
		t.Fatal(err)
	}
	captured := signedHeaders(t, agent.Identity, "web", "/hello")
	send := func(service string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, gwSrv.URL+"/hello", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header = captured.Clone()
		req.Header.Set(HeaderService, service)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := send("web"); status != http.StatusOK {
		t.Fatalf("the captured request itself: status %d, want 200", status)
	}
	if status := send("payments"); status != http.StatusForbidden {
		t.Errorf("captured headers re-aimed at payments: status %d, want 403", status)
	}
}

func TestSignedRequestWithQuery(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%s?%s", r.URL.Path, r.URL.RawQuery)
	}))
	defer upstream.Close()
	_, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {upstream.URL}}, true)
	resp, err := agent.Get("web", "/hello?x=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("signed request with a query: status %d, want 200", resp.StatusCode)
	}
	if body := readBody(t, resp); body != "/hello?x=1" {
		t.Errorf("upstream saw %q, want /hello?x=1", body)
	}
}

// TestGatewayForwardsVerifiedSource sends a signed request whose client
// claims X-Canal-Source: admin. The signature covers the certificate's
// identity, not that header, so the upstream and the mirror must both be
// told the verified source, client. Neither is sent the credential: the
// certificate, signature and timestamp are the gateway's to verify, and
// stop there.
func TestGatewayForwardsVerifiedSource(t *testing.T) {
	primary, shadow := make(chan string, 1), make(chan string, 1)
	v1, v2 := recordingUpstream(primary), recordingUpstream(shadow)
	defer v1.Close()
	defer v2.Close()
	gwSrv, agent, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1",
		Rules: []Rule{{Name: "mirror", MirrorTo: "shadow"}}},
		map[string][]string{"v1": {v1.URL}, "shadow": {v2.URL}}, true)
	req, err := http.NewRequest(http.MethodGet, gwSrv.URL+"/hello", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header = signedHeaders(t, agent.Identity, "web", "/hello")
	req.Header.Set(HeaderSource, "admin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, to := range []struct {
		name string
		got  <-chan string
	}{{"upstream", primary}, {"mirror", shadow}} {
		got := <-to.got
		if !strings.Contains(got, "\nX-Canal-Source: client\n") {
			t.Errorf("%s received:\n%s\nwant X-Canal-Source: client, the verified source", to.name, got)
		}
		for _, credential := range []string{HeaderCert, HeaderSignature, HeaderTimestamp} {
			if strings.Contains(got, "\n"+credential+": ") {
				t.Errorf("%s received %s: the credential must stop at the gateway", to.name, credential)
			}
		}
	}
}

// TestGatewayAuthRotatedCARefusesOldIdentity replaces a tenant's CA after
// one of its identities was verified (and memoised): the old identity is
// refused from then on, and one the new CA issued is accepted.
func TestGatewayAuthRotatedCARefusesOldIdentity(t *testing.T) {
	v1 := echoServer("v1")
	defer v1.Close()
	gwSrv, agent, gw := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"},
		map[string][]string{"v1": {v1.URL}}, true)
	get := func(a *NodeAgent) int {
		t.Helper()
		resp, err := a.Get("web", "/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := get(agent); status != http.StatusOK {
		t.Fatalf("before rotation: status %d, want 200", status)
	}
	rotated, err := NewCA("tenant1-ca")
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.RegisterTenant("tenant1", rotated); err != nil {
		t.Fatal(err)
	}
	if status := get(agent); status != http.StatusForbidden {
		t.Errorf("old identity after rotation: status %d, want 403", status)
	}
	id, err := rotated.IssueIdentity(agent.Identity.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status := get(NewNodeAgent("tenant1", id, gwSrv.URL)); status != http.StatusOK {
		t.Errorf("identity of the new CA: status %d, want 200", status)
	}
}

// FuzzAuthenticate feeds authenticate arbitrary identity headers, service
// names and request targets. Whatever arrives, it must not panic, and it may
// accept only the seeded identity, for the one service and target it signed.
// Each fuzzing process mints its own CA, so a worker process sees the seeded
// certificate as foreign: the second call, which re-signs the input's
// service and target with the process's own identity and presents them as the
// seeded request, keeps the signature check and the success path within the
// fuzzer's reach in every process.
func FuzzAuthenticate(f *testing.F) {
	const service, target = "web", "/hello?x=1"
	ca, err := NewCA("tenant1-ca")
	if err != nil {
		f.Fatal(err)
	}
	id, err := ca.IssueIdentity("spiffe://tenant1/ns/default/sa/client")
	if err != nil {
		f.Fatal(err)
	}
	attacker, err := NewCA("attacker-ca")
	if err != nil {
		f.Fatal(err)
	}
	impostor, err := attacker.IssueIdentity(id.ID)
	if err != nil {
		f.Fatal(err)
	}
	valid, forged := signedHeaders(f, id, service, target), signedHeaders(f, impostor, service, target)
	cert, sig, ts := valid.Get(HeaderCert), valid.Get(HeaderSignature), valid.Get(HeaderTimestamp)
	request := func(cert, sig, ts, target string) *http.Request {
		return &http.Request{Method: http.MethodGet, RequestURI: target, Header: http.Header{
			HeaderCert: {cert}, HeaderSignature: {sig}, HeaderTimestamp: {ts},
		}}
	}
	if got, err := authenticate(request(cert, sig, ts, target), "tenant1", service, ca); err != nil || got != id.ID {
		f.Fatalf("the valid seed: authenticate = %q, %v", got, err)
	}
	f.Add(cert, sig, ts, service, target)
	f.Add(cert[:len(cert)/2], sig, ts, service, target)
	f.Add(cert, sig[:len(sig)-4], ts, service, target)
	f.Add(strings.TrimRight(cert, "="), sig, ts, service, target)
	f.Add(base64.URLEncoding.EncodeToString(id.CertDER), sig, ts, service, target)
	f.Add(forged.Get(HeaderCert), forged.Get(HeaderSignature), forged.Get(HeaderTimestamp), service, target)
	f.Add(cert, sig, ts, "payments", target)
	f.Add(cert, sig, ts, service, "/hello")
	f.Fuzz(func(t *testing.T, certIn, sigIn, tsIn, serviceIn, targetIn string) {
		got, err := authenticate(request(certIn, sigIn, tsIn, targetIn), "tenant1", serviceIn, ca)
		if err == nil && (got != id.ID || serviceIn != service || targetIn != target || tsIn != ts) {
			t.Fatalf("accepted %q for service %q, target %q, timestamp %q", got, serviceIn, targetIn, tsIn)
		}
		resigned, err := signASN1(id, signingPayload("tenant1", serviceIn, id.ID, http.MethodGet, targetIn, tsIn))
		if err != nil {
			t.Fatal(err)
		}
		got, err = authenticate(request(cert, base64.StdEncoding.EncodeToString(resigned), tsIn, target), "tenant1", service, ca)
		if err == nil && (got != id.ID || serviceIn != service || targetIn != target) {
			t.Fatalf("a signature over service %q, target %q accepted for %s %s", serviceIn, targetIn, service, target)
		}
	})
}
