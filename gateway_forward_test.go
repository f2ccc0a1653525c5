package canal

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"canalmesh/internal/trace"
)

// recordingUpstream answers 200 and sends what it received — method,
// request URI, every header sorted by name, and the body — to got.
func recordingUpstream(got chan<- string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got <- fmt.Sprintf("%s %s\n%s\n%s", r.Method, r.URL.RequestURI(), headerLines(r.Header), body)
	}))
}

// headerLines renders h one line per header, sorted by name, several values
// joined by " | ".
func headerLines(h http.Header) string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(h)) {
		fmt.Fprintf(&b, "%s: %s\n", name, strings.Join(h[name], " | "))
	}
	return b.String()
}

// rawClient sends a request's headers as they were set, and hands back a
// reply's body and headers as they arrived: unlike the default client, it
// neither asks for gzip nor decompresses.
func rawClient(t *testing.T) *http.Client {
	tr := &http.Transport{DisableCompression: true}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// TestGatewayForwardedBytesGolden pins what an upstream receives from the
// gateway, byte for byte: method, path and query, and the complete header
// set, for a plain request, a request behind an earlier proxy, a rule that
// rewrites the path and sets and strips headers, a mirrored POST, and a
// client that asks for gzip. The gateway adds no Accept-Encoding of its own.
// A client's Connection header drops the headers it names and the
// hop-by-hop set from both the primary and the mirror, but never a header
// the gateway sets — not even the verified X-Canal-Source of a signed
// request — and a requested upgrade still goes through.
// The only normalised part is the span ID the gateway mints for traceparent
// (and the whole trace context when the client sent none).
func TestGatewayForwardedBytesGolden(t *testing.T) {
	const clientTrace = "0af7651916cd43dd8448eb211c80319c"
	const clientSpan = "b7ad6b7169203331"
	const clientTP = "00-" + clientTrace + "-" + clientSpan + "-01"

	primary, beta, shadow := make(chan string, 1), make(chan string, 1), make(chan string, 1)
	v1 := recordingUpstream(primary)
	defer v1.Close()
	v2 := recordingUpstream(beta)
	defer v2.Close()
	v3 := recordingUpstream(shadow)
	defer v3.Close()

	cfg := ServiceConfig{
		Service: "web", DefaultSubset: "v1",
		Rules: []Rule{
			{
				Name: "beta-users",
				Match: RouteMatch{
					Headers: []KVMatch{{Name: "X-User-Group", Match: Exact("beta")}},
					Cookies: []KVMatch{{Name: "lane", Match: Exact("b")}},
				},
				Splits:        []Split{{Subset: "beta", Weight: 1}},
				PathRewrite:   "/v2/home",
				SetHeaders:    map[string]string{"X-Injected": "by-gateway"},
				RemoveHeaders: []string{"X-Client-Secret"},
			},
			{Name: "mirror-orders", Match: RouteMatch{Path: Prefix("/orders")}, MirrorTo: "shadow"},
		},
	}
	pools := map[string][]string{"v1": {v1.URL}, "beta": {v2.URL}, "shadow": {v3.URL}}
	gwSrv, _, _ := testMesh(t, cfg, pools, false)
	_, agent, _ := testMesh(t, cfg, pools, true)
	client := rawClient(t)
	agent.Client = client

	cases := []struct {
		name         string
		method, path string
		headers      [][2]string
		body         string
		from         <-chan string
		want         string
		wantMirror   string
		signed       bool // sent by agent to a gateway with RequireAuth on
	}{
		{
			name: "plain", method: "GET", path: "/hello?x=1&y=2", from: primary,
			headers: [][2]string{{"Traceparent", clientTP}, {"X-Custom", "abc"}, {"Cookie", "session=s"}},
			want: `GET /hello?x=1&y=2
Cookie: session=s
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-<gateway-span>-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: v1
X-Canal-Tenant: tenant1
X-Custom: abc
X-Forwarded-For: 127.0.0.1

`,
		},
		{
			name: "no client trace, earlier proxy, hop-by-hop header", method: "GET", path: "/hello", from: primary,
			headers: [][2]string{{"X-Forwarded-For", "10.0.0.7"}, {"Connection", "X-Hop"}, {"X-Hop", "1"}},
			want: `GET /hello
Traceparent: 00-<gateway-trace>-<gateway-span>-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: v1
X-Canal-Tenant: tenant1
X-Forwarded-For: 10.0.0.7, 127.0.0.1

`,
		},
		{
			name: "rewrite, set and strip", method: "GET", path: "/home?q=1", from: beta,
			headers: [][2]string{{"Traceparent", clientTP}, {"X-User-Group", "beta"}, {"Cookie", "lane=b; session=s"},
				{"X-Client-Secret", "leak-me"}},
			want: `GET /v2/home?q=1
Cookie: lane=b; session=s
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-<gateway-span>-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: beta
X-Canal-Tenant: tenant1
X-Forwarded-For: 127.0.0.1
X-Injected: by-gateway
X-User-Group: beta

`,
		},
		{
			name: "mirrored POST", method: "POST", path: "/orders/7", body: "payload-123", from: primary,
			headers: [][2]string{{"Traceparent", clientTP}, {"Content-Type", "text/plain"}},
			want: `POST /orders/7
Content-Length: 11
Content-Type: text/plain
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-<gateway-span>-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: v1
X-Canal-Tenant: tenant1
X-Forwarded-For: 127.0.0.1

payload-123`,
			wantMirror: `POST /orders/7
Content-Length: 11
Content-Type: text/plain
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: shadow
X-Canal-Tenant: tenant1

payload-123`,
		},
		{
			name: "client names gateway-set headers in Connection", method: "GET", path: "/hello", from: primary,
			headers: [][2]string{{"Traceparent", clientTP}, {"Connection", "X-Canal-Subset, Traceparent, X-Custom"},
				{"X-Custom", "abc"}, {"X-Canal-Subset", "forged"}, {"Proxy-Authorization", "Basic Z3c6cHc="}, {"Keep-Alive", "timeout=5"}},
			want: `GET /hello
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-<gateway-span>-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: v1
X-Canal-Tenant: tenant1
X-Forwarded-For: 127.0.0.1

`,
		},
		{
			name: "mirrored POST with hop-by-hop headers", method: "POST", path: "/orders/9", body: "payload-9", from: primary,
			headers: [][2]string{{"Traceparent", clientTP}, {"Connection", "X-Custom, X-Canal-Subset"}, {"X-Custom", "abc"},
				{"Proxy-Authorization", "Basic Z3c6cHc="}, {"Te", "trailers"}},
			want: `POST /orders/9
Content-Length: 9
Te: trailers
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-<gateway-span>-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: v1
X-Canal-Tenant: tenant1
X-Forwarded-For: 127.0.0.1

payload-9`,
			wantMirror: `POST /orders/9
Content-Length: 9
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: shadow
X-Canal-Tenant: tenant1

payload-9`,
		},
		{
			name: "upgrade", method: "GET", path: "/hello", from: primary,
			headers: [][2]string{{"Traceparent", clientTP}, {"Connection", "Upgrade, X-Custom"}, {"Upgrade", "websocket"},
				{"X-Custom", "abc"}},
			want: `GET /hello
Connection: Upgrade
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-<gateway-span>-01
Upgrade: websocket
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: v1
X-Canal-Tenant: tenant1
X-Forwarded-For: 127.0.0.1

`,
		},
		{
			name: "signed, verified source named in Connection", method: "GET", path: "/hello", from: primary, signed: true,
			headers: [][2]string{{"Traceparent", clientTP}, {"Connection", "X-Canal-Source, X-Canal-Subset, X-Custom"},
				{"X-Custom", "abc"}},
			want: `GET /hello
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-<gateway-span>-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: v1
X-Canal-Tenant: tenant1
X-Forwarded-For: 127.0.0.1

`,
		},
		{
			name: "client asks for gzip", method: "GET", path: "/hello", from: primary,
			headers: [][2]string{{"Traceparent", clientTP}, {"Accept-Encoding", "gzip"}},
			want: `GET /hello
Accept-Encoding: gzip
Traceparent: 00-0af7651916cd43dd8448eb211c80319c-<gateway-span>-01
User-Agent: Go-http-client/1.1
X-Canal-Service: web
X-Canal-Source: client
X-Canal-Subset: v1
X-Canal-Tenant: tenant1
X-Forwarded-For: 127.0.0.1

`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			var resp *http.Response
			var err error
			if tc.signed {
				headers := map[string]string{}
				for _, kv := range tc.headers {
					headers[kv[0]] = kv[1]
				}
				resp, err = agent.Do(tc.method, "web", tc.path, body, headers)
			} else {
				var req *http.Request
				req, err = http.NewRequest(tc.method, gwSrv.URL+tc.path, body)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set(HeaderTenant, "tenant1")
				req.Header.Set(HeaderService, "web")
				req.Header.Set(HeaderSource, "client")
				for _, kv := range tc.headers {
					req.Header.Set(kv[0], kv[1])
				}
				resp, err = client.Do(req)
			}
			if err != nil {
				t.Fatal(err)
			}
			readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if got := normaliseTraceparent(t, <-tc.from, clientTrace, clientSpan); got != tc.want {
				t.Errorf("upstream received:\n%s\nwant:\n%s", got, tc.want)
			}
			if tc.wantMirror != "" {
				// The mirror is a copy of what the client sent: the client's
				// own trace context, no X-Forwarded-For.
				if got := <-shadow; got != tc.wantMirror {
					t.Errorf("mirror received:\n%s\nwant:\n%s", got, tc.wantMirror)
				}
			}
		})
	}
}

// normaliseTraceparent checks the forwarded traceparent — the client's trace
// ID when it sent one, the gateway's own span as the parent, sampled — and
// replaces the parts the gateway draws at random with placeholders.
func normaliseTraceparent(t *testing.T, received, clientTrace, clientSpan string) string {
	t.Helper()
	const prefix = "\nTraceparent: "
	i := strings.Index(received, prefix)
	if i < 0 {
		t.Fatalf("no traceparent forwarded:\n%s", received)
	}
	start := i + len(prefix)
	end := start + strings.IndexByte(received[start:], '\n')
	value := received[start:end]
	id, span, sampled, err := trace.ParseTraceparent(value)
	if err != nil || !sampled {
		t.Fatalf("forwarded traceparent %q: sampled=%v err=%v", value, sampled, err)
	}
	if span.String() == clientSpan {
		t.Errorf("forwarded traceparent %q keeps the client's span as parent", value)
	}
	shown := "<gateway-trace>"
	if id.String() == clientTrace {
		shown = clientTrace
	}
	return received[:start] + "00-" + shown + "-<gateway-span>-01" + received[end:]
}

// TestGatewayPassesCompressedRepliesThrough sends a request that asks for no
// encoding to an upstream that gzips every reply regardless. The gateway
// must hand the reply over as the upstream sent it — the gzip bytes and
// their Content-Encoding — and never inflate it on its own CPU.
func TestGatewayPassesCompressedRepliesThrough(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write([]byte(strings.Repeat("compressible ", 64))); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Set("Content-Type", "text/plain")
		w.Write(gz.Bytes())
	}))
	defer up.Close()
	gwSrv, _, _ := testMesh(t, ServiceConfig{Service: "web", DefaultSubset: "v1"}, map[string][]string{"v1": {up.URL}}, false)

	req, err := http.NewRequest(http.MethodGet, gwSrv.URL+"/hello", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderTenant, "tenant1")
	req.Header.Set(HeaderService, "web")
	resp, err := rawClient(t).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
		t.Errorf("Content-Encoding = %q, want the upstream's gzip", got)
	}
	if body != gz.String() {
		t.Errorf("client received %d bytes %q, want the upstream's %d gzip bytes", len(body), body, gz.Len())
	}
}

// FuzzFlattenCookies holds flattenCookies to net/http's own parse: for any
// set of Cookie header lines (the input split on newlines), the flattened
// map is what Request.Cookies returns, folded by name with the last value
// winning.
func FuzzFlattenCookies(f *testing.F) {
	for _, seed := range []string{
		"lane=b",
		"lane=b; session=s",
		`a="quoted"; b=""; c="; d="x"y"; e="`,
		"=v; a b=1; a@b=2; ok=3",
		"a=\x7f; b=caf\xc3\xa9; n\xc3\xa9=1; c=\x1f; d=back\\slash",
		";;a=1;;b=2;",
		"\ta=1\t;\tb = 2 ;c= 3\t",
		"a=1\nb=2\na=3",
		"a=1; a=2\n\nb=x; a=4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		h := http.Header{"Cookie": strings.Split(in, "\n")}
		want := map[string]string{}
		for _, c := range (&http.Request{Header: h}).Cookies() {
			want[c.Name] = c.Value
		}
		got := map[string]string{}
		flattenCookies(got, h)
		if !maps.Equal(got, want) {
			t.Fatalf("Cookie lines %q: flattened to %q, Request.Cookies gives %q", h["Cookie"], got, want)
		}
	})
}
