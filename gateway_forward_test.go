package canal

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"canalmesh/internal/trace"
)

// recordingUpstream answers 200 and sends what it received — method,
// request URI, every header sorted by name, and the body — to got.
func recordingUpstream(got chan<- string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		names := make([]string, 0, len(r.Header))
		for name := range r.Header {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s\n", r.Method, r.URL.RequestURI())
		for _, name := range names {
			fmt.Fprintf(&b, "%s: %s\n", name, strings.Join(r.Header[name], " | "))
		}
		fmt.Fprintf(&b, "\n%s", body)
		got <- b.String()
	}))
}

// TestGatewayForwardedBytesGolden pins what an upstream receives from the
// gateway, byte for byte: method, path and query, and the complete header
// set, for a plain request, a request behind an earlier proxy, a rule that
// rewrites the path and sets and strips headers, and a mirrored POST. The
// only normalised part is the span ID the gateway mints for traceparent
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
	gwSrv, _, _ := testMesh(t, cfg, map[string][]string{"v1": {v1.URL}, "beta": {v2.URL}, "shadow": {v3.URL}}, false)

	cases := []struct {
		name         string
		method, path string
		headers      [][2]string
		body         string
		from         <-chan string
		want         string
		wantMirror   string
	}{
		{
			name: "plain", method: "GET", path: "/hello?x=1&y=2", from: primary,
			headers: [][2]string{{"Traceparent", clientTP}, {"X-Custom", "abc"}, {"Cookie", "session=s"}},
			want: `GET /hello?x=1&y=2
Accept-Encoding: gzip
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
Accept-Encoding: gzip
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
Accept-Encoding: gzip
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
Accept-Encoding: gzip
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
Accept-Encoding: gzip
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, gwSrv.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(HeaderTenant, "tenant1")
			req.Header.Set(HeaderService, "web")
			req.Header.Set(HeaderSource, "client")
			for _, kv := range tc.headers {
				req.Header.Set(kv[0], kv[1])
			}
			resp, err := http.DefaultClient.Do(req)
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
