package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	canal "canalmesh"
)

// Subset names of the upstream pools every generated service routes to.
const (
	subsetV1     = "v1"
	subsetV2     = "v2"
	subsetShadow = "shadow"
)

// Headers the generator owns. hdrRouteKey and hdrStrip are what generated
// route rules match on and strip; hdrSetBy is what they set; hdrExpect
// tells the upstream what the gateway should have forwarded.
const (
	hdrRouteKey = "X-Route-Key"
	hdrStrip    = "X-Strip-Me"
	hdrSetBy    = "X-Set-By"
	hdrExpect   = "X-Bench-Expect"
	hdrDirect   = "X-Bench-Direct"
	cookieRoute = "route"
)

const (
	smallReply = 256
	postBody   = 16 << 10
	postReply  = 64 << 10
)

// worldSpec is a workload's shape. Every field is part of the workload's
// definition, not a tuning knob: changing one defines another workload.
type worldSpec struct {
	tenants, services int
	authzRules        int     // AuthzRules per service
	routeRules        int     // route rules per service
	auth              bool    // RequireAuth, signed requests
	mirrorRule        bool    // rule 0 of every service mirrors /mirror/ to the shadow subset
	zipf              float64 // exponent of tenant popularity; 0 = uniform
	deniedShare       float64 // share of requests from a source a DENY rule names
	postShare         float64 // share of requests that are 16 KiB POSTs with 64 KiB replies
	mirrorShare       float64 // share of requests on the mirror route
	reconfigPerSec    float64 // ConfigureService calls/s beside the traffic
	// openRate is the rate, in requests/s, of the open-loop pass the traced
	// run adds to this closed-loop workload; 0 = none.
	openRate float64
	// rateCap sizes the presigned pool of a signed workload: rateCap x
	// seconds requests, each signed once. A run that would need more stops
	// early instead of reusing a signature.
	rateCap float64
}

// Sources every tenant has: the allowed ones get ALLOW rules (and, on
// signed workloads, identities); the blocked ones get DENY rules.
var (
	allowedSources = []string{"src-0", "src-1", "src-2"}
	blockedSources = []string{"blocked-0", "blocked-1"}
)

type ruleKind int

const (
	kindExactPath ruleKind = iota
	kindPrefixPath
	kindRegexPath
	kindHeader
	kindCookie
	kindMirror
	numRandomKinds = int(kindMirror)
)

// ruleInfo is what the generator remembers about a route rule it built, so
// it can aim a request at the rule and say what must come out.
type ruleInfo struct {
	name    string
	kind    ruleKind
	split   bool
	rewrite string
	setBy   string
	strip   bool
}

type serviceInfo struct {
	cfg   canal.ServiceConfig
	rules []ruleInfo
}

func tenantName(t int) string  { return fmt.Sprintf("tenant-%02d", t) }
func serviceName(s int) string { return fmt.Sprintf("svc-%02d", s) }

// genService builds one service's configuration from rng.
func genService(rng *rand.Rand, spec worldSpec, s int) serviceInfo {
	info := serviceInfo{cfg: canal.ServiceConfig{Service: serviceName(s), DefaultSubset: subsetV1}}
	// Matcher kinds rotate from a random start, so every service has the
	// same mix of them and a popular tenant's draw does not set the cost
	// of the whole stream.
	firstKind := rng.Intn(numRandomKinds)
	for j := 0; j < spec.routeRules; j++ {
		name := fmt.Sprintf("r%d", j)
		ri := ruleInfo{name: name}
		rule := canal.Rule{Name: name}
		if j == 0 && spec.mirrorRule {
			ri.kind = kindMirror
			rule.Match.Path = canal.Prefix("/mirror/")
			rule.MirrorTo = subsetShadow
		} else {
			ri.kind = ruleKind((firstKind + j) % numRandomKinds)
			switch ri.kind {
			case kindExactPath:
				rule.Match.Path = canal.Exact("/exact/" + name)
			case kindPrefixPath:
				rule.Match.Path = canal.Prefix("/api/" + name + "/")
			case kindRegexPath:
				rule.Match.Path = canal.Regex("^/v[0-9]+/" + name + "/.*$")
			case kindHeader:
				rule.Match.Headers = []canal.KVMatch{{Name: hdrRouteKey, Match: canal.Exact(name)}}
			case kindCookie:
				rule.Match.Cookies = []canal.KVMatch{{Name: cookieRoute, Match: canal.Exact(name)}}
			}
			if rng.Float64() < 0.10 {
				ri.split = true
				rule.Splits = []canal.Split{{Subset: subsetV1, Weight: 90}, {Subset: subsetV2, Weight: 10}}
			}
			if rng.Float64() < 0.20 {
				ri.setBy = name
				rule.SetHeaders = map[string]string{hdrSetBy: name}
			}
			if rng.Float64() < 0.20 {
				ri.strip = true
				rule.RemoveHeaders = []string{hdrStrip}
			}
			if rng.Float64() < 0.15 {
				ri.rewrite = "/rewritten/" + name
				rule.PathRewrite = ri.rewrite
			}
		}
		info.rules = append(info.rules, ri)
		info.cfg.Rules = append(info.cfg.Rules, rule)
	}
	info.cfg.Authz = genAuthz(rng, spec.authzRules)
	return info
}

// genAuthz builds n authorization rules: an ALLOW per allowed source, a DENY
// per blocked source, two wildcard-source DENYs, and filler ALLOWs for peers
// that send no traffic (every eighth by source prefix, every sixteenth with
// a path regex) so the compiled table has exact and wildcard buckets.
func genAuthz(rng *rand.Rand, n int) []canal.AuthzRule {
	if n == 0 {
		return nil
	}
	var out []canal.AuthzRule
	add := func(r canal.AuthzRule) {
		if len(out) < n {
			r.Name = fmt.Sprintf("a%d", len(out))
			out = append(out, r)
		}
	}
	for _, s := range allowedSources {
		add(canal.AuthzRule{Action: canal.AuthzAllow, SourceService: canal.Exact(s)})
	}
	for _, s := range blockedSources {
		add(canal.AuthzRule{Action: canal.AuthzDeny, SourceService: canal.Exact(s)})
	}
	add(canal.AuthzRule{Action: canal.AuthzDeny, SourceService: canal.Prefix("evil-")})
	add(canal.AuthzRule{Action: canal.AuthzDeny, Path: canal.Regex("^/internal/secret/.*$")})
	for k := 0; len(out) < n; k++ {
		r := canal.AuthzRule{Action: canal.AuthzAllow, SourceService: canal.Exact(fmt.Sprintf("peer-%d", rng.Intn(1<<20)))}
		if k%8 == 7 {
			r.SourceService = canal.Prefix(fmt.Sprintf("team-%d-", k))
		}
		if k%16 == 3 {
			r.Path = canal.Regex(fmt.Sprintf("^/reports/%d/.*$", k))
		}
		add(r)
	}
	return out
}

// reqSpec is one generated request and what must come of it.
type reqSpec struct {
	tenant, service int
	source          string
	method          string
	path            string
	routeKey        string // hdrRouteKey value
	cookie          string // cookieRoute value
	bodyLen         int
	replyLen        int
	mirrored        bool
	wantStatus      int
	// What the upstream must see, when the request is allowed.
	wantRule    string // matched rule name, "" for the default route
	wantScanned int    // rules the engine compares before it stops
	wantSubsets string // comma-separated subsets the request may land on
	wantPath    string // "" until known: the rule's rewrite, else the request's own path
	wantSetBy   string
	wantStrip   bool
}

// expectHeader encodes what the upstream checks:
// subsets|path|set-by|strip|body bytes|reply bytes.
func (sp *reqSpec) expectHeader() string {
	strip := "0"
	if sp.wantStrip {
		strip = "1"
	}
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d", sp.wantSubsets, sp.wantPath, sp.wantSetBy, strip, sp.bodyLen, sp.replyLen)
}

// genSpecs builds n requests from rng over the given services
// (services[t][s]).
func genSpecs(rng *rand.Rand, spec worldSpec, services [][]serviceInfo, n int) []reqSpec {
	var zipf *rand.Zipf
	if spec.zipf > 1 && spec.tenants > 1 {
		zipf = rand.NewZipf(rng, spec.zipf, 1, uint64(spec.tenants-1))
	}
	out := make([]reqSpec, n)
	for i := range out {
		sp := &out[i]
		if zipf != nil {
			sp.tenant = int(zipf.Uint64())
		} else {
			sp.tenant = rng.Intn(spec.tenants)
		}
		sp.service = rng.Intn(spec.services)
		svc := &services[sp.tenant][sp.service]
		sp.source = allowedSources[rng.Intn(len(allowedSources))]
		sp.method = "GET"
		sp.path = fmt.Sprintf("/plain/%d", rng.Intn(1000))
		sp.routeKey, sp.cookie = "none", "none"
		sp.replyLen = smallReply
		sp.wantStatus = 200
		sp.wantSubsets = subsetV1
		sp.wantScanned = len(svc.rules)

		class := rng.Float64()
		switch {
		case class < spec.postShare:
			sp.method = "POST"
			sp.path = fmt.Sprintf("/upload/%d", rng.Intn(1000))
			sp.bodyLen, sp.replyLen = postBody, postReply
		case class < spec.postShare+spec.mirrorShare:
			sp.path = fmt.Sprintf("/mirror/%d", rng.Intn(1000))
			sp.mirrored = true
			sp.wantRule, sp.wantScanned = svc.rules[0].name, 1
		default:
			first := 0
			if spec.mirrorRule {
				first = 1
			}
			if len(svc.rules) > first {
				j := first + rng.Intn(len(svc.rules)-first)
				aim(sp, svc.rules[j], j, rng)
			}
		}
		if sp.wantPath == "" {
			sp.wantPath = sp.path
		}
		if rng.Float64() < spec.deniedShare {
			sp.source = blockedSources[rng.Intn(len(blockedSources))]
			sp.wantStatus = 403
		}
	}
	return out
}

// aim shapes sp so that rule j, and no earlier rule, matches it.
func aim(sp *reqSpec, r ruleInfo, j int, rng *rand.Rand) {
	switch r.kind {
	case kindExactPath:
		sp.path = "/exact/" + r.name
	case kindPrefixPath:
		sp.path = fmt.Sprintf("/api/%s/items/%d", r.name, rng.Intn(1000))
	case kindRegexPath:
		sp.path = fmt.Sprintf("/v%d/%s/obj", 1+rng.Intn(9), r.name)
	case kindHeader:
		sp.routeKey = r.name
	case kindCookie:
		sp.cookie = r.name
	}
	sp.wantRule, sp.wantScanned = r.name, j+1
	if r.split {
		sp.wantSubsets = subsetV1 + "," + subsetV2
	}
	sp.wantSetBy, sp.wantStrip, sp.wantPath = r.setBy, r.strip, r.rewrite
}

// genWorld builds every service's configuration and the request stream from
// one seed.
func genWorld(seed int64, spec worldSpec, nSpecs int) ([][]serviceInfo, []reqSpec) {
	rng := rand.New(rand.NewSource(seed))
	services := make([][]serviceInfo, spec.tenants)
	for t := range services {
		services[t] = make([]serviceInfo, spec.services)
		for s := range services[t] {
			services[t][s] = genService(rng, spec, s)
		}
	}
	return services, genSpecs(rng, spec, services, nSpecs)
}

// streamHash fingerprints a request stream, so two runs can show they were
// given the same inputs.
func streamHash(specs []reqSpec) uint64 {
	h := fnv.New64a()
	var b strings.Builder
	for i := range specs {
		sp := &specs[i]
		b.Reset()
		fmt.Fprintf(&b, "%d/%d/%s/%s/%s/%s/%s/%d/%s\n", sp.tenant, sp.service, sp.source, sp.method,
			sp.path, sp.routeKey, sp.cookie, sp.wantStatus, sp.expectHeader())
		h.Write([]byte(b.String()))
	}
	return h.Sum64()
}
