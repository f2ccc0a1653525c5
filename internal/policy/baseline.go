package policy

// Baseline is the uncompiled reference engine: one flat rule list scanned
// linearly per lookup, with semantics identical to the compiled Table. It
// is the oracle the compiled engine is differentially tested against, and
// the O(total rules) baseline the policy-scale experiment measures the
// dispatch table's flat lookup cost against.
type Baseline struct {
	rules       []*compiled
	keys        []key3 // parallel to rules
	allowByDst  map[string]int
	allowAnyDst int
	patterns    Patterns
}

// NewBaseline builds the reference engine from an intention list. Order in
// the list is installation order (the same-precedence tie break).
func NewBaseline(intents []Intention) (*Baseline, error) {
	b := &Baseline{allowByDst: make(map[string]int)}
	for i := range intents {
		cc := new(compiled)
		if err := prepare(cc, &intents[i], &b.patterns); err != nil {
			return nil, err
		}
		cc.order = i
		if cc.in.Action == ActionDeny {
			cc.denyReason = denyPrefix + cc.in.Name
		}
		k := cc.key()
		b.rules = append(b.rules, cc)
		b.keys = append(b.keys, k)
		if cc.in.Action == ActionAllow {
			if k.d == wild {
				b.allowAnyDst++
			} else {
				b.allowByDst[k.d]++
			}
		}
	}
	return b, nil
}

// fullMatch evaluates a rule, whose dispatch key is k, against a query with
// no bucket-key shortcuts: the exact dimensions the dispatch table proves
// by key placement are compared explicitly here.
func fullMatch(cc *compiled, k key3, q *Query) bool {
	if k.t != wild && k.t != q.SrcTenant {
		return false
	}
	if !cc.srcPred && k.s != wild && k.s != q.SrcService {
		return false
	}
	if !cc.dstPred && k.d != wild && k.d != q.DstService {
		return false
	}
	return cc.matches(q)
}

// Eval scans every rule and applies the same winner selection and
// zero-trust default as the compiled table.
func (b *Baseline) Eval(q Query) Verdict {
	var best *compiled
	for i, cc := range b.rules {
		if best != nil && !cc.beats(best) {
			continue
		}
		if fullMatch(cc, b.keys[i], &q) {
			best = cc
		}
	}
	if best != nil {
		if best.in.Action == ActionDeny {
			return Verdict{Rule: best.in.Name, Reason: best.denyReason}
		}
		return Verdict{Allowed: true, Rule: best.in.Name}
	}
	if b.allowAnyDst > 0 || b.allowByDst[q.DstService] > 0 {
		return Verdict{Reason: defaultDenyReason}
	}
	return Verdict{Allowed: true}
}

// Len returns the rule count.
func (b *Baseline) Len() int { return len(b.rules) }
