package beamer

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"canalmesh/internal/cloud"
)

// TestRandomizedOperationInvariants drives a Beamer instance through long
// random sequences of drains, removals, flow arrivals and departures,
// checking the structural invariants after every step:
//
//  1. a SYN never lands on a draining or removed replica while a replica
//     taking new flows is left;
//  2. an established flow keeps hitting the replica holding its record;
//  3. chains never exceed the configured limit;
//  4. a removed replica is in no chain.
func TestRandomizedOperationInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ids := []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}
			b, err := New("svc", ids, 64, 4)
			if err != nil {
				t.Fatal(err)
			}
			present := map[string]bool{}
			for _, id := range ids {
				present[id] = true
			}
			draining := map[string]bool{}
			owner := map[uint16]string{} // live flows -> owning replica
			nextPort := uint16(1)

			countTaking := func() int {
				n := 0
				for id := range present {
					if !draining[id] {
						n++
					}
				}
				return n
			}

			for step := 0; step < 2000; step++ {
				switch op := rng.Intn(100); {
				case op < 55: // new flow
					p := nextPort
					nextPort++
					res, err := b.Process(flowKey(p), true)
					if err != nil {
						t.Fatalf("step %d: SYN failed: %v", step, err)
					}
					if !present[res.ServedBy] {
						t.Fatalf("step %d: SYN landed on removed replica %s", step, res.ServedBy)
					}
					if draining[res.ServedBy] && countTaking() > 0 {
						// A draining replica may only take new flows for
						// buckets whose whole chain is draining; with a
						// replica still taking new flows and
						// controller-updated chains this must not happen.
						t.Fatalf("step %d: SYN landed on draining replica %s", step, res.ServedBy)
					}
					owner[p] = res.ServedBy
				case op < 80: // revisit an existing flow
					if len(owner) == 0 {
						continue
					}
					p := randomKey(rng, owner)
					res, err := b.Process(flowKey(p), false)
					if err != nil {
						// Acceptable only if history was truncated past
						// the chain limit.
						delete(owner, p)
						continue
					}
					if res.ServedBy != owner[p] {
						t.Fatalf("step %d: flow %d moved from %s to %s", step, p, owner[p], res.ServedBy)
					}
				case op < 88: // flow ends
					if len(owner) == 0 {
						continue
					}
					p := randomKey(rng, owner)
					b.EndFlow(flowKey(p))
					delete(owner, p)
				case op < 95: // drain one replica still taking new flows
					if countTaking() < 2 {
						continue
					}
					id := pickReplica(rng, present, draining)
					if err := b.Drain(id); err != nil {
						t.Fatalf("step %d: drain %s: %v", step, id, err)
					}
					draining[id] = true
				default: // a draining replica's flows age out and it leaves
					id := pickReplica(rng, draining, nil)
					if id == "" {
						continue
					}
					for k := range b.replicas[id].flows {
						b.EndFlow(k)
						delete(owner, k.SrcPort)
					}
					if err := b.Remove(id); err != nil {
						t.Fatalf("step %d: remove %s: %v", step, id, err)
					}
					delete(present, id)
					delete(draining, id)
				}

				for i, chain := range b.buckets {
					if len(chain) > 4 {
						t.Fatalf("step %d: bucket %d chain length %d exceeds limit", step, i, len(chain))
					}
					for _, id := range chain {
						if !present[id] {
							t.Fatalf("step %d: removed replica %s still in bucket %d", step, id, i)
						}
					}
				}
			}
		})
	}
}

func flowKey(p uint16) cloud.SessionKey {
	return cloud.SessionKey{SrcIP: "10.7.0.1", SrcPort: p, DstIP: "10.8.0.1", DstPort: 443, Proto: 6}
}

func randomKey(rng *rand.Rand, m map[uint16]string) uint16 {
	// Index into the sorted key list: stepping a counter through raw map
	// iteration would pick a different key each run even under a fixed
	// seed, making invariant failures unreproducible.
	keys := make([]uint16, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys[rng.Intn(len(keys))]
}

// pickReplica draws one of the replicas set in from and not set in
// excluded, or "" when there is none.
func pickReplica(rng *rand.Rand, from, excluded map[string]bool) string {
	var candidates []string
	for id, ok := range from {
		if ok && !excluded[id] {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	// Deterministic order before the draw (map iteration is random).
	sort.Strings(candidates)
	return candidates[rng.Intn(len(candidates))]
}
