// Package beamer implements Canal's LB disaggregation (§4.4, Appendix C
// Fig. 26): dedicated load balancers are replaced by the ECMP ability of the
// router in front plus a redirector embedded in every replica. A fixed-size
// bucket table, identical on all replicas and updated by the controller,
// maps each flow to a replica chain sorted by priority; SYN packets insert
// at the chain head (the replica taking new flows) while packets of existing
// flows chase the chain until the replica holding their flow record is
// found. This keeps sessions consistent while replicas drain and leave,
// without any dedicated LB appliance.
package beamer

import (
	"errors"
	"fmt"
	"sort"

	"canalmesh/internal/cloud"
	"canalmesh/internal/l4"
)

// DefaultBuckets is the default bucket-table size. It only needs to be large
// enough to spread flows evenly; it never changes at runtime (fixed size is
// what makes the hash stable).
const DefaultBuckets = 256

// DefaultChainLimit extends Beamer's original chain length of 2 to better
// survive multiple scale events in a short period (§4.4 modification (i)).
const DefaultChainLimit = 4

// ErrNoReplicas is returned when no replica is left to serve.
var ErrNoReplicas = errors.New("beamer: no alive replicas")

// Replica is one gateway replica with its embedded redirector state and its
// kernel flow table.
type Replica struct {
	ID       string
	draining bool
	flows    map[cloud.SessionKey]bool
}

// Flows returns the number of flow records the replica holds.
func (r *Replica) Flows() int { return len(r.flows) }

// Result describes how one packet was served.
type Result struct {
	ServedBy  string
	Bucket    int
	Redirects int  // extra hops after the router's ECMP decision
	NewFlow   bool // a flow record was created
}

// Beamer is one service's disaggregated load balancer: the bucket table
// (replica chains) plus the replica set. The same instance stands in for the
// identical tables the controller installs on every replica.
type Beamer struct {
	service    string
	buckets    [][]string // chain per bucket; index 0 = highest priority
	chainLimit int
	replicas   map[string]*Replica
	order      []string // insertion order for deterministic iteration
}

// New creates a Beamer for a service with the given replica IDs, spreading
// bucket ownership round-robin.
func New(service string, replicaIDs []string, numBuckets, chainLimit int) (*Beamer, error) {
	if len(replicaIDs) == 0 {
		return nil, ErrNoReplicas
	}
	if numBuckets <= 0 {
		numBuckets = DefaultBuckets
	}
	if chainLimit < 2 {
		chainLimit = DefaultChainLimit
	}
	b := &Beamer{
		service:    service,
		buckets:    make([][]string, numBuckets),
		chainLimit: chainLimit,
		replicas:   make(map[string]*Replica),
	}
	for _, id := range replicaIDs {
		if err := b.addReplica(id); err != nil {
			return nil, err
		}
	}
	for i := range b.buckets {
		b.buckets[i] = []string{replicaIDs[i%len(replicaIDs)]}
	}
	return b, nil
}

func (b *Beamer) addReplica(id string) error {
	if _, ok := b.replicas[id]; ok {
		return fmt.Errorf("beamer: duplicate replica %q", id)
	}
	b.replicas[id] = &Replica{ID: id, flows: make(map[cloud.SessionKey]bool)}
	b.order = append(b.order, id)
	return nil
}

// bucketOf hashes a flow to its bucket; the bucket count is fixed, so the
// mapping never changes.
func (b *Beamer) bucketOf(k cloud.SessionKey) int {
	return int(l4.Hash5Tuple(k) % uint64(len(b.buckets)))
}

// Process handles one packet. isSYN marks the first packet of a new flow.
// The router's stateless ECMP picks a landing replica among the replicas;
// the landing replica's redirector then consults the bucket chain and
// forwards as needed. The returned Result counts those extra redirections.
func (b *Beamer) Process(k cloud.SessionKey, isSYN bool) (Result, error) {
	if len(b.order) == 0 {
		return Result{}, ErrNoReplicas
	}
	// Router: hash 5-tuple mod #replicas (stateless, changes when the
	// replica set changes — the very problem the redirectors fix).
	landing := b.order[int(l4.Hash5Tuple(k)%uint64(len(b.order)))]
	bucket := b.bucketOf(k)
	chain := b.buckets[bucket]

	res := Result{Bucket: bucket}
	if isSYN {
		// New flows insert at the highest-priority replica that is not
		// draining; a draining replica serves only its existing flows
		// (Fig 26). If every chain entry is draining, fall back to the
		// chain head rather than resetting the connection.
		insert := func(id string) (Result, error) {
			b.replicas[id].flows[k] = true
			res.ServedBy = id
			res.NewFlow = true
			if id != landing {
				res.Redirects = 1
			}
			return res, nil
		}
		for _, id := range chain {
			if !b.replicas[id].draining {
				return insert(id)
			}
		}
		if len(chain) > 0 {
			return insert(chain[0])
		}
		return Result{}, fmt.Errorf("beamer: bucket %d of %s has no replica in chain", bucket, b.service)
	}
	// Existing flows chase the chain for their flow record.
	hops := 0
	if len(chain) > 0 && chain[0] != landing {
		hops = 1 // router landed us off-chain-head; first redirect to head
	}
	for i, id := range chain {
		if b.replicas[id].flows[k] {
			res.ServedBy = id
			res.Redirects = hops
			return res, nil
		}
		if i < len(chain)-1 {
			hops++
		}
	}
	return Result{}, fmt.Errorf("beamer: no replica holds flow %s (connection reset)", k)
}

// Drain prepares a replica to go offline: every bucket it heads gets a new
// highest-priority owner so new flows avoid it, while the draining replica
// stays in the chain to serve its existing flows (Fig. 26).
func (b *Beamer) Drain(id string) error {
	r := b.replicas[id]
	if r == nil {
		return fmt.Errorf("beamer: unknown replica %q", id)
	}
	r.draining = true
	replacementPool := []string{}
	for _, rid := range b.order {
		if !b.replicas[rid].draining && rid != id {
			replacementPool = append(replacementPool, rid)
		}
	}
	if len(replacementPool) == 0 {
		return ErrNoReplicas
	}
	// Deterministically pick the replacement with the fewest flows.
	sort.Slice(replacementPool, func(i, j int) bool {
		fi, fj := b.replicas[replacementPool[i]].Flows(), b.replicas[replacementPool[j]].Flows()
		if fi != fj {
			return fi < fj
		}
		return replacementPool[i] < replacementPool[j]
	})
	n := 0
	for i := range b.buckets {
		if len(b.buckets[i]) > 0 && b.buckets[i][0] == id {
			b.prepend(i, replacementPool[n%len(replacementPool)])
			n++
		}
	}
	return nil
}

// Remove deletes a fully drained replica from all chains and the replica
// set. It refuses while the replica still holds flows.
func (b *Beamer) Remove(id string) error {
	r := b.replicas[id]
	if r == nil {
		return fmt.Errorf("beamer: unknown replica %q", id)
	}
	if r.Flows() > 0 {
		return fmt.Errorf("beamer: replica %q still holds %d flows", id, r.Flows())
	}
	for i, chain := range b.buckets {
		out := chain[:0]
		for _, rid := range chain {
			if rid != id {
				out = append(out, rid)
			}
		}
		b.buckets[i] = out
	}
	delete(b.replicas, id)
	for i, rid := range b.order {
		if rid == id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	return nil
}

// EndFlow removes a finished flow's record from whichever replica holds it.
func (b *Beamer) EndFlow(k cloud.SessionKey) {
	for _, r := range b.replicas {
		delete(r.flows, k)
	}
}

// prepend puts id at the head of bucket i's chain, deduplicating and
// truncating to the chain limit.
func (b *Beamer) prepend(i int, id string) {
	chain := []string{id}
	for _, rid := range b.buckets[i] {
		if rid != id {
			chain = append(chain, rid)
		}
	}
	if len(chain) > b.chainLimit {
		chain = chain[:b.chainLimit]
	}
	b.buckets[i] = chain
}
