package configpush

import "sort"

// This file is the persistent sorted map retained snapshot versions share
// structure through: a B+tree whose nodes are never written once built.
// Publishing a version copies only the nodes on the paths to the keys that
// changed (path copying), so a version costs O(changed · log N) and every
// untouched subtree is shared by pointer with the versions before it — which
// is also what lets a diff skip it.

// The node bounds: a leaf holds at most maxLeaf entries and an inner node at
// most maxFan children. A node below a quarter of its bound is joined with a
// sibling when its parent is rebuilt.
const (
	maxLeaf = 64
	maxFan  = 64
)

// entry is one key/value pair in a leaf.
type entry[V any] struct {
	key string
	val V
}

// node is one immutable tree node: a leaf (kids == nil) holding key-sorted
// entries, or an inner node whose kids partition the key space, lo[i] being
// the smallest key under kids[i]. A nil *node is the empty tree.
type node[V any] struct {
	ents []entry[V]
	kids []*node[V]
	lo   []string
	n    int // entries under this node
}

// op is one entry of a key-sorted change set: store val under key, or with
// del remove the key.
type op[V any] struct {
	key string
	val V
	del bool
}

// size returns the number of entries under t.
func (t *node[V]) size() int {
	if t == nil {
		return 0
	}
	return t.n
}

// get returns the value stored under key.
func (t *node[V]) get(key string) (V, bool) {
	for t != nil && t.kids != nil {
		t = t.kids[childFor(t.lo, key)]
	}
	if t != nil {
		i := sort.Search(len(t.ents), func(i int) bool { return t.ents[i].key >= key })
		if i < len(t.ents) && t.ents[i].key == key {
			return t.ents[i].val, true
		}
	}
	var zero V
	return zero, false
}

// childFor returns the index of the child whose key range holds key.
func childFor(lo []string, key string) int {
	return max(sort.Search(len(lo), func(i int) bool { return lo[i] > key })-1, 0)
}

// appendTo appends every value under t to out in key order.
func (t *node[V]) appendTo(out []V) []V {
	if t == nil {
		return out
	}
	for _, e := range t.ents {
		out = append(out, e.val)
	}
	for _, k := range t.kids {
		out = k.appendTo(out)
	}
	return out
}

// with returns the tree that results from applying the key-sorted,
// duplicate-free change set to t. t itself is unchanged; the result shares
// every subtree the change set does not reach.
func (t *node[V]) with(ops []op[V]) *node[V] {
	if len(ops) == 0 {
		return t
	}
	var parts []*node[V]
	if t == nil {
		parts = leaves(merge(nil, ops))
	} else {
		parts = t.apply(ops)
	}
	for len(parts) > 1 {
		parts = inners(parts)
	}
	if len(parts) == 0 {
		return nil
	}
	root := parts[0]
	for len(root.kids) == 1 {
		root = root.kids[0]
	}
	return root
}

// apply rebuilds t under a non-empty change set whose keys fall in t's
// range, returning zero or more replacement nodes of t's height.
func (t *node[V]) apply(ops []op[V]) []*node[V] {
	if t.kids == nil {
		return leaves(merge(t.ents, ops))
	}
	kids := make([]*node[V], 0, len(t.kids)+1)
	for c, kid := range t.kids {
		j := len(ops)
		if c+1 < len(t.kids) {
			j = sort.Search(len(ops), func(i int) bool { return ops[i].key >= t.lo[c+1] })
		}
		if j == 0 {
			kids = append(kids, kid)
			continue
		}
		kids = append(kids, kid.apply(ops[:j])...)
		ops = ops[j:]
	}
	return inners(rebalance(kids))
}

// merge returns the key-sorted entries that result from applying the
// change set to ents.
func merge[V any](ents []entry[V], ops []op[V]) []entry[V] {
	out := make([]entry[V], 0, len(ents)+len(ops))
	i := 0
	for _, o := range ops {
		for i < len(ents) && ents[i].key < o.key {
			out = append(out, ents[i])
			i++
		}
		if i < len(ents) && ents[i].key == o.key {
			i++
		}
		if !o.del {
			out = append(out, entry[V]{o.key, o.val})
		}
	}
	return append(out, ents[i:]...)
}

// rebalance joins every underfull node with its neighbour, so deletions
// cannot leave a tree of near-empty nodes. All nodes are of one height.
func rebalance[V any](kids []*node[V]) []*node[V] {
	out := kids[:0]
	for _, k := range kids {
		if len(out) > 0 && (underfull(out[len(out)-1]) || underfull(k)) {
			prev := out[len(out)-1]
			out = out[:len(out)-1]
			if k.kids == nil {
				out = append(out, leaves(append(append([]entry[V](nil), prev.ents...), k.ents...))...)
			} else {
				out = append(out, inners(append(append([]*node[V](nil), prev.kids...), k.kids...))...)
			}
			continue
		}
		out = append(out, k)
	}
	return out
}

// underfull reports whether a node holds less than a quarter of its bound.
func underfull[V any](t *node[V]) bool {
	if t.kids == nil {
		return len(t.ents) < maxLeaf/4
	}
	return len(t.kids) < maxFan/4
}

// chunk returns the bounds of run i of the k near-equal runs n items split
// into, k being the fewest runs of at most limit items (runs(n, limit)).
func chunk(i, k, n int) (start, end int) { return n * i / k, n * (i + 1) / k }

// runs returns how many runs of at most limit items n items need.
func runs(n, limit int) int { return (n + limit - 1) / limit }

// leaves packs key-sorted entries into leaves.
func leaves[V any](ents []entry[V]) []*node[V] {
	out := make([]*node[V], runs(len(ents), maxLeaf))
	for i := range out {
		start, end := chunk(i, len(out), len(ents))
		out[i] = &node[V]{ents: ents[start:end:end], n: end - start}
	}
	return out
}

// inners packs key-ordered nodes of one height into parents.
func inners[V any](kids []*node[V]) []*node[V] {
	out := make([]*node[V], runs(len(kids), maxFan))
	for i := range out {
		start, end := chunk(i, len(out), len(kids))
		p := &node[V]{kids: kids[start:end:end], lo: make([]string, end-start)}
		for j, k := range p.kids {
			p.lo[j] = k.minKey()
			p.n += k.n
		}
		out[i] = p
	}
	return out
}

// minKey returns the smallest key under a non-empty node.
func (t *node[V]) minKey() string {
	if t.kids == nil {
		return t.ents[0].key
	}
	return t.lo[0]
}

// cursor walks a tree's entries in key order. path holds the nodes from the
// root down to the current leaf, each with the index taken in it.
type cursor[V any] struct {
	path []frame[V]
}

type frame[V any] struct {
	n *node[V]
	i int
}

// newCursor positions a cursor on t's first entry.
func newCursor[V any](t *node[V]) *cursor[V] {
	c := &cursor[V]{path: make([]frame[V], 0, 8)}
	if t != nil && t.n > 0 {
		c.descend(t)
	}
	return c
}

func (c *cursor[V]) descend(t *node[V]) {
	for {
		c.path = append(c.path, frame[V]{n: t})
		if t.kids == nil {
			return
		}
		t = t.kids[0]
	}
}

func (c *cursor[V]) done() bool { return len(c.path) == 0 }

// cur returns the current entry.
func (c *cursor[V]) cur() *entry[V] {
	f := c.path[len(c.path)-1]
	return &f.n.ents[f.i]
}

// next advances one entry.
func (c *cursor[V]) next() {
	f := &c.path[len(c.path)-1]
	if f.i++; f.i < len(f.n.ents) {
		return
	}
	c.skip(len(c.path) - 1)
}

// skip moves past the whole subtree at path[level].
func (c *cursor[V]) skip(level int) {
	c.path = c.path[:level]
	for len(c.path) > 0 {
		f := &c.path[len(c.path)-1]
		if f.i++; f.i < len(f.n.kids) {
			c.descend(f.n.kids[f.i])
			return
		}
		c.path = c.path[:len(c.path)-1]
	}
}

// top returns the shallowest path level whose node starts at the current
// entry: every node from there down to the leaf begins here.
func (c *cursor[V]) top() int {
	l := len(c.path) - 1
	for l >= 0 && c.path[l].i == 0 {
		l--
	}
	return l + 1
}

// shared finds the tallest subtree both cursors start together — the same
// node by pointer, so the same entries — and returns its level on each
// path.
func shared[V any](a, b *cursor[V]) (int, int, bool) {
	la, lb := len(a.path)-1, len(b.path)-1
	h := min(la-a.top(), lb-b.top())
	for ; h >= 0; h-- {
		if a.path[la-h].n == b.path[lb-h].n {
			return la - h, lb - h, true
		}
	}
	return 0, 0, false
}
