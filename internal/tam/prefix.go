package tam

import (
	"slices"
	"sync"
)

// PrefixStore remembers the greedy placements packList has made, so a
// later packing whose job order starts with an already-packed prefix
// resumes after it instead of placing those jobs again. The paper's
// exhaustive search and Cost_Optimizer pack the same digital cores once
// per analog-sharing configuration, and the packing orderings of those
// configurations share long job prefixes; each such prefix is placed
// once per store.
//
// Resuming is exact: a job's greedy placement depends only on the
// placements before it, its own width options, its serialization group
// and the bin (width and staircase mode), so a resumed schedule is the
// one a fresh pass would build, down to the order of its placements.
//
// The store is a trie of placements. Each root stands for one (bin
// width, staircase mode) pair; a node is one job's placement given the
// path above it. Children match a job by content — the same *Job, or
// equal ID, Group and Options, never a hash — rather than by pointer,
// because callers rebuild equal jobs for every configuration (the
// analog tests) and a prefix should run on past them. Nodes live in
// fixed-size blocks that are never moved or freed, under one mutex; the
// store only grows, so it should live no longer than the packings that
// share its prefixes. A PrefixStore is safe for concurrent use, and the
// zero value is an empty store.
type PrefixStore struct {
	mu     sync.Mutex
	roots  []prefixRoot
	blocks []*prefixBlock
	n      int32 // nodes in use; node 0 is never handed out, so 0 means none
}

const prefixBlockLen = 128

type prefixBlock [prefixBlockLen]prefixNode

// prefixRoot is the trie root of one (bin width, staircase mode).
type prefixRoot struct {
	width  int
	pareto bool
	node   int32
}

// prefixNode is one placement of the trie, 40 bytes. A root's node has
// no job.
type prefixNode struct {
	job         *Job
	start, end  int64
	width, lo   int32
	child, next int32 // first child, next sibling; 0 = none
}

// NewPrefixStore returns an empty prefix store.
func NewPrefixStore() *PrefixStore { return &PrefixStore{} }

// WithPrefixStore makes every greedy packing pass resume from the
// longest prefix of its job order that st already holds for this bin,
// and record the placements it adds. The result is identical to packing
// without the store. Warm-start seeds bypass it. A nil st is no store.
func WithPrefixStore(st *PrefixStore) Option {
	return func(c *config) { c.prefix = st }
}

// Len returns the number of placements the store holds.
func (st *PrefixStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.n == 0 {
		return 0
	}
	return int(st.n) - 1 - len(st.roots) // minus node 0 and the roots
}

// node returns the node at index i; the caller holds st.mu.
func (st *PrefixStore) node(i int32) *prefixNode {
	return &st.blocks[i/prefixBlockLen][i%prefixBlockLen]
}

// alloc returns the index of a fresh zero node; the caller holds st.mu.
func (st *PrefixStore) alloc() int32 {
	if st.n == 0 {
		st.n = 1 // reserve node 0 as "none"
	}
	if int(st.n/prefixBlockLen) == len(st.blocks) {
		if st.blocks == nil {
			st.blocks = make([]*prefixBlock, 0, 32)
		}
		st.blocks = append(st.blocks, new(prefixBlock))
	}
	i := st.n
	st.n++
	return i
}

// root returns the root node of (width, pareto), creating it; the
// caller holds st.mu.
func (st *PrefixStore) root(width int, pareto bool) int32 {
	for _, r := range st.roots {
		if r.width == width && r.pareto == pareto {
			return r.node
		}
	}
	i := st.alloc()
	st.roots = append(st.roots, prefixRoot{width: width, pareto: pareto, node: i})
	return i
}

// sameJob reports whether two jobs are interchangeable for greedy
// placement: the same job, or equal ID, group and staircase.
func sameJob(a, b *Job) bool {
	return a == b || a.ID == b.ID && a.Group == b.Group && slices.Equal(a.Options, b.Options)
}

// childFor returns the child of parent whose job matches j, or 0; the
// caller holds st.mu.
func (st *PrefixStore) childFor(parent int32, j *Job) int32 {
	for c := st.node(parent).child; c != 0; {
		n := st.node(c)
		if sameJob(n.job, j) {
			return c
		}
		c = n.next
	}
	return 0
}

// resume appends to dst the stored placements of the longest prefix of
// order packed before into a bin of the given width and staircase mode,
// each placement carrying order's own job. It returns the extended
// placements and the node the rest of the packing extends (see add).
// Appending into a dst with room for order allocates nothing once the
// bin's root exists.
func (st *PrefixStore) resume(width int, pareto bool, order []*Job, dst []Placement) ([]Placement, int32) {
	st.mu.Lock()
	defer st.mu.Unlock()
	at := st.root(width, pareto)
	for _, j := range order {
		c := st.childFor(at, j)
		if c == 0 {
			break
		}
		n := st.node(c)
		dst = append(dst, Placement{Job: j, Width: int(n.width), Start: n.start, End: n.end, WireLo: int(n.lo)})
		at = c
	}
	return dst, at
}

// add records p as the placement that follows node parent and returns
// its node. If a concurrent packing recorded the same job there first,
// its node is returned: both computed the same placement from the same
// prefix.
func (st *PrefixStore) add(parent int32, p *Placement) int32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if c := st.childFor(parent, p.Job); c != 0 {
		return c
	}
	i := st.alloc()
	n := st.node(i)
	par := st.node(parent)
	*n = prefixNode{job: p.Job, start: p.Start, end: p.End, width: int32(p.Width), lo: int32(p.WireLo), next: par.child}
	par.child = i
	return i
}
