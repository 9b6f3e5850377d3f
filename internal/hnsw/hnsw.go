// Package hnsw implements a Hierarchical Navigable Small World graph
// (Malkov & Yashunin) for approximate nearest-neighbour search over dense
// title embeddings — the second sublinear candidate-generation engine of
// the §6 blocking extension.
//
// Vectors are compared by cosine similarity (they are normalized once at
// build time, so distance is 1 - dot). Each node is assigned an
// exponentially distributed level from a caller-provided random stream,
// giving the logarithmic search hierarchy; queries greedily descend the
// upper layers and run a bounded best-first search (ef) on the bottom one.
//
// Construction is deterministic AND parallel: nodes are inserted in index
// order, but in fixed-size batches whose expensive candidate searches run
// against a frozen snapshot of the graph (every node inserted before the
// batch began) across the internal/parallel worker pool. Linking is then
// applied serially in index order, with earlier batch-mates added to each
// node's candidate pool so intra-batch neighbours are not lost. Because
// batch boundaries and the snapshot are functions of the input alone, the
// resulting graph — and therefore every query result — is byte-identical
// at any worker count, which is what makes the HNSW blocker
// golden-testable.
package hnsw

import (
	"math"
	"math/rand"
	"sort"

	"wdcproducts/internal/parallel"
	"wdcproducts/internal/vector"
)

// Config sizes an HNSW graph.
type Config struct {
	// M is the maximum neighbour count per node on the upper layers; the
	// bottom layer keeps 2*M. Larger M raises recall and memory.
	M int
	// EfConstruction bounds the best-first candidate search that selects
	// each inserted node's neighbours.
	EfConstruction int
	// EfSearch bounds the best-first search of a query's bottom-layer
	// pass; Search uses max(EfSearch, k).
	EfSearch int
	// BatchSize is the number of nodes whose insertion searches run in
	// parallel against a frozen graph snapshot. It trades construction
	// parallelism against graph quality (nodes in one batch see each other
	// only through the serial linking pass) and has no effect on
	// determinism.
	BatchSize int
	// Workers bounds the construction goroutines (<= 0 selects
	// runtime.NumCPU(); results are identical at any value).
	Workers int
}

// DefaultConfig returns a configuration sized for corpora of short product
// titles: M=8, efConstruction=64, efSearch=48, 64-node batches.
func DefaultConfig() Config {
	return Config{M: 8, EfConstruction: 64, EfSearch: 48, BatchSize: 64, Workers: 0}
}

// Graph is a built HNSW index. It can be grown incrementally with Add;
// between mutations Search is read-only and safe for concurrent use by
// multiple goroutines.
type Graph struct {
	cfg      Config
	dim      int
	vecs     [][]float32 // normalized copies of the input vectors
	levels   []int
	links    [][][]int32 // [node][level] -> neighbour ids
	entry    int
	maxLevel int

	// Incremental-insertion state: the level-draw stream and the entry
	// point/top level as of the current batch's start. Add replays the exact
	// batched construction of Build — a node's insertion searches see only
	// nodes from before its batch — so Build(prefix) followed by Adds is
	// byte-identical to one Build over the concatenation.
	rng        *rand.Rand
	batchEntry int
	batchMax   int
	// shadow holds, per (node, level) touched by the current batch's linking,
	// a copy of the pre-batch neighbour list. Insertion searches read through
	// it so that Add sees exactly the frozen snapshot Build's parallel search
	// phase saw, even though earlier Adds of the same batch have already
	// appended backlinks to (and possibly pruned) pre-batch nodes.
	shadow map[uint64][]int32
}

// shadowKey packs a (node, level) pair into one shadow-map key. Levels are
// exponentially distributed with multiplier 1/ln(M), so they never approach
// the 16-bit budget.
func shadowKey(n int32, level int) uint64 {
	return uint64(uint32(n))<<16 | uint64(uint16(level))
}

// scored is a candidate node with its distance to the current query.
// Ordering is (distance ascending, id ascending) everywhere, which pins
// every traversal and selection decision.
type scored struct {
	id   int32
	dist float64
}

func closer(a, b scored) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// Build constructs a graph over the given vectors. The rng drives only the
// per-node level draws and is consumed in index order before any insertion,
// so identical streams produce identical graphs. The input vectors are not
// retained; normalized copies are.
func Build(vecs [][]float32, cfg Config, rng *rand.Rand) *Graph {
	// M must be at least 2: the level multiplier is 1/ln(M), which is +Inf
	// at M=1 and would drive the level draws out of integer range.
	if cfg.M < 2 || cfg.EfConstruction <= 0 || cfg.BatchSize <= 0 {
		panic("hnsw: Config.M must be >= 2 and EfConstruction/BatchSize positive")
	}
	g := &Graph{cfg: cfg, entry: -1, maxLevel: -1, rng: rng, batchEntry: -1, batchMax: -1}
	if len(vecs) == 0 {
		return g
	}
	g.dim = len(vecs[0])
	g.vecs = make([][]float32, len(vecs))
	parallel.Run(len(vecs), cfg.Workers, func(i int) error {
		g.vecs[i] = vector.Unit(vecs[i])
		return nil
	}, nil)

	// Draw all levels up front so the rng stream is independent of batch
	// and worker scheduling.
	mL := 1 / math.Log(float64(cfg.M))
	g.levels = make([]int, len(vecs))
	for i := range g.levels {
		g.levels[i] = int(math.Floor(-math.Log(1-rng.Float64()) * mL))
	}
	g.links = make([][][]int32, len(vecs))
	for i := range g.links {
		g.links[i] = make([][]int32, g.levels[i]+1)
	}

	cands := make([][][]scored, len(vecs))
	for start := 0; start < len(vecs); start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > len(vecs) {
			end = len(vecs)
		}
		// Parallel phase: search the frozen snapshot (nodes [0,start)) for
		// each batch node's per-level neighbour candidates.
		frozenEntry, frozenMax := g.entry, g.maxLevel
		g.batchEntry, g.batchMax = frozenEntry, frozenMax
		g.shadow = nil
		parallel.Run(end-start, cfg.Workers, func(k int) error {
			i := start + k
			cands[i] = g.insertCandidates(i, frozenEntry, frozenMax, start)
			return nil
		}, nil)
		// Serial phase: link batch nodes in index order, letting each see
		// its already-linked batch-mates.
		for i := start; i < end; i++ {
			g.link(i, cands[i], start)
			cands[i] = nil
			if g.levels[i] > g.maxLevel {
				g.maxLevel = g.levels[i]
				g.entry = i
			}
		}
	}
	return g
}

// Add inserts one vector incrementally and returns its node id. The
// insertion replays Build's batched construction exactly: the candidate
// searches run against the graph as of the node's batch start (a new batch
// begins at every BatchSize-th node), the level is drawn from the same
// stream Build draws from, and linking sees the already-inserted
// batch-mates. Build(prefix) followed by Add of each remaining vector is
// therefore byte-identical to a single Build over the full input,
// regardless of where the prefix ends.
//
// Add is not safe for concurrent use with itself or with Search.
func (g *Graph) Add(vec []float32) int {
	i := len(g.vecs)
	if i == 0 {
		g.dim = len(vec)
	} else if len(vec) != g.dim {
		panic("hnsw: added vector dimension does not match the indexed vectors")
	}
	batchStart := i - i%g.cfg.BatchSize
	if i == batchStart {
		// A new batch begins here: freeze the snapshot Add searches against,
		// exactly as Build does at the top of each batch loop.
		g.batchEntry, g.batchMax = g.entry, g.maxLevel
		g.shadow = nil
	}
	mL := 1 / math.Log(float64(g.cfg.M))
	g.vecs = append(g.vecs, vector.Unit(vec))
	g.levels = append(g.levels, int(math.Floor(-math.Log(1-g.rng.Float64())*mL)))
	g.links = append(g.links, make([][]int32, g.levels[i]+1))
	cands := g.insertCandidates(i, g.batchEntry, g.batchMax, batchStart)
	g.link(i, cands, batchStart)
	if g.levels[i] > g.maxLevel {
		g.maxLevel = g.levels[i]
		g.entry = i
	}
	return i
}

// insertCandidates runs the standard HNSW insertion search for node i
// against the graph restricted to nodes < frozen: a greedy descent from
// the entry point to level levels[i]+1, then an efConstruction-bounded
// best-first search per level from min(levels[i], frozenMax) down to 0.
// The returned slice is indexed by level.
func (g *Graph) insertCandidates(i, frozenEntry, frozenMax, frozen int) [][]scored {
	out := make([][]scored, g.levels[i]+1)
	if frozenEntry < 0 {
		return out
	}
	q := g.vecs[i]
	ep := scored{id: int32(frozenEntry), dist: g.dist(q, frozenEntry)}
	for l := frozenMax; l > g.levels[i]; l-- {
		ep = g.greedyStep(q, ep, l, frozen)
	}
	top := g.levels[i]
	if top > frozenMax {
		top = frozenMax
	}
	for l := top; l >= 0; l-- {
		found := g.searchLayer(q, []scored{ep}, g.cfg.EfConstruction, l, frozen)
		out[l] = found
		if len(found) > 0 {
			ep = found[0]
		}
	}
	return out
}

// link connects node i using its per-level candidates, augmented with its
// already-linked batch-mates (nodes in [batchStart, i)) so that
// intra-batch neighbours survive batched construction.
func (g *Graph) link(i int, cands [][]scored, batchStart int) {
	q := g.vecs[i]
	for l := 0; l <= g.levels[i]; l++ {
		pool := cands[l]
		for j := batchStart; j < i; j++ {
			if g.levels[j] >= l {
				pool = append(pool, scored{id: int32(j), dist: g.dist(q, j)})
			}
		}
		if len(pool) == 0 {
			continue
		}
		pool = g.selectNeighbors(pool, g.maxConn(l))
		for _, n := range pool {
			g.saveShadow(n.id, l, batchStart)
			g.links[i][l] = append(g.links[i][l], n.id)
			g.links[n.id][l] = append(g.links[n.id][l], int32(i))
			if len(g.links[n.id][l]) > g.maxConn(l) {
				g.prune(int(n.id), l)
			}
		}
	}
}

// saveShadow records a copy of node n's level-l neighbour list before its
// first modification in the current batch, so later insertion searches of
// the same batch still see the frozen pre-batch state. Nodes inside the
// batch need no shadow: insertion searches never traverse them.
func (g *Graph) saveShadow(n int32, l, batchStart int) {
	if int(n) >= batchStart {
		return
	}
	key := shadowKey(n, l)
	if _, ok := g.shadow[key]; ok {
		return
	}
	if g.shadow == nil {
		g.shadow = map[uint64][]int32{}
	}
	g.shadow[key] = append([]int32(nil), g.links[n][l]...)
}

// linksAt returns node id's level-l neighbour list as an insertion search
// must see it: reads with frozen < Len go through the current batch's
// shadow copies, while full-graph reads (queries, frozen == Len) always see
// the live lists.
func (g *Graph) linksAt(id int32, level, frozen int) []int32 {
	if frozen < len(g.vecs) && g.shadow != nil {
		if ls, ok := g.shadow[shadowKey(id, level)]; ok {
			return ls
		}
	}
	return g.links[id][level]
}

// selectNeighbors is the diversity heuristic of the HNSW paper (Alg. 4): a
// candidate joins the neighbour set only if it is closer to the query node
// than to every neighbour already selected, which keeps edges spread across
// clusters instead of forming intra-cluster cliques — the property greedy
// search needs to navigate between clusters. Remaining slots are filled
// from the skipped candidates (keep-pruned-connections), closest first.
// pool is sorted in place; the returned slice aliases it.
func (g *Graph) selectNeighbors(pool []scored, m int) []scored {
	sort.Slice(pool, func(a, b int) bool { return closer(pool[a], pool[b]) })
	if len(pool) <= m {
		return pool
	}
	selected := pool[:0]
	var skipped []scored
	for _, c := range pool {
		if len(selected) == m {
			break
		}
		diverse := true
		for _, s := range selected {
			if g.dist(g.vecs[c.id], int(s.id)) < c.dist {
				diverse = false
				break
			}
		}
		if diverse {
			selected = append(selected, c)
		} else {
			skipped = append(skipped, c)
		}
	}
	for _, c := range skipped {
		if len(selected) == m {
			break
		}
		selected = append(selected, c)
	}
	return selected
}

// maxConn is the neighbour budget at a level: 2M on the bottom layer, M
// above it.
func (g *Graph) maxConn(level int) int {
	if level == 0 {
		return 2 * g.cfg.M
	}
	return g.cfg.M
}

// prune shrinks node n's level-l neighbour list back to budget with the
// same diversity heuristic used at insertion.
func (g *Graph) prune(n, l int) {
	ns := g.links[n][l]
	sc := make([]scored, len(ns))
	for k, id := range ns {
		sc[k] = scored{id: id, dist: g.dist(g.vecs[n], int(id))}
	}
	sc = g.selectNeighbors(sc, g.maxConn(l))
	ns = ns[:0]
	for _, s := range sc {
		ns = append(ns, s.id)
	}
	g.links[n][l] = ns
}

// greedyStep performs the hill-climbing pass of one upper layer: follow
// strictly improving neighbours until a local minimum.
func (g *Graph) greedyStep(q []float32, ep scored, level, frozen int) scored {
	for {
		improved := false
		for _, n := range g.linksAt(ep.id, level, frozen) {
			if int(n) >= frozen {
				continue
			}
			c := scored{id: n, dist: g.dist(q, int(n))}
			if closer(c, ep) {
				ep = c
				improved = true
			}
		}
		if !improved {
			return ep
		}
	}
}

// searchLayer is the bounded best-first search of one layer, returning up
// to ef nodes sorted by (distance, id). Only nodes < frozen participate.
func (g *Graph) searchLayer(q []float32, eps []scored, ef, level, frozen int) []scored {
	visited := make(map[int32]struct{}, ef*4)
	var cand minHeap // closest-first frontier
	var res maxHeap  // bounded result set, worst at root
	for _, ep := range eps {
		if _, dup := visited[ep.id]; dup {
			continue
		}
		visited[ep.id] = struct{}{}
		cand.push(ep)
		res.push(ep)
	}
	for cand.len() > 0 {
		c := cand.pop()
		if res.len() >= ef && closer(res.top(), c) {
			break
		}
		for _, n := range g.linksAt(c.id, level, frozen) {
			if int(n) >= frozen {
				continue
			}
			if _, dup := visited[n]; dup {
				continue
			}
			visited[n] = struct{}{}
			s := scored{id: n, dist: g.dist(q, int(n))}
			if res.len() < ef || closer(s, res.top()) {
				cand.push(s)
				res.push(s)
				if res.len() > ef {
					res.pop()
				}
			}
		}
	}
	out := res.drain()
	sort.Slice(out, func(a, b int) bool { return closer(out[a], out[b]) })
	return out
}

// dist is the cosine distance of query q to stored node i (both
// normalized): 1 - dot.
func (g *Graph) dist(q []float32, i int) float64 {
	return 1 - vector.Dot(q, g.vecs[i])
}

// Len returns the number of indexed vectors.
func (g *Graph) Len() int { return len(g.vecs) }

// Search returns the k approximate nearest neighbours of q by cosine
// similarity, best first (ties by ascending id), using the configured
// EfSearch. The query is normalized internally.
func (g *Graph) Search(q []float32, k int) []vector.Neighbor {
	return g.SearchEf(q, k, g.cfg.EfSearch)
}

// SearchEf is Search with an explicit ef bound (clamped up to k). Larger
// ef raises recall at proportional cost. The query must have the indexed
// dimension; a mismatch panics rather than silently truncating the dot
// products.
func (g *Graph) SearchEf(q []float32, k, ef int) []vector.Neighbor {
	if k <= 0 || len(g.vecs) == 0 {
		return nil
	}
	if len(q) != g.dim {
		panic("hnsw: query dimension does not match the indexed vectors")
	}
	if ef < k {
		ef = k
	}
	nq := vector.Unit(q)
	ep := scored{id: int32(g.entry), dist: g.dist(nq, g.entry)}
	for l := g.maxLevel; l > 0; l-- {
		ep = g.greedyStep(nq, ep, l, len(g.vecs))
	}
	found := g.searchLayer(nq, []scored{ep}, ef, 0, len(g.vecs))
	if len(found) > k {
		found = found[:k]
	}
	out := make([]vector.Neighbor, len(found))
	for i, s := range found {
		out[i] = vector.Neighbor{ID: int(s.id), Sim: 1 - s.dist}
	}
	return out
}

// minHeap is a closest-first binary heap of scored candidates.
type minHeap struct{ s []scored }

func (h *minHeap) len() int { return len(h.s) }

func (h *minHeap) push(x scored) {
	h.s = append(h.s, x)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !closer(h.s[i], h.s[p]) {
			break
		}
		h.s[i], h.s[p] = h.s[p], h.s[i]
		i = p
	}
}

func (h *minHeap) pop() scored {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	i := 0
	for {
		l, r, best := 2*i+1, 2*i+2, i
		if l < last && closer(h.s[l], h.s[best]) {
			best = l
		}
		if r < last && closer(h.s[r], h.s[best]) {
			best = r
		}
		if best == i {
			return top
		}
		h.s[i], h.s[best] = h.s[best], h.s[i]
		i = best
	}
}

// maxHeap is a farthest-first binary heap (worst kept result at the root).
type maxHeap struct{ s []scored }

func (h *maxHeap) len() int { return len(h.s) }

func (h *maxHeap) top() scored { return h.s[0] }

func (h *maxHeap) push(x scored) {
	h.s = append(h.s, x)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !closer(h.s[p], h.s[i]) {
			break
		}
		h.s[i], h.s[p] = h.s[p], h.s[i]
		i = p
	}
}

func (h *maxHeap) pop() scored {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	i := 0
	for {
		l, r, best := 2*i+1, 2*i+2, i
		if l < last && closer(h.s[best], h.s[l]) {
			best = l
		}
		if r < last && closer(h.s[best], h.s[r]) {
			best = r
		}
		if best == i {
			return top
		}
		h.s[i], h.s[best] = h.s[best], h.s[i]
		i = best
	}
}

// drain returns the heap's contents in arbitrary order, emptying it.
func (h *maxHeap) drain() []scored {
	out := h.s
	h.s = nil
	return out
}
