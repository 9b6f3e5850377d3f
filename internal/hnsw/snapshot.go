// Snapshot support: a Graph round-trips through internal/persist by
// storing its structural state — levels, adjacency lists, entry point —
// plus the incremental-insertion state (current batch's frozen entry and
// shadow copies) that makes post-restore Adds byte-identical to Adds on
// the original. Vectors are NOT stored here: the caller owns them (they
// are derived from the corpus the snapshot is content-addressed to) and
// passes them back to Restore, which re-normalizes exactly as Build did.
// The level-draw rng is also reconstructed rather than stored: Build and
// Add consume exactly one draw per node, so Restore fast-forwards a
// freshly seeded stream by Len draws and the next Add continues the
// original sequence.

package hnsw

import (
	"fmt"
	"math/rand"
	"sort"

	"wdcproducts/internal/parallel"
	"wdcproducts/internal/persist"
	"wdcproducts/internal/vector"
)

// maxLevelBound caps plausible node levels; levels are exponentially
// distributed with multiplier 1/ln(M), so real values stay in single
// digits and the shadow-key packing allows 16 bits.
const maxLevelBound = 1 << 15

// AppendSnapshot writes the graph's structure into b: levels, per-level
// adjacency, entry point, and the current batch's incremental state.
// Vectors and configuration are the caller's to persist (or re-derive).
func (g *Graph) AppendSnapshot(b *persist.Buffer) {
	b.Int(len(g.vecs))
	b.Int(g.dim)
	b.Ints(g.levels)
	for i := range g.links {
		for l := 0; l <= g.levels[i]; l++ {
			b.Int32s(g.links[i][l])
		}
	}
	b.Int(g.entry)
	b.Int(g.maxLevel)
	b.Int(g.batchEntry)
	b.Int(g.batchMax)
	keys := make([]uint64, 0, len(g.shadow))
	for k := range g.shadow {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	b.Int(len(keys))
	for _, k := range keys {
		b.Uint64(k)
		b.Int32s(g.shadow[k])
	}
}

// Restore rebuilds a graph from a snapshot written by AppendSnapshot.
// vecs, cfg, and rng must match the Build-time inputs: vecs are
// re-normalized across the configured worker pool exactly as Build does,
// and rng (a freshly seeded copy of the Build-time stream) is
// fast-forwarded past the Len level draws already consumed, so the
// restored graph answers every Search identically to the original and a
// subsequent Add continues the identical deterministic sequence.
//
// All persisted indices are bounds-checked; damaged input yields an error,
// never a panic or an out-of-range graph.
func Restore(vecs [][]float32, cfg Config, rng *rand.Rand, r *persist.Reader) (*Graph, error) {
	if cfg.M < 2 || cfg.EfConstruction <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("hnsw: invalid config")
	}
	n := r.Int()
	dim := r.Int()
	levels := r.Ints()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n != len(vecs) {
		return nil, fmt.Errorf("hnsw: snapshot holds %d nodes, caller supplied %d vectors", n, len(vecs))
	}
	if len(levels) != n {
		return nil, fmt.Errorf("hnsw: %d levels for %d nodes", len(levels), n)
	}
	if n > 0 && dim != len(vecs[0]) {
		return nil, fmt.Errorf("hnsw: snapshot dimension %d, vectors have %d", dim, len(vecs[0]))
	}
	g := &Graph{cfg: cfg, dim: dim, levels: levels, rng: rng}
	checkID := func(id int32) error {
		if int(id) < 0 || int(id) >= n {
			return fmt.Errorf("hnsw: node id %d out of range [0,%d)", id, n)
		}
		return nil
	}
	g.links = make([][][]int32, n)
	for i := 0; i < n; i++ {
		if levels[i] < 0 || levels[i] >= maxLevelBound {
			return nil, fmt.Errorf("hnsw: node %d level %d out of range", i, levels[i])
		}
		g.links[i] = make([][]int32, levels[i]+1)
		for l := 0; l <= levels[i]; l++ {
			ns := r.Int32s()
			if err := r.Err(); err != nil {
				return nil, err
			}
			for _, id := range ns {
				if err := checkID(id); err != nil {
					return nil, err
				}
			}
			g.links[i][l] = ns
		}
	}
	g.entry = r.Int()
	g.maxLevel = r.Int()
	g.batchEntry = r.Int()
	g.batchMax = r.Int()
	nshadow := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	checkEntry := func(entry, max int) error {
		if entry == -1 && max == -1 {
			return nil
		}
		if entry < 0 || entry >= n || max < 0 || max > levels[entry] {
			return fmt.Errorf("hnsw: entry %d / max level %d inconsistent", entry, max)
		}
		return nil
	}
	if err := checkEntry(g.entry, g.maxLevel); err != nil {
		return nil, err
	}
	if err := checkEntry(g.batchEntry, g.batchMax); err != nil {
		return nil, err
	}
	if n > 0 && g.entry < 0 {
		return nil, fmt.Errorf("hnsw: no entry point for %d nodes", n)
	}
	if nshadow < 0 || nshadow > r.Remaining()/8 {
		return nil, fmt.Errorf("hnsw: implausible shadow count %d", nshadow)
	}
	if nshadow > 0 {
		g.shadow = make(map[uint64][]int32, nshadow)
	}
	for s := 0; s < nshadow; s++ {
		key := r.Uint64()
		ns := r.Int32s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		node, level := int32(uint32(key>>16)), int(uint16(key))
		if err := checkID(node); err != nil {
			return nil, err
		}
		if level > levels[node] {
			return nil, fmt.Errorf("hnsw: shadow level %d above node %d level %d", level, node, levels[node])
		}
		for _, id := range ns {
			if err := checkID(id); err != nil {
				return nil, err
			}
		}
		g.shadow[key] = ns
	}
	g.vecs = make([][]float32, n)
	parallel.Run(n, cfg.Workers, func(i int) error {
		g.vecs[i] = vector.Unit(vecs[i])
		return nil
	}, nil)
	// Consume the level draws Build already spent, so post-restore Adds
	// draw the same levels the original graph would have.
	for i := 0; i < n; i++ {
		rng.Float64()
	}
	return g, nil
}
