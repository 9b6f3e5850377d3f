// Blocking: the §6 extension. Before pair-wise matching can run at scale,
// a blocker must prune the quadratic pair space without losing true
// matches. This example compares five blockers on benchmark offers — the
// exhaustive pair (token blocking, embedding nearest-neighbour blocking)
// against their sublinear counterparts (MinHash-LSH banding over token
// sets, HNSW approximate nearest neighbours over the same embeddings, and
// IVF probing of k-means partitions of the same embeddings) — reporting
// pair completeness (match recall), reduction ratio and wall time per
// blocker. It then demonstrates the reusable-index layer: build each
// index once, query it per split, and watch repeat queries cost a
// fraction of a rebuild.
package main

import (
	"fmt"
	"log"
	"time"

	"wdcproducts"
	"wdcproducts/internal/blocking"
	"wdcproducts/internal/embed"
	"wdcproducts/internal/xrand"
)

func main() {
	log.SetFlags(0)

	bench, err := wdcproducts.Build(wdcproducts.TinyScale(13))
	if err != nil {
		log.Fatal(err)
	}

	// Candidate universe: the cc=50% seen test offers; ground truth is the
	// test product each offer belongs to.
	productOf := map[int]int64{}
	var idxs []int
	for _, tp := range bench.Ratios[50].TestProducts[0] {
		for _, o := range tp.Offers {
			productOf[o] = int64(tp.Slot)
			idxs = append(idxs, o)
		}
	}
	clusterOf := func(i int) int64 { return productOf[i] }

	titles := make([]string, len(bench.Offers))
	for i := range bench.Offers {
		titles[i] = bench.Offers[i].Title
	}
	model := embed.Train(titles, embed.DefaultConfig(), xrand.New(13).Stream("embed"))

	blockers := []blocking.Blocker{
		blocking.NewTokenBlocker(),
		blocking.NewEmbeddingBlocker(model, 6),
		blocking.NewMinHashBlocker(),
		blocking.NewHNSWBlocker(model, 6),
		blocking.NewIVFBlocker(model, 6),
	}
	total := len(idxs) * (len(idxs) - 1) / 2
	fmt.Printf("blocking %d offers (%d possible pairs):\n\n", len(idxs), total)
	fmt.Printf("%-18s %12s %18s %16s %10s\n",
		"blocker", "candidates", "pair completeness", "reduction ratio", "ms")
	for _, bl := range blockers {
		start := time.Now()
		cands := bl.Candidates(bench.Offers, idxs)
		elapsed := time.Since(start)
		m := blocking.EvaluateClusters(cands, idxs, clusterOf)
		fmt.Printf("%-18s %12d %17.2f%% %15.2f%% %10.1f\n",
			bl.Name(), m.Candidates, m.PairCompleteness*100, m.ReductionRatio*100,
			float64(elapsed.Microseconds())/1000)
	}
	fmt.Println("\nA good blocker keeps pair completeness near 100% while pruning most of")
	fmt.Println("the pair space. The minhash-lsh, hnsw-knn and ivf-knn rows approximate")
	fmt.Println("their exhaustive counterparts sublinearly: candidate generation cost")
	fmt.Println("grows with the offers and their collisions or probes, not with the")
	fmt.Println("quadratic pair space (the paper derives SC-Block from this corpus).")

	// The reusable-index layer: the §6 study queries the same corpus once
	// per split and seed, so each blocker's index is built once and every
	// split is a query against it. The first query materializes the
	// neighbour lists it touches; a repeat query filters the frozen lists.
	fmt.Println("\nbuild once, query per split (hnsw-knn):")
	hb := blocking.NewHNSWBlocker(model, 6)
	start := time.Now()
	ix := hb.BuildIndex(bench.Offers, idxs)
	fmt.Printf("  build over %d offers:        %6.1f ms\n",
		ix.Len(), float64(time.Since(start).Microseconds())/1000)
	half := idxs[:len(idxs)/2]
	start = time.Now()
	ix.Candidates(half)
	fmt.Printf("  first query of a split:      %6.1f ms (materializes neighbour lists)\n",
		float64(time.Since(start).Microseconds())/1000)
	start = time.Now()
	cands := ix.Candidates(half)
	fmt.Printf("  repeat query of the split:   %6.1f ms (%d candidates)\n",
		float64(time.Since(start).Microseconds())/1000, len(cands))

	// The same comparison is available without touching internal packages:
	// wdcproducts.BlockingReport renders it as a table (training its own
	// encoder), wdcproducts.BlockingScaleReport drives the build-once/
	// query-per-split study over every test split, and wdceval runs them
	// as `wdceval -blocking all` / `-blockscale`.
	fmt.Println("\n(also available as wdcproducts.BlockingReport / BlockingScaleReport")
	fmt.Println(" and as wdceval -blocking all / -blockscale)")
}
