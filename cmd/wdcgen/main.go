// Command wdcgen generates a WDC Products benchmark: it runs the full §3
// pipeline (synthetic corpus, extraction, cleansing, grouping, selection,
// splitting, pair generation) and writes the 27 pair-wise plus 9
// multi-class datasets to a directory.
//
// Usage:
//
//	wdcgen -out ./benchmark [-seed 42] [-scale default|small|tiny] [-v] [-synth-scale 100000]
//
// The §6 blocking studies run from wdceval (-blocking, -blockscale,
// -matchblock), which builds the identical benchmark from the same -seed
// and -scale.
//
// -synth-scale N additionally grows the benchmark's offer corpus to N
// offers with the deterministic synthetic generator (internal/synth),
// validates label consistency and coverage floors on the grown corpus,
// and writes it to <out>/synthetic.jsonl (one offer per line, seed offers
// first). -synth-workers bounds the generation parallelism; the output is
// byte-identical at any worker count. With -v the §4 label-quality gate
// also runs over a stratified sample of generated pairs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"wdcproducts"
)

func main() {
	log.SetFlags(0)
	out := flag.String("out", "benchmark", "output directory")
	seed := flag.Int64("seed", 42, "master random seed")
	scale := flag.String("scale", "small", "benchmark scale: default (paper, 500 products/set), small (120), tiny (40)")
	verbose := flag.Bool("v", false, "print per-stage pipeline statistics (Figure 2)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the build to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the build) to this file")
	synthScale := flag.Int("synth-scale", 0,
		"also grow the offer corpus to this many offers with the deterministic synthetic generator and write <out>/synthetic.jsonl (0 = off)")
	synthWorkers := flag.Int("synth-workers", 0,
		"generation parallelism for -synth-scale (<= 0 = all CPUs; the output is identical at any value)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	var cfg wdcproducts.BuildConfig
	switch *scale {
	case "default":
		cfg = wdcproducts.DefaultScale(*seed)
	case "small":
		cfg = wdcproducts.SmallScale(*seed)
	case "tiny":
		cfg = wdcproducts.TinyScale(*seed)
	default:
		log.Fatalf("unknown scale %q", *scale)
	}

	b, err := wdcproducts.Build(cfg)
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	if err := wdcproducts.Validate(b); err != nil {
		log.Fatalf("validate: %v", err)
	}
	if err := wdcproducts.Save(b, *out); err != nil {
		log.Fatalf("save: %v", err)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		runtime.GC() // materialize accurate live-heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		f.Close()
	}
	fmt.Printf("benchmark written to %s (%d offers, %d ratios, seed %d)\n",
		*out, len(b.Offers), len(b.Ratios), b.Seed)
	if *verbose {
		s := b.Stats
		fmt.Fprintf(os.Stdout, "pipeline (Figure 2):\n")
		fmt.Printf("  catalog products      %d\n", s.CorpusProducts)
		fmt.Printf("  pages generated       %d\n", s.PagesGenerated)
		fmt.Printf("  offers extracted      %d\n", s.OffersExtracted)
		fmt.Printf("  offers clustered      %d (%d clusters)\n", s.OffersClustered, s.RawClusters)
		fmt.Printf("  cleansing removed     %v\n", s.CleanseRemoved)
		fmt.Printf("  offers after cleanse  %d\n", s.OffersCleansed)
		fmt.Printf("  dbscan groups         %d (%d avoided by curation)\n", s.DBSCANGroups, s.AvoidedGroups)
		fmt.Printf("  pools seen/unseen     %d / %d clusters\n", s.SeenPoolClusters, s.UnseenPoolCluster)
		fmt.Printf("  metric draws          %v\n", s.MetricDraws)
	}
	if *synthScale > 0 {
		c, err := wdcproducts.SynthGrow(b, *synthScale, *seed, *synthWorkers)
		if err != nil {
			log.Fatalf("synth grow: %v", err)
		}
		if err := c.Validate(); err != nil {
			log.Fatalf("synth validate: %v", err)
		}
		path := filepath.Join(*out, "synthetic.jsonl")
		if err := writeSynthJSONL(path, c); err != nil {
			log.Fatalf("synth save: %v", err)
		}
		fmt.Printf("synthetic corpus written to %s\n  %s\n", path, c.Summary())
		if *verbose {
			res, err := wdcproducts.SynthLabelCheck(c, *seed)
			if err != nil {
				log.Fatalf("synth label check: %v", err)
			}
			fmt.Printf("  label gate: %d+/%d- pairs, noise %v, kappa %.3f\n",
				res.Positives, res.Negatives, res.NoiseEstimate, res.Kappa)
		}
	}
}

// writeSynthJSONL streams the grown corpus to path, one offer object per
// line, seed offers first — the same JSONL shape as offers.jsonl, so the
// grown corpus drops into any tool that reads the benchmark's offers.
func writeSynthJSONL(path string, c *wdcproducts.SynthCorpus) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range c.Offers {
		if err := enc.Encode(&c.Offers[i]); err != nil {
			f.Close()
			return fmt.Errorf("encode row %d: %w", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
