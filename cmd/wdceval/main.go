// Command wdceval runs the §5 experimental evaluation: it trains the
// matching systems on every benchmark variant and prints Tables 3, 4 and 5
// plus the Figure 4/5/6 dimension slices.
//
// Usage:
//
//	wdceval [-scale small] [-seed 42] [-reps 3] [-workers 0] [-systems Word-Cooc,R-SupCon] [-table 3|4|5] [-figure 4|5|6] [-blocking token,embedding,minhash,hnsw,ivf] [-blockscale] [-matchblock]
//
// -workers spreads the independent training cells across CPUs (0 = all
// cores, 1 = serial); results are identical at any worker count.
//
// -blocking runs the §6 blocking study instead of the training matrix: it
// evaluates the named blockers ("all" selects every strategy) on the
// cc=50% seen test offers and prints candidates, pair completeness,
// reduction ratio and build/query wall time per blocker.
//
// -blockscale runs the study the way it scales: each blocker's index is
// built once over the union of every test split's offers and then queried
// per (corner ratio, unseen fraction) split — combine with -scale default
// to drive it at the paper's corpus size, where rebuild-per-call costs
// minutes and the reused indexes stay interactive.
//
// -matchblock runs the matcher-in-the-loop study: the named blockers'
// candidates restrict the cc=50%/medium train/validation/test pair sets,
// the -systems matchers (default Word-Cooc, Magellan, RoBERTa) are trained
// on the restricted data, and the table pairs each blocker's completeness
// and reduction with the end-to-end pipeline P/R/F1 — blocker-missed
// matches count as false negatives, and an unblocked baseline row anchors
// the comparison. The table carries no timing columns and is byte-identical
// at any -workers value.
//
// The three studies are the repository's one command-line entry point for
// §6: they run on the benchmark built from -seed and -scale, which is the
// one wdcgen writes for the same flags. -snapshot-dir loads and saves
// their blocking indexes and -v logs each index acquisition.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"wdcproducts"
)

// splitList parses a comma-separated flag value: elements are trimmed of
// whitespace, empty elements (doubled or trailing commas) are dropped, and
// duplicates collapse to their first occurrence. An empty result is nil
// (= the flag's default selection).
func splitList(s string) []string {
	seen := map[string]bool{}
	var out []string
	for _, part := range strings.Split(s, ",") {
		v := strings.TrimSpace(part)
		if v == "" || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 42, "master random seed")
	scale := flag.String("scale", "small", "default|small|tiny")
	reps := flag.Int("reps", 1, "training repetitions per cell (the paper uses 3)")
	workers := flag.Int("workers", 0, "concurrent training cells (0 = NumCPU, 1 = serial; results identical)")
	systemsFlag := flag.String("systems", "", "comma-separated system subset (default: all)")
	table := flag.Int("table", 0, "print only table 3, 4 or 5")
	figure := flag.Int("figure", 0, "print only figure 4, 5 or 6")
	blockingFlag := flag.String("blocking", "",
		"run the §6 blocking study over the named blockers (comma-separated token|embedding|minhash|hnsw|ivf, or 'all') instead of the training matrix")
	blockScale := flag.Bool("blockscale", false,
		"run the build-once/query-per-split blocking study over every test split (uses the -blocking blocker list, default all)")
	matchBlock := flag.Bool("matchblock", false,
		"run the matcher-in-the-loop blocking study: train the -systems matchers on each blocker's candidate-restricted pair sets and report downstream P/R/F1 next to completeness/reduction (uses the -blocking blocker list, default all)")
	snapshotDir := flag.String("snapshot-dir", "",
		"persist blocking indexes: load each index from this directory when a snapshot matches the corpus/config fingerprint, save it after a fresh build (empty = rebuild every run)")
	quiet := flag.Bool("q", false, "suppress progress lines")
	verbose := flag.Bool("v", false,
		"log blocking-index acquisition: snapshot load vs rebuild and the typed fallback reason")
	flag.Parse()

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
		log.Fatal(err)
	}

	if *blockingFlag != "" || *blockScale || *matchBlock {
		names := wdcproducts.ParseBlockerNames(*blockingFlag)
		opts := wdcproducts.BlockingOptions{SnapshotDir: *snapshotDir}
		if *verbose {
			opts.Log = os.Stderr
		}
		var t *wdcproducts.Table
		switch {
		case *matchBlock:
			t, err = wdcproducts.MatcherBlockingReport(b, names, splitList(*systemsFlag), *seed, *reps, *workers, opts)
		case *blockScale:
			t, err = wdcproducts.BlockingScaleReport(b, names, *seed, *workers, opts)
		default:
			t, err = wdcproducts.BlockingReport(b, names, *seed, *workers, opts)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(t)
		return
	}

	runner := wdcproducts.NewRunner(b, *seed)

	ecfg := wdcproducts.ExperimentConfig{Repetitions: *reps, Seed: *seed, Workers: *workers}
	if !*quiet {
		ecfg.Progress = os.Stderr
	}
	ecfg.Systems = splitList(*systemsFlag)

	wantPair := *table == 0 || *table == 3 || *table == 4 || *figure != 0
	wantMulti := *table == 0 || *table == 5
	var pair, multi *wdcproducts.Results
	if wantPair {
		pair, err = runner.RunPairwise(ecfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	if wantMulti {
		mcfg := ecfg
		mcfg.Systems = nil // multi-class has its own system set
		multi, err = runner.RunMulti(mcfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	all := *table == 0 && *figure == 0
	if pair != nil && (*table == 3 || all) {
		fmt.Println(wdcproducts.Table3(pair, ecfg.Systems))
	}
	if pair != nil && (*table == 4 || all) {
		fmt.Println(wdcproducts.Table4(pair, nil))
	}
	if multi != nil && (*table == 5 || all) {
		fmt.Println(wdcproducts.Table5(multi, nil))
	}
	if pair != nil && (*figure == 4 || all) {
		fmt.Println(wdcproducts.Figure4(pair, ecfg.Systems))
	}
	if pair != nil && (*figure == 5 || all) {
		fmt.Println(wdcproducts.Figure5(pair, ecfg.Systems))
	}
	if pair != nil && (*figure == 6 || all) {
		fmt.Println(wdcproducts.Figure6(pair, ecfg.Systems))
	}
}
