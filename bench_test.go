// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§4-§5), plus ablation benches quantifying the
// benchmark-construction devices (see docs/architecture.md). Each table
// bench regenerates its artifact through the same harness code the
// wdcprofile/wdceval commands use, prints it once, and reports the
// headline number as a custom metric.
//
// The expensive parts — building the benchmark and training the systems —
// run once and are shared; regeneration of each table from the trained
// results is what the loop measures. BenchmarkFigure2_PipelineSteps is the
// exception: it measures a full pipeline build per iteration.
package wdcproducts_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"wdcproducts"
	"wdcproducts/internal/blocking"
	"wdcproducts/internal/core"
	"wdcproducts/internal/embed"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/matchers"
	"wdcproducts/internal/pairgen"
	"wdcproducts/internal/parallel"
	"wdcproducts/internal/simlib"
	"wdcproducts/internal/synth"
	"wdcproducts/internal/vector"
	"wdcproducts/internal/xrand"
)

var (
	buildOnce sync.Once
	expOnce   sync.Once
	benchB    *wdcproducts.Benchmark
	benchC    *wdcproducts.Corpus
	runner    *wdcproducts.Runner
	pairRes   *wdcproducts.Results
	multiRes  *wdcproducts.Results
	setupErr  error

	printOnce sync.Map
)

// ensureBuild constructs the shared tiny benchmark and encoder, used by
// both the facade tests and the benches.
func ensureBuild(tb testing.TB) {
	tb.Helper()
	buildOnce.Do(func() {
		benchB, benchC, setupErr = wdcproducts.BuildWithCorpus(wdcproducts.TinyScale(42))
		if setupErr != nil {
			return
		}
		runner = wdcproducts.NewRunner(benchB, 42)
	})
	if setupErr != nil {
		tb.Fatal(setupErr)
	}
}

// setup additionally runs the 1-repetition experiment matrix all table
// benches read from.
func setup(b *testing.B) {
	b.Helper()
	ensureBuild(b)
	expOnce.Do(func() {
		pairRes, setupErr = runner.RunPairwise(wdcproducts.ExperimentConfig{Repetitions: 1, Seed: 42})
		if setupErr != nil {
			return
		}
		multiRes, setupErr = runner.RunMulti(wdcproducts.ExperimentConfig{Repetitions: 1, Seed: 42})
	})
	if setupErr != nil {
		b.Fatal(setupErr)
	}
}

// printTable prints a table exactly once per benchmark name, so `go test
// -bench` output shows the regenerated rows without repeating them b.N
// times.
func printTable(name, s string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", s)
	}
}

func BenchmarkTable1_SplitStatistics(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Table1(benchB)
		printTable("table1", t.String())
	}
}

func BenchmarkTable2_AttributeProfile(b *testing.B) {
	setup(b)
	bpe := wdcproducts.TrainBPE(benchB, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Table2With(benchB, bpe)
		printTable("table2", t.String())
	}
}

func BenchmarkTable3_PairwiseF1(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Table3(pairRes, nil)
		printTable("table3", t.String())
	}
	b.ReportMetric(cellF1(b, "R-SupCon", 50, wdcproducts.Medium, 0)*100, "rsupcon-seen-F1")
	b.ReportMetric(cellF1(b, "R-SupCon", 50, wdcproducts.Medium, 100)*100, "rsupcon-unseen-F1")
}

func BenchmarkTable4_PrecisionRecall(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Table4(pairRes, nil)
		printTable("table4", t.String())
	}
}

func BenchmarkTable5_MultiClass(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Table5(multiRes, nil)
		printTable("table5", t.String())
	}
	if c := multiRes.MultiCellFor("R-SupCon", 50, wdcproducts.Large); c != nil {
		b.ReportMetric(c.MicroF1*100, "rsupcon-microF1")
	}
}

func BenchmarkTable6_BenchmarkComparison(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Table6(benchB)
		printTable("table6", t.String())
	}
}

func BenchmarkFigure1_ExamplePairs(b *testing.B) {
	setup(b)
	pairs := benchB.TestPairs(80, 0)
	scorer, err := wdcproducts.NewTitleScorer(benchB, "jaccard")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The Figure 1 artifact: hardest positive and hardest negative.
		var hardPos, hardNeg wdcproducts.Pair
		hardPosSim, hardNegSim := 2.0, -1.0
		for _, p := range pairs {
			s := scorer.MustSim("jaccard", p.A, p.B)
			if p.Match && s < hardPosSim {
				hardPos, hardPosSim = p, s
			}
			if !p.Match && s > hardNegSim {
				hardNeg, hardNegSim = p, s
			}
		}
		printTable("figure1", fmt.Sprintf(
			"Figure 1: hard match (jaccard %.2f)\n  %s\n  %s\nhard non-match (jaccard %.2f)\n  %s\n  %s\n",
			hardPosSim, benchB.Offer(hardPos.A).Title, benchB.Offer(hardPos.B).Title,
			hardNegSim, benchB.Offer(hardNeg.A).Title, benchB.Offer(hardNeg.B).Title))
	}
}

func BenchmarkFigure2_PipelineSteps(b *testing.B) {
	// The one bench that measures the end-to-end §3 pipeline itself.
	for i := 0; i < b.N; i++ {
		bb, err := wdcproducts.Build(wdcproducts.TinyScale(int64(1000 + i)))
		if err != nil {
			b.Fatal(err)
		}
		printTable("figure2", fmt.Sprintf(
			"Figure 2 pipeline: products=%d pages=%d extracted=%d cleansed=%d groups=%d",
			bb.Stats.CorpusProducts, bb.Stats.PagesGenerated, bb.Stats.OffersExtracted,
			bb.Stats.OffersCleansed, bb.Stats.DBSCANGroups))
	}
}

func BenchmarkFigure3_ClusterSizes(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Figure3(benchB, 80)
		printTable("figure3", t.String())
	}
}

func BenchmarkFigure4_CornerCaseDimension(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Figure4(pairRes, nil)
		printTable("figure4", t.String())
	}
	easy := cellF1(b, "Ditto", 20, wdcproducts.Medium, 0)
	hard := cellF1(b, "Ditto", 80, wdcproducts.Medium, 0)
	b.ReportMetric((easy-hard)*100, "ditto-cc-dropF1")
}

func BenchmarkFigure5_UnseenDimension(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Figure5(pairRes, nil)
		printTable("figure5", t.String())
	}
	seen := cellF1(b, "R-SupCon", 50, wdcproducts.Medium, 0)
	unseen := cellF1(b, "R-SupCon", 50, wdcproducts.Medium, 100)
	b.ReportMetric((seen-unseen)*100, "rsupcon-unseen-dropF1")
}

func BenchmarkFigure6_DevSizeDimension(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		t := wdcproducts.Figure6(pairRes, nil)
		printTable("figure6", t.String())
	}
	small := cellF1(b, "RoBERTa", 50, wdcproducts.Small, 0)
	large := cellF1(b, "RoBERTa", 50, wdcproducts.Large, 0)
	b.ReportMetric((large-small)*100, "roberta-devsize-gainF1")
}

func BenchmarkLabelQuality_Kappa(b *testing.B) {
	setup(b)
	var kappa float64
	for i := 0; i < b.N; i++ {
		res, err := wdcproducts.LabelQuality(benchB, benchC, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		kappa = res.Kappa
		printTable("labels", fmt.Sprintf(
			"Label quality: %d pairs, noise %.2f%%/%.2f%%, kappa %.3f",
			res.SampledPairs, res.NoiseEstimate[0]*100, res.NoiseEstimate[1]*100, res.Kappa))
	}
	b.ReportMetric(kappa, "kappa")
}

// --- Parallel harness benches ----------------------------------------------

// benchMatrixSystems is the system subset the harness benches train: one
// representative of each matcher family (SVM, forest, MLP) keeps a full
// 27-variant matrix affordable per iteration.
var benchMatrixSystems = []string{"Word-Cooc", "Magellan", "RoBERTa"}

// runMatrix runs one pair-wise experiment matrix at the given worker
// count on the shared tiny benchmark.
func runMatrix(b *testing.B, workers int) {
	b.Helper()
	cfg := wdcproducts.ExperimentConfig{
		Repetitions: 1, Seed: 42, Workers: workers, Systems: benchMatrixSystems,
	}
	if _, err := runner.RunPairwise(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExperimentMatrix_Serial measures the Workers: 1 path — the
// pre-refactor behaviour of the harness.
func BenchmarkExperimentMatrix_Serial(b *testing.B) {
	setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runMatrix(b, 1)
	}
}

// BenchmarkExperimentMatrix_Parallel measures the default Workers: 0
// (NumCPU) path over the same matrix.
func BenchmarkExperimentMatrix_Parallel(b *testing.B) {
	setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runMatrix(b, 0)
	}
}

// BenchmarkExperimentMatrix_Speedup times both paths back to back in each
// iteration and reports the wall-clock speedup and the core count it was
// achieved on (1.0 is the expected floor on a single-core machine).
func BenchmarkExperimentMatrix_Speedup(b *testing.B) {
	setup(b)
	var serial, par time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		runMatrix(b, 1)
		serial += time.Since(t0)
		t1 := time.Now()
		runMatrix(b, 0)
		par += time.Since(t1)
	}
	if par > 0 {
		b.ReportMetric(float64(serial)/float64(par), "serial/parallel-speedup")
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cores")
}

// --- Ablation benches --------------------------------------------------------

// BenchmarkAblation_SingleMetricSelection compares corner-case selection
// bias: how well a single-metric matcher solves a test set whose corner
// cases were chosen by that same metric vs by the alternating registry.
func BenchmarkAblation_SingleMetricSelection(b *testing.B) {
	setup(b)
	// The fixture benchmark used the alternating registry. Measure how well
	// a pure-cosine thresholder solves its cc=80% test set.
	scorer, err := wdcproducts.NewTitleScorer(benchB, "cosine")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	solve := func(pairs []wdcproducts.Pair) float64 {
		scores := make([]float64, len(pairs))
		labels := make([]bool, len(pairs))
		for i, p := range pairs {
			scores[i] = scorer.MustSim("cosine", p.A, p.B)
			labels[i] = p.Match
		}
		return bestF1(scores, labels)
	}
	var f1 float64
	for i := 0; i < b.N; i++ {
		f1 = solve(benchB.TestPairs(80, 0))
	}
	b.ReportMetric(f1*100, "cosine-solver-F1")
	printTable("ablation-metric", fmt.Sprintf(
		"Ablation: pure-cosine thresholder F1 on alternating-metric benchmark = %.2f\n"+
			"(the §3.4 anti-bias device keeps single-metric solvers from solving the benchmark)", f1*100))
}

// BenchmarkAblation_NegativesPerOffer sweeps the K corner negatives per
// offer of §3.6 and reports resulting set sizes, the dev-size construction
// device.
func BenchmarkAblation_NegativesPerOffer(b *testing.B) {
	setup(b)
	rd := benchB.Ratios[50]
	var members []pairgen.Member
	for class, ci := range rd.Classes {
		members = append(members, pairgen.Member{Product: class, Offers: ci.TrainMedium})
	}
	title := func(i int) string { return benchB.Offer(i).Title }
	var sizes [4]int
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 4; k++ {
			src := xrand.New(int64(k))
			reg := simlib.NewRegistry(src.Stream("reg"), simlib.DefaultMetrics()...)
			pairs := pairgen.Generate(members,
				pairgen.Config{CornerNegatives: k, RandomNegatives: 1}, title, reg, src.Stream("p"))
			sizes[k-1] = len(pairs)
		}
	}
	printTable("ablation-negs", fmt.Sprintf(
		"Ablation: pairs generated at K corner negatives/offer: K=1:%d K=2:%d K=3:%d K=4:%d",
		sizes[0], sizes[1], sizes[2], sizes[3]))
	b.ReportMetric(float64(sizes[3]-sizes[0]), "pair-count-spread")
}

// BenchmarkAblation_ContrastiveFreeze contrasts the full two-stage
// R-SupCon against a head trained directly on raw-encoder similarity (no
// contrastive stage), quantifying what stage 1 buys on seen products.
func BenchmarkAblation_ContrastiveFreeze(b *testing.B) {
	setup(b)
	var withStage1, withoutStage1 float64
	for i := 0; i < b.N; i++ {
		m, err := wdcproducts.NewPairMatcher("R-SupCon")
		if err != nil {
			b.Fatal(err)
		}
		if err := m.TrainPairs(runner.Data, benchB.TrainPairs(50, wdcproducts.Medium),
			benchB.ValPairs(50, wdcproducts.Medium), 3); err != nil {
			b.Fatal(err)
		}
		counts := matchers.EvaluatePairs(m, runner.Data, benchB.TestPairs(50, 0))
		withStage1 = counts.F1()

		// No-stage-1 baseline: plain RoBERTa-substitute head on the same
		// data (the raw pretrained encoder with a discriminative head).
		raw, err := wdcproducts.NewPairMatcher("RoBERTa")
		if err != nil {
			b.Fatal(err)
		}
		if err := raw.TrainPairs(runner.Data, benchB.TrainPairs(50, wdcproducts.Medium),
			benchB.ValPairs(50, wdcproducts.Medium), 3); err != nil {
			b.Fatal(err)
		}
		rawCounts := matchers.EvaluatePairs(raw, runner.Data, benchB.TestPairs(50, 0))
		withoutStage1 = rawCounts.F1()
	}
	printTable("ablation-freeze", fmt.Sprintf(
		"Ablation: seen-test F1 with contrastive stage 1 = %.2f, without = %.2f",
		withStage1*100, withoutStage1*100))
	b.ReportMetric((withStage1-withoutStage1)*100, "stage1-gainF1")
}

// BenchmarkExtension_Blocking measures the §6 blocking extension: token
// blocking over one test split, reporting pair completeness and reduction.
// Each iteration times the blocker and the linear EvaluateClusters scoring.
func BenchmarkExtension_Blocking(b *testing.B) {
	setup(b)
	productOf := map[int]int64{}
	var idxs []int
	for _, tp := range benchB.Ratios[50].TestProducts[0] {
		for _, o := range tp.Offers {
			productOf[o] = int64(tp.Slot)
			idxs = append(idxs, o)
		}
	}
	clusterOf := func(i int) int64 { return productOf[i] }
	var m blocking.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := blocking.NewTokenBlocker().Candidates(benchB.Offers, idxs)
		m = blocking.EvaluateClusters(cands, idxs, clusterOf)
	}
	b.ReportMetric(m.PairCompleteness*100, "pair-completeness")
	b.ReportMetric(m.ReductionRatio*100, "reduction-ratio")
	printTable("blocking", fmt.Sprintf(
		"Blocking extension: %d candidates, completeness %.1f%%, reduction %.1f%%",
		m.Candidates, m.PairCompleteness*100, m.ReductionRatio*100))
}

// --- Sublinear blocking benches (§6, PR 3) ---------------------------------

// The blocking-scale benches compare candidate-generation cost as the
// offer universe grows: the exhaustive embedding blocker scores every pair
// (ns/offer grows linearly with n), while MinHash-LSH and HNSW stay
// sublinear (ns/offer roughly flat, up to collision and log factors). Each
// sub-bench reports ns/offer plus the quality metrics of the produced
// candidate set; the kNN blockers additionally report how much of the
// exhaustive embedding blocker's pair set they recover at the same K.

// blockKNN is the per-offer neighbour budget shared by the embedding and
// HNSW blockers, so their rows are directly comparable.
const blockKNN = 6

var (
	blockOnce  sync.Once
	blockModel *embed.Model

	exhaustiveMu    sync.Mutex
	exhaustiveCache = map[int][]blocking.CandidatePair{}
)

// blockingBenchSetup trains the one title encoder the embedding-space
// blockers share (tests and benches alike — hence testing.TB).
func blockingBenchSetup(b testing.TB) {
	b.Helper()
	ensureBuild(b)
	blockOnce.Do(func() {
		titles := make([]string, len(benchB.Offers))
		for i := range benchB.Offers {
			titles[i] = benchB.Offers[i].Title
		}
		blockModel = embed.Train(titles, embed.DefaultConfig(), xrand.New(42).Stream("block-embed"))
	})
}

// blockingSizes are the offer-universe sizes of the scaling sub-benches:
// quarter, half, and the full tiny-benchmark corpus.
func blockingSizes() []int {
	n := len(benchB.Offers)
	return []int{n / 4, n / 2, n}
}

// exhaustivePairs returns (and caches) the exhaustive embedding blocker's
// candidate set over the first n offers — the reference the approximate
// blockers' recall is measured against.
func exhaustivePairs(n int) []blocking.CandidatePair {
	exhaustiveMu.Lock()
	defer exhaustiveMu.Unlock()
	if cands, ok := exhaustiveCache[n]; ok {
		return cands
	}
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	cands := blocking.NewEmbeddingBlocker(blockModel, blockKNN).Candidates(benchB.Offers, idxs)
	exhaustiveCache[n] = cands
	return cands
}

// pairRecall is the fraction of want-pairs present in got.
func pairRecall(got, want []blocking.CandidatePair) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[blocking.CandidatePair]bool, len(got))
	for _, p := range got {
		set[p] = true
	}
	hit := 0
	for _, p := range want {
		if set[p] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// benchBlockerAt measures one blocker over the first n offers, reporting
// ns/offer, candidate count, completeness against the corpus cluster
// ground truth, reduction ratio, and (when vsExhaustive) recall of the
// exhaustive embedding blocker's pairs.
func benchBlockerAt(b *testing.B, mk func() blocking.Blocker, n int, vsExhaustive bool) {
	b.Helper()
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	var cands []blocking.CandidatePair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands = mk().Candidates(benchB.Offers, idxs)
	}
	b.StopTimer()
	m := blocking.EvaluateClusters(cands, idxs, func(i int) int64 { return benchB.Offers[i].ClusterID })
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/offer")
	b.ReportMetric(float64(m.Candidates), "pairs")
	b.ReportMetric(m.PairCompleteness*100, "pair-completeness")
	b.ReportMetric(m.ReductionRatio*100, "reduction-ratio")
	if vsExhaustive {
		b.ReportMetric(pairRecall(cands, exhaustivePairs(n))*100, "exhaustive-recall")
	}
}

// BenchmarkBlockingScale_EmbeddingExhaustive is the baseline: exhaustive
// per-offer top-K scoring, quadratic in the universe size.
func BenchmarkBlockingScale_EmbeddingExhaustive(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchBlockerAt(b, func() blocking.Blocker {
				return blocking.NewEmbeddingBlocker(blockModel, blockKNN)
			}, n, false)
		})
	}
}

// BenchmarkBlockingScale_MinHashLSH measures banded MinHash-LSH candidate
// generation over the title token sets.
func BenchmarkBlockingScale_MinHashLSH(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchBlockerAt(b, func() blocking.Blocker {
				return blocking.NewMinHashBlocker()
			}, n, true)
		})
	}
}

// BenchmarkBlockingScale_HNSW measures approximate embedding kNN blocking
// through the HNSW graph, at the same K as the exhaustive baseline.
func BenchmarkBlockingScale_HNSW(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchBlockerAt(b, func() blocking.Blocker {
				return blocking.NewHNSWBlocker(blockModel, blockKNN)
			}, n, true)
		})
	}
}

// BenchmarkBlockingScale_IVF measures approximate embedding kNN blocking
// through the inverted-file index, at the same K as the exhaustive
// baseline.
func BenchmarkBlockingScale_IVF(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchBlockerAt(b, func() blocking.Blocker {
				return blocking.NewIVFBlocker(blockModel, blockKNN)
			}, n, true)
		})
	}
}

// --- Index-reuse benches (§6, PR 4) -----------------------------------------

// The reuse benches separate what BenchmarkBlockingScale conflates: index
// construction (pay once per corpus) vs split querying (pay per split and
// seed). Each sub-bench builds one index (build-ms), runs the first query
// against it (query-cold-ms — this one materializes the lazily computed
// neighbour lists), then measures repeat queries (query-ms — each repeat
// recomputes the candidate set against the frozen index, the cost the §6
// study pays when the same split returns across seeds and repetitions).
// rebuild-ms is the legacy rebuild-per-call cost of Candidates on a fresh
// blocker over the same universe, and reuse-speedup = rebuild-ms /
// query-ms is the factor the reusable index saves per repeated query.
func benchIndexReuse(b *testing.B, mk func() blocking.IndexedBlocker, n int) {
	b.Helper()
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	t0 := time.Now()
	ix := mk().BuildIndex(benchB.Offers, idxs)
	buildMS := float64(time.Since(t0).Microseconds()) / 1000
	t1 := time.Now()
	ix.Candidates(idxs)
	coldMS := float64(time.Since(t1).Microseconds()) / 1000
	var cands []blocking.CandidatePair
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands = ix.Candidates(idxs)
	}
	b.StopTimer()
	queryMS := float64(b.Elapsed().Microseconds()) / 1000 / float64(b.N)
	t2 := time.Now()
	rebuilt := mk().Candidates(benchB.Offers, idxs)
	rebuildMS := float64(time.Since(t2).Microseconds()) / 1000
	if len(rebuilt) != len(cands) {
		b.Fatalf("reused index returned %d pairs, rebuild %d", len(cands), len(rebuilt))
	}
	b.ReportMetric(buildMS, "build-ms")
	b.ReportMetric(coldMS, "query-cold-ms")
	b.ReportMetric(queryMS, "query-ms")
	b.ReportMetric(rebuildMS, "rebuild-ms")
	if queryMS > 0 {
		b.ReportMetric(rebuildMS/queryMS, "reuse-speedup")
	}
	b.ReportMetric(float64(len(cands)), "pairs")
}

func BenchmarkBlockingReuse_MinHashLSH(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchIndexReuse(b, func() blocking.IndexedBlocker {
				return blocking.NewMinHashBlocker()
			}, n)
		})
	}
}

func BenchmarkBlockingReuse_Embedding(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchIndexReuse(b, func() blocking.IndexedBlocker {
				return blocking.NewEmbeddingBlocker(blockModel, blockKNN)
			}, n)
		})
	}
}

func BenchmarkBlockingReuse_HNSW(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchIndexReuse(b, func() blocking.IndexedBlocker {
				return blocking.NewHNSWBlocker(blockModel, blockKNN)
			}, n)
		})
	}
}

func BenchmarkBlockingReuse_IVF(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchIndexReuse(b, func() blocking.IndexedBlocker {
				return blocking.NewIVFBlocker(blockModel, blockKNN)
			}, n)
		})
	}
}

// --- Snapshot-reload benches (§6, PR 6) --------------------------------------

// The snapshot-reload benches quantify the persistence tentpole: rebuild-ms
// is a cold index build over the first n offers, load-ms is what a later
// process pays to restore the identical index from its snapshot through
// blocking.OpenIndex (decode, validate, rebuild the title bookkeeping —
// tokenization and vector/graph construction are skipped), load-speedup =
// rebuild-ms / load-ms, and snapshot-kb is the file size. The loaded index
// must answer the full-universe query with exactly as many pairs as the
// index that was saved.
func benchSnapshotReload(b *testing.B, mk func() blocking.IndexedBlocker, n int) {
	b.Helper()
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	bl := mk()
	t0 := time.Now()
	built := bl.BuildIndex(benchB.Offers, idxs)
	rebuildMS := float64(time.Since(t0).Microseconds()) / 1000
	want := built.Candidates(idxs)
	opts := blocking.IndexOptions{SnapshotDir: b.TempDir()}
	_, stats := blocking.OpenIndex(bl, benchB.Offers, idxs, opts)
	if stats.Loaded || !stats.Saved || stats.SaveErr != nil {
		b.Fatalf("snapshot save failed: %+v", stats)
	}
	info, err := os.Stat(stats.Path)
	if err != nil {
		b.Fatal(err)
	}
	var ix blocking.Index
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, stats = blocking.OpenIndex(bl, benchB.Offers, idxs, opts)
		if !stats.Loaded {
			b.Fatalf("snapshot did not load: %+v", stats)
		}
	}
	b.StopTimer()
	loadMS := float64(b.Elapsed().Microseconds()) / 1000 / float64(b.N)
	if cands := ix.Candidates(idxs); len(cands) != len(want) {
		b.Fatalf("loaded index returned %d pairs, original %d", len(cands), len(want))
	}
	b.ReportMetric(rebuildMS, "rebuild-ms")
	b.ReportMetric(loadMS, "load-ms")
	if loadMS > 0 {
		b.ReportMetric(rebuildMS/loadMS, "load-speedup")
	}
	b.ReportMetric(float64(info.Size())/1024, "snapshot-kb")
}

func BenchmarkSnapshotReload_MinHash(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSnapshotReload(b, func() blocking.IndexedBlocker {
				return blocking.NewMinHashBlocker()
			}, n)
		})
	}
}

func BenchmarkSnapshotReload_HNSW(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSnapshotReload(b, func() blocking.IndexedBlocker {
				return blocking.NewHNSWBlocker(blockModel, blockKNN)
			}, n)
		})
	}
}

func BenchmarkSnapshotReload_IVF(b *testing.B) {
	blockingBenchSetup(b)
	for _, n := range blockingSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSnapshotReload(b, func() blocking.IndexedBlocker {
				return blocking.NewIVFBlocker(blockModel, blockKNN)
			}, n)
		})
	}
}

// --- Synthetic scale-out benches (PR 8) --------------------------------------

// The synthetic-scale benches put real points behind the scaling story:
// the corpus is grown to n offers with the deterministic synth generator
// (ScaleConfig: roughly half the generated offers form new entities, the
// web-corpus-faithful growth mode), then the sublinear blocker runs over
// the grown universe. Recall is scored against cluster ground truth with
// the linear-time EvaluateClusters — labels are correct by construction,
// so the recall number is exact, not estimated.

// synthSizes are the grown-universe sizes of the scale benches.
func synthSizes() []int { return []int{10000, 100000} }

var (
	synthMu    sync.Mutex
	synthCache = map[int]*synth.Corpus{}
)

// synthCorpusAt grows (and caches) the shared synthetic corpus at n
// offers from the tiny benchmark's offer universe.
func synthCorpusAt(tb testing.TB, n int) *synth.Corpus {
	tb.Helper()
	ensureBuild(tb)
	synthMu.Lock()
	defer synthMu.Unlock()
	if c, ok := synthCache[n]; ok {
		return c
	}
	c, err := synth.Grow(benchB.Offers, synth.ScaleConfig(n, 42))
	if err != nil {
		tb.Fatal(err)
	}
	synthCache[n] = c
	return c
}

// BenchmarkSynthGrow measures generation throughput: one full grow per
// iteration, validated once after timing stops (label consistency and
// coverage floors over every generated offer).
func BenchmarkSynthGrow(b *testing.B) {
	ensureBuild(b)
	for _, n := range synthSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var c *synth.Corpus
			for i := 0; i < b.N; i++ {
				var err error
				c, err = synth.Grow(benchB.Offers, synth.ScaleConfig(n, 42))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := c.Validate(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/offer")
			b.ReportMetric(float64(c.Stats.KindCounts[synth.KindUnseen]), "unseen-offers")
			b.ReportMetric(float64(c.Stats.UnseenClusters), "unseen-clusters")
		})
	}
}

// scaleMinHashBlocker is the MinHash configuration the scale benches
// run: 16 bands of 4 rows. The default recall-tuned banding (48 bands of
// 2 rows) admits ~38% of unrelated J=0.1 pairs per corpus — harmless at
// n=2.5k, but on a 100k near-duplicate-heavy universe that is hundreds
// of millions of candidate pairs. Four-row bands push the background
// collision rate to ~0.2% while keeping most same-cluster collisions,
// which is the banding trade-off LSH theory prescribes at scale.
func scaleMinHashBlocker() *blocking.MinHashBlocker {
	return &blocking.MinHashBlocker{Config: blocking.MinHashConfig{Bands: 16, Rows: 4}, Seed: 1}
}

// BenchmarkSynthBlockingScale measures MinHash-LSH candidate generation
// over the grown universe, reporting ns/offer and exact cluster-truth
// recall at each size.
func BenchmarkSynthBlockingScale(b *testing.B) {
	for _, n := range synthSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := synthCorpusAt(b, n)
			idxs := make([]int, len(c.Offers))
			for i := range idxs {
				idxs[i] = i
			}
			var cands []blocking.CandidatePair
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands = scaleMinHashBlocker().Candidates(c.Offers, idxs)
			}
			b.StopTimer()
			m := blocking.EvaluateClusters(cands, idxs, func(i int) int64 { return c.Offers[i].ClusterID })
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/offer")
			b.ReportMetric(float64(m.Candidates), "pairs")
			b.ReportMetric(m.PairCompleteness*100, "pair-completeness")
			b.ReportMetric(m.ReductionRatio*100, "reduction-ratio")
		})
	}
}

// --- Quantized IVF query benches (PR 9) --------------------------------------

// The quantized-query benches put the headline number behind the PR 9
// tentpole: query cost per offer through the IVF index at each precision
// tier (f32 exact scan, int8 symmetric rows, PQ ADC over residual codes),
// searched per query. The acceptance figure is the n=100k PQ µs/query
// against the f32 baseline; every quantized row also
// reports recall of the f32 baseline's neighbour sets, so the speedup is
// never read without the quality it was bought at.

// quantBenchQueries caps the query load per measurement: enough queries
// to average over a split-sized query set, small enough that a full
// precision sweep at 100k stays affordable.
const quantBenchQueries = 2000

var (
	quantMu       sync.Mutex
	quantVecCache = map[int][][]float32{}
	quantIxCache  = map[string]*ivf.Index{}
	quantF32Cache = map[int][][]vector.Neighbor{}
)

// quantVecsAt encodes (and caches) the grown synthetic corpus at n offers
// into the shared embedding space, one vector per offer.
func quantVecsAt(tb testing.TB, n int) [][]float32 {
	blockingBenchSetup(tb)
	c := synthCorpusAt(tb, n)
	quantMu.Lock()
	defer quantMu.Unlock()
	if v, ok := quantVecCache[n]; ok {
		return v
	}
	vecs := make([][]float32, len(c.Offers))
	parallel.Run(len(vecs), 0, func(i int) error {
		vecs[i] = blockModel.Encode(c.Offers[i].Title)
		return nil
	}, nil)
	quantVecCache[n] = vecs
	return vecs
}

// quantIndexAt builds (and caches) one IVF index per (n, precision) over
// the grown corpus vectors.
func quantIndexAt(tb testing.TB, n int, p ivf.Precision) *ivf.Index {
	vecs := quantVecsAt(tb, n)
	key := fmt.Sprintf("%d/%s", n, p)
	quantMu.Lock()
	defer quantMu.Unlock()
	if ix, ok := quantIxCache[key]; ok {
		return ix
	}
	cfg := ivf.DefaultConfig()
	cfg.Precision = p
	ix := ivf.Build(vecs, cfg, xrand.New(42).Stream("quant-bench"))
	quantIxCache[key] = ix
	return ix
}

// quantF32Baseline returns (and caches) the f32 index's per-query results
// over the bench query set — the reference the quantized tiers' recall is
// measured against.
func quantF32Baseline(tb testing.TB, n int) [][]vector.Neighbor {
	ix := quantIndexAt(tb, n, ivf.PrecisionF32)
	vecs := quantVecsAt(tb, n)
	quantMu.Lock()
	defer quantMu.Unlock()
	if r, ok := quantF32Cache[n]; ok {
		return r
	}
	res := make([][]vector.Neighbor, min(len(vecs), quantBenchQueries))
	for i := range res {
		res[i] = ix.Search(vecs[i], blockKNN)
	}
	quantF32Cache[n] = res
	return res
}

// knnIDRecall is the mean per-query fraction of want's neighbour ids
// present in got's.
func knnIDRecall(got, want [][]vector.Neighbor) float64 {
	if len(want) == 0 {
		return 1
	}
	var sum float64
	for i := range want {
		if len(want[i]) == 0 {
			sum++
			continue
		}
		ids := make(map[int]bool, len(got[i]))
		for _, r := range got[i] {
			ids[r.ID] = true
		}
		hit := 0
		for _, r := range want[i] {
			if ids[r.ID] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(want[i]))
	}
	return sum / float64(len(want))
}

// BenchmarkIVFQueryScale sweeps n x precision, reporting per-query
// us/query and recall of the f32 baseline's neighbour sets. Rows keep
// the /perquery suffix of BENCH_9 and BENCH_10, which also recorded a
// batched mode, so they compare across those files.
func BenchmarkIVFQueryScale(b *testing.B) {
	for _, n := range synthSizes() {
		for _, p := range []ivf.Precision{ivf.PrecisionF32, ivf.PrecisionInt8, ivf.PrecisionPQ} {
			b.Run(fmt.Sprintf("n=%d/%s/perquery", n, p), func(b *testing.B) {
				ix := quantIndexAt(b, n, p)
				vecs := quantVecsAt(b, n)
				baseline := quantF32Baseline(b, n)
				qs := vecs[:min(len(vecs), quantBenchQueries)]
				res := make([][]vector.Neighbor, len(qs))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j, q := range qs {
						res[j] = ix.Search(q, blockKNN)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(qs))/1000, "us/query")
				b.ReportMetric(knnIDRecall(res, baseline)*100, "f32-recall")
			})
		}
	}
}

// --- Matcher-in-the-loop blocking bench (§6, PR 5) ---------------------------

// BenchmarkMatcherBlocking measures the matcher-in-the-loop study: per
// iteration it runs the full MatcherBlockingReport pipeline — reusable
// index per blocker, candidate-restricted train/val/test pair sets,
// matcher training on the restricted data — for the token and MinHash
// blockers, and reports the headline numbers the study exists to link:
// MinHash's pair completeness next to the end-to-end pipeline F1 of the
// Word-Cooc matcher trained on its candidates, and the unblocked
// baseline F1 the blocked pipeline is read against.
func BenchmarkMatcherBlocking(b *testing.B) {
	setup(b)
	var table *wdcproducts.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = wdcproducts.MatcherBlockingReport(benchB,
			[]string{"token", "minhash"}, []string{"Word-Cooc", "Magellan"}, 42, 1, 0, wdcproducts.BlockingOptions{})
		if err != nil {
			b.Fatal(err)
		}
		printTable("matchblock", table.String())
	}
	b.StopTimer()
	pct := func(row []string, col int) float64 {
		var v float64
		fmt.Sscanf(row[col], "%f", &v)
		return v
	}
	for _, row := range table.Rows {
		if row[4] != "Word-Cooc" {
			continue
		}
		switch row[0] {
		case wdcproducts.NoBlockingBaseline:
			b.ReportMetric(pct(row, 10), "baseline-F1")
		case "minhash-lsh":
			b.ReportMetric(pct(row, 2), "minhash-completeness")
			b.ReportMetric(pct(row, 10), "minhash-pipeline-F1")
		}
	}
}

// --- helpers ---------------------------------------------------------------

func cellF1(b *testing.B, system string, cc wdcproducts.CornerRatio, dev wdcproducts.DevSize, un wdcproducts.Unseen) float64 {
	b.Helper()
	cell := pairRes.PairCellFor(system, core.VariantKey{Corner: cc, Dev: dev, Unseen: un})
	if cell == nil {
		b.Fatalf("missing cell %s cc%d %s unseen%d", system, cc, dev, un)
	}
	return cell.F1
}

func bestF1(scores []float64, labels []bool) float64 {
	best := 0.0
	for step := 0; step <= 100; step++ {
		th := float64(step) / 100
		var tp, fp, fn int
		for i, s := range scores {
			pred := s >= th
			switch {
			case pred && labels[i]:
				tp++
			case pred && !labels[i]:
				fp++
			case !pred && labels[i]:
				fn++
			}
		}
		if tp == 0 {
			continue
		}
		p := float64(tp) / float64(tp+fp)
		r := float64(tp) / float64(tp+fn)
		if f := 2 * p * r / (p + r); f > best {
			best = f
		}
	}
	return best
}
