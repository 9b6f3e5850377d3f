// Package wdcproducts is a from-scratch Go reproduction of "WDC Products:
// A Multi-Dimensional Entity Matching Benchmark" (Peeters, Der & Bizer,
// EDBT 2024): the full benchmark-creation pipeline over a synthetic
// web-product corpus, the 27 pair-wise and 9 multi-class benchmark
// variants, six matching systems, and the complete experimental harness
// that regenerates every table and figure of the paper's evaluation.
//
// The quickest way in:
//
//	bench, err := wdcproducts.Build(wdcproducts.SmallScale(42))
//	runner := wdcproducts.NewRunner(bench, 42)
//	results, err := runner.RunPairwise(wdcproducts.ExperimentConfig{Repetitions: 1})
//	fmt.Print(wdcproducts.Table3(results, nil))
//
// See docs/architecture.md for the pipeline walkthrough, the per-package
// tour and the substitutions standing in for web-scale data and
// GPU-trained transformer matchers, and docs/blocking.md for the §6
// blocking extension (strategies, parameters and measured results).
package wdcproducts

import (
	"fmt"
	"io"
	"strings"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/core"
	"wdcproducts/internal/corpus"
	"wdcproducts/internal/embed"
	"wdcproducts/internal/experiments"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/labelcheck"
	"wdcproducts/internal/matchers"
	"wdcproducts/internal/profilestats"
	"wdcproducts/internal/simlib"
	"wdcproducts/internal/synth"
	"wdcproducts/internal/tables"
	"wdcproducts/internal/tokenize"
	"wdcproducts/internal/xrand"
)

// Core benchmark types, re-exported for consumers of the public API.
type (
	// Benchmark is the assembled multi-dimensional benchmark.
	Benchmark = core.Benchmark
	// BuildConfig parameterizes a benchmark build.
	BuildConfig = core.BuildConfig
	// VariantKey addresses one of the 27 pair-wise variants.
	VariantKey = core.VariantKey
	// Pair is one labeled offer pair.
	Pair = core.Pair
	// MultiExample is one multi-class example.
	MultiExample = core.MultiExample
	// DevSize is the development-set-size dimension.
	DevSize = core.DevSize
	// CornerRatio is the corner-case percentage dimension.
	CornerRatio = core.CornerRatio
	// Unseen is the unseen-products percentage of a test set.
	Unseen = core.Unseen
	// Corpus is the synthetic product corpus a benchmark was built from.
	Corpus = corpus.Corpus
)

// Dimension values, re-exported.
const (
	Small  = core.Small
	Medium = core.Medium
	Large  = core.Large
)

// Experiment harness types, re-exported.
type (
	// Runner trains and evaluates matching systems on a benchmark.
	Runner = experiments.Runner
	// ExperimentConfig controls repetitions, system selection and the
	// worker count of the parallel harness (results are identical at any
	// Workers value).
	ExperimentConfig = experiments.Config
	// Results holds experiment outcomes.
	Results = experiments.Results
	// PairMatcher is a pair-wise matching system.
	PairMatcher = matchers.PairMatcher
	// MultiMatcher is a multi-class matching system.
	MultiMatcher = matchers.MultiMatcher
	// MatcherData is the offer view handed to matchers.
	MatcherData = matchers.Data
	// Table is a renderable result table.
	Table = tables.Table
)

// DefaultScale returns the paper-scale build configuration (500 products
// per set; the recorded experiment scale).
func DefaultScale(seed int64) BuildConfig { return core.DefaultBuildConfig(seed) }

// SmallScale returns the reduced configuration used by the benchmarks and
// examples (120 products per set).
func SmallScale(seed int64) BuildConfig { return core.SmallBuildConfig(seed) }

// TinyScale returns the unit-test configuration (40 products per set).
func TinyScale(seed int64) BuildConfig { return core.TinyBuildConfig(seed) }

// Build runs the full §3 pipeline and assembles the benchmark.
func Build(cfg BuildConfig) (*Benchmark, error) { return core.Build(cfg) }

// BuildWithCorpus is Build but also returns the cleansed corpus whose
// ground truth the label-quality study audits against.
func BuildWithCorpus(cfg BuildConfig) (*Benchmark, *Corpus, error) {
	return core.BuildWithCorpus(cfg)
}

// Save writes a benchmark to a directory (JSONL datasets + manifest).
func Save(b *Benchmark, dir string) error { return core.Save(b, dir) }

// Load reads a benchmark saved by Save.
func Load(dir string) (*Benchmark, error) { return core.Load(dir) }

// Validate checks the benchmark's structural invariants (no split leakage,
// label consistency, unseen fractions).
func Validate(b *Benchmark) error { return core.Validate(b) }

// NewRunner trains the shared text encoder and binds it to the benchmark.
func NewRunner(b *Benchmark, seed int64) *Runner {
	return experiments.NewRunner(b, embed.DefaultConfig(), seed)
}

// NewPairMatcher constructs one of the six §5.1 systems by name:
// "Word-Cooc", "Magellan", "RoBERTa", "Ditto", "HierGAT", "R-SupCon".
func NewPairMatcher(name string) (PairMatcher, error) {
	return experiments.NewPairMatcher(name)
}

// NewMultiMatcher constructs a multi-class system by name: "Word-Occ",
// "RoBERTa", "R-SupCon".
func NewMultiMatcher(name string) (MultiMatcher, error) {
	return experiments.NewMultiMatcher(name)
}

// PairSystems lists the pair-wise systems in the paper's column order.
func PairSystems() []string { return append([]string(nil), experiments.PairSystems...) }

// Table renderers, re-exported.
var (
	Table3  = experiments.Table3
	Table4  = experiments.Table4
	Table5  = experiments.Table5
	Figure4 = experiments.Figure4
	Figure5 = experiments.Figure5
	Figure6 = experiments.Figure6
)

// Table1 renders the split-size statistics of the benchmark.
func Table1(b *Benchmark) *Table { return profilestats.Table1(b) }

// Table2 renders the attribute density/length/vocabulary profile; it
// trains the BPE tokenizer it needs.
func Table2(b *Benchmark) *Table {
	return profilestats.Table2(b, profilestats.TrainBPE(b, 1200))
}

// Table6 renders the benchmark-landscape comparison including the
// generated benchmark's own profile row.
func Table6(b *Benchmark) *Table { return profilestats.Table6(b) }

// Figure3 renders the cluster-size/split distribution for one ratio.
func Figure3(b *Benchmark, cc CornerRatio) *Table { return profilestats.Figure3(b, cc) }

// LabelQuality runs the §4 label-quality study (simulated expert
// annotators; noise estimate + Cohen's kappa).
func LabelQuality(b *Benchmark, c *Corpus, seed int64) (*labelcheck.Result, error) {
	return labelcheck.Run(b, c, labelcheck.DefaultConfig(), xrand.New(seed))
}

// LabelQualityResult is the outcome of the §4 study.
type LabelQualityResult = labelcheck.Result

// SynthCorpus is a synthetically scaled-out offer corpus: the seed offers
// followed by generated offers with per-offer provenance (generation kind
// and source offer), a content digest and recomputable coverage floors.
type SynthCorpus = synth.Corpus

// SynthGrow scales the benchmark's offer corpus out to target offers with
// the deterministic generator (perturbation, recombination and unseen
// entities at the scale mix). The result is byte-identical for a fixed
// seed at any workers value (<= 0 uses all CPUs); Validate on the result
// re-proves label consistency and the coverage floors. See docs/synth.md.
func SynthGrow(b *Benchmark, target int, seed int64, workers int) (*SynthCorpus, error) {
	cfg := synth.ScaleConfig(target, seed)
	cfg.Workers = workers
	return synth.Grow(b.Offers, cfg)
}

// SynthLabelCheck runs the §4 annotator protocol over a stratified sample
// of the grown corpus's pairs (cluster-mate positives; hard donor-sibling
// and random negatives): the generated labels, correct by construction,
// must survive simulated expert re-annotation at the seed corpus's noise
// level. It is the release gate wdcgen -synth-scale -v reports.
func SynthLabelCheck(c *SynthCorpus, seed int64) (*LabelQualityResult, error) {
	pairs := synth.SampleLabelPairs(c, 120, 120, seed)
	title := func(i int) string { return c.Offers[i].Title }
	return labelcheck.CheckSample(pairs, title, labelcheck.DefaultConfig(), xrand.New(seed))
}

// BPE is the trainable byte-pair tokenizer used by Table 2's token column.
type BPE = tokenize.BPE

// TrainBPE exposes the profiling tokenizer for callers that render Table 2
// repeatedly.
func TrainBPE(b *Benchmark, merges int) *BPE {
	return profilestats.TrainBPE(b, merges)
}

// Table2With renders the attribute profile with a caller-provided
// tokenizer, avoiding the per-call BPE training of Table2.
func Table2With(b *Benchmark, bpe *BPE) *Table {
	return profilestats.Table2(b, bpe)
}

// TitleScorer scores benchmark offer titles on the prepared-corpus
// similarity engine: every distinct title is interned exactly once
// (tokenized, rune-converted, n-gram profiled) at construction, and each
// Sim call scores two interned representations without re-tokenizing.
// Scoring millions of pairs — threshold sweeps, blocking studies, hardness
// analyses — runs orders of magnitude faster than calling the string
// metrics directly, with bit-identical scores.
//
// A TitleScorer is not safe for concurrent use; construct one per
// goroutine.
type TitleScorer struct {
	prep    *simlib.Prepared
	ids     []int
	metrics map[string]simlib.PreparedMetric
}

// NewTitleScorer interns the titles of every offer of b and binds the named
// symbolic metrics ("cosine", "dice", "generalized_jaccard", "jaccard",
// "levenshtein", "jaro_winkler", "trigram_jaccard"). With no names given,
// the §3.4 trio cosine/dice/generalized_jaccard is bound.
func NewTitleScorer(b *Benchmark, metricNames ...string) (*TitleScorer, error) {
	if len(metricNames) == 0 {
		metricNames = []string{"cosine", "dice", "generalized_jaccard"}
	}
	ts := &TitleScorer{
		prep:    simlib.NewPrepared(),
		ids:     make([]int, len(b.Offers)),
		metrics: make(map[string]simlib.PreparedMetric, len(metricNames)),
	}
	for i := range b.Offers {
		ts.ids[i] = ts.prep.Intern(b.Offers[i].Title)
	}
	for _, name := range metricNames {
		m, ok := simlib.MetricByName(name)
		if !ok {
			return nil, fmt.Errorf("wdcproducts: unknown similarity metric %q", name)
		}
		ts.metrics[name] = simlib.PrepareMetric(m, ts.prep)
	}
	return ts, nil
}

// Sim returns the named metric's similarity of the titles of offers a and
// b (indices into the benchmark's Offers slice).
func (ts *TitleScorer) Sim(metric string, a, b int) (float64, error) {
	m, ok := ts.metrics[metric]
	if !ok {
		return 0, fmt.Errorf("wdcproducts: metric %q not bound to this scorer", metric)
	}
	return m.SimIDs(ts.ids[a], ts.ids[b]), nil
}

// MustSim is Sim for callers that bound the metric at construction; it
// panics on an unbound metric name.
func (ts *TitleScorer) MustSim(metric string, a, b int) float64 {
	s, err := ts.Sim(metric, a, b)
	if err != nil {
		panic(err)
	}
	return s
}

// BlockerNames lists the §6 blocking strategies BlockingReport accepts, in
// report order: the two exhaustive blockers ("token", "embedding") and the
// three sublinear ones ("minhash" — banded MinHash-LSH over title token
// sets, "hnsw" — approximate embedding nearest neighbours through an HNSW
// graph, "ivf" — the same neighbours through an inverted-file index with a
// k-means coarse quantizer).
func BlockerNames() []string { return []string{"token", "embedding", "minhash", "hnsw", "ivf"} }

// ParseBlockerNames parses a CLI blocker-list flag for BlockingReport:
// "all" (or the empty string) selects every strategy, anything else is a
// comma-separated subset of BlockerNames. Elements are trimmed of
// whitespace, empty elements (doubled or trailing commas) are dropped, and
// duplicates are collapsed to their first occurrence, so inputs like
// "minhash, hnsw" or "token,minhash," select exactly the named strategies.
// Validation of the individual names happens in BlockingReport.
func ParseBlockerNames(s string) []string {
	if strings.TrimSpace(s) == "" || strings.TrimSpace(s) == "all" {
		return nil
	}
	seen := map[string]bool{}
	var names []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		names = append(names, name)
	}
	return names
}

// blockKNNBudget is the per-title neighbour budget shared by the
// embedding-space blockers, so their report rows compare the same K.
const blockKNNBudget = 6

// blockerNeedsModel reports whether the named blocker searches the title
// embedding space and therefore needs the trained encoder — the single
// list blockerModel and newBlocker both consult.
func blockerNeedsModel(name string) bool {
	switch name {
	case "embedding", "hnsw", "ivf":
		return true
	}
	return false
}

// newBlocker constructs the named §6 blocker. The embedding-space blockers
// (blockerNeedsModel) require a trained title encoder; opts carries the
// cross-blocker tuning knobs (currently the IVF scan precision).
func newBlocker(name string, model *embed.Model, workers int, opts BlockingOptions) (blocking.Blocker, error) {
	switch name {
	case "token":
		return blocking.NewTokenBlocker(), nil
	case "embedding":
		eb := blocking.NewEmbeddingBlocker(model, blockKNNBudget)
		eb.Workers = workers
		return eb, nil
	case "minhash":
		mh := blocking.NewMinHashBlocker()
		mh.Config.Workers = workers
		return mh, nil
	case "hnsw":
		hb := blocking.NewHNSWBlocker(model, blockKNNBudget)
		hb.Config.Workers = workers
		return hb, nil
	case "ivf":
		prec, err := ivf.ParsePrecision(opts.IVFPrecision)
		if err != nil {
			return nil, fmt.Errorf("wdcproducts: %v", err)
		}
		ib := blocking.NewIVFBlocker(model, blockKNNBudget)
		ib.Config.Workers = workers
		ib.Config.Precision = prec
		return ib, nil
	default:
		return nil, fmt.Errorf("wdcproducts: unknown blocker %q (valid: %s)",
			name, strings.Join(BlockerNames(), ", "))
	}
}

// NewIndexedBlocker constructs the named §6 blocker whose index can be
// opened once and grown (every name in BlockerNames but "token"), for a
// process that serves one index over b's offers. The embedding-space
// blockers get the title encoder trained over b's offers from seed, and
// opts.IVFPrecision selects the IVF scan tier; the other options are the
// caller's to apply when it opens the index.
func NewIndexedBlocker(b *Benchmark, name string, seed int64, opts BlockingOptions) (blocking.IndexedBlocker, error) {
	bl, err := newBlocker(name, blockerModel(b, []string{name}, seed), 0, opts)
	if err != nil {
		return nil, err
	}
	ib, ok := bl.(blocking.IndexedBlocker)
	if !ok {
		return nil, fmt.Errorf("wdcproducts: blocker %q keeps no reusable index", name)
	}
	return ib, nil
}

// blockerModel trains the shared title encoder when any of the names needs
// the embedding space, so the exhaustive, HNSW and IVF rows compare the
// same geometry.
func blockerModel(b *Benchmark, names []string, seed int64) *embed.Model {
	for _, n := range names {
		if blockerNeedsModel(n) {
			titles := make([]string, len(b.Offers))
			for i := range b.Offers {
				titles[i] = b.Offers[i].Title
			}
			return embed.Train(titles, embed.DefaultConfig(), xrand.New(seed).Stream("embed"))
		}
	}
	return nil
}

// BlockingOptions routes index acquisition in the blocking studies
// through blocking.OpenIndex: a non-empty SnapshotDir loads each
// blocker's index from a trusted snapshot when one exists for the exact
// corpus/config fingerprint (and saves a fresh one otherwise). The zero
// value reproduces the plain build-per-run behaviour.
type BlockingOptions struct {
	// SnapshotDir enables index persistence when non-empty.
	SnapshotDir string
	// IVFPrecision selects the representation the IVF blocker scans its
	// inverted lists in: "f32" (or empty — exact, the default), "int8"
	// (symmetric 8-bit rows), or "pq" (product-quantized residuals).
	// The quantized tiers re-rank with exact dots; see ivf.Config.
	IVFPrecision string
	// Log, when non-nil, receives one line per index acquisition
	// describing the blocking.OpenStats outcome: loaded from snapshot,
	// refused (with the typed reason) and rebuilt, or built fresh.
	Log io.Writer
}

// logOpenStats reports one blocker's index-acquisition outcome to
// opts.Log. It is a no-op when Log is nil.
func (o BlockingOptions) logOpenStats(blocker string, stats blocking.OpenStats) {
	if o.Log == nil {
		return
	}
	switch {
	case stats.Loaded:
		fmt.Fprintf(o.Log, "index %s: loaded snapshot %s\n", blocker, stats.Path)
	case stats.LoadErr != nil:
		fmt.Fprintf(o.Log, "index %s: snapshot refused (%v); rebuilt\n", blocker, stats.LoadErr)
	default:
		fmt.Fprintf(o.Log, "index %s: built fresh\n", blocker)
	}
	if stats.SaveErr != nil {
		fmt.Fprintf(o.Log, "index %s: snapshot save failed: %v\n", blocker, stats.SaveErr)
	} else if stats.Saved {
		fmt.Fprintf(o.Log, "index %s: saved snapshot %s\n", blocker, stats.Path)
	}
}

// openQuery returns bl's candidate query over universe, the one place the
// studies decide between an index and a one-shot run. A blocker that keeps
// a reusable index gets it from blocking.OpenIndex (built, or loaded from
// opts.SnapshotDir) with the outcome logged to opts.Log, and the returned
// stats are non-nil; every query then filters that index. Any other blocker
// answers each query with a fresh Candidates call, and stats is nil.
func openQuery(b *Benchmark, bl blocking.Blocker, universe []int,
	opts BlockingOptions) (func(idxs []int) ([]blocking.CandidatePair, error), *blocking.OpenStats) {
	ib, ok := bl.(blocking.IndexedBlocker)
	if !ok {
		return func(idxs []int) ([]blocking.CandidatePair, error) {
			return bl.Candidates(b.Offers, idxs), nil
		}, nil
	}
	ix, stats := blocking.OpenIndex(ib, b.Offers, universe, blocking.IndexOptions{SnapshotDir: opts.SnapshotDir})
	opts.logOpenStats(bl.Name(), stats)
	return func(idxs []int) ([]blocking.CandidatePair, error) {
		return blocking.QueryCandidates(ix, idxs)
	}, &stats
}

// blockingSplit is one test split's offer universe.
type blockingSplit struct {
	label string
	idxs  []int
	// productOf is the ground truth: the test product each offer belongs
	// to, the cluster key blocking.EvaluateClusters scores against.
	productOf map[int]int64
}

// testSplit collects one (corner ratio, unseen fraction) test split.
func testSplit(b *Benchmark, cc CornerRatio, un Unseen) *blockingSplit {
	rd := b.Ratios[cc]
	if rd == nil {
		return nil
	}
	tps, ok := rd.TestProducts[un]
	if !ok || len(tps) == 0 {
		return nil
	}
	s := &blockingSplit{label: fmt.Sprintf("cc=%d%%/unseen=%d%%", cc, un), productOf: map[int]int64{}}
	for _, tp := range tps {
		for _, o := range tp.Offers {
			s.productOf[o] = int64(tp.Slot)
			s.idxs = append(s.idxs, o)
		}
	}
	return s
}

// evaluate scores cands against the split's product ground truth.
func (s *blockingSplit) evaluate(cands []blocking.CandidatePair) blocking.Metrics {
	return blocking.EvaluateClusters(cands, s.idxs, func(i int) int64 { return s.productOf[i] })
}

// BlockingReport runs the named blockers (nil or empty selects all of
// BlockerNames) over the cc=50% seen test offers of b and tabulates
// candidate count, pair completeness (recall of true matches), reduction
// ratio (fraction of the quadratic pair space pruned) and wall time, with
// index construction and querying timed separately for the blockers that
// support reusable indexes (build ms "-" marks the purely exhaustive
// token blocker; with opts.SnapshotDir set, a loaded index shows its load
// time there). Ground truth is the test product each offer belongs to.
// The embedding-space blockers share one title encoder trained from the
// given seed, so their rows compare the same geometry searched
// exhaustively vs approximately. workers bounds the goroutines of index
// construction and queries (<= 0 selects all cores; it only affects the
// timing columns — blocker output is deterministic for a fixed seed at any
// worker count). The zero BlockingOptions builds every index fresh.
func BlockingReport(b *Benchmark, names []string, seed int64, workers int, opts BlockingOptions) (*Table, error) {
	if len(names) == 0 {
		names = BlockerNames()
	}
	split := testSplit(b, 50, 0)
	if split == nil {
		return nil, fmt.Errorf("wdcproducts: benchmark has no cc=50%% test split for the blocking report")
	}
	model := blockerModel(b, names, seed)
	t := tables.New(
		fmt.Sprintf("Blocking (§6): %d offers, %d possible pairs",
			len(split.idxs), len(split.idxs)*(len(split.idxs)-1)/2),
		"blocker", "candidates", "pair completeness", "reduction ratio", "build ms", "query ms")
	for _, name := range names {
		bl, err := newBlocker(name, model, workers, opts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		query, stats := openQuery(b, bl, split.idxs, opts)
		buildMS := "-"
		if stats != nil {
			buildMS = msSince(start)
		}
		start = time.Now()
		cands, err := query(split.idxs)
		if err != nil {
			return nil, fmt.Errorf("wdcproducts: %s: %w", name, err)
		}
		queryMS := msSince(start)
		m := split.evaluate(cands)
		t.AddRow(bl.Name(), fmt.Sprint(m.Candidates), tables.Pct(m.PairCompleteness),
			tables.Pct(m.ReductionRatio), buildMS, queryMS)
	}
	return t, nil
}

// BlockingScaleReport drives the §6 study the way it runs at paper scale:
// for each named blocker (nil or empty selects all of BlockerNames), one
// index is built over the union of every test split's offers — across all
// corner-case ratios and unseen fractions — and then each split is a
// query against that index. The table reports, per blocker, the one-off
// build row (offers indexed, wall time; "load" instead of "build" when the
// index came from a snapshot in opts.SnapshotDir) followed by one row per
// split (candidates, pair completeness, reduction ratio, query wall time).
// The token blocker has no reusable index and re-runs per split, which is
// exactly the rebuild-per-call cost the reusable indexes avoid. The first
// query of a kNN blocker materializes neighbour lists for the titles it
// touches; later splits reuse them, so query times amortize the way the
// full study does. workers bounds construction and query goroutines
// (<= 0 selects all cores).
func BlockingScaleReport(b *Benchmark, names []string, seed int64, workers int, opts BlockingOptions) (*Table, error) {
	if len(names) == 0 {
		names = BlockerNames()
	}
	var splits []*blockingSplit
	seen := map[int]bool{}
	var union []int
	for _, cc := range core.CornerRatios() {
		for _, un := range core.UnseenFractions() {
			s := testSplit(b, cc, un)
			if s == nil {
				continue
			}
			splits = append(splits, s)
			for _, i := range s.idxs {
				if !seen[i] {
					seen[i] = true
					union = append(union, i)
				}
			}
		}
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("wdcproducts: benchmark has no test splits for the blocking study")
	}
	model := blockerModel(b, names, seed)
	t := tables.New(
		fmt.Sprintf("Blocking at scale (§6): index built once over %d offers, queried per split", len(union)),
		"blocker", "split", "offers", "candidates", "pair completeness", "reduction ratio", "ms")
	for _, name := range names {
		bl, err := newBlocker(name, model, workers, opts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		query, stats := openQuery(b, bl, union, opts)
		if stats != nil {
			acquired := "build"
			if stats.Loaded {
				acquired = "load"
			}
			t.AddRow(bl.Name(), acquired, fmt.Sprint(len(union)), "-", "-", "-", msSince(start))
		}
		for _, s := range splits {
			start := time.Now()
			cands, err := query(s.idxs)
			if err != nil {
				return nil, fmt.Errorf("wdcproducts: %s %s: %w", name, s.label, err)
			}
			elapsed := msSince(start)
			m := s.evaluate(cands)
			t.AddRow(bl.Name(), s.label, fmt.Sprint(len(s.idxs)), fmt.Sprint(m.Candidates),
				tables.Pct(m.PairCompleteness), tables.Pct(m.ReductionRatio), elapsed)
		}
	}
	return t, nil
}

// msSince renders the elapsed wall time since start in milliseconds.
func msSince(start time.Time) string {
	return fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/1000)
}

// MatcherBlockingSystems lists the systems MatcherBlockingReport trains by
// default: Word-Cooc, Magellan and the embedding matcher (RoBERTa
// substitute) — one representative per §5.1 matcher family.
func MatcherBlockingSystems() []string {
	return append([]string(nil), experiments.MatcherBlockingSystems...)
}

// NoBlockingBaseline names the unblocked baseline row of
// MatcherBlockingReport: matchers trained and evaluated on the full pair
// sets, the ceiling the blocked pipelines are read against.
const NoBlockingBaseline = "(no blocking)"

// matcherBlockingVariant is the benchmark cell the matcher-in-the-loop
// study runs on: the paper's central configuration (50% corner cases,
// medium development set, fully seen test products — the split whose
// product ground truth the blocker metrics are computed against).
var matcherBlockingVariant = core.VariantKey{Corner: 50, Dev: core.Medium, Unseen: 0}

// matcherBlockingTask builds one blocker's restricted datasets: the
// blocker's reusable index is built once over the union of the study's
// offer universes — the deployed-pipeline shape, where the index covers
// the whole corpus and each split is a query — queried per universe, and
// each pair set is restricted to the proposed candidates. The blocker
// metrics are computed from the test-split query against the split's
// product ground truth. Note the union-index semantics: the kNN blockers
// (embedding, hnsw, ivf) spend each title's K-neighbour budget on the
// full indexed corpus, and neighbours outside the test split are dropped
// rather than refilled, so their completeness here can sit below
// BlockingReport's numbers, whose index covers the test split alone.
// MinHash candidates depend on the indexed universe too: signatures hash
// token ids numbered in first-seen order over the indexed titles, so the
// union index can collide a different set of test pairs than a
// split-only index. The metrics describe exactly the candidate set the
// pair restriction used.
func matcherBlockingTask(b *Benchmark, bl blocking.Blocker, split *blockingSplit,
	train, val, test []Pair, opts BlockingOptions) (experiments.MatcherBlockingTask, error) {
	trainU := blocking.PairUniverse(train)
	valU := blocking.PairUniverse(val)
	union := append([]int(nil), split.idxs...)
	seen := make(map[int]bool, len(union))
	for _, i := range union {
		seen[i] = true
	}
	for _, u := range [][]int{trainU, valU} {
		for _, i := range u {
			if !seen[i] {
				seen[i] = true
				union = append(union, i)
			}
		}
	}
	query, _ := openQuery(b, bl, union, opts)
	task := experiments.MatcherBlockingTask{Blocker: bl.Name()}
	testCands, err := query(split.idxs)
	if err != nil {
		return task, fmt.Errorf("wdcproducts: %s test split: %w", bl.Name(), err)
	}
	task.Blocking = split.evaluate(testCands)
	task.Test = blocking.RestrictPairs(test, blocking.NewPairFilter(testCands))
	trainCands, err := query(trainU)
	if err != nil {
		return task, fmt.Errorf("wdcproducts: %s train split: %w", bl.Name(), err)
	}
	task.Train = blocking.RestrictPairs(train, blocking.NewPairFilter(trainCands))
	valCands, err := query(valU)
	if err != nil {
		return task, fmt.Errorf("wdcproducts: %s val split: %w", bl.Name(), err)
	}
	task.Val = blocking.RestrictPairs(val, blocking.NewPairFilter(valCands))
	return task, nil
}

// noBlockingTask builds the unblocked baseline: full pair sets, pair
// completeness 1, reduction 0 — the ceiling each blocked pipeline row is
// read against.
func noBlockingTask(split *blockingSplit, train, val, test []Pair) experiments.MatcherBlockingTask {
	trueMatches := split.evaluate(nil).TrueMatches
	full := func(pairs []Pair) blocking.RestrictedPairs {
		return blocking.RestrictedPairs{Kept: pairs, Total: len(pairs)}
	}
	return experiments.MatcherBlockingTask{
		Blocker: NoBlockingBaseline,
		Blocking: blocking.Metrics{
			PairCompleteness: 1,
			ReductionRatio:   0,
			Candidates:       len(split.idxs) * (len(split.idxs) - 1) / 2,
			TrueMatches:      trueMatches,
			CoveredMatches:   trueMatches,
		},
		Train: full(train),
		Val:   full(val),
		Test:  full(test),
	}
}

// MatcherBlockingReport runs the matcher-in-the-loop §6 study: for each
// named blocker (nil or empty names selects all of BlockerNames) the
// reusable index is built once over the union of the study's offer
// universes, the cc=50%/dev=medium/unseen=0% train, validation and test
// pair sets are restricted to the blocker's candidates — the data a real
// pipeline would label, train and score — and the named systems (nil
// selects MatcherBlockingSystems) are trained on the restricted sets
// across the parallel experiment pool. The table pairs each blocker's
// candidate count, pair completeness and reduction ratio with the
// end-to-end pipeline P/R/F1 per system, counting blocker-missed true
// matches as false negatives, next to an unblocked "(no blocking)"
// baseline; it shows directly how much downstream F1 each point of blocker
// recall buys. reps averages repeated trainings (the paper uses 3);
// workers bounds the goroutines of index construction and matcher training
// (<= 0 selects all cores) — the table is byte-identical at any worker
// count. An index loaded from opts.SnapshotDir answers byte-identically to
// a fresh build, so the table is also the same for any options.
func MatcherBlockingReport(b *Benchmark, names, systems []string, seed int64, reps, workers int, opts BlockingOptions) (*Table, error) {
	if len(names) == 0 {
		names = BlockerNames()
	}
	v := matcherBlockingVariant
	split := testSplit(b, v.Corner, v.Unseen)
	if split == nil {
		return nil, fmt.Errorf("wdcproducts: benchmark has no %s test split for the matcher-in-the-loop study", v)
	}
	train, val, test := b.TrainPairs(v.Corner, v.Dev), b.ValPairs(v.Corner, v.Dev), b.TestPairs(v.Corner, v.Unseen)
	if len(train) == 0 || len(test) == 0 {
		return nil, fmt.Errorf("wdcproducts: benchmark has no %s pair sets for the matcher-in-the-loop study", v)
	}
	model := blockerModel(b, names, seed)
	tasks := []experiments.MatcherBlockingTask{noBlockingTask(split, train, val, test)}
	for _, name := range names {
		bl, err := newBlocker(name, model, workers, opts)
		if err != nil {
			return nil, err
		}
		task, err := matcherBlockingTask(b, bl, split, train, val, test, opts)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task)
	}
	runner := NewRunner(b, seed)
	cells, err := runner.RunMatcherBlocking(tasks, ExperimentConfig{
		Repetitions: reps, Seed: seed, Systems: systems, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	return experiments.MatcherBlockingTable(cells, v), nil
}
