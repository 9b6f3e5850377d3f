package simlib

import (
	"math"
	"slices"
	"strings"

	"wdcproducts/internal/textutil"
)

// Prepared is an interned title corpus: each distinct title is converted
// exactly once into the representations the similarity metrics consume —
// its rune slice, ordered token-ID list, sorted token-ID set,
// first-occurrence unique token-ID list, and (lazily) its character
// trigram profile. Metrics bound to a Prepared corpus via PrepareMetric
// score pairs of interned IDs with zero per-call tokenization or map
// allocation, and produce bit-identical results to their string
// counterparts.
//
// Like Registry, a Prepared corpus and the PreparedMetric values bound to
// it carry mutable scratch state and are not safe for concurrent use. They
// serve the single-threaded §3 build pipeline; the parallel experiment
// harness keeps using the stateless string metrics.
type Prepared struct {
	titles  []string
	byTitle map[string]int

	runes [][]rune  // title runes, for the character-level metrics
	toks  [][]int32 // ordered token ids, duplicates preserved
	sets  [][]int32 // sorted unique token ids, for the token-set metrics
	uniqs [][]int32 // unique token ids in first-occurrence order (GeneralizedJaccard)

	// Interned token table.
	tokStrs  []string
	tokRunes [][]rune
	byTok    map[string]int32

	// Lazily built trigram profiles (sorted unique gram ids) and the gram
	// intern table backing them.
	grams      [][]int32
	gramsBuilt []bool
	byGram     map[string]int32

	// jw memoizes Jaro-Winkler scores between interned tokens, keyed by
	// (tokenA<<32 | tokenB). GeneralizedJaccard compares the same token
	// pairs millions of times across a corpus; the memo turns each repeat
	// into one map probe.
	jw map[uint64]float64
}

// NewPrepared returns an empty prepared corpus.
func NewPrepared() *Prepared {
	return &Prepared{
		byTitle: make(map[string]int),
		byTok:   make(map[string]int32),
		jw:      make(map[uint64]float64),
	}
}

// Intern adds title to the corpus and returns its ID. Interning the same
// title again returns the existing ID without recomputing anything.
func (p *Prepared) Intern(title string) int {
	if id, ok := p.byTitle[title]; ok {
		return id
	}
	id := len(p.titles)
	p.byTitle[title] = id
	p.titles = append(p.titles, title)
	p.runes = append(p.runes, []rune(title))

	var toks []int32
	textutil.EachToken(title, func(t string) {
		toks = append(toks, p.internToken(t))
	})
	p.toks = append(p.toks, toks)

	// Sorted unique set and first-occurrence unique list.
	uniq := firstOccurrences(toks)
	set := append([]int32(nil), uniq...)
	slices.Sort(set)
	p.uniqs = append(p.uniqs, uniq)
	p.sets = append(p.sets, set)

	p.grams = append(p.grams, nil)
	p.gramsBuilt = append(p.gramsBuilt, false)
	return id
}

// scanTokens is the longest token list firstOccurrences dedupes by
// scanning the tokens already kept. Most titles are that short, and the
// scan skips a map; past it the scan's quadratic cost would let one long
// title stall ingest, so a map takes over.
const scanTokens = 16

// firstOccurrences returns the distinct ids of toks in first-occurrence
// order, in time linear in len(toks).
func firstOccurrences(toks []int32) []int32 {
	uniq := make([]int32, 0, len(toks))
	if len(toks) <= scanTokens {
		for _, t := range toks {
			if !slices.Contains(uniq, t) {
				uniq = append(uniq, t)
			}
		}
		return uniq
	}
	seen := make(map[int32]struct{}, len(toks))
	for _, t := range toks {
		if _, ok := seen[t]; !ok {
			seen[t] = struct{}{}
			uniq = append(uniq, t)
		}
	}
	return uniq
}

func (p *Prepared) internToken(t string) int32 {
	if id, ok := p.byTok[t]; ok {
		return id
	}
	id := int32(len(p.tokStrs))
	p.byTok[t] = id
	p.tokStrs = append(p.tokStrs, t)
	p.tokRunes = append(p.tokRunes, []rune(t))
	return id
}

// Len returns the number of interned titles.
func (p *Prepared) Len() int { return len(p.titles) }

// Title returns the original string of an interned title.
func (p *Prepared) Title(i int) string { return p.titles[i] }

// TokenSet returns the sorted unique token IDs of title i. The slice is
// shared storage; callers must not modify it.
func (p *Prepared) TokenSet(i int) []int32 { return p.sets[i] }

// Tokens reconstructs the ordered token strings of title i (duplicates
// preserved), exactly textutil.Tokenize(p.Title(i)).
func (p *Prepared) Tokens(i int) []string {
	out := make([]string, len(p.toks[i]))
	for k, id := range p.toks[i] {
		out[k] = p.tokStrs[id]
	}
	return out
}

// TokenString returns the string of an interned token ID.
func (p *Prepared) TokenString(id int32) string { return p.tokStrs[id] }

// jaroWinklerIDs returns the memoized Jaro-Winkler similarity of two
// interned tokens.
func (p *Prepared) jaroWinklerIDs(a, b int32) float64 {
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	if s, ok := p.jw[key]; ok {
		return s
	}
	s := jaroWinklerRunes(p.tokRunes[a], p.tokRunes[b])
	p.jw[key] = s
	return s
}

// gramSetFor lazily builds the sorted unique trigram-ID profile of title i,
// matching gramSet(title, 3) of the string TrigramJaccard.
func (p *Prepared) gramSetFor(i int) []int32 {
	if p.gramsBuilt[i] {
		return p.grams[i]
	}
	if p.byGram == nil {
		p.byGram = make(map[string]int32)
	}
	seen := map[int32]struct{}{}
	var ids []int32
	for _, g := range textutil.CharNGrams(strings.ToLower(p.titles[i]), 3) {
		id, ok := p.byGram[g]
		if !ok {
			id = int32(len(p.byGram))
			p.byGram[g] = id
		}
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	p.grams[i] = ids
	p.gramsBuilt[i] = true
	return ids
}

// intersectSorted counts the shared elements of two sorted ID slices.
func intersectSorted(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// PreparedMetric and binding
// ---------------------------------------------------------------------------

// PreparedMetric scores two interned title IDs of the Prepared corpus it
// was bound to. Implementations may carry reusable scratch buffers and are
// therefore not safe for concurrent use.
type PreparedMetric interface {
	// Name identifies the metric, matching the Metric it was derived from.
	Name() string
	// SimIDs returns the similarity of the titles with IDs i and j, equal
	// to Metric.Sim on the corresponding title strings bit for bit.
	SimIDs(i, j int) float64
}

// MetricPreparer is implemented by metrics that can bind to a Prepared
// corpus natively. Metrics without it are bridged through their string
// implementation by PrepareMetric.
type MetricPreparer interface {
	Metric
	Prepare(p *Prepared) PreparedMetric
}

// PrepareMetric binds m to the prepared corpus p. Metrics implementing
// MetricPreparer get their native interned-ID implementation; any other
// metric falls back to a bridge that scores the original title strings, so
// binding never changes results, only speed.
func PrepareMetric(m Metric, p *Prepared) PreparedMetric {
	if mp, ok := m.(MetricPreparer); ok {
		return mp.Prepare(p)
	}
	return stringBridge{m: m, p: p}
}

type stringBridge struct {
	m Metric
	p *Prepared
}

func (b stringBridge) Name() string { return b.m.Name() }

func (b stringBridge) SimIDs(i, j int) float64 { return b.m.Sim(b.p.titles[i], b.p.titles[j]) }

// namedMetric is the standard preparable metric implementation behind the
// package's named constructors.
type namedMetric struct {
	name string
	sim  func(a, b string) float64
	prep func(p *Prepared) PreparedMetric
}

func (m namedMetric) Name() string { return m.name }

func (m namedMetric) Sim(a, b string) float64 { return m.sim(a, b) }

func (m namedMetric) Prepare(p *Prepared) PreparedMetric { return m.prep(p) }

// preparedFunc adapts a plain interned-ID scoring function.
type preparedFunc struct {
	name string
	f    func(i, j int) float64
}

func (f preparedFunc) Name() string { return f.name }

func (f preparedFunc) SimIDs(i, j int) float64 { return f.f(i, j) }

// ---------------------------------------------------------------------------
// Prepared implementations of the token-set metrics
// ---------------------------------------------------------------------------

func (p *Prepared) jaccardIDs(i, j int) float64 {
	sa, sb := p.sets[i], p.sets[j]
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := intersectSorted(sa, sb)
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func (p *Prepared) diceIDs(i, j int) float64 {
	sa, sb := p.sets[i], p.sets[j]
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := intersectSorted(sa, sb)
	return 2 * float64(inter) / float64(len(sa)+len(sb))
}

func (p *Prepared) cosineIDs(i, j int) float64 {
	sa, sb := p.sets[i], p.sets[j]
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := intersectSorted(sa, sb)
	return float64(inter) / math.Sqrt(float64(len(sa))*float64(len(sb)))
}

func (p *Prepared) trigramJaccardIDs(i, j int) float64 {
	ga, gb := p.gramSetFor(i), p.gramSetFor(j)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	inter := intersectSorted(ga, gb)
	union := len(ga) + len(gb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ---------------------------------------------------------------------------
// Prepared implementations of the soft token and character metrics
// ---------------------------------------------------------------------------

// preparedGJ is GeneralizedJaccard over interned IDs: token pairs score
// through the corpus-wide Jaro-Winkler memo and the candidate/used scratch
// is reused across calls.
type preparedGJ struct {
	p         *Prepared
	threshold float64
	cands     []tokenPair
	usedA     []bool
	usedB     []bool
}

func (g *preparedGJ) Name() string { return "generalized_jaccard" }

func (g *preparedGJ) SimIDs(i, j int) float64 {
	ta, tb := g.p.uniqs[i], g.p.uniqs[j]
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	cands := g.cands[:0]
	for x, ida := range ta {
		for y, idb := range tb {
			s := g.p.jaroWinklerIDs(ida, idb)
			if s >= g.threshold {
				cands = append(cands, tokenPair{x, y, s})
			}
		}
	}
	g.cands = cands
	g.usedA = resetBools(g.usedA, len(ta))
	g.usedB = resetBools(g.usedB, len(tb))
	return greedyTokenMatch(cands, len(ta), len(tb), g.usedA, g.usedB)
}

// resetBools returns a zeroed bool slice of length n, reusing buf's storage
// when it is large enough.
func resetBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// preparedLev is Levenshtein over interned IDs with reused DP rows.
type preparedLev struct {
	p         *Prepared
	prev, cur []int
}

func (l *preparedLev) Name() string { return "levenshtein" }

func (l *preparedLev) SimIDs(i, j int) float64 {
	ra, rb := l.p.runes[i], l.p.runes[j]
	if cap(l.prev) < len(rb)+1 {
		l.prev = make([]int, len(rb)+1)
		l.cur = make([]int, len(rb)+1)
	}
	return levenshteinRunes(ra, rb, l.prev, l.cur)
}

func (p *Prepared) jaroWinklerTitleIDs(i, j int) float64 {
	return jaroWinklerRunes(p.runes[i], p.runes[j])
}

// ---------------------------------------------------------------------------
// Named metric constructors (preparable)
// ---------------------------------------------------------------------------

// MetricCosine is the py_stringmatching Cosine token metric.
func MetricCosine() Metric {
	return namedMetric{"cosine", CosineTokens,
		func(p *Prepared) PreparedMetric { return preparedFunc{"cosine", p.cosineIDs} }}
}

// MetricDice is the py_stringmatching Dice token metric.
func MetricDice() Metric {
	return namedMetric{"dice", Dice,
		func(p *Prepared) PreparedMetric { return preparedFunc{"dice", p.diceIDs} }}
}

// MetricGeneralizedJaccard is the py_stringmatching GeneralizedJaccard.
func MetricGeneralizedJaccard() Metric {
	return namedMetric{"generalized_jaccard", GeneralizedJaccard,
		func(p *Prepared) PreparedMetric { return &preparedGJ{p: p, threshold: 0.8} }}
}

// MetricJaccard is the plain token Jaccard metric.
func MetricJaccard() Metric {
	return namedMetric{"jaccard", Jaccard,
		func(p *Prepared) PreparedMetric { return preparedFunc{"jaccard", p.jaccardIDs} }}
}

// MetricLevenshtein is the normalized Levenshtein metric.
func MetricLevenshtein() Metric {
	return namedMetric{"levenshtein", Levenshtein,
		func(p *Prepared) PreparedMetric { return &preparedLev{p: p} }}
}

// MetricJaroWinkler is the Jaro-Winkler metric.
func MetricJaroWinkler() Metric {
	return namedMetric{"jaro_winkler", JaroWinkler,
		func(p *Prepared) PreparedMetric { return preparedFunc{"jaro_winkler", p.jaroWinklerTitleIDs} }}
}

// MetricTrigramJaccard is the Jaccard metric over character trigrams, built
// on the corpus' interned n-gram profiles.
func MetricTrigramJaccard() Metric {
	return namedMetric{"trigram_jaccard", TrigramJaccard,
		func(p *Prepared) PreparedMetric { return preparedFunc{"trigram_jaccard", p.trigramJaccardIDs} }}
}

// MetricByName resolves a named symbolic metric: "cosine", "dice",
// "generalized_jaccard", "jaccard", "levenshtein", "jaro_winkler",
// "trigram_jaccard". The embedding metric is model-bound and therefore not
// resolvable by name; obtain it from an embed.Model.
func MetricByName(name string) (Metric, bool) {
	switch name {
	case "cosine":
		return MetricCosine(), true
	case "dice":
		return MetricDice(), true
	case "generalized_jaccard":
		return MetricGeneralizedJaccard(), true
	case "jaccard":
		return MetricJaccard(), true
	case "levenshtein":
		return MetricLevenshtein(), true
	case "jaro_winkler":
		return MetricJaroWinkler(), true
	case "trigram_jaccard":
		return MetricTrigramJaccard(), true
	}
	return nil, false
}
