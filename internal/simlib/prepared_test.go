package simlib

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"wdcproducts/internal/corpus"
	"wdcproducts/internal/textutil"
	"wdcproducts/internal/xrand"
)

// generatedTitles builds a corpus that covers the tokenizer's and metrics'
// edge cases: empty and whitespace-only strings, pure punctuation, unicode
// (non-Latin scripts, combining marks, emoji), duplicate tokens, duplicate
// titles, and model-number joiners.
func generatedTitles() []string {
	frags := []string{
		"seagate", "barracuda", "2tb", "wd10ezex-08wn4a0", "SSD",
		"Nike", "pegasus", "größe", "京东", "Ωmega", "caffè",
		"usb-c", "3.5", "a/b", "---", "...", "x", "Pro",
	}
	rng := rand.New(rand.NewSource(7))
	titles := []string{
		"", " ", "\t\n", "...", "-./", "a", "京", "é",
		"dup dup dup dup", "same same", "same same",
		"ñandú 北京 déjà-vu", "🎧 wireless headphones 🎧",
	}
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(6)
		parts := make([]string, n)
		for k := range parts {
			parts[k] = frags[rng.Intn(len(frags))]
		}
		titles = append(titles, strings.Join(parts, " "))
	}
	return titles
}

// TestPreparedMetricsMatchStringMetrics is the prepared-engine equivalence
// property: for every preparable metric, SimIDs on interned IDs must equal
// Sim on the title strings exactly (==, not within tolerance) over the
// full pair matrix of the generated corpus.
func TestPreparedMetricsMatchStringMetrics(t *testing.T) {
	titles := generatedTitles()
	metrics := []Metric{
		MetricCosine(), MetricDice(), MetricGeneralizedJaccard(),
		MetricJaccard(), MetricLevenshtein(), MetricJaroWinkler(),
		MetricTrigramJaccard(),
	}
	for _, m := range metrics {
		prep := NewPrepared()
		ids := make([]int, len(titles))
		for i, s := range titles {
			ids[i] = prep.Intern(s)
		}
		pm := PrepareMetric(m, prep)
		if pm.Name() != m.Name() {
			t.Errorf("%s: prepared name = %q", m.Name(), pm.Name())
		}
		if _, bridged := pm.(stringBridge); bridged {
			t.Errorf("%s: fell back to the string bridge; native prepared implementation missing", m.Name())
		}
		for i := range titles {
			for j := range titles {
				got := pm.SimIDs(ids[i], ids[j])
				want := m.Sim(titles[i], titles[j])
				if got != want {
					t.Fatalf("%s: SimIDs(%q, %q) = %v, Sim = %v", m.Name(), titles[i], titles[j], got, want)
				}
			}
		}
	}
}

// TestPreparedRegistryMirrorsDraws verifies that a prepared registry and
// its underlying string registry consume one shared draw stream: the
// sequence of drawn metric names is identical and the draw counters
// accumulate across both.
func TestPreparedRegistryMirrorsDraws(t *testing.T) {
	prep := NewPrepared()
	mkReg := func() *Registry {
		return NewRegistry(rand.New(rand.NewSource(3)), DefaultMetrics()...)
	}
	ra, rb := mkReg(), mkReg()
	pb := rb.Prepare(prep)
	for i := 0; i < 200; i++ {
		var name string
		if i%2 == 0 {
			name = pb.Draw().Name()
		} else {
			name = rb.Draw().Name()
		}
		if want := ra.Draw().Name(); name != want {
			t.Fatalf("draw %d: prepared stream gave %q, string stream %q", i, name, want)
		}
	}
	ca, cb := ra.DrawCounts(), rb.DrawCounts()
	for name, n := range ca {
		if cb[name] != n {
			t.Fatalf("draw counts diverged for %s: %d vs %d", name, cb[name], n)
		}
	}
}

// TestInternIdempotent pins the interning contract Prepare-based callers
// rely on: re-interning returns the same ID and does not grow the corpus.
func TestInternIdempotent(t *testing.T) {
	prep := NewPrepared()
	a := prep.Intern("seagate barracuda 2tb")
	b := prep.Intern("nike pegasus")
	if prep.Intern("seagate barracuda 2tb") != a || prep.Intern("nike pegasus") != b {
		t.Fatal("re-interning changed IDs")
	}
	if prep.Len() != 2 {
		t.Fatalf("Len = %d, want 2", prep.Len())
	}
	if prep.Title(a) != "seagate barracuda 2tb" {
		t.Fatalf("Title(%d) = %q", a, prep.Title(a))
	}
}

// TestInternDedupesLongTitles checks Intern's first-occurrence and sorted
// token lists on both sides of the scan cut-off (scanTokens), and that a
// title of 200k distinct tokens — one ingest request can carry it —
// interns in linear time: a scan over the kept tokens would take about
// 2·10^10 comparisons, tens of seconds, where the map takes well under
// one.
func TestInternDedupesLongTitles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, scanTokens - 1, scanTokens, scanTokens + 1, 500} {
		words := make([]string, n)
		for i := range words {
			words[i] = fmt.Sprintf("w%d", rng.Intn(n/2+1))
		}
		prep := NewPrepared()
		id := prep.Intern(strings.Join(words, " "))
		var uniq []string
		seen := map[string]bool{}
		for _, w := range words {
			if !seen[w] {
				seen[w] = true
				uniq = append(uniq, w)
			}
		}
		var got []string
		for _, tok := range prep.uniqs[id] {
			got = append(got, prep.tokStrs[tok])
		}
		if !slices.Equal(got, uniq) {
			t.Fatalf("n=%d: first-occurrence tokens %v, want %v", n, got, uniq)
		}
		if set := prep.TokenSet(id); !slices.IsSorted(set) || len(set) != len(uniq) {
			t.Fatalf("n=%d: token set %v is not the %d distinct ids in order", n, set, len(uniq))
		}
	}

	var b strings.Builder
	for i := range 200_000 {
		fmt.Fprintf(&b, "t%d ", i)
	}
	prep := NewPrepared()
	start := time.Now()
	id := prep.Intern(b.String())
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("interning a 200k-token title took %v; want linear time", took)
	}
	if got := len(prep.TokenSet(id)); got != 200_000 {
		t.Fatalf("token set has %d ids, want 200000", got)
	}
}

// TestStringBridgeFallback checks that metrics without a native prepared
// implementation still score correctly through the bridge.
func TestStringBridgeFallback(t *testing.T) {
	prep := NewPrepared()
	custom := Func{MetricName: "custom", F: func(a, b string) float64 {
		if a == b {
			return 1
		}
		return 0.25
	}}
	pm := PrepareMetric(custom, prep)
	i := prep.Intern("alpha beta")
	j := prep.Intern("gamma")
	if got := pm.SimIDs(i, i); got != 1 {
		t.Fatalf("bridge self-sim = %v", got)
	}
	if got := pm.SimIDs(i, j); got != 0.25 {
		t.Fatalf("bridge cross-sim = %v", got)
	}
	if pm.Name() != "custom" {
		t.Fatalf("bridge name = %q", pm.Name())
	}
}

// referenceCorpus interns titles the plain way: a rune copy per title, a
// token list grown by append, a map for first occurrences and a sorted
// copy of them. It is the reference TestInternMatchesReference holds
// Intern to.
type referenceCorpus struct {
	byTok             map[string]int32
	tokStrs           []string
	runes             [][]rune
	toks, uniqs, sets [][]int32
}

func (r *referenceCorpus) intern(title string) {
	r.runes = append(r.runes, []rune(title))
	var toks []int32
	textutil.EachToken(title, func(t string) {
		id, ok := r.byTok[t]
		if !ok {
			id = int32(len(r.tokStrs))
			r.byTok[t] = id
			r.tokStrs = append(r.tokStrs, t)
		}
		toks = append(toks, id)
	})
	r.toks = append(r.toks, toks)
	uniq := make([]int32, 0, len(toks))
	seen := map[int32]bool{}
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	set := append([]int32(nil), uniq...)
	slices.Sort(set)
	r.uniqs = append(r.uniqs, uniq)
	r.sets = append(r.sets, set)
}

// TestInternMatchesReference checks that Intern yields, title for title,
// the token ids, ordered tokens, first-occurrence unique list, sorted set
// and (lazily built) runes of referenceCorpus, and the same token table.
// The titles are those of the raw tiny corpus the seed build starts
// from, the generated edge cases, titles longer than scanTokens tokens
// (with and without repeats) and non-ASCII titles, each interned twice.
// Each title's lists must also be capped at their length, so an append
// to one cannot write into the next list of its block.
func TestInternMatchesReference(t *testing.T) {
	var titles []string
	for _, o := range corpus.Generate(corpus.TinyConfig(), xrand.New(42).Split("corpus")).Offers {
		titles = append(titles, o.Title)
	}
	titles = append(titles, generatedTitles()...)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{scanTokens + 1, 40, 300} {
		for _, vocab := range []int{n / 3, 4 * n} {
			words := make([]string, n)
			for i := range words {
				words[i] = fmt.Sprintf("Tok%d", rng.Intn(vocab))
			}
			titles = append(titles, strings.Join(words, " "))
		}
	}
	titles = append(titles,
		"GRÖSSE Größe größe 42 ÄÖÜ äöü ß",
		"京东 北京 京东 Ωmega ΩMEGA caffè CAFFÈ",
		"ñandú Ñandú déjà-vu DÉJÀ-VU 🎧 İstanbul ǅemal",
		strings.Repeat("Δέλτα δέλτα ", 12),
	)
	titles = append(titles, titles...)

	prep := NewPrepared()
	ref := &referenceCorpus{byTok: map[string]int32{}}
	var ids []int
	for _, title := range titles {
		if id := prep.Intern(title); id == len(ids) {
			ids = append(ids, id)
			ref.intern(title)
		} else if prep.Title(id) != title {
			t.Fatalf("re-interning %q returned the id of %q", title, prep.Title(id))
		}
	}
	if !slices.Equal(prep.tokStrs, ref.tokStrs) {
		t.Fatalf("token table holds %d tokens, reference %d", len(prep.tokStrs), len(ref.tokStrs))
	}
	for i := range ids {
		title := prep.Title(i)
		lists := []struct {
			name      string
			got, want []int32
		}{
			{"ordered tokens", prep.toks[i], ref.toks[i]},
			{"unique tokens", prep.uniqs[i], ref.uniqs[i]},
			{"token set", prep.TokenSet(i), ref.sets[i]},
		}
		for _, l := range lists {
			if !slices.Equal(l.got, l.want) {
				t.Fatalf("title %d %q: %s %v, want %v", i, title, l.name, l.got, l.want)
			}
			if cap(l.got) != len(l.got) {
				t.Fatalf("title %d %q: %s has capacity %d past its length %d", i, title, l.name, cap(l.got), len(l.got))
			}
		}
		if got := prep.Tokens(i); !slices.Equal(got, textutil.Tokenize(title)) {
			t.Fatalf("title %d: Tokens %q, want %q", i, got, textutil.Tokenize(title))
		}
		if got := prep.titleRunes(i); !slices.Equal(got, ref.runes[i]) {
			t.Fatalf("title %d: runes %q, want %q", i, string(got), string(ref.runes[i]))
		}
	}
	for id, tok := range ref.tokStrs {
		if got := prep.tokenRunes(int32(id)); string(got) != tok {
			t.Fatalf("token %d: runes %q, want %q", id, string(got), tok)
		}
	}
}
