package wdcproducts_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wdcproducts"
	"wdcproducts/internal/matchers"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from the current report output")

// The root tests exercise the public facade end-to-end; the heavy fixtures
// are shared with bench_test.go through setup().

func TestFacadeBuildValidateRoundTrip(t *testing.T) {
	b := testFixture(t)
	if err := wdcproducts.Validate(b); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "wdcfacade")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := wdcproducts.Save(b, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := wdcproducts.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Offers) != len(b.Offers) {
		t.Fatalf("round trip lost offers: %d vs %d", len(loaded.Offers), len(b.Offers))
	}
}

// testFixture reuses the bench fixture so the tiny benchmark is built once
// per `go test .` invocation.
func testFixture(t *testing.T) *wdcproducts.Benchmark {
	t.Helper()
	ensureBuild(t)
	return benchB
}

func TestFacadeMatcherTraining(t *testing.T) {
	b := testFixture(t)
	m, err := wdcproducts.NewPairMatcher("Magellan")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.TrainPairs(runner.Data, b.TrainPairs(50, wdcproducts.Small),
		b.ValPairs(50, wdcproducts.Small), 1); err != nil {
		t.Fatal(err)
	}
	counts := matchers.EvaluatePairs(m, runner.Data, b.TestPairs(50, 0))
	if counts.Total() == 0 {
		t.Fatal("no pairs evaluated")
	}
}

func TestFacadeProfilingTables(t *testing.T) {
	b := testFixture(t)
	for name, s := range map[string]string{
		"table1":  wdcproducts.Table1(b).String(),
		"table6":  wdcproducts.Table6(b).String(),
		"figure3": wdcproducts.Figure3(b, 80).String(),
	} {
		if len(strings.TrimSpace(s)) == 0 {
			t.Fatalf("%s rendered empty", name)
		}
	}
}

func TestFacadeLabelQuality(t *testing.T) {
	b := testFixture(t)
	res, err := wdcproducts.LabelQuality(b, benchC, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kappa <= 0 || res.SampledPairs == 0 {
		t.Fatalf("label quality degenerate: %+v", res)
	}
}

func TestFacadeSystemLists(t *testing.T) {
	systems := wdcproducts.PairSystems()
	if len(systems) != 6 {
		t.Fatalf("PairSystems = %v", systems)
	}
	for _, s := range systems {
		if _, err := wdcproducts.NewPairMatcher(s); err != nil {
			t.Fatalf("constructor for %s failed: %v", s, err)
		}
	}
	if _, err := wdcproducts.NewPairMatcher("bogus"); err == nil {
		t.Fatal("bogus system accepted")
	}
}

// TestFacadeBlockingReport pins the one-split §6 report: every
// candidates, completeness and reduction cell must match the golden
// fixture, with the timing columns masked.
func TestFacadeBlockingReport(t *testing.T) {
	ensureBuild(t)
	// token + minhash avoid encoder training, keeping the facade test fast.
	table, err := wdcproducts.BlockingReport(benchB, []string{"token", "minhash"}, 42, 1, wdcproducts.BlockingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("got %d rows, want 2:\n%s", len(table.Rows), table)
	}
	if table.Rows[0][0] != "token-blocking" || table.Rows[1][0] != "minhash-lsh" {
		t.Fatalf("unexpected blocker rows:\n%s", table)
	}
	if _, err := wdcproducts.BlockingReport(benchB, []string{"bogus"}, 42, 1, wdcproducts.BlockingOptions{}); err == nil {
		t.Fatal("unknown blocker name did not error")
	}
	if got := wdcproducts.ParseBlockerNames("all"); got != nil {
		t.Fatalf("ParseBlockerNames(all) = %v, want nil", got)
	}
	if got := wdcproducts.ParseBlockerNames("token,hnsw"); len(got) != 2 || got[0] != "token" || got[1] != "hnsw" {
		t.Fatalf("ParseBlockerNames(token,hnsw) = %v", got)
	}
	names := wdcproducts.BlockerNames()
	if names[len(names)-1] != "ivf" {
		t.Fatalf("BlockerNames = %v, want ivf last", names)
	}
	checkGolden(t, "blocking_golden.txt", maskColumns(table, 4, 5))
}

func TestFacadeParseBlockerNames(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"all", nil},
		{"  all  ", nil},
		{"minhash, hnsw", []string{"minhash", "hnsw"}},
		{"token,minhash,", []string{"token", "minhash"}},
		{" token , token ,minhash", []string{"token", "minhash"}},
		{",,", nil},
	}
	for _, tc := range cases {
		got := wdcproducts.ParseBlockerNames(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("ParseBlockerNames(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("ParseBlockerNames(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

// TestFacadeMatcherBlockingReport pins the matcher-in-the-loop study
// end-to-end: the table must be byte-identical at workers 1 and 4 (the
// acceptance bar of the -matchblock CLI) and byte-identical to the golden
// fixture (run with -update to regenerate). token + minhash avoid the
// blocker-side encoder; the runner-side encoder is trained either way.
func TestFacadeMatcherBlockingReport(t *testing.T) {
	ensureBuild(t)
	names := []string{"token", "minhash"}
	systems := []string{"Word-Cooc", "Magellan", "RoBERTa"}
	serial, err := wdcproducts.MatcherBlockingReport(benchB, names, systems, 42, 1, 1, wdcproducts.BlockingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := wdcproducts.MatcherBlockingReport(benchB, names, systems, 42, 1, 4, wdcproducts.BlockingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Fatalf("matcher-blocking table differs across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", serial, par)
	}
	// One baseline row block plus one per blocker, one row per system each.
	wantRows := (1 + len(names)) * len(systems)
	if len(serial.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d:\n%s", len(serial.Rows), wantRows, serial)
	}
	if serial.Rows[0][0] != wdcproducts.NoBlockingBaseline {
		t.Fatalf("first row is not the unblocked baseline:\n%s", serial)
	}
	checkGolden(t, "matchblock_golden.txt", serial.String())
}

// checkGolden compares a rendered report with testdata/<name>, or
// rewrites the fixture when the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("report differs from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestFacadeMatcherBlockingReportErrors(t *testing.T) {
	ensureBuild(t)
	if _, err := wdcproducts.MatcherBlockingReport(benchB, []string{"bogus"}, nil, 42, 1, 1, wdcproducts.BlockingOptions{}); err == nil {
		t.Fatal("unknown blocker name did not error")
	}
	if _, err := wdcproducts.MatcherBlockingReport(benchB, []string{"token"}, []string{"bogus"}, 42, 1, 1, wdcproducts.BlockingOptions{}); err == nil {
		t.Fatal("unknown system name did not error")
	}
}

// TestFacadeBlockingScaleReport pins the build-once/query-per-split
// study the same way: the golden fixture holds every split row, with the
// ms column masked.
func TestFacadeBlockingScaleReport(t *testing.T) {
	ensureBuild(t)
	// token + minhash avoid encoder training, keeping the facade test fast.
	table, err := wdcproducts.BlockingScaleReport(benchB, []string{"token", "minhash"}, 42, 1, wdcproducts.BlockingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 corner ratios x 3 unseen fractions = 9 split rows per blocker, plus
	// one build row for the index-backed minhash blocker.
	if len(table.Rows) != 19 {
		t.Fatalf("got %d rows, want 19:\n%s", len(table.Rows), table)
	}
	if table.Rows[0][0] != "token-blocking" || table.Rows[9][0] != "minhash-lsh" {
		t.Fatalf("unexpected blocker rows:\n%s", table)
	}
	if table.Rows[9][1] != "build" {
		t.Fatalf("minhash rows do not start with a build row:\n%s", table)
	}
	if _, err := wdcproducts.BlockingScaleReport(benchB, []string{"bogus"}, 42, 1, wdcproducts.BlockingOptions{}); err == nil {
		t.Fatal("unknown blocker name did not error")
	}
	checkGolden(t, "blockscale_golden.txt", maskColumns(table, 6))
}

// maskColumns renders t with the wall-time cells of the given columns
// replaced by "*", keeping the "-" that marks a blocker without an index,
// so the rendered table is stable across runs and machines.
func maskColumns(t *wdcproducts.Table, cols ...int) string {
	masked := *t
	masked.Rows = make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		masked.Rows[i] = append([]string(nil), row...)
		for _, c := range cols {
			if masked.Rows[i][c] != "-" {
				masked.Rows[i][c] = "*"
			}
		}
	}
	return masked.String()
}

// TestFacadeBlockingOptionsLog pins the -v acquisition log: a first run
// against an empty snapshot dir builds and saves, a second run loads,
// and a corrupted snapshot is refused with the typed reason before the
// rebuild re-saves.
func TestFacadeBlockingOptionsLog(t *testing.T) {
	ensureBuild(t)
	dir := t.TempDir()
	run := func() string {
		var buf strings.Builder
		opts := wdcproducts.BlockingOptions{SnapshotDir: dir, Log: &buf}
		if _, err := wdcproducts.BlockingReport(benchB, []string{"minhash"}, 42, 1, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	if !strings.Contains(first, "minhash-lsh: built fresh") ||
		!strings.Contains(first, "minhash-lsh: saved snapshot") {
		t.Fatalf("first run log = %q, want built fresh + saved", first)
	}
	second := run()
	if !strings.Contains(second, "minhash-lsh: loaded snapshot") {
		t.Fatalf("second run log = %q, want loaded", second)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots in dir = %v, %v; want exactly one", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	third := run()
	if !strings.Contains(third, "minhash-lsh: snapshot refused") ||
		!strings.Contains(third, "rebuilt") {
		t.Fatalf("corrupted run log = %q, want refused + rebuilt", third)
	}
	fourth := run()
	if !strings.Contains(fourth, "minhash-lsh: loaded snapshot") {
		t.Fatalf("post-rebuild run log = %q, want loaded from re-saved snapshot", fourth)
	}
}
