package textutil

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Seagate BarraCuda 2TB", []string{"seagate", "barracuda", "2tb"}},
		{"WD Blue (WD10EZEX) 7200 RPM!", []string{"wd", "blue", "wd10ezex", "7200", "rpm"}},
		{"USB-C / Thunderbolt", []string{"usb-c", "thunderbolt"}},
		{"  multiple   spaces\tand\nnewlines ", []string{"multiple", "spaces", "and", "newlines"}},
		{"trailing-dash- -leading", []string{"trailing-dash", "leading"}},
		{"ÜBER Größe", []string{"über", "größe"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Tokenize(s)
		twice := Tokenize(strings.Join(once, " "))
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizeLowercases(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenSet(t *testing.T) {
	set := TokenSet("apple apple banana")
	if len(set) != 2 || !set["apple"] || !set["banana"] {
		t.Fatalf("TokenSet wrong: %v", set)
	}
}

func TestTokenCounts(t *testing.T) {
	counts := TokenCounts("a b a a c")
	if counts["a"] != 3 || counts["b"] != 1 || counts["c"] != 1 {
		t.Fatalf("TokenCounts wrong: %v", counts)
	}
}

func TestWordCount(t *testing.T) {
	if WordCount("one two  three") != 3 {
		t.Fatal("WordCount basic failed")
	}
	if WordCount("") != 0 {
		t.Fatal("WordCount empty failed")
	}
}

func TestNonLatinCount(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"plain english title", 0},
		{"Größe", 0},            // umlauts are Latin
		{"ноутбук", 7},          // Cyrillic
		{"ssd 硬盘 drive", 2},     // two Han characters
		{"mixed κείμενο 99", 7}, // Greek letters only; digits don't count
	}
	for _, c := range cases {
		if got := NonLatinCount(c.in); got != c.want {
			t.Errorf("NonLatinCount(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNormalizeUnits(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"seagate 1 tb drive", "seagate 1tb drive"},
		{"seagate 1000gb drive", "seagate 1tb drive"},
		{"seagate 1tb drive", "seagate 1tb drive"},
		{"cpu 3000 mhz boost", "cpu 3ghz boost"},
		{"cable 2 m", "cable 2 m"}, // "m" alone is ambiguous, not canonicalized
		{"7200rpm 64mb cache", "7200rpm 64mb cache"},
		{"ram 2000 megabytes", "ram 2gb"},
	}
	for _, c := range cases {
		got := Join(NormalizeUnits(Tokenize(c.in)))
		if got != c.want {
			t.Errorf("NormalizeUnits(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeUnitsPreservesLength(t *testing.T) {
	// Normalization may shrink but never grow the token count.
	f := func(s string) bool {
		toks := Tokenize(s)
		return len(NormalizeUnits(toks)) <= len(toks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCharNGrams(t *testing.T) {
	got := CharNGrams("ab", 2)
	want := []string{"^a", "ab", "b$"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CharNGrams = %v, want %v", got, want)
	}
	if got := CharNGrams("x", 5); len(got) != 1 {
		t.Fatalf("short-string CharNGrams = %v, want single padded gram", got)
	}
	if CharNGrams("abc", 0) != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestCharNGramsCount(t *testing.T) {
	f := func(s string, n8 uint8) bool {
		n := int(n8%5) + 1
		grams := CharNGrams(s, n)
		runes := len([]rune(s)) + 2
		if runes < n {
			return len(grams) == 1
		}
		return len(grams) == runes-n+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEachTokenMatchesTokenize is the property the streaming tokenizer
// must uphold: EachToken emits exactly the Tokenize token sequence (which
// is itself pinned by the reference-semantics tests above) for arbitrary
// input, including unicode, joiners-only tokens, and empty strings.
func TestEachTokenMatchesTokenize(t *testing.T) {
	check := func(s string) bool {
		var streamed []string
		EachToken(s, func(tok string) { streamed = append(streamed, tok) })
		direct := Tokenize(s)
		if len(streamed) != len(direct) {
			return false
		}
		for i := range direct {
			if streamed[i] != direct[i] {
				return false
			}
		}
		return true
	}
	for _, s := range []string{
		"", " ", "...", "-./-", "Seagate BarraCuda 2TB (ST2000DM008)",
		"wd10ezex-08wn4a0", "a/b/c", "ñandú 北京 DÉJÀ-vu", "🎧 x 🎧", ".lead trail.",
	} {
		if !check(s) {
			t.Fatalf("EachToken diverged from Tokenize on %q", s)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// referenceTokens is the rune-by-rune tokenizer EachToken's ASCII fast
// path replaced: every rune classified and lowered through the unicode
// tables, joiners trimmed off the lowered buffer's edges.
func referenceTokens(s string) []string {
	var buf []rune
	var toks []string
	flush := func() {
		lo, hi := 0, len(buf)
		for lo < hi && isJoiner(buf[lo]) {
			lo++
		}
		for hi > lo && isJoiner(buf[hi-1]) {
			hi--
		}
		if hi > lo {
			toks = append(toks, string(buf[lo:hi]))
		}
		buf = buf[:0]
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			buf = append(buf, unicode.ToLower(r))
		case isJoiner(r):
			buf = append(buf, r)
		default:
			flush()
		}
	}
	flush()
	return toks
}

// TestEachTokenMatchesReference pins EachToken to the rune-by-rune
// reference: every rune in 0-0x24F (ASCII, Latin-1 and Latin Extended-A
// and -B, where case folding and the letter/digit split matter) alone,
// inside a token, at its edges and between joiners, then random strings
// mixing ASCII, joiners, separators, accented and non-Latin letters,
// non-ASCII digits and invalid UTF-8 bytes.
func TestEachTokenMatchesReference(t *testing.T) {
	check := func(s string) {
		t.Helper()
		var got []string
		EachToken(s, func(tok string) { got = append(got, tok) })
		if want := referenceTokens(s); !slices.Equal(got, want) {
			t.Fatalf("EachToken(%q) = %q, reference %q", s, got, want)
		}
	}
	for r := rune(0); r <= 0x24F; r++ {
		c := string(r)
		for _, s := range []string{c, "A" + c + "b", c + "x9", "Q" + c, "." + c + "-", "/" + c + c + "/", "a." + c + ".B", "1 " + c + " Z"} {
			check(s)
		}
	}
	alphabet := []string{
		"a", "Z", "q", "M", "0", "7", ".", "-", "/", " ", "\t", ",", "(", "!", "_",
		"é", "Ä", "ß", "İ", "ǅ", "Ω", "ж", "Ж", "北", "٣", "Ⅻ", "🎧", "\u00a0", "\xff", "\xc3",
	}
	rng := rand.New(rand.NewSource(9))
	for range 5000 {
		var b strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		check(b.String())
	}
}

func TestIsNumber(t *testing.T) {
	if !isNumber("3.5") || !isNumber("1000") || isNumber("") || isNumber("1.2.3") || isNumber("x1") {
		t.Fatal("isNumber misclassified")
	}
}

func TestSplitNumberUnit(t *testing.T) {
	num, unit, ok := splitNumberUnit("500gb")
	if !ok || num != "500" || unit != "gb" {
		t.Fatalf("splitNumberUnit(500gb) = %q %q %v", num, unit, ok)
	}
	if _, _, ok := splitNumberUnit("gbonly"); ok {
		t.Fatal("splitNumberUnit should reject unit-only token")
	}
	if _, _, ok := splitNumberUnit("123"); ok {
		t.Fatal("splitNumberUnit should reject number-only token")
	}
}
