// Package textutil provides the text normalization and tokenization
// primitives shared by the corpus cleansing pipeline, the similarity metric
// library, and the matchers.
//
// The WDC Products pipeline operates almost entirely on lower-cased,
// punctuation-stripped word tokens of the offer title and description
// attributes; this package is the single place that defines what a "word"
// is, so every stage agrees.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lower-cases s, strips punctuation (keeping alphanumerics and the
// characters '.', '-', '/' inside tokens because they carry model-number
// information such as "wd10ezex-08wn4a0"), and splits on whitespace.
func Tokenize(s string) []string {
	var out []string
	EachToken(s, func(t string) { out = append(out, t) })
	return out
}

// EachToken streams the tokens of s to fn in order, with the exact token
// semantics of Tokenize but without materializing an intermediate
// normalized copy of s or a fields slice. It is the allocation-frugal
// primitive the prepared-corpus interning layer is built on.
//
// A token is a maximal run of letters, digits and joiners, so it is a
// substring of s: ASCII bytes are classified without the unicode tables,
// and a token that is already lower case is passed on without a copy.
func EachToken(s string, fn func(token string)) {
	start := -1 // first byte of the run being scanned; -1 between runs
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		var in bool
		if r < utf8.RuneSelf {
			in = 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || isJoiner(r)
		} else {
			r, size = utf8.DecodeRuneInString(s[i:])
			in = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		switch {
		case in && start < 0:
			start = i
		case !in && start >= 0:
			emitToken(s[start:i], fn)
			start = -1
		}
		i += size
	}
	if start >= 0 {
		emitToken(s[start:], fn)
	}
}

// emitToken trims the joiners off a run's edges and passes the rest, if
// any, to fn lower-cased (strings.ToLower lowers rune by rune with
// unicode.ToLower and returns a lower-case run itself).
func emitToken(run string, fn func(token string)) {
	if tok := strings.Trim(run, ".-/"); tok != "" {
		fn(strings.ToLower(tok))
	}
}

// isJoiner reports whether r is kept inside tokens but trimmed from their
// edges ('.', '-', '/', the model-number joiners).
func isJoiner(r rune) bool { return r == '.' || r == '-' || r == '/' }

// TokenSet returns the set of distinct tokens of s.
func TokenSet(s string) map[string]bool {
	set := make(map[string]bool)
	EachToken(s, func(t string) { set[t] = true })
	return set
}

// TokenCounts returns a bag-of-words count map for s.
func TokenCounts(s string) map[string]int {
	counts := make(map[string]int)
	EachToken(s, func(t string) { counts[t]++ })
	return counts
}

// WordCount returns the number of whitespace-separated words of s without
// further normalization. Used for the short-title cleansing heuristic and
// the Table 2 length statistics, which count raw words.
func WordCount(s string) int {
	return len(strings.Fields(s))
}

// NonLatinCount counts runes that are letters outside the Latin script.
// Digits, punctuation and whitespace never count. The cleansing step keeps
// offers with fewer than four non-Latin characters (§3.2 of the paper).
func NonLatinCount(s string) int {
	n := 0
	for _, r := range s {
		if unicode.IsLetter(r) && !unicode.In(r, unicode.Latin) {
			n++
		}
	}
	return n
}

// NormalizeUnits canonicalizes measurement expressions so "1TB", "1 TB" and
// "1000GB" compare equal after normalization. It implements the domain
// knowledge injection used by the Ditto matcher substitute.
func NormalizeUnits(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for i := 0; i < len(tokens); i++ {
		tok := tokens[i]
		// Merge "<number> <unit>" into "<number><unit>".
		if isNumber(tok) && i+1 < len(tokens) {
			if canon, ok := canonUnit(tokens[i+1]); ok {
				out = append(out, canonMagnitude(tok, canon))
				i++
				continue
			}
		}
		if num, unit, ok := splitNumberUnit(tok); ok {
			out = append(out, canonMagnitude(num, unit))
			continue
		}
		out = append(out, tok)
	}
	return out
}

// isNumber reports whether tok consists of digits with at most one decimal
// point or comma.
func isNumber(tok string) bool {
	if tok == "" {
		return false
	}
	dots := 0
	for _, r := range tok {
		switch {
		case r >= '0' && r <= '9':
		case r == '.' || r == ',':
			dots++
			if dots > 1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

var unitCanon = map[string]string{
	"tb": "tb", "terabyte": "tb", "terabytes": "tb",
	"gb": "gb", "gigabyte": "gb", "gigabytes": "gb",
	"mb": "mb", "megabyte": "mb", "megabytes": "mb",
	"ghz": "ghz", "mhz": "mhz",
	"mm": "mm", "cm": "cm", "in": "in", "inch": "in", "inches": "in",
	"g": "g", "kg": "kg", "gram": "g", "grams": "g",
	"w": "w", "watt": "w", "watts": "w",
	"mah": "mah", "rpm": "rpm", "hz": "hz", "ms": "ms",
}

func canonUnit(tok string) (string, bool) {
	c, ok := unitCanon[strings.ToLower(tok)]
	return c, ok
}

// splitNumberUnit splits tokens like "500gb" or "7200rpm" into number and
// canonical unit.
func splitNumberUnit(tok string) (num, unit string, ok bool) {
	i := 0
	for i < len(tok) && (tok[i] >= '0' && tok[i] <= '9' || tok[i] == '.' || tok[i] == ',') {
		i++
	}
	if i == 0 || i == len(tok) {
		return "", "", false
	}
	canon, found := canonUnit(tok[i:])
	if !found || !isNumber(tok[:i]) {
		return "", "", false
	}
	return tok[:i], canon, true
}

// canonMagnitude converts storage magnitudes to a single canonical unit so
// that "1tb" and "1000gb" normalize identically ("1000gb" -> "1tb").
func canonMagnitude(num, unit string) string {
	num = strings.ReplaceAll(num, ",", ".")
	switch unit {
	case "gb":
		if v, rem := wholeNumber(num); rem && v >= 1000 && v%1000 == 0 {
			return itoa(v/1000) + "tb"
		}
	case "mb":
		if v, rem := wholeNumber(num); rem && v >= 1000 && v%1000 == 0 {
			return itoa(v/1000) + "gb"
		}
	case "mhz":
		if v, rem := wholeNumber(num); rem && v >= 1000 && v%1000 == 0 {
			return itoa(v/1000) + "ghz"
		}
	}
	return num + unit
}

func wholeNumber(s string) (int, bool) {
	v := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, false
		}
		v = v*10 + int(r-'0')
		if v > 1<<30 {
			return 0, false
		}
	}
	return v, true
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// CharNGrams returns the padded character n-grams of s, the representation
// used by the language identifier and the fastText-style embedding hasher.
// The string is padded with '^' and '$' markers.
func CharNGrams(s string, n int) []string {
	if n <= 0 {
		return nil
	}
	padded := "^" + strings.ToLower(s) + "$"
	runes := []rune(padded)
	if len(runes) < n {
		return []string{string(runes)}
	}
	grams := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+n]))
	}
	return grams
}

// Join is strings.Join re-exported for symmetry with Tokenize in callers
// that reconstruct normalized text.
func Join(tokens []string) string { return strings.Join(tokens, " ") }
