// Package sqlbase implements a miniature SQL-based video database in the
// style of EVA (Xu et al., SIGMOD'22), the paper's strongest SQL baseline
// (§5.2). It supports exactly the statement shapes of the paper's
// Appendix A programs (Figures 20, 22, 24):
//
//	LOAD VIDEO 'clip.mp4' INTO MyVideo;
//	CREATE FUNCTION Color IMPL './color.py';
//	CREATE TABLE T AS SELECT id, Color(Crop(data, bbox)), T.iid, ...
//	    FROM MyVideo
//	    JOIN LATERAL UNNEST(EXTRACT_OBJECT(data, Yolo, NorFairTracker))
//	    AS T(iid, label, bbox, score);
//	SELECT a.id FROM A JOIN B ON a.id = b.added_id WHERE ... ;
//	DROP TABLE IF EXISTS T;
//
// The engine reproduces EVA's structural cost characteristics: UDFs are
// invoked per row with a wrapping overhead (the paper notes every model
// had to be wrapped to adapt pandas DataFrames), tables materialize row
// by row, rows carry no object identity (so no cross-frame memoization is
// possible), and WHERE conjuncts evaluate in the order written (no
// predicate reordering — the paper's "EVA does not support creating VIEW
// ... filters cannot be pushed", which the benchmarks exercise via naive
// vs. manually refined SQL).
//
// The package is that baseline and nothing else: NewEVABaseline is the
// one constructor, every SELECT runs through the row evaluator, and
// nothing here imports the planner (internal/plan, internal/core) it is
// measured against — Fig. 14–16 and the root crosscheck compare two
// independent implementations.
package sqlbase

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokIdent tokenKind = iota
	tokString
	tokNumber
	tokSymbol
	tokEOF
)

type token struct {
	kind tokenKind
	text string // idents lowercased; strings without quotes
	pos  int
}

// lex splits a SQL text into tokens. Identifiers are case-insensitive
// and lowercased; string literals use single quotes.
func lex(src string) ([]token, error) {
	var out []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // comment to EOL
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '\'':
			j := i + 1
			for j < n && src[j] != '\'' {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("sqlbase: unterminated string at %d", i)
			}
			out = append(out, token{tokString, src[i+1 : j], i})
			i = j + 1
		case unicode.IsDigit(rune(c)) || (c == '.' && i+1 < n && unicode.IsDigit(rune(src[i+1]))):
			j := i
			for j < n && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				j++
			}
			out = append(out, token{tokNumber, src[i:j], i})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < n && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			out = append(out, token{tokIdent, strings.ToLower(src[i:j]), i})
			i = j
		default:
			// Multi-char comparison operators.
			if i+1 < n {
				two := src[i : i+2]
				if two == ">=" || two == "<=" || two == "!=" || two == "<>" || two == "==" {
					out = append(out, token{tokSymbol, two, i})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', ';', '.', '=', '>', '<', '*', '+', '-', '/':
				out = append(out, token{tokSymbol, string(c), i})
				i++
			default:
				return nil, fmt.Errorf("sqlbase: unexpected character %q at %d", c, i)
			}
		}
	}
	out = append(out, token{tokEOF, "", n})
	return out, nil
}
