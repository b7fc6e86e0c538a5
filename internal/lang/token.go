// Package lang implements the CADEL (Context-Aware rule DEfinition Language)
// front end: lexer, AST, recursive-descent parser and printer for the grammar
// of Table 1 in the paper. CADEL reads like constrained English, e.g.
//
//	If humidity is higher than 80 percent and temperature is higher than
//	28 degrees, turn on the air conditioner with 25 degrees of temperature
//	setting.
//
//	Let's call the condition that humidity is higher than 60 percent and
//	temperature is higher than 28 degrees hot and stuffy.
//
// Phrase recognition (verbs, states, units, places, user-defined words) is
// driven by a vocab.Lexicon so new words defined at runtime immediately
// become parseable.
package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// TokenType classifies lexical tokens.
type TokenType int

// Token types produced by Lex.
const (
	TokWord TokenType = iota + 1
	TokNumber
	TokTime // hh:mm clock time; Num holds minutes since midnight
	TokComma
	TokStop // sentence-final period
	TokLParen
	TokRParen
	TokEOF
)

// String names the token type.
func (t TokenType) String() string {
	switch t {
	case TokWord:
		return "word"
	case TokNumber:
		return "number"
	case TokTime:
		return "time"
	case TokComma:
		return "comma"
	case TokStop:
		return "period"
	case TokLParen:
		return "lparen"
	case TokRParen:
		return "rparen"
	case TokEOF:
		return "eof"
	default:
		return fmt.Sprintf("TokenType(%d)", int(t))
	}
}

// Token is a lexical token. Pos is the byte offset in the original input.
type Token struct {
	Type TokenType
	Text string
	Num  float64
	Pos  int
}

// contractions expanded by the lexer. "let's" and "o'clock" are kept intact:
// the former is part of the CondDef/ConfDef leader phrase, the latter is a
// time unit.
var contractions = map[string][]string{
	"i'm":    {"i", "am"},
	"it's":   {"it", "is"},
	"he's":   {"he", "is"},
	"she's":  {"she", "is"},
	"that's": {"that", "is"},
	"who's":  {"who", "is"},
	"there's": {
		"there", "is",
	},
	"isn't":  {"is", "not"},
	"aren't": {"are", "not"},
}

// Lex tokenizes CADEL input. Words are lowercased; "%" becomes the word
// "percent"; "hh:mm" becomes a TokTime. The token stream always ends with a
// TokEOF.
//
// Lex allocates the token slice once, sized from the input's separators.
// Only words with upper-case letters and clock times get texts of their own;
// other texts share the input's bytes or are constants.
func Lex(input string) ([]Token, error) {
	toks := make([]Token, 0, tokenEstimate(input))
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',':
			toks = append(toks, Token{Type: TokComma, Text: ",", Pos: i})
			i++
		case c == '.':
			// Decimal point is handled inside number scanning; a lone '.'
			// is a sentence stop.
			toks = append(toks, Token{Type: TokStop, Text: ".", Pos: i})
			i++
		case c == '(':
			toks = append(toks, Token{Type: TokLParen, Text: "(", Pos: i})
			i++
		case c == ')':
			toks = append(toks, Token{Type: TokRParen, Text: ")", Pos: i})
			i++
		case c == '%':
			toks = append(toks, Token{Type: TokWord, Text: "percent", Pos: i})
			i++
		case c >= '0' && c <= '9':
			start := i
			for i < n && input[i] >= '0' && input[i] <= '9' {
				i++
			}
			// Clock time hh:mm.
			if i < n && input[i] == ':' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9' {
				hh, _ := strconv.Atoi(input[start:i])
				j := i + 1
				for j < n && input[j] >= '0' && input[j] <= '9' {
					j++
				}
				mm, err := strconv.Atoi(input[i+1 : j])
				if err != nil || hh > 23 || mm > 59 {
					return nil, fmt.Errorf("lang: invalid clock time %q at offset %d", input[start:j], start)
				}
				toks = append(toks, Token{
					Type: TokTime,
					Text: string(appendClock(make([]byte, 0, 5), hh*60+mm)),
					Num:  float64(hh*60 + mm),
					Pos:  start,
				})
				i = j
				continue
			}
			// Decimal fraction.
			if i < n && input[i] == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9' {
				i++
				for i < n && input[i] >= '0' && input[i] <= '9' {
					i++
				}
			}
			text := input[start:i]
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("lang: invalid number %q at offset %d", text, start)
			}
			toks = append(toks, Token{Type: TokNumber, Text: text, Num: v, Pos: start})
		case isWordByte(c):
			start := i
			for i < n && (isWordByte(input[i]) || input[i] == '\'' || input[i] == '-') {
				i++
			}
			word := strings.ToLower(input[start:i])
			if strings.IndexByte(word, '\'') >= 0 {
				if parts, ok := contractions[word]; ok {
					for _, p := range parts {
						toks = append(toks, Token{Type: TokWord, Text: p, Pos: start})
					}
					continue
				}
			}
			toks = append(toks, Token{Type: TokWord, Text: word, Pos: start})
		default:
			r := rune(c)
			if r > unicode.MaxASCII {
				// Accept arbitrary unicode letters as word characters.
				start := i
				for i < n && input[i] > 127 {
					i++
				}
				toks = append(toks, Token{Type: TokWord, Text: strings.ToLower(input[start:i]), Pos: start})
				continue
			}
			return nil, fmt.Errorf("lang: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, Token{Type: TokEOF, Text: "", Pos: n})
	return toks, nil
}

// tokenEstimate bounds the token count of typical input: one token per
// separator run plus each punctuation mark, apostrophe (a contraction adds
// a word) and the final EOF. Run-together input ("28degrees") may need more;
// append then grows the slice.
func tokenEstimate(input string) int {
	n, space := 2, true
	for i := 0; i < len(input); i++ {
		switch input[i] {
		case ' ', '\t', '\n', '\r':
			if !space {
				n++
			}
			space = true
			continue
		case ',', '.', '(', ')', '%', '\'':
			n++
		}
		space = false
	}
	return n
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
