package lang

import (
	"strings"
	"testing"
)

func lexTexts(t *testing.T, input string) []string {
	t.Helper()
	toks, err := Lex(input)
	if err != nil {
		t.Fatalf("Lex(%q): %v", input, err)
	}
	out := make([]string, 0, len(toks))
	for _, tok := range toks {
		if tok.Type == TokEOF {
			continue
		}
		out = append(out, tok.Text)
	}
	return out
}

func TestLexWordsAndCase(t *testing.T) {
	got := lexTexts(t, "Turn ON the Air Conditioner")
	want := []string{"turn", "on", "the", "air", "conditioner"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v, want %v", got, want)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("28 degrees and 60.5 percent")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Type != TokNumber || toks[0].Num != 28 {
		t.Errorf("first token = %+v, want number 28", toks[0])
	}
	if toks[3].Type != TokNumber || toks[3].Num != 60.5 {
		t.Errorf("fourth token = %+v, want number 60.5", toks[3])
	}
}

func TestLexPercentSign(t *testing.T) {
	got := lexTexts(t, "over 60 %")
	want := "over 60 percent"
	if strings.Join(got, " ") != want {
		t.Errorf("tokens = %v, want %q", got, want)
	}
}

func TestLexClockTime(t *testing.T) {
	for _, tc := range []struct {
		src, text string
		minutes   int
	}{
		{"at 18:30", "18:30", 18*60 + 30},
		{"at 07:05", "7:05", 7*60 + 5},
		{"at 0:00", "0:00", 0},
	} {
		toks, err := Lex(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if toks[1].Type != TokTime {
			t.Fatalf("token = %+v, want TokTime", toks[1])
		}
		if toks[1].Num != float64(tc.minutes) {
			t.Errorf("%q: minutes = %v, want %d", tc.src, toks[1].Num, tc.minutes)
		}
		if toks[1].Text != tc.text {
			t.Errorf("%q: text = %q, want %q", tc.src, toks[1].Text, tc.text)
		}
		// The printer renders clock times exactly as the lexer spells them.
		if got := (TimeOfDay{Kind: TimeClock, Minutes: tc.minutes}).String(); got != tc.text {
			t.Errorf("%q: printed %q, want %q", tc.src, got, tc.text)
		}
	}
}

func TestLexInvalidClockTime(t *testing.T) {
	if _, err := Lex("at 25:00"); err == nil {
		t.Error("25:00 should fail")
	}
	if _, err := Lex("at 10:75"); err == nil {
		t.Error("10:75 should fail")
	}
}

func TestLexContractions(t *testing.T) {
	got := lexTexts(t, "I'm in the living room")
	want := "i am in the living room"
	if strings.Join(got, " ") != want {
		t.Errorf("tokens = %v, want %q", got, want)
	}
	got = lexTexts(t, "Let's call the condition that it's dark night-time")
	joined := strings.Join(got, " ")
	if !strings.HasPrefix(joined, "let's call the condition that it is dark") {
		t.Errorf("tokens = %v", got)
	}
}

func TestLexHyphenatedWord(t *testing.T) {
	got := lexTexts(t, "half-lighting")
	if len(got) != 1 || got[0] != "half-lighting" {
		t.Errorf("tokens = %v, want [half-lighting]", got)
	}
}

func TestLexPunctuation(t *testing.T) {
	toks, err := Lex("if (a), then b.")
	if err != nil {
		t.Fatal(err)
	}
	var types []TokenType
	for _, tok := range toks {
		types = append(types, tok.Type)
	}
	want := []TokenType{TokWord, TokLParen, TokWord, TokRParen, TokComma, TokWord, TokWord, TokStop, TokEOF}
	if len(types) != len(want) {
		t.Fatalf("token types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, types[i], want[i])
		}
	}
}

func TestLexDecimalVsStop(t *testing.T) {
	toks, err := Lex("25.5 degrees.")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Type != TokNumber || toks[0].Num != 25.5 {
		t.Errorf("first token = %+v, want 25.5", toks[0])
	}
	if toks[2].Type != TokStop {
		t.Errorf("third token = %+v, want stop", toks[2])
	}
}

func TestLexEOFAlwaysLast(t *testing.T) {
	for _, input := range []string{"", "a", "a b c.", "  "} {
		toks, err := Lex(input)
		if err != nil {
			t.Fatal(err)
		}
		if toks[len(toks)-1].Type != TokEOF {
			t.Errorf("Lex(%q) does not end with EOF", input)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("ab cd")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != 0 || toks[1].Pos != 3 {
		t.Errorf("positions = %d,%d want 0,3", toks[0].Pos, toks[1].Pos)
	}
}

func TestTokenTypeString(t *testing.T) {
	if TokWord.String() != "word" || TokEOF.String() != "eof" {
		t.Error("TokenType.String misnamed")
	}
}
