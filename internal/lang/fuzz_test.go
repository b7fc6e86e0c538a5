package lang

import (
	"testing"

	"repro/internal/vocab"
)

// fuzzLexicon mirrors the lexicon the rule-submission HTTP path parses
// against: the default vocabulary plus registered people and user-defined
// words, so fuzzed inputs can reach the word-expansion code paths too.
func fuzzLexicon() *vocab.Lexicon {
	lex := vocab.Default()
	for _, p := range []string{"tom", "alan", "emily", "i"} {
		_ = lex.Add(vocab.Entry{Phrase: p, Kind: vocab.KindPerson})
	}
	_ = lex.DefineCondWord("hot and stuffy",
		"humidity is higher than 60 percent and temperature is higher than 28 degrees", "tom")
	_ = lex.DefineConfWord("half-lighting", "50 percent of brightness setting", "tom")
	return lex
}

// parseSeeds is the FuzzParse seed corpus: every command the examples/
// programs submit, plus structural edge cases.
var parseSeeds = []string{
	// examples/quickstart, examples/livingroom, examples/wordsmith,
	// examples/security and the paper's Fig. 4 commands.
	"If temperature is higher than 28 degrees and humidity is higher than 60 percent, " +
		"turn on the air conditioner with 25 degrees of temperature setting.",
	"If hot and stuffy, turn on the air conditioner with 25 degrees of temperature setting.",
	"Let's call the condition that humidity is higher than 60 % and temperature is higher than 28 degrees hot and stuffy",
	"Let's call the condition that temperature is higher than 25 degrees and humidity is higher than 60 percent muggy",
	"Let's call the configuration that 50 percent of brightness setting half-lighting",
	"When i am in the living room, turn on the floor lamp with half-lighting.",
	"When i am in the living room and my favorite movie is on air, play the stereo with movie of mode setting.",
	"In the evening, if i am in the living room, play the stereo with jazz of mode setting and 40 percent of volume setting.",
	"After evening, if someone returns home and the hall is dark, turn on the light at the hall.",
	"At night, if entrance door is unlocked for 1 hour, turn on the alarm.",
	"If emily is in the living room and a baseball game is on air, record the video recorder.",
	"If i am in the living room and a baseball game is on air, turn on the tv with 1 of channel setting.",
	"Turn on the light at the hall.",
	// Structural edge cases.
	"",
	".",
	"If",
	"If , then .",
	"If temperature is higher than 99999999999999999999 degrees, turn on the tv.",
	"If temperature is higher than -28.5e10 degrees, turn on the tv.",
	"Let's call the condition that hot and stuffy hot and stuffy",
	"If hot and stuffy and hot and stuffy and hot and stuffy, turn on the tv.",
	"if IF if IF if, turn ON the THE the.",
	"When when when when when when when when when when when when when, do do do.",
	"If temperature is higher than 28 degrees, turn on the \x00\xff.",
	"\xf0\x9f\x92\xa1 If temperature is higher than 28 degrees, turn on the light.",
}

// FuzzParse guards the rule-submission path (cadel.Server.Submit, the
// single-home HTTP API and the fleet HTTP API all funnel user text straight
// into lang.Parse) against crashing inputs: any input may fail to parse, but
// none may panic or hang. Its seed corpus is parseSeeds.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	lex := fuzzLexicon()
	f.Fuzz(func(t *testing.T, src string) {
		// Parse must not panic; errors are expected for arbitrary input.
		cmd, err := Parse(src, lex)
		if err == nil && cmd == nil {
			t.Errorf("Parse(%q) returned nil command without error", src)
		}
		// The condition-expression entry point (priority contexts) shares
		// the grammar; guard it with the same inputs.
		_, _ = ParseCondExpr(src, lex)
	})
}
