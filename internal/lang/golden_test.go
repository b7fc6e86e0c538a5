package lang

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/parse_golden.json from the current parser")

const goldenPath = "testdata/parse_golden.json"

// figure1Srcs is cmd/scenario's Fig. 1 rule set: three condition words, one
// configuration word and ten rules.
var figure1Srcs = []string{
	"Let's call the condition that temperature is higher than 26 degrees and humidity is higher than 65 percent hot and stuffy",
	"Let's call the condition that temperature is higher than 25 degrees and humidity is higher than 60 percent muggy",
	"Let's call the condition that temperature is higher than 29 degrees and humidity is higher than 75 percent sticky",
	"Let's call the configuration that 50 percent of brightness setting half-lighting",
	"In the evening, if i am in the living room, play the stereo with jazz of mode setting and 40 percent of volume setting.",
	"When i am in the living room, turn on the floor lamp with half-lighting.",
	"If i am in the living room and hot and stuffy, turn on the air conditioner at the living room with 25 degrees of temperature setting and 60 percent of humidity setting.",
	"If i am in the living room and a baseball game is on air, turn on the tv with 1 of channel setting.",
	"If emily is in the living room and a baseball game is on air, record the video recorder.",
	"If i am in the living room and muggy, turn on the air conditioner at the living room with 24 degrees of temperature setting and 55 percent of humidity setting.",
	"If i am in the living room and my favorite movie is on air, turn on the tv with 3 of channel setting.",
	"When i am in the living room and my favorite movie is on air, play the stereo with movie of mode setting.",
	"When i am in the living room and my favorite movie is on air, turn on the fluorescent light.",
	"If i am in the living room and sticky, turn on the air conditioner at the living room with 27 degrees of temperature setting and 65 percent of humidity setting.",
}

// richSrcs are the rule shapes of the hub benchmark's home_rich workload:
// its probe rules, a sample of its climate and stereo fillers, its
// rule-write stream and the fleet benchmarks' one-rule home.
func richSrcs() []string {
	srcs := []string{
		"If illuminance at the garage is higher than 500 lux, turn on the light at the garage.",
		"If illuminance at the garage is lower than 500 lux, turn off the light at the garage.",
		"If temperature is higher than 28 degrees, turn on the air conditioner.",
		"If humidity is higher than 60 percent, turn on the fan.",
	}
	for _, i := range []int{0, 1, 37, 99} {
		srcs = append(srcs, fmt.Sprintf("If temperature at the bedroom is higher than %d degrees, play the stereo with %d percent of volume setting.", 15+i%20, i%90))
	}
	acts := []string{
		"turn on the fan at the kitchen", "turn off the heater at the study",
		"turn on the air conditioner at the bedroom", "turn off the humidifier at the bathroom",
		"turn on the dehumidifier at the hall", "close the curtain at the living room",
		"open the window at the study", "turn off the lamp at the bedroom",
		"turn on the tv at the bedroom", "turn off the light at the hall",
	}
	for i, act := range acts {
		srcs = append(srcs,
			fmt.Sprintf("If temperature at the living room is higher than %d degrees, %s.", 20+i%13, act),
			fmt.Sprintf("If humidity at the living room is higher than %d percent, %s.", 40+i%41, act),
			fmt.Sprintf("If illuminance at the study is higher than %d lux, %s.", 100+i*37%400, act))
	}
	for _, n := range []int{0, 1, 250} {
		srcs = append(srcs, fmt.Sprintf("If temperature at the garage is higher than %d degrees, play the stereo with 99 percent of volume setting.", 50+n))
	}
	return srcs
}

// failingSrcs each fail to parse, so the golden file pins the exact error
// text and offset.
var failingSrcs = []string{
	"If temperature, turn on the tv.",
	"If the hall, turn on the light.",
	"If tom is, turn on the tv.",
	"If nobody, turn on the tv.",
	"If someone is, turn on the tv.",
	"If my is dark, turn on the tv.",
	"If a b c d e f g h i j is dark, turn on the tv.",
	"If temperature is higher than, turn on the tv.",
	"If temperature is higher than 28 degrees",
	"If temperature is higher than 28 degrees, frobnicate the tv.",
	"If temperature is higher than 28 degrees and, turn on the tv.",
	"If temperature is higher than 28 degrees, turn on the .",
	"If temperature is higher than 28 degrees, turn on the tv when",
	"If temperature is higher than 28 degrees, turn on the tv #",
	"If 25:00 is here, turn on the tv.",
	"If temperature is 28:99 degrees, turn on the tv.",
	"If temperature is higher than 1.2.3 degrees, turn on the tv.",
	"If ( temperature is higher than 28 degrees, turn on the tv.",
	"If i am in the, turn on the tv.",
	"Turn on.",
	"Turn on the tv with.",
	"Turn on the tv at.",
	"Turn on the tv. Turn off the tv.",
	"turn on the tv if",
	"Let's call the condition that temperature is higher than 28 degrees",
	"Let's call the condition that hot and stuffy",
	"Let's call the configuration that",
	"Let's call the configuration that 50 percent of brightness setting",
	"(",
	"\xf0\x9f\x99\x82",
	"If it's dark, turn on the light.",
	"If the door isn't locked, turn on the alarm.",
}

// goldenCase is one input with the result of Parse and of ParseCondExpr:
// either the JSON of the parsed value or the exact error text.
type goldenCase struct {
	Src     string          `json:"src"`
	Type    string          `json:"type,omitempty"`
	AST     json.RawMessage `json:"ast,omitempty"`
	Err     string          `json:"err,omitempty"`
	Expr    json.RawMessage `json:"expr,omitempty"`
	ExprErr string          `json:"expr_err,omitempty"`
}

func goldenInputs() []string {
	var in []string
	in = append(in, parseSeeds...)
	in = append(in, roundTripSrcs...)
	in = append(in, figure1Srcs...)
	in = append(in, richSrcs()...)
	in = append(in, failingSrcs...)
	return in
}

func renderGolden(t *testing.T) []byte {
	t.Helper()
	// The fuzz lexicon plus the rest of Fig. 1's condition words.
	lex := fuzzLexicon()
	for _, w := range []struct{ name, def string }{
		{"muggy", "temperature is higher than 25 degrees and humidity is higher than 60 percent"},
		{"sticky", "temperature is higher than 29 degrees and humidity is higher than 75 percent"},
	} {
		if err := lex.DefineCondWord(w.name, w.def, "tom"); err != nil {
			t.Fatal(err)
		}
	}
	var cases []goldenCase
	for _, src := range goldenInputs() {
		c := goldenCase{Src: src}
		cmd, err := Parse(src, lex)
		if err != nil {
			c.Err = err.Error()
		} else {
			c.Type = fmt.Sprintf("%T", cmd)
			if c.AST, err = json.Marshal(cmd); err != nil {
				t.Fatalf("marshal %q: %v", src, err)
			}
		}
		expr, err := ParseCondExpr(src, lex)
		if err != nil {
			c.ExprErr = err.Error()
		} else if c.Expr, err = json.Marshal(expr); err != nil {
			t.Fatalf("marshal expr %q: %v", src, err)
		}
		cases = append(cases, c)
	}
	out, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestParseGolden pins the parser's output, byte for byte, on the fuzz
// seeds, the round-trip sources, the Fig. 1 set, the benchmark rule shapes
// and a set of failing inputs. Run with -update-golden to rewrite the file
// after an intended grammar change.
func TestParseGolden(t *testing.T) {
	got := renderGolden(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var gotCases, wantCases []goldenCase
	if err := json.Unmarshal(got, &gotCases); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantCases); err != nil {
		t.Fatal(err)
	}
	if len(gotCases) != len(wantCases) {
		t.Fatalf("golden has %d cases, parser produced %d", len(wantCases), len(gotCases))
	}
	for i := range gotCases {
		g, _ := json.Marshal(gotCases[i])
		w, _ := json.Marshal(wantCases[i])
		if !bytes.Equal(g, w) {
			t.Errorf("case %d differs:\n got: %s\nwant: %s", i, g, w)
		}
	}
	t.Error("parse output differs from " + goldenPath)
}
