package vocab

import (
	"strconv"
	"sync"
)

// Default returns the English CADEL lexicon with the verbs, states,
// parameters, units, places and period names used throughout the paper's
// examples (Sect. 3.1, 4.2 and Fig. 1). Other natural languages can be
// supported by building a different table, as the paper notes.
//
// The built-in entries live in one frozen base shared by every Default
// lexicon, so the call is cheap; each result starts with an empty overlay of
// its own for the persons and words it adds.
func Default() *Lexicon {
	return &Lexicon{base: defaultBase()}
}

// defaultBase builds the shared built-in layer once per process.
var defaultBase = sync.OnceValue(func() *table { return &buildDefault().own })

// buildDefault builds the built-in tables as a flat lexicon.
func buildDefault() *Lexicon {
	l := New()

	verbs := []struct{ phrase, canon string }{
		{"turn on", "turn-on"},
		{"switch on", "turn-on"},
		{"turn off", "turn-off"},
		{"switch off", "turn-off"},
		{"record", "record"},
		{"play", "play"},
		{"play back", "play"},
		{"stop", "stop"},
		{"pause", "pause"},
		{"set", "set"},
		{"adjust", "set"},
		{"lock", "lock"},
		{"unlock", "unlock"},
		{"open", "open"},
		{"close", "close"},
		{"dim", "dim"},
		{"brighten", "brighten"},
		{"mute", "mute"},
		{"show", "show"},
		{"notify", "notify"},
	}
	for _, v := range verbs {
		l.MustAdd(Entry{Phrase: v.phrase, Kind: KindVerb, Canon: v.canon})
	}

	boolState := func(phrase, variable string, val bool) Entry {
		return Entry{
			Phrase: phrase,
			Kind:   KindState,
			Canon:  variable + "=" + strconv.FormatBool(val),
			Meta: map[string]string{
				MetaStateKind: string(StateBool),
				MetaVar:       variable,
				MetaBool:      strconv.FormatBool(val),
			},
		}
	}
	compareState := func(phrase, op string) Entry {
		return Entry{
			Phrase: phrase,
			Kind:   KindState,
			Canon:  "cmp-" + op + "-" + Normalize(phrase),
			Meta: map[string]string{
				MetaStateKind: string(StateCompare),
				MetaOp:        op,
			},
		}
	}
	arrivalState := func(phrase, event string) Entry {
		return Entry{
			Phrase: phrase,
			Kind:   KindState,
			Canon:  "arrive-" + event,
			Meta: map[string]string{
				MetaStateKind: string(StateArrival),
				MetaEvent:     event,
			},
		}
	}

	states := []Entry{
		boolState("turned on", "power", true),
		boolState("on", "power", true),
		boolState("turned off", "power", false),
		boolState("off", "power", false),
		boolState("dark", "dark", true),
		boolState("bright", "dark", false),
		boolState("locked", "locked", true),
		boolState("unlocked", "locked", false),
		boolState("open", "open", true),
		boolState("opened", "open", true),
		boolState("closed", "open", false),
		boolState("empty", "occupied", false),
		boolState("occupied", "occupied", true),
		boolState("playing", "playing", true),
		boolState("recording", "recording", true),

		compareState("higher than", "gt"),
		compareState("greater than", "gt"),
		compareState("more than", "gt"),
		compareState("hotter than", "gt"),
		compareState("warmer than", "gt"),
		compareState("over", "gt"),
		compareState("above", "gt"),
		compareState("at least", "ge"),
		compareState("lower than", "lt"),
		compareState("less than", "lt"),
		compareState("colder than", "lt"),
		compareState("cooler than", "lt"),
		compareState("under", "lt"),
		compareState("below", "lt"),
		compareState("at most", "le"),
		compareState("exactly", "eq"),

		{
			Phrase: "at", Kind: KindState, Canon: "presence-at",
			Meta: map[string]string{MetaStateKind: string(StatePresence)},
		},
		{
			Phrase: "in", Kind: KindState, Canon: "presence-in",
			Meta: map[string]string{MetaStateKind: string(StatePresence)},
		},

		arrivalState("comes back", "come-back"),
		arrivalState("returns home", "return-home"),
		arrivalState("return home", "return-home"),
		arrivalState("comes home", "return-home"),
		arrivalState("got home from work", "home-from-work"),
		arrivalState("gets home from work", "home-from-work"),
		arrivalState("got home from shopping", "home-from-shopping"),
		arrivalState("gets home from shopping", "home-from-shopping"),
		arrivalState("goes out", "go-out"),
		arrivalState("leaves home", "go-out"),

		{
			Phrase: "on air", Kind: KindState, Canon: "on-air",
			Meta: map[string]string{MetaStateKind: string(StateOnAir)},
		},
	}
	for _, s := range states {
		l.MustAdd(s)
	}

	params := []struct{ phrase, variable, unit string }{
		{"temperature", "temperature", "celsius"},
		{"humidity", "humidity", "percent"},
		{"channel", "channel", "channel"},
		{"volume", "volume", "percent"},
		{"brightness", "brightness", "percent"},
		{"mode", "mode", "word"},
		{"illuminance", "illuminance", "lux"},
		{"timer", "timer", "second"},
	}
	for _, p := range params {
		l.MustAdd(Entry{
			Phrase: p.phrase, Kind: KindParameter, Canon: p.variable,
			Meta: map[string]string{MetaVar: p.variable, MetaUnitCanon: p.unit},
		})
	}

	units := []struct {
		phrase, canon string
		scale         float64
	}{
		{"degrees", "celsius", 1},
		{"degree", "celsius", 1},
		{"degrees celsius", "celsius", 1},
		{"degrees fahrenheit", "fahrenheit", 1},
		{"percent", "percent", 1},
		{"lux", "lux", 1},
		{"seconds", "second", 1},
		{"second", "second", 1},
		{"minutes", "second", 60},
		{"minute", "second", 60},
		{"hours", "second", 3600},
		{"hour", "second", 3600},
	}
	for _, u := range units {
		l.MustAdd(Entry{
			Phrase: u.phrase, Kind: KindUnit, Canon: u.canon,
			Meta: map[string]string{
				MetaUnitCanon: u.canon,
				MetaScale:     strconv.FormatFloat(u.scale, 'g', -1, 64),
			},
		})
	}

	places := []string{
		"living room", "kitchen", "bedroom", "bathroom", "hall", "entrance",
		"garage", "garden", "second floor", "first floor", "home", "study",
	}
	for _, p := range places {
		l.MustAdd(Entry{Phrase: p, Kind: KindPlace, Canon: Normalize(p)})
	}

	periods := []struct {
		phrase   string
		from, to int // minutes since midnight; to may wrap past midnight
	}{
		{"morning", 6 * 60, 11 * 60},
		{"noon", 11 * 60, 13 * 60},
		{"afternoon", 13 * 60, 17 * 60},
		{"evening", 17 * 60, 22 * 60},
		{"night", 22 * 60, 30 * 60}, // 22:00-06:00, wraps midnight
		{"midnight", 0, 1 * 60},
		{"daytime", 9 * 60, 17 * 60},
	}
	for _, p := range periods {
		l.MustAdd(Entry{
			Phrase: p.phrase, Kind: KindPeriodName, Canon: p.phrase,
			Meta: map[string]string{
				MetaFromMin: strconv.Itoa(p.from),
				MetaToMin:   strconv.Itoa(p.to),
			},
		})
	}

	weekdays := []struct {
		phrase string
		day    int
	}{
		{"sunday", 0}, {"monday", 1}, {"tuesday", 2}, {"wednesday", 3},
		{"thursday", 4}, {"friday", 5}, {"saturday", 6},
	}
	for _, w := range weekdays {
		l.MustAdd(Entry{
			Phrase: w.phrase, Kind: KindWeekday, Canon: w.phrase,
			Meta: map[string]string{MetaDay: strconv.Itoa(w.day)},
		})
	}

	events := []string{"baseball game", "movie", "news", "weather forecast", "drama"}
	for _, e := range events {
		l.MustAdd(Entry{Phrase: e, Kind: KindEvent, Canon: Normalize(e)})
	}

	return l
}
