package ingest

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/obs"
)

// oracleEvent mirrors the request struct of the encoding/json reference
// event handler in the fleet tests; the decoder must observe exactly what
// encoding/json would decode into it.
type oracleEvent struct {
	DeviceType string            `json:"deviceType"`
	Name       string            `json:"name"`
	Location   string            `json:"location"`
	Vars       map[string]string `json:"vars"`
	Sync       bool              `json:"sync"`
}

// decodeOracle runs the oracle path: json.Decoder.Decode, as the reference
// handler does (NOT Unmarshal — the Decoder ignores trailing bytes after the
// first value, and the fast decoder mirrors that).
func decodeOracle(body []byte) (oracleEvent, error) {
	var req oracleEvent
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

func normVars(ev *Event) map[string]string {
	m := map[string]string{}
	for _, v := range ev.Vars {
		m[string(v.Key)] = string(v.Value)
	}
	return m
}

func normOracleVars(vars map[string]string) map[string]string {
	if vars == nil {
		return map[string]string{}
	}
	return vars
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// checkEquivalence decodes body on both paths and fails unless they agree on
// error-ness and, on success, on every observed field.
func checkEquivalence(t *testing.T, ev *Event, body []byte) {
	t.Helper()
	want, wantErr := decodeOracle(body)
	gotErr := ev.Decode(body)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("body %q: oracle err=%v, fast err=%v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if got := string(ev.DeviceType); got != want.DeviceType {
		t.Errorf("body %q: deviceType = %q, oracle %q", body, got, want.DeviceType)
	}
	if got := string(ev.Name); got != want.Name {
		t.Errorf("body %q: name = %q, oracle %q", body, got, want.Name)
	}
	if got := string(ev.Location); got != want.Location {
		t.Errorf("body %q: location = %q, oracle %q", body, got, want.Location)
	}
	if ev.Sync != want.Sync {
		t.Errorf("body %q: sync = %v, oracle %v", body, ev.Sync, want.Sync)
	}
	if g, w := normVars(ev), normOracleVars(want.Vars); !mapsEqual(g, w) {
		t.Errorf("body %q: vars = %v, oracle %v", body, g, w)
	}
}

var decodeCases = []string{
	// Steady-state shapes.
	`{"deviceType":"thermometer","name":"living room sensor","location":"living room","vars":{"temperature":"21.5"}}`,
	`{"deviceType":"motion","name":"hall","location":"hall","vars":{"presence-alice":"hall"},"sync":true}`,
	`{"deviceType":"tv","name":"tv","location":"living room","vars":{"power":"1","event":"alice|watch tv"}}`,
	// Whitespace, ordering, empty members.
	"{}",
	" \t\r\n{ \"name\" : \"x\" } ",
	`{"vars":{}}`,
	`{"sync":false,"location":"kitchen"}`,
	// Case-insensitive field match (ASCII fold only).
	`{"DEVICETYPE":"a","NaMe":"b","LOCATION":"c","VARS":{"k":"v"},"SYNC":true}`,
	`{"devıcetype":"dotless-i must not match"}`,
	// Null semantics.
	`null`,
	`{"name":null}`,
	`{"name":"kept","name":null}`,
	`{"vars":null}`,
	`{"vars":{"a":"x"},"vars":null}`,
	`{"vars":null,"vars":{"a":"x"}}`,
	`{"vars":{"a":null}}`,
	`{"vars":{"a":"x","a":null}}`,
	`{"sync":null}`,
	`{"sync":true,"sync":null}`,
	// Duplicate keys overwrite / merge.
	`{"name":"a","name":"b"}`,
	`{"vars":{"k":"1","k":"2"}}`,
	`{"vars":{"a":"1"},"vars":{"b":"2"}}`,
	// Unknown fields are validated and skipped.
	`{"extra":[1,2,{"x":[true,null]}],"name":"after"}`,
	`{"extra":-12.5e+3}`,
	`{"extra":0.0}`,
	`{"unknown":"v","vars":{"k":"v"}}`,
	// Escapes and unicode.
	`{"name":"tab\tquote\"backslash\\slash\/"}`,
	`{"name":"Aé中"}`,
	`{"name":"😀"}`,
	`{"name":"\ud800"}`,
	`{"name":"\ud800\ud800"}`,
	`{"name":"\ud800A"}`,
	`{"name":"\udc00😀"}`,
	`{"name":"café ☕"}`,
	`{"vars":{"k":"v"}}`,
	// Invalid UTF-8 coerced to U+FFFD.
	"{\"name\":\"a\xffb\"}",
	"{\"name\":\"\xc3\x28\"}",
	"{\"vars\":{\"k\xf0\x28\":\"v\xed\xa0\x80\"}}",
	// Trailing bytes after the first value are ignored (Decoder semantics).
	`{"name":"x"} trailing garbage`,
	`null!!!`,
	`{} {"name":"second value ignored"}`,
	// Errors: malformed syntax.
	``,
	`   `,
	`{`,
	`{"name"`,
	`{"name":}`,
	`{"name":"x",}`,
	`{"name":"x"`,
	`{,}`,
	`{"a":1e}`,
	`{"a":01}`,
	`{"a":-}`,
	`{"a":.5}`,
	`{"a":1.}`,
	`{"a":+1}`,
	`{"name":"unterminated`,
	`{"name":"bad \x escape"}`,
	`{"name":"bad \u00zz"}`,
	"{\"name\":\"ctrl \x01\"}",
	`nul`,
	`tru`,
	// Errors: type mismatches.
	`5`,
	`"string"`,
	`[1]`,
	`true`,
	`{"name":5}`,
	`{"name":true}`,
	`{"name":["x"]}`,
	`{"sync":"true"}`,
	`{"sync":1}`,
	`{"vars":"notobj"}`,
	`{"vars":["a"]}`,
	`{"vars":{"k":5}}`,
	`{"vars":{"k":{"nested":"v"}}}`,
	`{"vars":{"k":true}}`,
}

func TestDecodeEquivalenceTable(t *testing.T) {
	ev := AcquireEvent()
	defer ev.Release()
	for _, body := range decodeCases {
		checkEquivalence(t, ev, []byte(body))
	}
}

func TestDecodeDeepNesting(t *testing.T) {
	ev := AcquireEvent()
	defer ev.Release()
	// Within the limit: skipped cleanly.
	ok := `{"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`
	if err := ev.Decode([]byte(ok)); err != nil {
		t.Fatalf("depth-100 unknown field: %v", err)
	}
	// Far beyond it: rejected rather than exhausting the stack.
	deep := `{"x":` + strings.Repeat("[", maxNestingDepth+10) + strings.Repeat("]", maxNestingDepth+10) + `}`
	if err := ev.Decode([]byte(deep)); err == nil {
		t.Fatal("expected nesting-depth error")
	}
}

func TestDecodeReuse(t *testing.T) {
	// A pooled event must not leak fields or scratch between decodes.
	ev := AcquireEvent()
	defer ev.Release()
	if err := ev.Decode([]byte(`{"deviceType":"a","name":"esc\n","location":"c","vars":{"k":"v"},"sync":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := ev.Decode([]byte(`{"name":"only"}`)); err != nil {
		t.Fatal(err)
	}
	if ev.DeviceType != nil || ev.Location != nil || len(ev.Vars) != 0 || ev.Sync {
		t.Fatalf("stale fields survived reuse: %+v", ev)
	}
	if string(ev.Name) != "only" {
		t.Fatalf("name = %q", ev.Name)
	}
}

// TestDecodeRandomized fuzzes the decoder against the oracle with bodies
// assembled from grammar fragments that exercise every branch.
func TestDecodeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := []string{"deviceType", "name", "location", "vars", "sync", "NAME", "Vars", "unknown", "devicetype", ""}
	strs := []string{`"a"`, `""`, `"café"`, `"\ud800"`, `"😀"`, "\"\xff\"", `"with space"`, `"q\""`, `null`}
	vals := []string{`"v"`, `null`, `true`, `false`, `5`, `-1.5e3`, `[1,"x"]`, `{"n":[]}`, `01`, `1.`, `{`, `"unterminated`}
	ev := AcquireEvent()
	defer ev.Release()
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		sb.Reset()
		sb.WriteByte('{')
		n := rng.Intn(5)
		for j := 0; j < n; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			k := keys[rng.Intn(len(keys))]
			sb.WriteString(`"` + k + `":`)
			switch k {
			case "vars", "Vars":
				if rng.Intn(4) == 0 {
					sb.WriteString(vals[rng.Intn(len(vals))])
				} else {
					sb.WriteByte('{')
					m := rng.Intn(3)
					for x := 0; x < m; x++ {
						if x > 0 {
							sb.WriteByte(',')
						}
						sb.WriteString(`"k` + string(rune('a'+rng.Intn(3))) + `":`)
						sb.WriteString(strs[rng.Intn(len(strs))])
					}
					sb.WriteByte('}')
				}
			case "sync":
				sb.WriteString([]string{`true`, `false`, `null`, `"x"`, `1`}[rng.Intn(5)])
			default:
				if rng.Intn(4) == 0 {
					sb.WriteString(vals[rng.Intn(len(vals))])
				} else {
					sb.WriteString(strs[rng.Intn(len(strs))])
				}
			}
		}
		sb.WriteByte('}')
		body := []byte(sb.String())
		// Occasionally truncate or append garbage.
		switch rng.Intn(10) {
		case 0:
			if len(body) > 1 {
				body = body[:rng.Intn(len(body))]
			}
		case 1:
			body = append(body, " x"...)
		}
		checkEquivalence(t, ev, body)
	}
}

// FuzzDecodeEquivalence holds the fast decoder to json.Decoder semantics on
// arbitrary bytes.
func FuzzDecodeEquivalence(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ev := AcquireEvent()
		defer ev.Release()
		checkEquivalence(t, ev, body)
	})
}

var benchBody = []byte(`{"deviceType":"thermometer","name":"living room sensor","location":"living room","vars":{"temperature":"21.5","humidity":"40"},"sync":false}`)

// decodeLoop returns the loop body of BenchmarkDecodeEvent: decode the
// steady-state event shape into one pooled event and record it in the
// ingest metrics, as the instrumented sink does.
func decodeLoop(tb testing.TB) func() {
	ev := AcquireEvent()
	tb.Cleanup(ev.Release)
	im := obs.New(4).IngestShard("home-000042")
	return func() {
		t0 := time.Now()
		if err := ev.Decode(benchBody); err != nil {
			tb.Fatal(err)
		}
		im.DecodeNs.Observe(uint64(time.Since(t0)))
		im.EventsDecoded.Inc()
	}
}

// TestDecodeZeroAlloc holds the steady-state decode at 0 allocs, bare and
// with the ingest metrics recording (BenchmarkDecodeEvent's loop).
func TestDecodeZeroAlloc(t *testing.T) {
	if alloctest.Race {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	ev := AcquireEvent()
	defer ev.Release()
	allocs, _ := alloctest.PerCall(300, func() {
		if err := ev.Decode(benchBody); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocated %v allocs/op, want 0", allocs)
	}
	if allocs, _ := alloctest.PerCall(300, decodeLoop(t)); allocs != 0 {
		t.Fatalf("instrumented steady-state decode allocated %v allocs/op, want 0", allocs)
	}
}

// BenchmarkDecodeEvent times the steady-state event shape's decode with
// ingest metrics recording, as the instrumented sink path does;
// TestDecodeZeroAlloc holds the same loop at 0 allocs/op.
func BenchmarkDecodeEvent(b *testing.B) {
	body := decodeLoop(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(benchBody)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

func BenchmarkDecodeEventOracle(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(benchBody)))
	for i := 0; i < b.N; i++ {
		var req oracleEvent
		if err := json.NewDecoder(bytes.NewReader(benchBody)).Decode(&req); err != nil {
			b.Fatal(err)
		}
	}
}
