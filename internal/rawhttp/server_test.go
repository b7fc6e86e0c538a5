// Server-level tests live in rawhttp_test because they drive the raw
// listener against real fleet hubs (fleet imports rawhttp, so an in-package
// test would cycle). The central instrument is the twin harness: the same
// bytes go to the raw server and to a net/http server running the same sink
// on an identical hub, and both the wire answers and the engine-observed
// state must match.
package rawhttp_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/rawhttp"
)

var testEpoch = time.Date(2005, 3, 7, 18, 0, 0, 0, time.UTC)

func testClock() func() time.Time { return func() time.Time { return testEpoch } }

// hotRule is the paper's example rule 1, minus the user-defined word.
const hotRule = "If temperature is higher than 28 degrees, turn on the air conditioner " +
	"with 25 degrees of temperature setting."

func newHub(t testing.TB, opts ...fleet.HubOption) *fleet.Hub {
	t.Helper()
	h, err := fleet.NewHub(append([]fleet.HubOption{
		fleet.WithClock(testClock()), fleet.WithShards(1),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

func seedHome(t testing.TB, h *fleet.Hub, homes ...string) {
	t.Helper()
	for _, home := range homes {
		if err := h.RegisterUser(home, "tom"); err != nil {
			t.Fatalf("%s: register: %v", home, err)
		}
		if _, err := h.Submit(home, hotRule, "tom"); err != nil {
			t.Fatalf("%s: submit: %v", home, err)
		}
	}
}

// startRaw serves a raw listener for sink and returns its address.
func startRaw(t *testing.T, hub *fleet.Hub, sink *ingest.Sink, opts ...rawhttp.Option) (*rawhttp.Server, string) {
	t.Helper()
	raw := fleet.NewRawIngest(hub, sink, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go raw.Serve(ln)
	t.Cleanup(func() { _ = raw.Close() })
	return raw, ln.Addr().String()
}

// twin is the parity harness: the raw server and a net/http oracle over
// identically configured hubs and sinks.
type twin struct {
	rawHub, oracleHub   *fleet.Hub
	rawAddr, oracleAddr string
	raw                 *rawhttp.Server
}

func newTwin(t *testing.T, limits ingest.Limits, rawOpts ...rawhttp.Option) *twin {
	t.Helper()
	tw := &twin{rawHub: newHub(t), oracleHub: newHub(t)}
	sink := fleet.NewEventSink(tw.rawHub, limits)
	tw.raw, tw.rawAddr = startRaw(t, tw.rawHub, sink, rawOpts...)

	oSink := fleet.NewEventSink(tw.oracleHub, limits)
	oln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	osrv := &http.Server{
		Handler:           fleet.NewHTTPHandler(tw.oracleHub, fleet.WithEventSink(oSink)),
		MaxHeaderBytes:    4 << 10,
		ReadHeaderTimeout: 2 * time.Second,
		ReadTimeout:       5 * time.Second,
	}
	go osrv.Serve(oln)
	t.Cleanup(func() { _ = osrv.Close() })
	tw.oracleAddr = oln.Addr().String()
	return tw
}

// sendBytes writes one connection's worth of raw bytes, half-closes, and
// returns every status code the server answered before hanging up.
func sendBytes(t *testing.T, addr string, payload []byte) []int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	data, _ := io.ReadAll(conn) // until the server closes (or deadline)
	return statuses(data)
}

// statuses extracts the status code of every response status line in data.
func statuses(data []byte) []int {
	var out []int
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSuffix(line, "\r")
		if strings.HasPrefix(line, "HTTP/1.") && len(line) >= 12 {
			if code, err := strconv.Atoi(line[9:12]); err == nil {
				out = append(out, code)
			}
		}
	}
	return out
}

// eventBody builds the standard thermometer body.
func eventBody(temp string, sync bool) string {
	s := `{"deviceType":"` + device.TypeThermometer + `","name":"thermometer","location":"living room","vars":{"temperature":"` + temp + `"}`
	if sync {
		s += `,"sync":true`
	}
	return s + "}"
}

// eventReq builds one well-formed request for the event route.
func eventReq(home, body string, close bool) string {
	s := "POST /fleet/homes/" + home + "/events HTTP/1.1\r\nHost: hub\r\n"
	if close {
		s += "Connection: close\r\n"
	}
	return s + "Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

// compareState asserts the twin hubs observed identical engine state for
// the given homes: fired logs (rule ids and firing times), rule owners, and
// the hub-wide accepted-event count.
func (tw *twin) compareState(t *testing.T, homes ...string) {
	t.Helper()
	tw.quiesce(t)
	for _, home := range homes {
		rLog, err1 := tw.rawHub.Log(home)
		oLog, err2 := tw.oracleHub.Log(home)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(rLog) != len(oLog) {
			t.Fatalf("%s: raw fired %d, oracle fired %d", home, len(rLog), len(oLog))
		}
		for i := range rLog {
			if rLog[i].Rule.ID != oLog[i].Rule.ID || !rLog[i].Time.Equal(oLog[i].Time) {
				t.Fatalf("%s log[%d]: raw %v@%v, oracle %v@%v",
					home, i, rLog[i].Rule.ID, rLog[i].Time, oLog[i].Rule.ID, oLog[i].Time)
			}
		}
		rOwn, _ := tw.rawHub.Owners(home)
		oOwn, _ := tw.oracleHub.Owners(home)
		if !reflect.DeepEqual(rOwn, oOwn) {
			t.Fatalf("%s owners diverge: raw %v, oracle %v", home, rOwn, oOwn)
		}
	}
	rStats, _ := tw.rawHub.Stats()
	oStats, _ := tw.oracleHub.Stats()
	if rStats.Events != oStats.Events {
		t.Fatalf("accepted events: raw %d, oracle %d", rStats.Events, oStats.Events)
	}
}

// TestRawOracleParityTable sends scripted byte streams — valid, malformed,
// pipelined, truncated — to the raw server and the net/http oracle and
// asserts both answer the same status sequence before hanging up.
func TestRawOracleParityTable(t *testing.T) {
	valid := eventReq("h", eventBody("20", false), false)
	validClose := eventReq("h", eventBody("20", false), true)
	bigPad := strings.Repeat("x", 20<<10) // over both 431 caps (raw 4K, oracle 4K+slack)
	overBody := strings.Repeat("x", 70<<10)

	cases := []struct {
		name    string
		payload string
	}{
		{"valid single", validClose},
		{"pipelined trio", valid + valid + validClose},
		{"http10", "POST /fleet/homes/h/events HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}"},
		{"http10 keepalive", "POST /fleet/homes/h/events HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n{}" +
			"POST /fleet/homes/h/events HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}"},
		{"bare lf lines", "POST /fleet/homes/h/events HTTP/1.1\nHost: hub\nConnection: close\nContent-Length: 2\n\n{}"},
		{"query target", "POST /fleet/homes/h/events?x=1 HTTP/1.1\r\nHost: hub\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}"},
		{"double space", "POST  /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\n\r\n"},
		{"bad proto", "POST /fleet/homes/h/events XTTP/1.1\r\nHost: hub\r\n\r\n"},
		{"http2 request line", "POST /fleet/homes/h/events HTTP/2.0\r\nHost: hub\r\n\r\n"},
		{"http09 request line", "POST /fleet/homes/h/events HTTP/0.9\r\nHost: hub\r\n\r\n"},
		{"missing host", "POST /fleet/homes/h/events HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"},
		{"two hosts", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: a\r\nHost: b\r\nContent-Length: 2\r\n\r\n{}"},
		{"cl not digits", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nContent-Length: 2x\r\n\r\n{}"},
		{"cl negative", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nContent-Length: -2\r\n\r\n{}"},
		{"cl plus", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nContent-Length: +2\r\n\r\n{}"},
		{"cl conflict", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}"},
		{"cl duplicate identical", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nConnection: close\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}"},
		{"unknown transfer-encoding", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nTransfer-Encoding: gzip\r\n\r\n"},
		{"header name space", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nBad Header: v\r\n\r\n"},
		{"header space before colon", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nBad : v\r\n\r\n"},
		{"header no colon", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nBadHeader\r\n\r\n"},
		{"fold untracked header", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nX-A: b\r\n  cont\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}"},
		{"bad expect", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nExpect: tomorrow\r\nContent-Length: 2\r\n\r\n{}"},
		{"expect 100-continue", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nExpect: 100-continue\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}"},
		{"oversized head", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nX-Pad: " + bigPad + "\r\n\r\n"},
		{"wrong method keepalive", "GET /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\n\r\n" + validClose},
		{"wrong route", "POST /fleet/nowhere HTTP/1.1\r\nHost: hub\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}"},
		{"wrong route with body drain", "POST /fleet/homes/h/nowhere HTTP/1.1\r\nHost: hub\r\nContent-Length: 10\r\n\r\n0123456789" + validClose},
		{"malformed body", eventReq("h", `{"deviceType":`, false) + validClose},
		{"empty body", eventReq("h", "", false) + validClose},
		{"chunked valid", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nConnection: close\r\nTransfer-Encoding: chunked\r\n\r\n" +
			chunked(eventBody("30", false), 7)},
		{"chunked with extension", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nConnection: close\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"2;ext=1\r\n{}\r\n0\r\n\r\n"},
		{"chunked bad size", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\n{}\r\n0\r\n\r\n"},
		{"chunked bad terminator", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}XX0\r\n\r\n"},
		{"chunked truncated", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{}"},
		{"oversized body", "POST /fleet/homes/h/events HTTP/1.1\r\nHost: hub\r\nContent-Length: " +
			strconv.Itoa(len(overBody)) + "\r\n\r\n" + overBody + validClose},
		{"early eof mid head", "POST /fleet/homes/h/ev"},
		{"early eof mid body", eventReq("h", "{\"deviceType\":\"x\",...............", false)[:90]},
		{"empty connection", ""},
	}
	tw := newTwin(t, ingest.Limits{}, rawhttp.WithMaxHeader(4<<10))
	seedHome(t, tw.rawHub, "h")
	seedHome(t, tw.oracleHub, "h")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := sendBytes(t, tw.rawAddr, []byte(tc.payload))
			oracle := sendBytes(t, tw.oracleAddr, []byte(tc.payload))
			if !reflect.DeepEqual(raw, oracle) {
				t.Fatalf("status sequences diverge:\n  raw    %v\n  oracle %v", raw, oracle)
			}
			tw.quiesce(t)
		})
	}
	tw.compareState(t, "h")
}

// quiesce waits until both hubs have evaluated every event posted so far.
// The table's cases post async events; without a barrier after each case,
// one case's events (chunked valid's 30 crosses hotRule's threshold) can
// share a pass with the next case's 20 on one hub and not on the other, and
// the coalesced pass legitimately skips the firing.
func (tw *twin) quiesce(t *testing.T) {
	t.Helper()
	if err := tw.rawHub.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := tw.oracleHub.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// chunked encodes body as chunked transfer coding with the given chunk size.
func chunked(body string, size int) string {
	var sb strings.Builder
	for len(body) > 0 {
		n := size
		if n > len(body) {
			n = len(body)
		}
		fmt.Fprintf(&sb, "%x\r\n%s\r\n", n, body[:n])
		body = body[n:]
	}
	sb.WriteString("0\r\n\r\n")
	return sb.String()
}

// TestRawOracleAdmissionParity: a token bucket with burst 1 sheds the
// second and third pipelined posts identically on both transports, and the
// raw 429 carries Retry-After like the net/http one.
func TestRawOracleAdmissionParity(t *testing.T) {
	tw := newTwin(t, ingest.Limits{Rate: 0.0001, Burst: 1})
	seedHome(t, tw.rawHub, "h")
	seedHome(t, tw.oracleHub, "h")
	payload := eventReq("h", eventBody("20", false), false) +
		eventReq("h", eventBody("20", false), false) +
		eventReq("h", eventBody("20", false), true)
	raw := sendBytes(t, tw.rawAddr, []byte(payload))
	oracle := sendBytes(t, tw.oracleAddr, []byte(payload))
	want := []int{202, 429, 429}
	if !reflect.DeepEqual(raw, want) || !reflect.DeepEqual(oracle, want) {
		t.Fatalf("raw %v, oracle %v, want %v", raw, oracle, want)
	}

	// Raw shed responses carry the Retry-After hint.
	conn, err := net.Dial("tcp", tw.rawAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	conn.Write([]byte(eventReq("h", eventBody("20", false), true)))
	conn.(*net.TCPConn).CloseWrite()
	data, _ := io.ReadAll(conn)
	if !strings.Contains(string(data), "HTTP/1.1 429") || !strings.Contains(string(data), "Retry-After: ") {
		t.Fatalf("shed response missing Retry-After:\n%s", data)
	}
	tw.compareState(t, "h")
}

// TestRawOracleKnownDivergences pins the deliberate routing divergences
// (documented in README.md): net/http's ServeMux path-cleans an empty home
// segment into a 301 redirect and decodes percent-escapes, and the full
// handler serves the whole fleet API; the raw front end answers 404 for all
// three — it refuses the path ambiguity and serves only the ingest route.
func TestRawOracleKnownDivergences(t *testing.T) {
	tw := newTwin(t, ingest.Limits{})
	cases := []struct {
		name                string
		payload             string
		wantRaw, wantOracle []int
	}{
		{"empty home segment", "POST /fleet/homes//events HTTP/1.1\r\nHost: hub\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
			[]int{404}, []int{301}},
		{"percent-escaped home", "POST /fleet/homes/h%31/events HTTP/1.1\r\nHost: hub\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
			[]int{404}, []int{202}},
		{"non-ingest fleet route", "POST /fleet/homes/h/trace HTTP/1.1\r\nHost: hub\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
			[]int{404}, []int{405}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := sendBytes(t, tw.rawAddr, []byte(tc.payload)); !reflect.DeepEqual(got, tc.wantRaw) {
				t.Errorf("raw: %v, want %v", got, tc.wantRaw)
			}
			if got := sendBytes(t, tw.oracleAddr, []byte(tc.payload)); !reflect.DeepEqual(got, tc.wantOracle) {
				t.Errorf("oracle: %v, want %v", got, tc.wantOracle)
			}
		})
	}
}

// TestRawOracleEquivalenceRandomized drives both transports with the same
// seeded-random mix of valid, malformed, misrouted, chunked, sync and no-op
// requests over pipelined keep-alive connections, then asserts
// status-sequence and engine-state equivalence.
//
// Rule-observable temperature changes ride only on sync posts: the hub
// coalesces async backlogs into one evaluation pass per drain, so the
// number of edge-triggered firings produced by an async threshold crossing
// depends on drain timing — on purpose. Async coverage here uses events
// whose variables no rule observes, which keeps both the 202 wire path and
// engine-state determinism.
func TestRawOracleEquivalenceRandomized(t *testing.T) {
	tw := newTwin(t, ingest.Limits{})
	homes := []string{"alpha", "beta", "gamma"}
	seedHome(t, tw.rawHub, homes...)
	seedHome(t, tw.oracleHub, homes...)

	rng := rand.New(rand.NewSource(7))
	temps := []string{"20", "25", "29", "31", "33.5"}
	noop := `{"deviceType":"` + device.TypeThermometer + `","name":"thermometer","location":"living room","vars":{"mode":"eco"}}`
	genReq := func(home string, close bool) string {
		switch rng.Intn(10) {
		case 0: // malformed body
			return eventReq(home, `{"deviceType":"x"`, close)
		case 1: // empty body
			return eventReq(home, "", close)
		case 2: // wrong route, body drained
			s := "POST /fleet/homes/" + home + "/nowhere HTTP/1.1\r\nHost: hub\r\n"
			if close {
				s += "Connection: close\r\n"
			}
			return s + "Content-Length: 4\r\n\r\nabcd"
		case 3: // wrong method
			s := "GET /fleet/homes/" + home + "/events HTTP/1.1\r\nHost: hub\r\n"
			if close {
				s += "Connection: close\r\n"
			}
			return s + "\r\n"
		case 4: // chunked sync event
			s := "POST /fleet/homes/" + home + "/events HTTP/1.1\r\nHost: hub\r\n"
			if close {
				s += "Connection: close\r\n"
			}
			return s + "Transfer-Encoding: chunked\r\n\r\n" +
				chunked(eventBody(temps[rng.Intn(len(temps))], true), 1+rng.Intn(20))
		case 5, 6: // steady-state async: decodes fine, no rule-visible vars
			return eventReq(home, noop, close)
		default: // sync event; may cross the firing threshold either way
			return eventReq(home, eventBody(temps[rng.Intn(len(temps))], true), close)
		}
	}

	for conn := 0; conn < 40; conn++ {
		home := homes[rng.Intn(len(homes))]
		n := 1 + rng.Intn(8)
		var payload strings.Builder
		for i := 0; i < n; i++ {
			payload.WriteString(genReq(home, i == n-1))
		}
		raw := sendBytes(t, tw.rawAddr, []byte(payload.String()))
		oracle := sendBytes(t, tw.oracleAddr, []byte(payload.String()))
		if !reflect.DeepEqual(raw, oracle) {
			t.Fatalf("conn %d (%s): status sequences diverge:\n  raw    %v\n  oracle %v\npayload:\n%s",
				conn, home, raw, oracle, payload.String())
		}
	}
	tw.compareState(t, homes...)
}

// TestRawShutdownDrain: Shutdown pokes idle keep-alive connections closed,
// lets a mid-request connection finish (its response carries Connection:
// close), and returns once both are gone.
func TestRawShutdownDrain(t *testing.T) {
	hub := newHub(t)
	seedHome(t, hub, "h")
	raw, addr := startRaw(t, hub, fleet.NewEventSink(hub, ingest.Limits{}))

	// Idle connection: one request served, then parked between requests.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idle.SetDeadline(time.Now().Add(5 * time.Second))
	idle.Write([]byte(eventReq("h", eventBody("20", false), false)))
	buf := make([]byte, 4096)
	if n, _ := idle.Read(buf); !strings.HasPrefix(string(buf[:n]), "HTTP/1.1 202") {
		t.Fatalf("idle conn first response: %q", buf[:n])
	}

	// In-flight connection: the head is half-written when shutdown starts.
	inflight, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer inflight.Close()
	inflight.SetDeadline(time.Now().Add(5 * time.Second))
	full := eventReq("h", eventBody("31", true), false)
	inflight.Write([]byte(full[:30]))
	time.Sleep(20 * time.Millisecond) // let the server start reading the head

	shutErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	go func() { shutErr <- raw.Shutdown(ctx) }()

	// The idle connection is poked awake and closed without a response.
	if n, err := idle.Read(buf); err != io.EOF {
		t.Fatalf("idle conn after shutdown: n=%d err=%v, want EOF", n, err)
	}

	// The in-flight request still completes — and is told to go away.
	time.Sleep(20 * time.Millisecond)
	inflight.Write([]byte(full[30:]))
	data, _ := io.ReadAll(inflight)
	resp := string(data)
	if !strings.HasPrefix(resp, "HTTP/1.1 200") {
		t.Fatalf("in-flight response during drain: %q", resp)
	}
	if !strings.Contains(resp, "Connection: close") {
		t.Fatalf("drain response must announce the close:\n%s", resp)
	}
	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Accepted events survived the drain: the sync 31° post fired the rule.
	if log, err := hub.Log("h"); err != nil || len(log) != 1 {
		t.Fatalf("log after drain = %v, %v (want the one firing)", log, err)
	}

	// New connections are refused after shutdown.
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatal("dial succeeded after Shutdown closed the listener")
	}
}

// TestRawConnMetrics: accepted/active/reuse/parse-error/timeout counters
// move on the sharded stripes.
func TestRawConnMetrics(t *testing.T) {
	hub := newHub(t)
	seedHome(t, hub, "h")
	m := obs.New(4)
	sink := fleet.NewEventSink(hub, ingest.Limits{})
	raw := rawhttp.NewServer(sink,
		rawhttp.WithMetrics(m), rawhttp.WithReadHeaderTimeout(80*time.Millisecond))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go raw.Serve(ln)
	t.Cleanup(func() { _ = raw.Close() })
	addr := ln.Addr().String()

	// Two requests on one keep-alive connection: 1 reuse.
	if got := sendBytes(t, addr, []byte(eventReq("h", eventBody("20", false), false)+
		eventReq("h", eventBody("20", false), true))); !reflect.DeepEqual(got, []int{202, 202}) {
		t.Fatalf("keep-alive pair: %v", got)
	}
	// One malformed head: 1 parse error.
	if got := sendBytes(t, addr, []byte("BAD\r\n\r\n")); !reflect.DeepEqual(got, []int{400}) {
		t.Fatalf("malformed head: %v", got)
	}
	// One stalled head: 1 read timeout (the 80ms header deadline fires).
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slow.SetDeadline(time.Now().Add(5 * time.Second))
	slow.Write([]byte("POST /fleet/homes/h/ev"))
	data, _ := io.ReadAll(slow)
	if !strings.Contains(string(data), "HTTP/1.1 408") {
		t.Fatalf("stalled head answer: %q", data)
	}

	var accepted, reuse, parseErrs, timeouts uint64
	var active int64
	for i := 0; i < m.NumShards(); i++ {
		cm := &m.Shard(i).Conn
		accepted += cm.ConnsAccepted.Load()
		reuse += cm.KeepaliveReuse.Load()
		parseErrs += cm.ParseErrors.Load()
		timeouts += cm.ReadTimeouts.Load()
		active += cm.ConnsActive.Load()
	}
	if accepted != 3 || reuse != 1 || parseErrs != 1 || timeouts != 1 {
		t.Fatalf("accepted=%d reuse=%d parseErrs=%d timeouts=%d, want 3/1/1/1",
			accepted, reuse, parseErrs, timeouts)
	}
	// The conn goroutines decrement active on their way out; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for active != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		active = 0
		for i := 0; i < m.NumShards(); i++ {
			active += m.Shard(i).Conn.ConnsActive.Load()
		}
	}
	if active != 0 {
		t.Fatalf("active connections = %d after close, want 0", active)
	}
}

// rawClient is a zero-alloc loopback client for the alloc test and the
// benchmarks: prebuilt request bytes out, fixed-size responses back.
type rawClient struct {
	conn net.Conn
	req  []byte
	buf  []byte
}

func newRawClient(t testing.TB, addr, home string, sync bool) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Minute))
	body := eventBody("31", sync)
	return &rawClient{conn: conn, req: []byte(eventReq(home, body, false)), buf: make([]byte, 4096)}
}

// roundTrip sends n pipelined copies of the request and reads n responses,
// returning false on any non-2xx.
func (c *rawClient) roundTrip(n int) bool {
	for i := 0; i < n; i++ {
		if _, err := c.conn.Write(c.req); err != nil {
			return false
		}
	}
	got := 0
	fill := 0
	for got < n {
		m, err := c.conn.Read(c.buf[fill:])
		if err != nil {
			return false
		}
		fill += m
		// Responses are header-only; count terminators in place.
		for i := 0; i+3 < fill; i++ {
			if c.buf[i] == '\r' && c.buf[i+1] == '\n' && c.buf[i+2] == '\r' && c.buf[i+3] == '\n' {
				got++
				i += 3
			}
		}
		if got < n {
			continue
		}
		if c.buf[9] != '2' { // "HTTP/1.1 2xx"
			return false
		}
		fill = 0
	}
	return true
}

// rawRequestServer serves home "h" (tom and the hot rule) of a one-shard
// hub through the raw front end with metrics on, and returns its address.
func rawRequestServer(tb testing.TB) string {
	hub := newHub(tb)
	seedHome(tb, hub, "h")
	sink := fleet.NewEventSink(hub, ingest.Limits{Rate: 1e9, Burst: 1e9})
	raw := rawhttp.NewServer(sink, rawhttp.WithMetrics(obs.New(1)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go raw.Serve(ln)
	tb.Cleanup(func() { _ = raw.Close() })
	return ln.Addr().String()
}

// rawRequestLoop dials addr, warms the pools, buffers, interned home and map
// sizes, and returns the loop body of BenchmarkRawServerRequest: depth sync
// events pipelined in one write, and their responses. A sync event's ack
// waits for evaluation, so the pooled event is back in the pool before the
// next request — fully deterministic reuse.
func rawRequestLoop(tb testing.TB, addr string, depth int) func() {
	c := newRawClient(tb, addr, "h", true)
	for i := 0; i < 100; i++ {
		if !c.roundTrip(depth) {
			tb.Fatal("warmup round trip failed")
		}
	}
	return func() {
		if !c.roundTrip(depth) {
			tb.Fatal("round trip failed")
		}
	}
}

// TestRawRequestZeroAlloc is the raw transport's allocation gate: the
// steady-state raw request path — parse, route, admit, body, decode, post,
// evaluate, respond — performs zero heap allocations per event, one request
// per write and 16 pipelined, measured across the whole process (client
// included).
func TestRawRequestZeroAlloc(t *testing.T) {
	if alloctest.Race {
		t.Skip("allocation counts are unreliable under -race")
	}
	addr := rawRequestServer(t)
	for _, depth := range []int{1, 16} {
		if n, _ := alloctest.PerCall(300, rawRequestLoop(t, addr, depth)); n != 0 {
			t.Fatalf("raw request path allocates %v per round trip of %d requests, want 0", n, depth)
		}
	}
}

// BenchmarkRawServerRequest measures the raw transport end to end over
// loopback TCP with the zero-alloc client, one request per write (sync) and
// 16 per write (pipelined16, the batched-flush path). TestRawRequestZeroAlloc
// holds both loops at 0 allocs.
func BenchmarkRawServerRequest(b *testing.B) {
	addr := rawRequestServer(b)
	for _, bench := range []struct {
		name  string
		depth int
	}{{"sync", 1}, {"pipelined16", 16}} {
		b.Run(bench.name, func(b *testing.B) {
			body := rawRequestLoop(b, addr, bench.depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += bench.depth {
				body()
			}
		})
	}
}
