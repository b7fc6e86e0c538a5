// Package rawhttp is the fleet's raw-socket HTTP/1.1 ingest front end: a
// minimal server for the one route that matters at fleet scale —
// POST /fleet/homes/{home}/events — that takes the wire path past net/http.
//
// net/http spends the ingest budget before the sink ever runs: an
// *http.Request and header map per request, canonicalized header strings, a
// bufio pair per connection, and response bookkeeping. This package replaces
// that front door for the hot route only: each connection goroutine owns one
// reusable read buffer and one reusable write buffer, the request head is
// parsed in place as byte slices (case-insensitive header matches without
// canonicalization, no maps, no strings), the body lands directly in a
// pooled ingest.Event, and responses are canned status lines. The
// steady-state request path allocates nothing.
//
// The net/http transport stays registered on the stock API server as the
// behavioral oracle: the same bytes must produce the same statuses and the
// same engine-observed state on either path (see the parity suites in
// server_test.go and internal/rawhttp/README.md for what is deliberately
// not supported).
package rawhttp

import (
	"errors"
	"strconv"
)

// ErrIncomplete reports that the buffer does not yet hold a full request
// head (no terminating blank line); the caller should read more bytes.
var ErrIncomplete = errors.New("rawhttp: incomplete request head")

// ParseError reports a malformed request head and the HTTP status the
// connection answers before closing.
type ParseError struct {
	Status int
	Msg    string
}

func (e *ParseError) Error() string {
	return "rawhttp: " + strconv.Itoa(e.Status) + " " + e.Msg
}

// Preallocated parse errors: the parser itself never allocates, not even on
// the reject path — a fuzzer or a hostile peer churning malformed heads
// should not be able to make the server allocate per attempt.
var (
	errBadRequestLine = &ParseError{Status: 400, Msg: "malformed request line"}
	errBadVersion     = &ParseError{Status: 505, Msg: "unsupported HTTP version"}
	errBadHeader      = &ParseError{Status: 400, Msg: "malformed header line"}
	errBadLength      = &ParseError{Status: 400, Msg: "bad Content-Length"}
	errLengthConflict = &ParseError{Status: 400, Msg: "conflicting Content-Length headers"}
	errUnsupportedTE  = &ParseError{Status: 501, Msg: "unsupported transfer encoding"}
	errMissingHost    = &ParseError{Status: 400, Msg: "missing required Host header"}
	errManyHosts      = &ParseError{Status: 400, Msg: "multiple Host headers"}
	errBadExpect      = &ParseError{Status: 417, Msg: "unsupported Expect"}
	errBadFold        = &ParseError{Status: 400, Msg: "folded framing header"}
)

// Request is one parsed HTTP/1.1 request head. Every byte-slice field
// aliases the connection's read buffer: it is valid until the next request
// is read on that connection and must not be retained.
type Request struct {
	Method []byte
	Target []byte // origin-form request target, query included
	Minor  int    // protocol minor version: HTTP/1.Minor

	// ContentLength is the declared body length; -1 means no
	// Content-Length header was present. Ignored when Chunked.
	ContentLength int64
	// Chunked marks a Transfer-Encoding: chunked body.
	Chunked bool
	// Close reports whether the connection must close after this exchange:
	// an explicit Connection: close, or HTTP/1.0 without keep-alive.
	Close bool
	// Expect100 marks Expect: 100-continue; the server owes an interim 100
	// before it reads the body.
	Expect100 bool
}

// ParseRequest parses one request head from buf in a single forward scan,
// filling req with slices into buf. It returns the number of bytes consumed
// through the head's terminating blank line. ErrIncomplete means buf does
// not yet hold a complete head; a *ParseError carries the status to answer
// before closing. Grammar quirks mirror net/http where they matter for
// transport parity: bare-LF line endings are accepted, header names must be
// valid tokens, Content-Length must be all digits with conflicting repeats
// rejected (identical repeats allowed), chunked overrides Content-Length,
// HTTP/1.1 requires a Host header, and folded continuation lines are
// tolerated only for headers the framing does not depend on.
func ParseRequest(buf []byte, req *Request) (int, error) {
	*req = Request{ContentLength: -1}

	p, n, ok := nextLine(buf, 0)
	if !ok {
		return 0, ErrIncomplete
	}
	if err := parseRequestLine(buf[:n], req); err != nil {
		return 0, err
	}

	var (
		keepAlive bool // explicit Connection: keep-alive (HTTP/1.0)
		hasHost   bool // at least one Host header seen
		sawCL     bool // a Content-Length header already parsed
		lastFramy bool // previous header line was framing-sensitive
	)
	for {
		lineStart := p
		var lineEnd int
		p, lineEnd, ok = nextLine(buf, p)
		if !ok {
			return 0, ErrIncomplete
		}
		line := buf[lineStart:lineEnd]
		if len(line) == 0 { // blank line: end of head
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			// Obsolete line folding: net/http splices the continuation into
			// the previous value. We never need multi-line values for the
			// event route, so continuations of untracked headers are
			// skipped; a fold that would extend a framing header is
			// ambiguous and refused.
			if lastFramy {
				return 0, errBadFold
			}
			continue
		}
		colon := indexByte(line, ':')
		if colon <= 0 {
			return 0, errBadHeader
		}
		name := line[:colon]
		if !validToken(name) {
			return 0, errBadHeader
		}
		value := trimOWS(line[colon+1:])
		lastFramy = true
		switch {
		case foldEq(name, "content-length"):
			cl, ok := parseContentLength(value)
			if !ok {
				return 0, errBadLength
			}
			if sawCL && cl != req.ContentLength {
				return 0, errLengthConflict
			}
			sawCL = true
			req.ContentLength = cl
		case foldEq(name, "transfer-encoding"):
			if !foldEq(value, "chunked") {
				return 0, errUnsupportedTE
			}
			req.Chunked = true
		case foldEq(name, "connection"):
			closeTok, kaTok := connectionTokens(value)
			req.Close = req.Close || closeTok
			keepAlive = keepAlive || kaTok
		case foldEq(name, "host"):
			if hasHost {
				return 0, errManyHosts
			}
			hasHost = true
		case foldEq(name, "expect"):
			if !foldEq(value, "100-continue") {
				return 0, errBadExpect
			}
			req.Expect100 = true
		default:
			lastFramy = false
		}
	}

	if req.Minor == 0 {
		// HTTP/1.0 closes by default; an explicit keep-alive keeps it open.
		req.Close = req.Close || !keepAlive
	} else if !hasHost {
		return 0, errMissingHost
	}
	if req.Chunked {
		// RFC 7230 §3.3.3: chunked wins over Content-Length (net/http
		// likewise drops the length).
		req.ContentLength = -1
	}
	return p, nil
}

// parseRequestLine fills Method/Target/Minor from "METHOD SP target SP
// HTTP/1.x". Single spaces only, like net/http's strict split.
func parseRequestLine(line []byte, req *Request) error {
	sp1 := indexByte(line, ' ')
	if sp1 <= 0 {
		return errBadRequestLine
	}
	rest := line[sp1+1:]
	sp2 := indexByte(rest, ' ')
	if sp2 <= 0 {
		return errBadRequestLine
	}
	method, target, proto := line[:sp1], rest[:sp2], rest[sp2+1:]
	if !validToken(method) || len(target) == 0 {
		return errBadRequestLine
	}
	minor, err := parseVersion(proto)
	if err != nil {
		return err
	}
	req.Method = method
	req.Target = target
	req.Minor = minor
	return nil
}

// parseVersion accepts exactly HTTP/1.0 and HTTP/1.1; well-formed HTTP/D.D
// of any other version answers 505 (as net/http does for HTTP/2.0 and
// HTTP/0.9 request lines), anything else 400.
func parseVersion(proto []byte) (minor int, err error) {
	if len(proto) != 8 || string(proto[:5]) != "HTTP/" ||
		proto[6] != '.' || proto[5] < '0' || proto[5] > '9' || proto[7] < '0' || proto[7] > '9' {
		return 0, errBadRequestLine
	}
	if proto[5] != '1' {
		return 0, errBadVersion
	}
	switch proto[7] {
	case '0':
		return 0, nil
	case '1':
		return 1, nil
	}
	return 0, errBadVersion
}

// nextLine finds the next LF from p and returns the scan position just past
// it plus the index past the line's content (terminator stripped — CRLF or
// bare LF, both of which net/http accepts). ok is false when no full line
// is buffered yet.
func nextLine(buf []byte, p int) (next, contentEnd int, ok bool) {
	i := indexByte(buf[p:], '\n')
	if i < 0 {
		return p, 0, false
	}
	end := p + i
	if end > p && buf[end-1] == '\r' {
		end--
	}
	return p + i + 1, end, true
}

// parseContentLength parses an all-digit length. Empty values, signs,
// whitespace and overflow are rejected, mirroring net/http's strict digits.
func parseContentLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 18 { // 18 digits < 2^63, far beyond any real body
		return 0, false
	}
	var n int64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// connectionTokens scans a Connection header's comma-separated token list
// for close and keep-alive.
func connectionTokens(v []byte) (closeTok, keepAlive bool) {
	for len(v) > 0 {
		item := v
		if i := indexByte(v, ','); i >= 0 {
			item, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		item = trimOWS(item)
		if foldEq(item, "close") {
			closeTok = true
		} else if foldEq(item, "keep-alive") {
			keepAlive = true
		}
	}
	return closeTok, keepAlive
}

// MatchEventRoute reports whether target is the event fast route
// POST /fleet/homes/{home}/events and returns the home id bytes. The match
// is exact: no path cleaning, no trailing slash, and percent-escapes in the
// home segment are refused rather than decoded (net/http would decode them;
// the raw path serves only literal home ids — see README).
func MatchEventRoute(target []byte) (home []byte, ok bool) {
	if i := indexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	const prefix = "/fleet/homes/"
	const suffix = "/events"
	if len(target) < len(prefix)+1+len(suffix) ||
		string(target[:len(prefix)]) != prefix ||
		string(target[len(target)-len(suffix):]) != suffix {
		return nil, false
	}
	home = target[len(prefix) : len(target)-len(suffix)]
	for _, c := range home {
		if c == '/' || c == '%' {
			return nil, false
		}
	}
	return home, true
}

// indexByte is bytes.IndexByte without the import (the compiler lowers this
// loop shape to the same vectorized scan for the short lines seen here).
func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// trimOWS strips optional whitespace (SP / HTAB) from both ends of a header
// value.
func trimOWS(v []byte) []byte {
	for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
		v = v[1:]
	}
	for len(v) > 0 && (v[len(v)-1] == ' ' || v[len(v)-1] == '\t') {
		v = v[:len(v)-1]
	}
	return v
}

// foldEq reports whether b ASCII-case-insensitively equals the lowercase
// literal s — the header match that replaces net/http's canonicalization.
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// isTokenChar is the RFC 7230 tchar set.
var isTokenChar = [256]bool{}

func init() {
	for c := '0'; c <= '9'; c++ {
		isTokenChar[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		isTokenChar[c] = true
	}
	for c := 'A'; c <= 'Z'; c++ {
		isTokenChar[c] = true
	}
	for _, c := range "!#$%&'*+-.^_`|~" {
		isTokenChar[c] = true
	}
}

func validToken(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, c := range b {
		if !isTokenChar[c] {
			return false
		}
	}
	return true
}
