package rawhttp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/alloctest"
)

// parseCase is one request head and its expected outcome. wantStatus 0
// means a successful parse; -1 means ErrIncomplete.
type parseCase struct {
	name       string
	in         string
	wantStatus int
	check      func(t *testing.T, req *Request, n int)
}

var parseCases = []parseCase{
	{
		name: "simple post",
		in:   "POST /fleet/homes/h1/events HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
		check: func(t *testing.T, req *Request, n int) {
			if string(req.Method) != "POST" || string(req.Target) != "/fleet/homes/h1/events" {
				t.Errorf("method/target = %q %q", req.Method, req.Target)
			}
			if req.ContentLength != 5 || req.Chunked || req.Close || req.Minor != 1 {
				t.Errorf("req = %+v", req)
			}
			if want := strings.Index("POST /fleet/homes/h1/events HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", "hello"); n != want {
				t.Errorf("consumed %d, want %d (head only)", n, want)
			}
		},
	},
	{
		name: "bare lf lines",
		in:   "POST /x HTTP/1.1\nHost: x\nContent-Length: 0\n\n",
		check: func(t *testing.T, req *Request, n int) {
			if req.ContentLength != 0 {
				t.Errorf("ContentLength = %d", req.ContentLength)
			}
		},
	},
	{
		name: "case-insensitive headers",
		in:   "POST /x HTTP/1.1\r\nhOsT: x\r\ncOnTeNt-LeNgTh: 7\r\ncOnNeCtIoN: ClOsE\r\n\r\n",
		check: func(t *testing.T, req *Request, n int) {
			if req.ContentLength != 7 || !req.Close {
				t.Errorf("req = %+v", req)
			}
		},
	},
	{
		name: "http10 implicit close",
		in:   "POST /x HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
		check: func(t *testing.T, req *Request, n int) {
			if !req.Close || req.Minor != 0 {
				t.Errorf("req = %+v", req)
			}
		},
	},
	{
		name: "http10 keep-alive",
		in:   "POST /x HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n",
		check: func(t *testing.T, req *Request, n int) {
			if req.Close {
				t.Error("explicit keep-alive should not close")
			}
		},
	},
	{
		name: "connection token list",
		in:   "POST /x HTTP/1.1\r\nHost: x\r\nConnection: foo, Close ,bar\r\n\r\n",
		check: func(t *testing.T, req *Request, n int) {
			if !req.Close {
				t.Error("close token in list not found")
			}
		},
	},
	{
		name: "chunked overrides content-length",
		in:   "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\nTransfer-Encoding: chunked\r\n\r\n",
		check: func(t *testing.T, req *Request, n int) {
			if !req.Chunked || req.ContentLength != -1 {
				t.Errorf("req = %+v", req)
			}
		},
	},
	{
		name: "expect 100-continue",
		in:   "POST /x HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n",
		check: func(t *testing.T, req *Request, n int) {
			if !req.Expect100 {
				t.Error("Expect100 not set")
			}
		},
	},
	{
		name: "identical duplicate content-length",
		in:   "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n",
		check: func(t *testing.T, req *Request, n int) {
			if req.ContentLength != 4 {
				t.Errorf("ContentLength = %d", req.ContentLength)
			}
		},
	},
	{
		name: "fold on untracked header",
		in:   "POST /x HTTP/1.1\r\nHost: x\r\nX-Custom: a\r\n  continued\r\nContent-Length: 0\r\n\r\n",
		check: func(t *testing.T, req *Request, n int) {
			if req.ContentLength != 0 {
				t.Errorf("ContentLength = %d", req.ContentLength)
			}
		},
	},

	// Rejections — statuses pinned to net/http's observed answers.
	{name: "empty request line", in: "\r\n\r\n", wantStatus: 400},
	{name: "no spaces", in: "POST\r\n\r\n", wantStatus: 400},
	{name: "double space", in: "POST  /x HTTP/1.1\r\nHost: x\r\n\r\n", wantStatus: 400},
	{name: "tab in method", in: "PO\tST /x HTTP/1.1\r\nHost: x\r\n\r\n", wantStatus: 400},
	{name: "bad proto", in: "POST /x XTTP/1.1\r\nHost: x\r\n\r\n", wantStatus: 400},
	{name: "http2", in: "POST /x HTTP/2.0\r\nHost: x\r\n\r\n", wantStatus: 505},
	{name: "http09", in: "POST /x HTTP/0.9\r\nHost: x\r\n\r\n", wantStatus: 505},
	{name: "missing host http11", in: "POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n", wantStatus: 400},
	{name: "duplicate host", in: "POST /x HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", wantStatus: 400},
	{name: "cl not digits", in: "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 4x\r\n\r\n", wantStatus: 400},
	{name: "cl negative", in: "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n", wantStatus: 400},
	{name: "cl plus sign", in: "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: +2\r\n\r\n", wantStatus: 400},
	{name: "cl empty", in: "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length:\r\n\r\n", wantStatus: 400},
	{name: "cl overflow", in: "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 9999999999999999999\r\n\r\n", wantStatus: 400},
	{name: "conflicting content-length", in: "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n", wantStatus: 400},
	{name: "unknown transfer-encoding", in: "POST /x HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n", wantStatus: 501},
	{name: "bad expect", in: "POST /x HTTP/1.1\r\nHost: x\r\nExpect: tomorrow\r\n\r\n", wantStatus: 417},
	{name: "header no colon", in: "POST /x HTTP/1.1\r\nHost: x\r\nBadHeader\r\n\r\n", wantStatus: 400},
	{name: "space in header name", in: "POST /x HTTP/1.1\r\nHost: x\r\nBad Header: v\r\n\r\n", wantStatus: 400},
	{name: "space before colon", in: "POST /x HTTP/1.1\r\nHost: x\r\nBad : v\r\n\r\n", wantStatus: 400},
	{name: "empty header name", in: "POST /x HTTP/1.1\r\nHost: x\r\n: v\r\n\r\n", wantStatus: 400},
	{name: "fold on framing header", in: "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n 2\r\n\r\n", wantStatus: 400},

	// Incomplete heads: the caller should keep reading.
	{name: "empty buffer", in: "", wantStatus: -1},
	{name: "partial request line", in: "POST /fleet/home", wantStatus: -1},
	{name: "no blank line yet", in: "POST /x HTTP/1.1\r\nHost: x\r\n", wantStatus: -1},
	{name: "partial header line", in: "POST /x HTTP/1.1\r\nHost: x\r\nContent-Le", wantStatus: -1},
}

func TestParseRequest(t *testing.T) {
	for _, tc := range parseCases {
		t.Run(tc.name, func(t *testing.T) {
			var req Request
			n, err := ParseRequest([]byte(tc.in), &req)
			switch {
			case tc.wantStatus == -1:
				if err != ErrIncomplete {
					t.Fatalf("err = %v, want ErrIncomplete", err)
				}
			case tc.wantStatus == 0:
				if err != nil {
					t.Fatalf("err = %v, want success", err)
				}
				if tc.check != nil {
					tc.check(t, &req, n)
				}
			default:
				var pe *ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want *ParseError", err)
				}
				if pe.Status != tc.wantStatus {
					t.Fatalf("status = %d (%s), want %d", pe.Status, pe.Msg, tc.wantStatus)
				}
			}
		})
	}
}

// TestParseRequestIncremental feeds a head one byte at a time: every prefix
// must answer ErrIncomplete, then the full head parses, and the consumed
// count must not swallow body bytes.
func TestParseRequestIncremental(t *testing.T) {
	const head = "POST /fleet/homes/kitchen/events HTTP/1.1\r\nHost: hub\r\nContent-Length: 2\r\n\r\n"
	full := head + "okEXTRA"
	var req Request
	for i := 0; i < len(head); i++ {
		if _, err := ParseRequest([]byte(full[:i]), &req); err != ErrIncomplete {
			t.Fatalf("prefix %d: err = %v, want ErrIncomplete", i, err)
		}
	}
	n, err := ParseRequest([]byte(full), &req)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(head) {
		t.Fatalf("consumed %d, want %d", n, len(head))
	}
}

func TestMatchEventRoute(t *testing.T) {
	cases := []struct {
		target string
		home   string
		ok     bool
	}{
		{"/fleet/homes/h1/events", "h1", true},
		{"/fleet/homes/h1/events?sync=1", "h1", true},
		{"/fleet/homes/kitchen-2/events", "kitchen-2", true},
		{"/fleet/homes//events", "", false},     // empty home
		{"/fleet/homes/a/b/events", "", false},  // slash in home
		{"/fleet/homes/h%31/events", "", false}, // percent-escapes refused
		{"/fleet/homes/h1/event", "", false},    // wrong suffix
		{"/fleet/homes/h1/events/", "", false},  // trailing slash
		{"/fleet/home/h1/events", "", false},    // wrong prefix
		{"/metrics", "", false},
		{"/", "", false},
		{"", "", false},
	}
	for _, tc := range cases {
		home, ok := MatchEventRoute([]byte(tc.target))
		if ok != tc.ok || string(home) != tc.home {
			t.Errorf("MatchEventRoute(%q) = %q, %v; want %q, %v", tc.target, home, ok, tc.home, tc.ok)
		}
	}
}

func TestParseRequestZeroAlloc(t *testing.T) {
	if alloctest.Race {
		t.Skip("allocation counts are unreliable under -race")
	}
	in := []byte("POST /fleet/homes/h1/events HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello")
	bad := []byte("POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n")
	var req Request
	if n, _ := alloctest.PerCall(200, func() {
		if _, err := ParseRequest(in, &req); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseRequest(bad, &req); err == nil {
			t.Fatal("bad head parsed")
		}
	}); n != 0 {
		t.Fatalf("ParseRequest allocates %v/op, want 0 (reject path included)", n)
	}
}

// FuzzParseRequest hammers the head parser with mutated heads. Invariants:
// no panic, consumed bytes stay within the buffer and cover at least the
// blank line when the parse succeeds, and a successful parse yields a valid
// method token and a sane length.
func FuzzParseRequest(f *testing.F) {
	for _, tc := range parseCases {
		f.Add([]byte(tc.in))
	}
	f.Add([]byte("POST /fleet/homes/h1/events HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("GET /metrics HTTP/1.0\r\n\r\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		var req Request
		n, err := ParseRequest(in, &req)
		if err != nil {
			if err != ErrIncomplete {
				var pe *ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("non-ParseError failure: %v", err)
				}
				switch pe.Status {
				case 400, 417, 501, 505:
				default:
					t.Fatalf("unexpected reject status %d", pe.Status)
				}
			}
			return
		}
		if n <= 0 || n > len(in) {
			t.Fatalf("consumed %d of %d", n, len(in))
		}
		if !validToken(req.Method) {
			t.Fatalf("invalid method %q accepted", req.Method)
		}
		if len(req.Target) == 0 {
			t.Fatal("empty target accepted")
		}
		if req.ContentLength < -1 {
			t.Fatalf("negative length %d", req.ContentLength)
		}
		if req.Chunked && req.ContentLength != -1 {
			t.Fatal("chunked must drop Content-Length")
		}
		// The head must end in a blank line exactly at the consumed offset.
		tail := in[:n]
		if !(len(tail) >= 2 && tail[len(tail)-1] == '\n') {
			t.Fatalf("head does not end at a line boundary: %q", tail)
		}
	})
}
