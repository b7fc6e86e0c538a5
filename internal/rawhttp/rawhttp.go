package rawhttp

import (
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("rawhttp: server closed")

// errIdleClose marks a connection that went away between requests (EOF,
// idle timeout, or a shutdown poke) — closed silently, like net/http.
var errIdleClose = errors.New("rawhttp: idle connection closed")

// errHeadTooLarge answers a request head that outgrew the connection's
// read buffer (the configured header cap).
var errHeadTooLarge = &ParseError{Status: 431, Msg: "request head too large"}

// errTruncatedHead answers a connection that went EOF partway through a
// request head; net/http reports 400 here, not a silent close.
var errTruncatedHead = &ParseError{Status: 400, Msg: "unexpected EOF reading request head"}

// Sink is the transport-neutral event sink the server posts into.
// *ingest.Sink implements it, so the raw listener and the net/http handler
// share one admission budget, one body cap, and one error→status table.
type Sink interface {
	Admit(home string) (d ingest.Disposition, ok bool)
	Deliver(home string, ev *ingest.Event) ingest.Disposition
	MaxBody() int64
}

// Server is a raw-socket HTTP/1.1 listener serving exactly one route:
// POST /fleet/homes/{home}/events. Everything else answers 404/405 so a
// misdirected client fails loudly instead of silently hitting the wrong
// transport. See the package comment and README for what is deliberately
// not supported relative to net/http.
type Server struct {
	sink              Sink
	maxHeader         int
	maxBody           int64
	readHeaderTimeout time.Duration
	metrics           *obs.Metrics

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	accepted  atomic.Uint64
	shutdown  atomic.Bool

	// homes interns home-id bytes to strings so the steady-state request
	// path never allocates for the []byte→string conversion the sink,
	// admission and hub APIs need. Fleet membership bounds the table; the
	// cap below only guards against a hostile client inventing home names.
	homesMu sync.RWMutex
	homes   map[string]string
}

// maxInternedHomes bounds the intern table; past it, unseen home ids fall
// back to an allocating conversion (still correct, no longer zero-alloc).
const maxInternedHomes = 1 << 16

// Connection deadlines: each body read and each response flush gets
// readTimeout and writeTimeout; a keep-alive connection may sit idle between
// requests for idleTimeout.
const (
	readTimeout  = 30 * time.Second
	writeTimeout = 30 * time.Second
	idleTimeout  = 2 * time.Minute
)

// Option configures NewServer.
type Option interface{ apply(*Server) }

type optionFunc func(*Server)

func (f optionFunc) apply(s *Server) { f(s) }

// WithMaxHeader caps the request head (request line + headers) in bytes;
// larger heads answer 431. Also the size of each connection's read buffer.
func WithMaxHeader(n int) Option {
	return optionFunc(func(s *Server) { s.maxHeader = n })
}

// WithReadHeaderTimeout bounds reading one request head.
func WithReadHeaderTimeout(d time.Duration) Option {
	return optionFunc(func(s *Server) { s.readHeaderTimeout = d })
}

// WithMetrics records connection metrics into m's sharded Conn stripes,
// striped round-robin by accept order. Nil leaves the server unobserved.
func WithMetrics(m *obs.Metrics) Option {
	return optionFunc(func(s *Server) { s.metrics = m })
}

// noopConn absorbs metric writes when the server is unobserved, so the hot
// path carries no nil branches.
var noopConn obs.ConnMetrics

// NewServer builds a raw ingest server in front of sink.
func NewServer(sink Sink, opts ...Option) *Server {
	s := &Server{
		sink:              sink,
		maxHeader:         8 << 10,
		maxBody:           sink.MaxBody(),
		readHeaderTimeout: 5 * time.Second,
		listeners:         make(map[net.Listener]struct{}),
		conns:             make(map[*conn]struct{}),
		homes:             make(map[string]string),
	}
	for _, o := range opts {
		o.apply(s)
	}
	if s.maxHeader < 256 {
		s.maxHeader = 256
	}
	return s
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln, one goroutine per connection, until
// Shutdown/Close. Accept errors during shutdown return ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	var pause time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if s.shutdown.Load() {
				return ErrServerClosed
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if pause == 0 {
					pause = 5 * time.Millisecond
				} else if pause *= 2; pause > time.Second {
					pause = time.Second
				}
				time.Sleep(pause)
				continue
			}
			return err
		}
		pause = 0
		c := s.newConn(rwc)
		go c.serve()
	}
}

func (s *Server) newConn(rwc net.Conn) *conn {
	cm := &noopConn
	if s.metrics != nil {
		cm = s.metrics.ConnShard(s.accepted.Add(1))
	}
	cm.ConnsAccepted.Inc()
	cm.ConnsActive.Add(1)
	c := &conn{srv: s, rwc: rwc, cm: cm, rbuf: make([]byte, s.maxHeader)}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	return c
}

// Shutdown stops accepting, lets in-flight requests finish (their response
// carries Connection: close), and pokes idle keep-alive connections awake
// with an expired read deadline so they observe the drain instead of
// sleeping through it. The poke repeats on a short poll — a connection that
// goes idle between ticks is caught on the next one — so there is no missed
// wakeup. Remaining connections are force-closed when ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdown.Store(true)
	s.closeListeners()
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	past := time.Unix(1, 0)
	for {
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			if c.idle.Load() {
				c.rwc.SetReadDeadline(past)
			}
		}
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			s.closeConns()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Close force-closes all listeners and connections.
func (s *Server) Close() error {
	s.shutdown.Store(true)
	s.closeListeners()
	s.closeConns()
	return nil
}

func (s *Server) closeListeners() {
	s.mu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.rwc.Close()
	}
	s.mu.Unlock()
}

// internHome converts home-id bytes to a stable string without allocating
// in steady state: the compiler's map[string(b)] lookup special case makes
// the read path allocation-free, and each id pays its copy once fleet-wide.
func (s *Server) internHome(b []byte) string {
	s.homesMu.RLock()
	h, ok := s.homes[string(b)]
	s.homesMu.RUnlock()
	if ok {
		return h
	}
	s.homesMu.Lock()
	defer s.homesMu.Unlock()
	if h, ok = s.homes[string(b)]; ok {
		return h
	}
	h = string(b)
	if len(s.homes) < maxInternedHomes {
		s.homes[h] = h
	}
	return h
}

// conn is one accepted connection. The goroutine serving it owns every
// field; idle is the only cross-goroutine signal (read by Shutdown's poke
// loop).
type conn struct {
	srv *Server
	rwc net.Conn
	cm  *obs.ConnMetrics

	rbuf   []byte // fixed window, len == Server.maxHeader
	rs, re int    // unconsumed bytes are rbuf[rs:re]

	wbuf    []byte // pending responses, flushed before any blocking read
	scratch []byte // JSON error bodies, reused

	reqs uint64      // requests served on this connection
	idle atomic.Bool // parked between requests with an empty buffer

	// Single-entry home cache: an appliance's connection posts to one home,
	// so this usually short-circuits even the intern table's RLock.
	lastHomeB []byte
	lastHome  string
}

func (c *conn) serve() {
	defer func() {
		c.rwc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.cm.ConnsActive.Add(-1)
	}()
	var req Request
	for {
		n, err := c.readHead(&req)
		if err != nil {
			var pe *ParseError
			switch {
			case errors.As(err, &pe):
				c.cm.ParseErrors.Inc()
				c.writeError(pe.Status, 0, pe.Msg, true)
				c.flush()
			case err == errIdleClose:
				// Clean keep-alive departure: EOF, idle timeout, or a
				// shutdown poke. Nothing to answer.
			case isTimeout(err):
				c.cm.ReadTimeouts.Inc()
				if c.re > c.rs { // mid-head slowloris: answer like net/http
					c.wbuf = append(c.wbuf, resp408...)
					c.flush()
				}
			}
			return
		}
		c.rs += n
		if c.reqs > 0 {
			c.cm.KeepaliveReuse.Inc()
		}
		c.reqs++
		if c.srv.shutdown.Load() {
			// Drain: finish this in-flight request, tell the client.
			req.Close = true
		}
		if !c.handle(&req) {
			c.flush()
			return
		}
	}
}

// readHead reads and parses one request head, returning the bytes consumed.
// It flushes pending responses before every blocking read (a pipelining
// client that has stopped sending is owed its answers before we wait), and
// parks with the idle flag set when the buffer is empty so Shutdown can
// poke it.
func (c *conn) readHead(req *Request) (int, error) {
	for {
		if c.re > c.rs {
			n, err := ParseRequest(c.rbuf[c.rs:c.re], req)
			if err == nil {
				return n, nil
			}
			if err != ErrIncomplete {
				return 0, err
			}
		}
		if c.rs == c.re {
			c.rs, c.re = 0, 0
		} else if c.rs > 0 {
			c.re = copy(c.rbuf, c.rbuf[c.rs:c.re])
			c.rs = 0
		}
		if c.re == len(c.rbuf) { // head can't fit the configured cap
			return 0, errHeadTooLarge
		}
		if err := c.flush(); err != nil {
			return 0, err
		}
		empty := c.re == 0
		if empty {
			dl := idleTimeout
			if c.reqs == 0 {
				dl = c.srv.readHeaderTimeout
			}
			c.rwc.SetReadDeadline(time.Now().Add(dl))
			c.idle.Store(true)
		} else {
			c.rwc.SetReadDeadline(time.Now().Add(c.srv.readHeaderTimeout))
		}
		n, err := c.rwc.Read(c.rbuf[c.re:])
		if empty {
			c.idle.Store(false)
		}
		c.re += n
		if err != nil {
			if n > 0 {
				continue // parse what arrived; the next read gets a fresh deadline
			}
			if empty {
				return 0, errIdleClose
			}
			if err == io.EOF {
				return 0, errTruncatedHead
			}
			return 0, err
		}
	}
}

// handle serves one parsed request and reports whether the connection may
// take another.
func (c *conn) handle(req *Request) bool {
	home, onRoute := MatchEventRoute(req.Target)
	if !onRoute {
		return c.reject(req, 404, 0, "not found")
	}
	if string(req.Method) != "POST" {
		return c.reject(req, 405, 0, "method not allowed")
	}
	hs := c.homeString(home)
	if d, ok := c.srv.sink.Admit(hs); !ok {
		return c.reject(req, d.Status, d.RetryAfter, d.Err.Error())
	}
	if req.ContentLength > c.srv.maxBody {
		return c.reject(req, 413, 0, ingest.ErrBodyTooLarge.Error())
	}
	if req.Expect100 {
		c.wbuf = append(c.wbuf, resp100...)
		if c.flush() != nil {
			return false
		}
	}
	ev := ingest.AcquireEvent()
	if cap(ev.Body) == 0 {
		ev.Body = make([]byte, 0, 512)
	}
	ev.Body = ev.Body[:0]
	var err error
	if req.Chunked {
		err = c.readChunked(&ev.Body, c.srv.maxBody)
	} else if req.ContentLength > 0 {
		err = c.readCL(&ev.Body, req.ContentLength)
	}
	if err != nil {
		ev.Release()
		return c.bodyReadFailed(err)
	}
	d := c.srv.sink.Deliver(hs, ev)
	return c.respond(req, d)
}

// homeString resolves home-id bytes to a string via the connection-local
// cache, falling back to the server-wide intern table.
func (c *conn) homeString(b []byte) string {
	if len(b) == len(c.lastHomeB) && string(b) == string(c.lastHomeB) {
		return c.lastHome
	}
	h := c.srv.internHome(b)
	c.lastHomeB = append(c.lastHomeB[:0], b...)
	c.lastHome = h
	return h
}

// bodyReadFailed maps a body-read error to a response and always ends the
// connection: the stream position is unknowable after a failed read, so
// resyncing for keep-alive is not safe. The statuses mirror what the
// net/http sink answers when its body read fails (400 for truncated or
// malformed framing, 413 over the cap), keeping transport parity even on
// broken streams.
func (c *conn) bodyReadFailed(err error) bool {
	switch {
	case errors.Is(err, ingest.ErrBodyTooLarge):
		c.writeError(413, 0, err.Error(), true)
	case isTimeout(err):
		c.cm.ReadTimeouts.Inc()
		c.writeError(400, 0, "reading body: timeout", true)
	default:
		var pe *ParseError
		if errors.As(err, &pe) { // malformed chunked framing
			c.cm.ParseErrors.Inc()
			c.writeError(pe.Status, 0, "reading body: "+pe.Msg, true)
		} else { // truncated body: early EOF or a mid-stream socket error
			c.writeError(400, 0, "reading body: "+err.Error(), true)
		}
	}
	c.flush()
	return false
}

// reject answers an error status for a request whose body we never wanted,
// draining the declared body so a keep-alive client stays in sync. The
// connection closes when draining is unsafe (chunked or oversized bodies,
// or an Expect: 100-continue client that is still waiting for permission
// and will never send the bytes we would wait on).
func (c *conn) reject(req *Request, status, retryAfter int, msg string) bool {
	keep := !req.Close
	if keep {
		keep = c.discardBody(req)
	}
	c.writeError(status, retryAfter, msg, !keep)
	return keep
}

// drainLimit caps how much rejected body we are willing to read to save a
// keep-alive connection (net/http uses the same order of magnitude).
const drainLimit = 256 << 10

func (c *conn) discardBody(req *Request) bool {
	if req.Expect100 || req.Chunked {
		return false
	}
	cl := req.ContentLength
	if cl <= 0 {
		return true
	}
	if cl > drainLimit {
		return false
	}
	// Consume buffered bytes first, then read the remainder into the (now
	// fully consumed) read buffer and throw it away.
	if buffered := int64(c.re - c.rs); buffered > 0 {
		take := buffered
		if take > cl {
			take = cl
		}
		c.rs += int(take)
		cl -= take
	}
	for cl > 0 {
		c.rwc.SetReadDeadline(time.Now().Add(readTimeout))
		max := int64(len(c.rbuf))
		if max > cl {
			max = cl
		}
		n, err := c.rwc.Read(c.rbuf[:max])
		cl -= int64(n)
		if err != nil {
			if isTimeout(err) {
				c.cm.ReadTimeouts.Inc()
			}
			return false
		}
	}
	return true
}

// readCL appends exactly cl body bytes to *dst: buffered bytes first, the
// rest read straight off the socket into dst (no intermediate copy). dst's
// capacity is pooled with the event, so the steady state never grows it.
func (c *conn) readCL(dst *[]byte, cl int64) error {
	b := *dst
	if buffered := int64(c.re - c.rs); buffered > 0 {
		take := buffered
		if take > cl {
			take = cl
		}
		b = append(b, c.rbuf[c.rs:c.rs+int(take)]...)
		c.rs += int(take)
		cl -= take
	}
	for cl > 0 {
		if int64(cap(b)-len(b)) < cl {
			need := len(b) + int(cl)
			nb := make([]byte, len(b), need)
			copy(nb, b)
			b = nb
		}
		c.rwc.SetReadDeadline(time.Now().Add(readTimeout))
		n, err := c.rwc.Read(b[len(b) : len(b)+int(cl)])
		b = b[:len(b)+n]
		cl -= int64(n)
		if err != nil {
			*dst = b
			return err
		}
	}
	*dst = b
	return nil
}

// Chunked-framing parse errors (the oracle's net/http answers 400 for all
// of these via the sink's body-read error path).
var (
	errBadChunkSize = &ParseError{Status: 400, Msg: "malformed chunk size"}
	errBadChunkEnd  = &ParseError{Status: 400, Msg: "malformed chunk terminator"}
)

// readChunked decodes a Transfer-Encoding: chunked body into *dst, bounded
// by max (overflow answers 413 like the Content-Length path). Chunk
// extensions are ignored; trailers are read and discarded.
func (c *conn) readChunked(dst *[]byte, max int64) error {
	b := *dst
	defer func() { *dst = b }()
	for {
		line, err := c.bodyLine()
		if err != nil {
			return err
		}
		if i := indexByte(line, ';'); i >= 0 { // chunk extension
			line = line[:i]
		}
		size, ok := parseChunkSize(trimOWS(line))
		if !ok {
			return errBadChunkSize
		}
		if size == 0 { // last chunk: discard trailers through the blank line
			for {
				line, err = c.bodyLine()
				if err != nil {
					return err
				}
				if len(line) == 0 {
					return nil
				}
			}
		}
		if int64(len(b))+size > max {
			return ingest.ErrBodyTooLarge
		}
		for size > 0 {
			if c.rs == c.re {
				if err := c.fillBody(); err != nil {
					return err
				}
			}
			take := int64(c.re - c.rs)
			if take > size {
				take = size
			}
			b = append(b, c.rbuf[c.rs:c.rs+int(take)]...)
			c.rs += int(take)
			size -= take
		}
		// Chunk data must be followed by CRLF (net/http is strict here too).
		if err := c.needBody(2); err != nil {
			return err
		}
		if c.rbuf[c.rs] != '\r' || c.rbuf[c.rs+1] != '\n' {
			return errBadChunkEnd
		}
		c.rs += 2
	}
}

// bodyLine returns the next CRLF/LF-terminated line of a chunked body,
// filling the buffer as needed. Lines longer than the read buffer are
// malformed by construction.
func (c *conn) bodyLine() ([]byte, error) {
	for {
		if i := indexByte(c.rbuf[c.rs:c.re], '\n'); i >= 0 {
			line := c.rbuf[c.rs : c.rs+i]
			c.rs += i + 1
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			return line, nil
		}
		if err := c.fillBody(); err != nil {
			return nil, err
		}
	}
}

// needBody blocks until at least n unconsumed bytes are buffered.
func (c *conn) needBody(n int) error {
	for c.re-c.rs < n {
		if err := c.fillBody(); err != nil {
			return err
		}
	}
	return nil
}

// fillBody reads more body bytes into the buffer, compacting first. A full
// buffer with no consumable bytes means a chunk-size line longer than the
// header cap — hostile framing, rejected.
func (c *conn) fillBody() error {
	if c.rs == c.re {
		c.rs, c.re = 0, 0
	} else if c.rs > 0 {
		c.re = copy(c.rbuf, c.rbuf[c.rs:c.re])
		c.rs = 0
	}
	if c.re == len(c.rbuf) {
		return errBadChunkSize
	}
	c.rwc.SetReadDeadline(time.Now().Add(readTimeout))
	n, err := c.rwc.Read(c.rbuf[c.re:])
	c.re += n
	if err != nil && n == 0 {
		return err
	}
	return nil
}

// parseChunkSize parses a hex chunk size; 16 digits bound the value below
// overflow (net/http errors on longer runs too).
func parseChunkSize(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var n int64
	for _, ch := range b {
		var d int64
		switch {
		case ch >= '0' && ch <= '9':
			d = int64(ch - '0')
		case ch >= 'a' && ch <= 'f':
			d = int64(ch-'a') + 10
		case ch >= 'A' && ch <= 'F':
			d = int64(ch-'A') + 10
		default:
			return 0, false
		}
		n = n<<4 | d
	}
	return n, true
}

// respond renders a delivery disposition. Success statuses are canned
// single-write byte slices; anything else carries the shared JSON error
// body. Keep-alive survives sink-level errors (a 409 duplicate should not
// cost the appliance its connection), matching the net/http transport.
func (c *conn) respond(req *Request, d ingest.Disposition) bool {
	if d.Err == nil {
		switch {
		case d.Status == 200 && !req.Close:
			c.wbuf = append(c.wbuf, resp200...)
		case d.Status == 200:
			c.wbuf = append(c.wbuf, resp200close...)
		case !req.Close:
			c.wbuf = append(c.wbuf, resp202...)
		default:
			c.wbuf = append(c.wbuf, resp202close...)
		}
		return !req.Close
	}
	c.writeError(d.Status, d.RetryAfter, d.Err.Error(), req.Close)
	return !req.Close
}

// Canned responses for the steady state: one append, no formatting.
var (
	resp100      = []byte("HTTP/1.1 100 Continue\r\n\r\n")
	resp200      = []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
	resp200close = []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
	resp202      = []byte("HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n")
	resp202close = []byte("HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
	resp408      = []byte("HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
)

// writeError appends an error response with the transport-shared JSON body
// into the write buffer. Everything formats by append; no fmt, no
// intermediate strings.
func (c *conn) writeError(status, retryAfter int, msg string, close bool) {
	c.scratch = ingest.AppendJSONError(c.scratch[:0], msg)
	c.wbuf = append(c.wbuf, "HTTP/1.1 "...)
	c.wbuf = appendStatusLine(c.wbuf, status)
	c.wbuf = append(c.wbuf, "\r\nContent-Type: application/json\r\n"...)
	if status == 405 {
		c.wbuf = append(c.wbuf, "Allow: POST\r\n"...)
	}
	if retryAfter > 0 {
		c.wbuf = append(c.wbuf, "Retry-After: "...)
		c.wbuf = strconv.AppendInt(c.wbuf, int64(retryAfter), 10)
		c.wbuf = append(c.wbuf, '\r', '\n')
	}
	c.wbuf = append(c.wbuf, "Content-Length: "...)
	c.wbuf = strconv.AppendInt(c.wbuf, int64(len(c.scratch)), 10)
	c.wbuf = append(c.wbuf, '\r', '\n')
	if close {
		c.wbuf = append(c.wbuf, "Connection: close\r\n"...)
	}
	c.wbuf = append(c.wbuf, '\r', '\n')
	c.wbuf = append(c.wbuf, c.scratch...)
}

// appendStatusLine appends "code reason" for the statuses the two ingest
// transports actually emit; unlisted codes get a bare reason (legal per
// RFC 7230 — the reason phrase is decorative).
func appendStatusLine(b []byte, status int) []byte {
	switch status {
	case 200:
		return append(b, "200 OK"...)
	case 202:
		return append(b, "202 Accepted"...)
	case 400:
		return append(b, "400 Bad Request"...)
	case 403:
		return append(b, "403 Forbidden"...)
	case 404:
		return append(b, "404 Not Found"...)
	case 405:
		return append(b, "405 Method Not Allowed"...)
	case 409:
		return append(b, "409 Conflict"...)
	case 413:
		return append(b, "413 Request Entity Too Large"...)
	case 417:
		return append(b, "417 Expectation Failed"...)
	case 422:
		return append(b, "422 Unprocessable Entity"...)
	case 429:
		return append(b, "429 Too Many Requests"...)
	case 431:
		return append(b, "431 Request Header Fields Too Large"...)
	case 500:
		return append(b, "500 Internal Server Error"...)
	case 501:
		return append(b, "501 Not Implemented"...)
	case 503:
		return append(b, "503 Service Unavailable"...)
	case 505:
		return append(b, "505 HTTP Version Not Supported"...)
	}
	b = strconv.AppendInt(b, int64(status), 10)
	return append(b, " Status"...)
}

// flush writes the pending response bytes. Called before every blocking
// read and at connection end, so pipelined responses batch into one write.
func (c *conn) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	c.rwc.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := c.rwc.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
