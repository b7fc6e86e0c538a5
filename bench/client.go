package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
)

// client is one keep-alive HTTP/1.1 connection driven from two goroutines:
// a writer that sends prebuilt request bytes on a schedule and never waits
// for answers, and a reader that parses the pipelined responses in order.
// It is hand-rolled so that its per-request cost stays small and fixed next
// to the server's; net/http's client would allocate per request and would
// not pipeline.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
}

func newClient(conn net.Conn) *client {
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
}

// queue appends one request to the pending write batch.
func (c *client) queue(req []byte) { c.wbuf = append(c.wbuf, req...) }

// flush writes the pending batch in one call.
func (c *client) flush() error {
	_, err := c.conn.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

func (c *client) close() { c.conn.Close() }

// response is the part of an HTTP response the benchmark inspects.
type response struct {
	status int
	owner  string // X-Ring-Owner on a 307
	body   []byte // kept only when read asks for it
}

// resp202 is the raw transport's canned acknowledgement; matching it whole
// keeps the closed-loop reader cheap.
var resp202 = []byte("HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n")

// read parses the next response. The body is kept when keepBody is set and
// discarded otherwise; chunked and Content-Length framing are supported.
func (c *client) read(r *response, keepBody bool) error {
	*r = response{body: r.body[:0]}
	if head, err := c.br.Peek(len(resp202)); err == nil && bytes.Equal(head, resp202) {
		r.status = 202
		_, err = c.br.Discard(len(resp202))
		return err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("reading status line: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return fmt.Errorf("malformed status line %q", line)
	}
	if r.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := 0, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("reading header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return fmt.Errorf("malformed header %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("X-Ring-Owner")):
			r.owner = string(value)
		}
	}
	if !chunked {
		return c.body(r, length, keepBody)
	}
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("reading chunk size: %w", err)
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
		if err != nil {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if err := c.body(r, int(size), keepBody); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil { // chunk CRLF
			return err
		}
		if size == 0 {
			return nil
		}
	}
}

func (c *client) body(r *response, n int, keep bool) error {
	if !keep {
		_, err := c.br.Discard(n)
		return err
	}
	start := len(r.body)
	r.body = append(r.body, make([]byte, n)...)
	_, err := io.ReadFull(c.br, r.body[start:])
	return err
}
