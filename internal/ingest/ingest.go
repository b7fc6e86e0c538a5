// Package ingest is the fleet hub's event front end and its one event
// representation. Event carries a device event's fields as byte slices over
// a reusable buffer: the streaming decoder fills it from a
// /fleet/homes/{home}/events body (no intermediate Go strings, no
// map[string]string), and Fill copies a map-shaped event into it, so every
// event reaches the engine in the same shape. Beside the decoder sit an
// admission-control layer (per-home token buckets plus a backlog-aware load
// shedder) that turns overload into 429s with Retry-After instead of
// unbounded queue growth, and the Sink HTTP handler tying both in front of
// the hub's post path.
//
// The division of labour with the engine: this package gets the bytes off
// the wire and decides whether the fleet wants them; the engine's ingest
// (engine.IngestEvent) interns those bytes straight into the home's symbol
// ids. Sink is the only event handler; encoding/json stays in the tests as
// the reference decoder — the same body bytes must produce the same event,
// and the same engine-observed state, on either.
//
// Admission control exists because the shard mailbox is deliberately
// unbounded: a dispatch callback may feed events back into the hub (an
// actuated appliance notifies its own property change), so bounding the
// queue would deadlock a shard against its own downstream. Flow control
// therefore lives here, at the transport, where shedding an external
// client's event is safe — dispatch-feedback events enter through
// Hub.PostEventFeedback directly and are never shed.
package ingest

import (
	"errors"
	"io"
	"sync"
)

// Var is one decoded event variable. Key and Value point into the event's
// retained body (or its unescape scratch) and stay valid until Release.
// A nil Value is a JSON null: the key is present with an empty value,
// matching encoding/json's map semantics.
type Var struct {
	Key, Value []byte
}

// Event is one device event, decoded from a request body (Decode) or copied
// from a map (Fill). All byte-slice fields alias the event's Body (or its
// internal scratch); the event owns them as a unit, so a consumer must
// finish with the slices before calling Release.
type Event struct {
	DeviceType []byte
	Name       []byte
	Location   []byte
	Vars       []Var
	// Sync asks the transport to wait until the home has evaluated the
	// event before acknowledging (200 instead of 202).
	Sync bool

	// Body holds the raw request bytes (ReadBody fills it, Decode slices
	// into it) or the strings Fill copied. Exposed so benchmarks and the
	// sink can reuse the same arena.
	Body []byte

	scratch []byte // unescape / UTF-8-coercion arena, reused across decodes
}

var eventPool = sync.Pool{New: func() any { return new(Event) }}

// AcquireEvent returns a pooled event. Pair with Release.
func AcquireEvent() *Event {
	return eventPool.Get().(*Event)
}

// Release resets the event and returns it to the pool. The caller must not
// touch the event or any slice decoded from it afterwards. The hub releases
// events it accepted ownership of; on a failed post the sender releases.
func (e *Event) Release() {
	e.DeviceType, e.Name, e.Location = nil, nil, nil
	for i := range e.Vars {
		e.Vars[i] = Var{}
	}
	e.Vars = e.Vars[:0]
	e.Sync = false
	e.Body = e.Body[:0]
	e.scratch = e.scratch[:0]
	eventPool.Put(e)
}

// Fill sets e to a map-shaped event: each string is copied into e's Body
// arena and DeviceType, Name, Location and Vars point into it, so e owns
// its bytes and the caller may reuse vars as soon as Fill returns. Sync is
// cleared. Capacity is reused, so filling a warm event allocates nothing.
func (e *Event) Fill(deviceType, name, location string, vars map[string]string) {
	n := len(deviceType) + len(name) + len(location)
	for k, v := range vars {
		n += len(k) + len(v)
	}
	if cap(e.Body) < n {
		e.Body = make([]byte, 0, n)
	}
	// The arena is sized up front, so no append below moves it.
	b := e.Body[:0]
	b, e.DeviceType = appendField(b, deviceType)
	b, e.Name = appendField(b, name)
	b, e.Location = appendField(b, location)
	e.Vars = e.Vars[:0]
	for k, v := range vars {
		var key, value []byte
		b, key = appendField(b, k)
		b, value = appendField(b, v)
		e.Vars = append(e.Vars, Var{Key: key, Value: value})
	}
	e.Body = b
	e.Sync = false
}

// appendField appends s to b and returns the grown b and the appended
// bytes, capped so an append to the field cannot overwrite its neighbour.
func appendField(b []byte, s string) ([]byte, []byte) {
	n := len(b)
	b = append(b, s...)
	return b, b[n:len(b):len(b)]
}

// ErrBodyTooLarge marks a request body over the sink's per-route cap; the
// transport maps it to 413.
var ErrBodyTooLarge = errors.New("ingest: request body too large")

// ReadBody fills e.Body from r, reusing its capacity across requests.
// Bodies longer than max bytes fail with ErrBodyTooLarge.
func (e *Event) ReadBody(r io.Reader, max int64) error {
	if cap(e.Body) == 0 {
		e.Body = make([]byte, 0, 512)
	}
	e.Body = e.Body[:0]
	for {
		if len(e.Body) == cap(e.Body) {
			e.Body = append(e.Body, 0)[:len(e.Body)]
		}
		n, err := r.Read(e.Body[len(e.Body):cap(e.Body)])
		e.Body = e.Body[:len(e.Body)+n]
		if int64(len(e.Body)) > max {
			return ErrBodyTooLarge
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// setVar records one vars member with JSON-object map semantics: a repeated
// key overwrites its previous value. Linear scan — event shapes carry a
// handful of variables, and the steady state never repeats a key.
func (e *Event) setVar(k, v []byte) {
	for i := range e.Vars {
		if string(e.Vars[i].Key) == string(k) {
			e.Vars[i].Value = v
			return
		}
	}
	e.Vars = append(e.Vars, Var{Key: k, Value: v})
}
