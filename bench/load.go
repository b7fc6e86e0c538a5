package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// errTimeout marks a run whose responses never arrived.
var errTimeout = errors.New("timed out")

// sent is one request on the wire, remembered until its response arrives.
type sent struct {
	home  int32
	seq   uint32 // the home's event sequence number; unused for rule ops
	op    uint8  // opEvent, opPost or opDelete
	sched int64  // when the request was due
	write int64  // when it was written
	req   []byte
}

// Request kinds.
const (
	opEvent  = iota // a device event
	opPost          // a rule submission
	opDelete        // a rule removal
)

// lane is one client connection. Writers hold mu while they queue a batch
// and write it, so the pending FIFO matches the order on the wire; the
// lane's reader pops it as responses arrive.
type lane struct {
	mu       sync.Mutex
	c        *client
	keepBody bool
	pending  chan sent
}

// maxInFlight bounds the requests one lane may have unanswered. Open-loop
// senders never get near it at the offered rates; reaching it means the
// server stopped answering, and the writer then blocks, which shows as
// client lag rather than as lost requests.
const maxInFlight = 1 << 16

// loader drives a set of lanes: writers call send, one reader goroutine per
// lane parses responses in order and hands each to handle.
type loader struct {
	lanes    []*lane
	dial     func(lane int) (net.Conn, error)
	spans    *spanTable
	inflight sync.WaitGroup // requests sent and not yet resolved
	readers  sync.WaitGroup
	// handle interprets one response. resolved is false when the handler
	// re-sent the request (a redirect or a refusal being retried).
	handle func(from int, s sent, r *response) (resolved bool, err error)

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	firstErr  error
	dead      chan struct{} // closed on the first failure
	drained   sync.Once     // closes the pending FIFOs, ending the readers
}

// newLoader prepares one lane per address, dialed over TCP when the load
// starts.
func newLoader(spans *spanTable, handle func(int, sent, *response) (bool, error), addrs ...string) *loader {
	return newLoaderDial(spans, handle, len(addrs), func(i int) (net.Conn, error) {
		return net.Dial("tcp", addrs[i])
	})
}

// newLoaderDial prepares n lanes whose connections dial opens.
func newLoaderDial(spans *spanTable, handle func(int, sent, *response) (bool, error), n int, dial func(lane int) (net.Conn, error)) *loader {
	ld := &loader{spans: spans, handle: handle, dial: dial, dead: make(chan struct{})}
	for range n {
		ld.lanes = append(ld.lanes, &lane{pending: make(chan sent, maxInFlight)})
	}
	return ld
}

// connect dials every lane and starts its reader. It runs when the load
// starts, not at set-up: a server drops a connection that sends nothing
// within its header timeout (5 s), and on a loaded host the garbage
// collection that follows a large set-up can take that long.
func (ld *loader) connect() error {
	for i, l := range ld.lanes {
		c, err := ld.dial(i)
		if err != nil {
			return fmt.Errorf("lane %d: dial: %w", i, err)
		}
		l.c = newClient(c)
	}
	for i, l := range ld.lanes {
		ld.readers.Add(1)
		go ld.read(i, l)
	}
	return nil
}

// send writes a batch of new requests on lane i in one call.
func (ld *loader) send(i int, batch []sent) {
	ld.attempted.Add(int64(len(batch)))
	ld.inflight.Add(len(batch))
	ld.write(i, batch)
}

// resend writes requests that are already counted in flight.
func (ld *loader) resend(i int, s sent) { ld.write(i, []sent{s}) }

func (ld *loader) write(i int, batch []sent) {
	l := ld.lanes[i]
	l.mu.Lock()
	defer l.mu.Unlock()
	w := now()
	for _, s := range batch {
		// A re-sent request keeps its first write time: client lag is the
		// generator's, the redirect or retry is the server's.
		if s.write == 0 {
			s.write = w
			if ld.spans != nil && s.op == opEvent {
				ld.spans.stamp(s.home, s.seq, stWrite, w)
			}
		}
		l.c.queue(s.req)
		l.pending <- s
	}
	if err := l.c.flush(); err != nil {
		ld.fail(fmt.Errorf("lane %d: write: %w", i, err))
	}
}

func (ld *loader) read(i int, l *lane) {
	defer ld.readers.Done()
	var r response
	broken := false
	for s := range l.pending {
		if !broken {
			if err := l.c.read(&r, l.keepBody); err != nil {
				ld.fail(fmt.Errorf("lane %d: read: %w", i, err))
				broken = true
				l.c.close()
			}
		}
		if broken {
			ld.failed.Add(1)
			ld.inflight.Done()
			continue
		}
		resolved, err := ld.handle(i, s, &r)
		if err != nil {
			ld.failed.Add(1)
			ld.fail(err)
			resolved = true
		}
		if resolved {
			ld.inflight.Done()
		}
	}
}

func (ld *loader) fail(err error) {
	ld.mu.Lock()
	if ld.firstErr == nil {
		ld.firstErr = err
		close(ld.dead)
	}
	ld.mu.Unlock()
}

func (ld *loader) err() error {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return ld.firstErr
}

// run connects the lanes, runs the senders concurrently until they return,
// then waits for every answer. If the load is still running a minute after
// end, the connections are closed, failing it, so a server that stops
// answering cannot hang a run. It returns the first error.
func (ld *loader) run(end int64, senders ...func() error) error {
	if err := ld.connect(); err != nil {
		return err
	}
	watchdog := time.AfterFunc(time.Until(at(end))+time.Minute, func() {
		ld.fail(fmt.Errorf("load: %w", errTimeout))
		ld.closeConns()
	})
	defer watchdog.Stop()
	errs := make([]error, len(senders))
	var wg sync.WaitGroup
	for i, send := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = send()
		}()
	}
	wg.Wait()
	for _, err := range append(errs, ld.finish(30*time.Second)) {
		if err != nil {
			return err
		}
	}
	return nil
}

// finish waits until every request sent is resolved, then stops the
// readers. If the server stops answering, the connections are closed after
// timeout, which fails the outstanding requests.
func (ld *loader) finish(timeout time.Duration) error {
	done := make(chan struct{})
	go func() {
		ld.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		ld.fail(fmt.Errorf("responses: %w after %v", errTimeout, timeout))
		ld.closeConns()
		<-done
	}
	ld.stop()
	return ld.err()
}

// stop closes the connections and waits for the readers to exit. Writers
// must have returned.
func (ld *loader) stop() {
	ld.closeConns()
	ld.drained.Do(func() {
		for _, l := range ld.lanes {
			close(l.pending)
		}
	})
	ld.readers.Wait()
}

func (ld *loader) closeConns() {
	for _, l := range ld.lanes {
		if l.c != nil {
			l.c.close()
		}
	}
}

// openLoop releases one request every period from start to end: gen writes
// the one due at start + k*period as soon as that time comes, on its own,
// as independent clients would. Lateness of the writer counts against the
// requests, since latency is timed from when they were due.
func openLoop(start, end int64, period time.Duration, gen func(due int64) error) error {
	ticks := int((end - start) / int64(period))
	return pace(at(start), period, ticks, func(k int) error {
		return gen(start + int64(k)*int64(period))
	})
}

// spacing is the time between the requests of a stream of rate per second.
func spacing(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }
