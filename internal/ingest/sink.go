package ingest

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Poster is the hub-side surface the sink posts into. fleet.Hub implements
// it. Ownership: a nil error means the poster took the event and will
// Release it after the home applies it; on error the sink still owns it.
type Poster interface {
	// PostEventFast enqueues ev for home and returns without waiting.
	PostEventFast(home string, ev *Event) error
	// PostEventFastSync enqueues ev and blocks until the home has evaluated
	// it and flushed.
	PostEventFastSync(home string, ev *Event) error
}

// DefaultMaxBody caps event bodies when WithMaxBody is not given. Event
// payloads are small (a device, a location, a handful of vars); 64 KiB
// leaves two orders of magnitude of headroom.
const DefaultMaxBody = 64 << 10

// Sink is the event handler for POST /fleet/homes/{home}/events: pooled
// buffers, the streaming decoder, and admission control — no net/http
// request-scoped allocations beyond what the server itself makes, and no
// encoding/json. It is the only event handler: the fleet API serves the
// route with one, and the raw-socket front end drives one through Admit
// and Deliver. An encoding/json handler posting maps stays in the tests as
// the correctness oracle.
type Sink struct {
	poster    Poster
	admission *Admission   // nil = admit everything
	metrics   *obs.Metrics // nil = unobserved; stripes chosen by home hash
	maxBody   int64
	status    func(error) int // maps poster errors to HTTP statuses
	retry     func(error) int // maps poster errors to Retry-After seconds (0 = none)
}

// SinkOption configures NewSink.
type SinkOption interface{ applySink(*Sink) }

type sinkOptionFunc func(*Sink)

func (f sinkOptionFunc) applySink(s *Sink) { f(s) }

// WithMaxBody overrides the event-body byte cap.
func WithMaxBody(n int64) SinkOption {
	return sinkOptionFunc(func(s *Sink) { s.maxBody = n })
}

// WithAdmission gates posts behind a; nil disables admission control.
func WithAdmission(a *Admission) SinkOption {
	return sinkOptionFunc(func(s *Sink) { s.admission = a })
}

// WithSinkMetrics records decode counts and latency into m, striped by the
// same home hash the hub shards on (a home's transport metrics land on its
// owning shard's block). Nil leaves the sink unobserved.
func WithSinkMetrics(m *obs.Metrics) SinkOption {
	return sinkOptionFunc(func(s *Sink) { s.metrics = m })
}

// WithStatusMapper overrides how poster errors map to HTTP status codes
// (fleet wires its sentinel-error table so events answer with the same
// statuses as every other fleet route).
func WithStatusMapper(f func(error) int) SinkOption {
	return sinkOptionFunc(func(s *Sink) { s.status = f })
}

// WithRetryHinter adds a Retry-After header (f's result, whole seconds; 0
// suppresses the header) to poster-error responses — how a sealed-for-
// migration or store-degraded home tells clients when to come back.
func WithRetryHinter(f func(error) int) SinkOption {
	return sinkOptionFunc(func(s *Sink) { s.retry = f })
}

// NewSink builds the fast event handler in front of p.
func NewSink(p Poster, opts ...SinkOption) *Sink {
	s := &Sink{poster: p, maxBody: DefaultMaxBody, status: defaultStatus}
	for _, o := range opts {
		o.applySink(s)
	}
	return s
}

func defaultStatus(error) int { return http.StatusInternalServerError }

// Admission exposes the sink's admission controller (nil when admission is
// disabled) so the metrics endpoint can scrape shed counters without a
// parallel plumbing path.
func (s *Sink) Admission() *Admission { return s.admission }

// MaxBody returns the sink's per-event body cap, so a transport reading the
// body itself (the raw-socket front end) enforces the same limit the
// net/http path does.
func (s *Sink) MaxBody() int64 { return s.maxBody }

// Disposition is the transport-neutral outcome of one event post: the HTTP
// status to answer, the Retry-After hint in whole seconds (0 = no header),
// and the error whose message becomes the response body (nil on success).
// Both the net/http handler below and the raw-socket front end
// (internal/rawhttp) render dispositions, so the two transports answer the
// same bytes with the same statuses, hints and error shapes.
type Disposition struct {
	Status     int
	RetryAfter int
	Err        error
}

// Admit charges one event against home's admission budget. ok reports
// whether the event may proceed; on false the disposition carries the 429
// and its Retry-After hint. A sink without admission control admits
// everything.
func (s *Sink) Admit(home string) (d Disposition, ok bool) {
	if s.admission == nil {
		return Disposition{}, true
	}
	retry, err := s.admission.Admit(home)
	if err != nil {
		return Disposition{
			Status:     http.StatusTooManyRequests,
			RetryAfter: RetrySeconds(retry),
			Err:        err,
		}, false
	}
	return Disposition{}, true
}

// Deliver decodes ev's body (the caller has filled ev.Body from its own
// transport buffer or ReadBody) and posts it into the sink's poster. It
// takes ownership of ev unconditionally: on success the poster releases it
// after the home applies it, on failure Deliver releases it before
// returning. The steady-state success path does not allocate.
func (s *Sink) Deliver(home string, ev *Event) Disposition {
	var im *obs.IngestMetrics
	var t0 time.Time
	if s.metrics != nil {
		im = s.metrics.IngestShard(home)
		t0 = time.Now()
	}
	if err := ev.Decode(ev.Body); err != nil {
		ev.Release()
		if im != nil {
			im.DecodeErrors.Inc()
		}
		return Disposition{Status: http.StatusBadRequest, Err: err}
	}
	if im != nil {
		im.DecodeNs.Observe(uint64(time.Since(t0)))
		im.EventsDecoded.Inc()
	}
	var err error
	sync := ev.Sync
	if sync {
		err = s.poster.PostEventFastSync(home, ev)
	} else {
		err = s.poster.PostEventFast(home, ev)
	}
	if err != nil {
		ev.Release()
		d := Disposition{Status: s.status(err), Err: err}
		if s.retry != nil {
			d.RetryAfter = s.retry(err)
		}
		return d
	}
	if sync {
		return Disposition{Status: http.StatusOK}
	}
	return Disposition{Status: http.StatusAccepted}
}

// ServeHTTP handles one event post. Status contract (the reference
// encoding/json handler in the fleet tests answers alike): 200 for sync
// posts (evaluation completed before the response), 202 for async
// (queued), 400 malformed body, 413 oversized, 429 shed by admission
// control with Retry-After in whole seconds.
func (s *Sink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	home := r.PathValue("home")
	if home == "" {
		writeJSONError(w, http.StatusNotFound, "missing home")
		return
	}
	if d, ok := s.Admit(home); !ok {
		s.respond(w, d)
		return
	}
	if r.ContentLength > s.maxBody {
		writeJSONError(w, http.StatusRequestEntityTooLarge, ErrBodyTooLarge.Error())
		return
	}
	ev := AcquireEvent()
	if err := ev.ReadBody(r.Body, s.maxBody); err != nil {
		ev.Release()
		if errors.Is(err, ErrBodyTooLarge) {
			writeJSONError(w, http.StatusRequestEntityTooLarge, err.Error())
		} else {
			writeJSONError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return
	}
	s.respond(w, s.Deliver(home, ev))
}

// respond renders a disposition onto a net/http response.
func (s *Sink) respond(w http.ResponseWriter, d Disposition) {
	if d.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(d.RetryAfter))
	}
	if d.Err != nil {
		writeJSONError(w, d.Status, d.Err.Error())
		return
	}
	w.WriteHeader(d.Status)
}

// writeJSONError emits the same {"error": "..."} shape as the fleet API's
// other routes, without encoding/json.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(AppendJSONError(make([]byte, 0, len(msg)+16), msg))
}

// AppendJSONError appends the {"error":"..."}\n body shape shared by every
// event transport to buf and returns it. Messages are sentinel errors and
// decoder offsets, so only quotes, backslashes and control bytes need
// escaping.
func AppendJSONError(buf []byte, msg string) []byte {
	buf = append(buf, `{"error":"`...)
	for i := 0; i < len(msg); i++ {
		switch c := msg[i]; {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, `\u00`...)
			const hex = "0123456789abcdef"
			buf = append(buf, hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	buf = append(buf, '"', '}', '\n')
	return buf
}
