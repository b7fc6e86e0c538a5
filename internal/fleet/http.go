package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rawhttp"
	"repro/internal/registry"
	"repro/internal/vocab"
)

// HTTPHandler exposes a hub's ingestion and management operations as a JSON
// API — the fleet-scale counterpart of the single-home interface-device API:
//
//	POST   /fleet/homes/{home}/users     {"name","favorites"}     register a user
//	GET    /fleet/homes/{home}/users                              list users
//	POST   /fleet/homes/{home}/rules     {"source","owner"}       submit a CADEL command
//	GET    /fleet/homes/{home}/rules                              list rules
//	DELETE /fleet/homes/{home}/rules/{id}                         remove a rule
//	POST   /fleet/homes/{home}/events    {"deviceType","name",    ingest a device event
//	                                      "location","vars",      (async 202, sync 200;
//	                                      "sync"}                 served by an ingest.Sink)
//	POST   /fleet/homes/{home}/priority  {"device","users",       set a priority order
//	                                      "context"}
//	GET    /fleet/homes/{home}/log                                fired actions of the home
//	GET    /fleet/homes/{home}/stats                              home counters + symbol footprint
//	GET    /fleet/homes/{home}/trace  ?rule=&device=&n=           the home's records in its shard's
//	                                                              firing-trace ring: why each
//	                                                              device picked its rule
//	POST   /fleet/homes/{home}/compact                            force a symbol-compaction epoch
//	GET    /fleet/homes                                           list home ids
//	GET    /fleet/stats                                           hub counters + metric totals
//	POST   /fleet/compact                                         snapshot + truncate store
//	GET    /metrics                                               Prometheus text exposition
type HTTPHandler struct {
	hub       *Hub
	mux       *http.ServeMux
	eventSink http.Handler // serves POST /fleet/homes/{home}/events
}

// HandlerOption configures NewHTTPHandler.
type HandlerOption interface{ applyHandler(*HTTPHandler) }

type handlerOptionFunc func(*HTTPHandler)

func (f handlerOptionFunc) applyHandler(h *HTTPHandler) { f(h) }

// WithEventSink serves POST /fleet/homes/{home}/events with sink instead of
// the default NewEventSink(hub, ingest.Limits{}) — how a server installs a
// sink with admission limits or shares one with the raw-socket front end.
func WithEventSink(sink http.Handler) HandlerOption {
	return handlerOptionFunc(func(h *HTTPHandler) { h.eventSink = sink })
}

// NewEventSink builds the event handler for a hub: the streaming decoder
// and pooled buffers of internal/ingest in front of PostEventFast, with
// admission control wired to the hub's shard-backlog signal and the hub's
// sentinel-error → status table, so events answer with the same statuses
// and Retry-After hints as every other route. Pass extra sink options
// (ingest.WithMaxBody, a test admission) after the limits.
func NewEventSink(hub *Hub, limits ingest.Limits, opts ...ingest.SinkOption) *ingest.Sink {
	base := []ingest.SinkOption{
		ingest.WithMaxBody(maxEventBody),
		ingest.WithAdmission(ingest.NewAdmission(limits, hub.Backlog)),
		ingest.WithSinkMetrics(hub.metrics),
		ingest.WithStatusMapper(errorStatus),
		ingest.WithRetryHinter(errorRetrySeconds),
	}
	return ingest.NewSink(hub, append(base, opts...)...)
}

// NewRawIngest builds the raw-socket HTTP/1.1 front end for the event fast
// route in front of sink — the SAME *ingest.Sink the net/http handler
// serves, so both transports draw on one admission budget, one body cap,
// and one error→status table, and the two cannot drift apart or let a home
// double its rate limit by splitting traffic. The hub's sharded metrics
// carry the connection counters. Extra rawhttp options (timeouts, header
// cap) append after the defaults.
func NewRawIngest(hub *Hub, sink *ingest.Sink, opts ...rawhttp.Option) *rawhttp.Server {
	base := []rawhttp.Option{rawhttp.WithMetrics(hub.metrics)}
	return rawhttp.NewServer(sink, append(base, opts...)...)
}

// NewHTTPHandler builds the fleet API for a hub.
func NewHTTPHandler(hub *Hub, opts ...HandlerOption) *HTTPHandler {
	h := &HTTPHandler{hub: hub, mux: http.NewServeMux()}
	for _, o := range opts {
		o.applyHandler(h)
	}
	h.mux.HandleFunc("POST /fleet/homes/{home}/users", h.postUsers)
	h.mux.HandleFunc("GET /fleet/homes/{home}/users", h.getUsers)
	h.mux.HandleFunc("POST /fleet/homes/{home}/rules", h.postRules)
	h.mux.HandleFunc("GET /fleet/homes/{home}/rules", h.getRules)
	h.mux.HandleFunc("DELETE /fleet/homes/{home}/rules/{id}", h.deleteRule)
	if h.eventSink == nil {
		h.eventSink = NewEventSink(hub, ingest.Limits{})
	}
	h.mux.Handle("POST /fleet/homes/{home}/events", h.eventSink)
	h.mux.HandleFunc("POST /fleet/homes/{home}/priority", h.postPriority)
	h.mux.HandleFunc("GET /fleet/homes/{home}/log", h.getLog)
	h.mux.HandleFunc("GET /fleet/homes/{home}/stats", h.getHomeStats)
	h.mux.HandleFunc("GET /fleet/homes/{home}/trace", h.getTrace)
	h.mux.HandleFunc("POST /fleet/homes/{home}/compact", h.postHomeCompact)
	h.mux.HandleFunc("GET /fleet/homes", h.getHomes)
	h.mux.HandleFunc("GET /fleet/stats", h.getStats)
	h.mux.HandleFunc("POST /fleet/compact", h.postCompact)
	h.mux.HandleFunc("GET /metrics", h.getMetrics)
	return h
}

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// errorStatus maps the hub's sentinel errors to HTTP statuses. It is the
// single source of truth for both the JSON routes (writeError) and the
// event sink's status mapper, so every route answers alike.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownUser):
		return http.StatusNotFound
	case errors.Is(err, ErrForbidden):
		return http.StatusForbidden
	case errors.Is(err, ErrInconsistent):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStoreDegraded):
		// Fail-closed write path: the durable store is unreachable, the
		// mutation was rolled back. writeError adds Retry-After from the
		// breaker's cool-down.
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrHomeSealed):
		// The home is mid-migration; by the time the Retry-After elapses the
		// ring answers with a 307 to the new owner.
		return http.StatusServiceUnavailable
	case errors.Is(err, lang.ErrParse), errors.Is(err, core.ErrCompile):
		return http.StatusBadRequest
	case errors.Is(err, vocab.ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, registry.ErrNotFound), errors.Is(err, ErrNoHome):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// errorRetrySeconds maps an error to the Retry-After hint in whole seconds
// (0 = no hint). Shared by the JSON routes and the event sink, so a sealed
// or degraded home answers with the same cool-down on every route.
func errorRetrySeconds(err error) int {
	var retryAfter time.Duration
	var de *DegradedError
	var se *SealedError
	switch {
	case errors.As(err, &de):
		retryAfter = de.RetryAfter
	case errors.As(err, &se):
		retryAfter = se.RetryAfter
	}
	if retryAfter <= 0 {
		return 0
	}
	return int((retryAfter + time.Second - 1) / time.Second)
}

func writeError(w http.ResponseWriter, err error) {
	if secs := errorRetrySeconds(err); secs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, errorStatus(err), errorBody{Error: err.Error()})
}

// Per-route request-body caps. Metadata bodies (a user, a priority order)
// are tiny; rule submissions carry CADEL source and events carry a vars
// object, so they get more headroom. All are far above any legitimate
// payload — the caps exist so a client cannot stream an unbounded body into
// the decoder.
const (
	maxMetaBody  = 16 << 10
	maxRuleBody  = 64 << 10
	maxEventBody = 64 << 10
)

// decodeBody decodes a JSON request body of at most limit bytes into v.
// Oversized bodies answer 413, malformed ones 400.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
		return false
	}
	writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	return false
}

// ---- users ----

type userRequest struct {
	Name      string   `json:"name"`
	Favorites []string `json:"favorites,omitempty"`
}

func (h *HTTPHandler) postUsers(w http.ResponseWriter, r *http.Request) {
	var req userRequest
	if !decodeBody(w, r, maxMetaBody, &req) {
		return
	}
	// The hub registers the normalized form; echo that, not the raw request
	// name, so clients address the user the hub actually knows.
	name := vocab.Normalize(req.Name)
	if name == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "fleet: empty user name"})
		return
	}
	if err := h.hub.RegisterUser(r.PathValue("home"), req.Name, req.Favorites...); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, name)
}

func (h *HTTPHandler) getUsers(w http.ResponseWriter, r *http.Request) {
	users, err := h.hub.Users(r.PathValue("home"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, users)
}

// ---- rules ----

type ruleRequest struct {
	Source string `json:"source"`
	Owner  string `json:"owner"`
}

type ruleBody struct {
	ID     string `json:"id"`
	Owner  string `json:"owner"`
	Device string `json:"device"`
	Action string `json:"action"`
	Cond   string `json:"cond"`
	Source string `json:"source"`
}

type submitBody struct {
	Rule        *ruleBody  `json:"rule,omitempty"`
	DefinedWord string     `json:"definedWord,omitempty"`
	Conflicts   []ruleBody `json:"conflicts,omitempty"`
}

func toRuleBody(r *core.Rule) ruleBody {
	return ruleBody{
		ID:     r.ID,
		Owner:  r.Owner,
		Device: r.Device.Key(),
		Action: r.Action.String(),
		Cond:   r.Cond.String(),
		Source: r.Source,
	}
}

func (h *HTTPHandler) postRules(w http.ResponseWriter, r *http.Request) {
	var req ruleRequest
	if !decodeBody(w, r, maxRuleBody, &req) {
		return
	}
	res, err := h.hub.Submit(r.PathValue("home"), req.Source, req.Owner)
	if err != nil {
		writeError(w, err)
		return
	}
	body := submitBody{DefinedWord: res.DefinedWord}
	if res.Rule != nil {
		rb := toRuleBody(res.Rule)
		body.Rule = &rb
	}
	for _, c := range res.Conflicts {
		body.Conflicts = append(body.Conflicts, toRuleBody(c.Existing))
	}
	writeJSON(w, http.StatusCreated, body)
}

func (h *HTTPHandler) getRules(w http.ResponseWriter, r *http.Request) {
	rules, err := h.hub.Rules(r.PathValue("home"))
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]ruleBody, 0, len(rules))
	for _, rule := range rules {
		out = append(out, toRuleBody(rule))
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *HTTPHandler) deleteRule(w http.ResponseWriter, r *http.Request) {
	if err := h.hub.RemoveRule(r.PathValue("home"), r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- priorities ----

type priorityRequest struct {
	Device  core.DeviceRef `json:"device"`
	Users   []string       `json:"users"`
	Context string         `json:"context,omitempty"`
}

func (h *HTTPHandler) postPriority(w http.ResponseWriter, r *http.Request) {
	var req priorityRequest
	if !decodeBody(w, r, maxMetaBody, &req) {
		return
	}
	if err := h.hub.SetPriority(r.PathValue("home"), req.Device, req.Users, req.Context); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- log, homes, stats ----

type firedBody struct {
	Time   string `json:"time"`
	Rule   string `json:"rule"`
	Device string `json:"device"`
	Action string `json:"action"`
	Error  string `json:"error,omitempty"`
}

func (h *HTTPHandler) getLog(w http.ResponseWriter, r *http.Request) {
	log, err := h.hub.Log(r.PathValue("home"))
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]firedBody, 0, len(log))
	for _, f := range log {
		fb := firedBody{
			Time:   f.Time.Format(time.RFC3339),
			Rule:   f.Rule.ID,
			Device: f.Rule.Device.Key(),
			Action: f.Rule.Action.String(),
		}
		if f.Err != nil {
			fb.Error = f.Err.Error()
		}
		out = append(out, fb)
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *HTTPHandler) getHomeStats(w http.ResponseWriter, r *http.Request) {
	st, err := h.hub.HomeStats(r.PathValue("home"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// compactBody reports one forced symbol-compaction epoch. Compacted is
// false when the home's engine runs an oracle mode and holds no ids.
type compactBody struct {
	Compacted bool `json:"compacted"`
	engine.CompactStats
}

func (h *HTTPHandler) postHomeCompact(w http.ResponseWriter, r *http.Request) {
	st, compacted, err := h.hub.CompactHome(r.PathValue("home"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, compactBody{Compacted: compacted, CompactStats: st})
}

func (h *HTTPHandler) getHomes(w http.ResponseWriter, _ *http.Request) {
	homes, err := h.hub.Homes()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, homes)
}

// statsBody extends the hub's counters with the metric registry's totals and
// the admission controller's shed counters, so one stats call answers "what
// is the fleet doing" without a second scrape.
type statsBody struct {
	Stats
	Totals    obs.Totals             `json:"totals"`
	Admission *ingest.AdmissionStats `json:"admission,omitempty"`
	Store     *storeStatsBody        `json:"store,omitempty"`
}

// storeStatsBody is the store-backend block of /fleet/stats: the metric
// registry's counters plus, for backends with a breaker (remote store), the
// live health snapshot.
type storeStatsBody struct {
	obs.StoreTotals
	Health *StoreHealth `json:"health,omitempty"`
}

func (h *HTTPHandler) getStats(w http.ResponseWriter, _ *http.Request) {
	st, err := h.hub.Stats()
	if err != nil {
		writeError(w, err)
		return
	}
	body := statsBody{Stats: st, Totals: h.hub.metrics.Totals()}
	if adm := h.admission(); adm != nil {
		s := adm.Stats()
		body.Admission = &s
	}
	if h.hub.store != nil {
		store := &storeStatsBody{StoreTotals: h.hub.metrics.StoreTotals()}
		if health, ok := h.hub.StoreHealth(); ok {
			store.Health = &health
			store.Degraded = health.Degraded // live truth beats the gauge
		}
		body.Store = store
	}
	writeJSON(w, http.StatusOK, body)
}

// admission digs the admission controller out of the configured event sink;
// nil when the sink is not an *ingest.Sink or admission is disabled.
func (h *HTTPHandler) admission() *ingest.Admission {
	if s, ok := h.eventSink.(*ingest.Sink); ok {
		return s.Admission()
	}
	return nil
}

// getMetrics is the Prometheus text endpoint: the registry's counters and
// histograms (flushed via the hub's barrier), plus the transport-side gauges
// that live outside the registry — admission shed counts, posted events and
// per-shard queue depths.
func (h *HTTPHandler) getMetrics(w http.ResponseWriter, _ *http.Request) {
	m := h.hub.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WritePrometheus(w)

	fmt.Fprintf(w, "# HELP cadel_events_posted_total Device events accepted by the hub.\n")
	fmt.Fprintf(w, "# TYPE cadel_events_posted_total counter\n")
	fmt.Fprintf(w, "cadel_events_posted_total %d\n", h.hub.EventsAccepted())

	if adm := h.admission(); adm != nil {
		st := adm.Stats()
		fmt.Fprintf(w, "# HELP cadel_ingest_shed_total Events refused by admission control.\n")
		fmt.Fprintf(w, "# TYPE cadel_ingest_shed_total counter\n")
		fmt.Fprintf(w, "cadel_ingest_shed_total{cause=\"rate\"} %d\n", st.ShedRate)
		fmt.Fprintf(w, "cadel_ingest_shed_total{cause=\"backlog\"} %d\n", st.ShedBacklog)
	}

	fmt.Fprintf(w, "# HELP cadel_shard_queue_depth Tasks waiting in each shard mailbox.\n")
	fmt.Fprintf(w, "# TYPE cadel_shard_queue_depth gauge\n")
	for i, depth := range h.hub.ShardQueues() {
		fmt.Fprintf(w, "cadel_shard_queue_depth{shard=\"%d\"} %d\n", i, depth)
	}
}

// getTrace serves a home's records in its shard's firing-trace ring with
// explain filters: ?device= keeps decisions for one device (by key or bare
// name), ?rule= keeps decisions where the rule won or lost, ?n= keeps the
// newest n passes.
func (h *HTTPHandler) getTrace(w http.ResponseWriter, r *http.Request) {
	traces, err := h.hub.Trace(r.PathValue("home"))
	if err != nil {
		writeError(w, err)
		return
	}
	q := r.URL.Query()
	traces = filterTraces(traces, q.Get("rule"), q.Get("device"))
	if nStr := q.Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "fleet: bad n"})
			return
		}
		if n < len(traces) {
			traces = traces[len(traces)-n:]
		}
	}
	if traces == nil {
		traces = []engine.PassTrace{}
	}
	writeJSON(w, http.StatusOK, traces)
}

// filterTraces applies the rule/device explain filters: passes keep only
// matching decisions, and passes left with none are dropped entirely.
func filterTraces(traces []engine.PassTrace, rule, device string) []engine.PassTrace {
	if rule == "" && device == "" {
		return traces
	}
	out := make([]engine.PassTrace, 0, len(traces))
	for _, p := range traces {
		var decs []engine.TraceDecision
		for _, d := range p.Decisions {
			if device != "" && d.Device != device && !strings.HasSuffix(d.Device, "/"+device) {
				continue
			}
			if rule != "" && !decisionMentions(d, rule) {
				continue
			}
			decs = append(decs, d)
		}
		if len(decs) == 0 {
			continue
		}
		p.Decisions = decs
		out = append(out, p)
	}
	return out
}

func decisionMentions(d engine.TraceDecision, rule string) bool {
	if d.Winner == rule {
		return true
	}
	for _, l := range d.Losers {
		if l.Rule == rule {
			return true
		}
	}
	return false
}

func (h *HTTPHandler) postCompact(w http.ResponseWriter, _ *http.Request) {
	if err := h.hub.Compact(); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
