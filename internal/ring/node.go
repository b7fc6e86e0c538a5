package ring

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/logserver"
)

// Node is one ring member: a hub plus its fleet HTTP handler, wrapped with
// ownership routing, the migration transfer endpoint, liveness/readiness
// probes and per-node ring gauges on /metrics. It keeps no ownership state:
// the hub's placement table (fleet/migrate.go) and the ring's hash decide.
type Node struct {
	self  string // advertised address (host:port), also the ring member id
	hub   *fleet.Hub
	inner http.Handler
	ring  *Ring

	// transferMu serializes imports so a duplicated delivery racing the
	// original cannot interleave two wholesale-replaces of the same home;
	// it guards imports.
	transferMu sync.Mutex
	// imports marks completed transfers by migration id: a duplicated or
	// retried delivery of an already-applied transfer is acked idempotently
	// instead of re-imported.
	imports map[string]importMark

	draining atomic.Bool

	// transferHook, when set (tests), runs at each step of the target-side
	// transfer. Returning an error turns the step into a 500 — the
	// fault-injection point for "the target died at step X".
	transferHook func(step string) error

	// client posts transfers to peers; tests swap in fault-injecting
	// transports here.
	client *http.Client

	migSeq atomic.Uint64
	// nonce distinguishes migration ids minted by different incarnations of
	// the same address (a restarted source resets migSeq; the nonce keeps a
	// replayed old transfer from matching a new migration's idempotency
	// mark).
	nonce int64
}

type importMark struct {
	migration string
	lines     uint64
}

// NodeConfig configures NewNode.
type NodeConfig struct {
	// Self is the node's advertised address (host:port); it must be listed
	// in Peers.
	Self string
	// Hub is the node's hub.
	Hub *fleet.Hub
	// Handler is the fleet HTTP handler served for owned homes (typically
	// fleet.NewHTTPHandler(Hub, ...)).
	Handler http.Handler
	// Peers is the initial ring membership, Self included.
	Peers []string
	// TransferHook is a test hook run at each target-side transfer step
	// ("received", "pre-import", "post-import", "pre-ack"); an error fails
	// the step with a 500.
	TransferHook func(step string) error
	// Client posts migration transfers to peers. Defaults to a dedicated
	// client that does not follow redirects (transfer endpoints never
	// redirect; fleet requests proxied by tests should).
	Client *http.Client
}

// NewNode builds a ring node around a hub and its HTTP handler.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("ring: node needs a self address")
	}
	if cfg.Hub == nil || cfg.Handler == nil {
		return nil, fmt.Errorf("ring: node needs a hub and a handler")
	}
	peers := cfg.Peers
	if len(peers) == 0 {
		peers = []string{cfg.Self}
	}
	found := false
	for _, p := range peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("ring: self %q not in peers %v", cfg.Self, peers)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Node{
		self:         cfg.Self,
		hub:          cfg.Hub,
		inner:        cfg.Handler,
		ring:         New(peers...),
		imports:      make(map[string]importMark),
		transferHook: cfg.TransferHook,
		client:       client,
		nonce:        time.Now().UnixNano(),
	}, nil
}

// Self returns the node's advertised address.
func (n *Node) Self() string { return n.self }

// Ring returns the node's ring view.
func (n *Node) Ring() *Ring { return n.ring }

// Hub returns the node's hub.
func (n *Node) Hub() *fleet.Hub { return n.hub }

// SetDraining flips the readiness probe: a draining node answers 503 on
// /readyz so supervisors and load balancers stop sending it new work while
// in-flight requests finish.
func (n *Node) SetDraining(d bool) { n.draining.Store(d) }

// Owner returns who owns home right now: one lookup in the hub's placement
// table (a home sealed or adopted here is this node's, a released one its
// new owner's), then the ring's hash. The table is in-memory, so rebalancing
// migrates homes TOWARD their hash owner.
func (n *Node) Owner(home string) string {
	switch p := n.hub.Placement(home); {
	case p.State == fleet.PlaceSealed || p.State == fleet.PlaceAdopted:
		return n.self
	case p.State == fleet.PlaceReleased && p.Owner != "":
		return p.Owner
	}
	return n.ring.Owner(home)
}

// overrides renders the placement entries that route a home off its hash:
// released homes to their new owner, adopted ones to this node.
func (n *Node) overrides() map[string]string {
	out := make(map[string]string)
	for home, p := range n.hub.Placements() {
		switch p.State {
		case fleet.PlaceReleased:
			out[home] = p.Owner
		case fleet.PlaceAdopted:
			out[home] = n.self
		}
	}
	return out
}

func (n *Node) hook(step string) error {
	if n.transferHook == nil {
		return nil
	}
	return n.transferHook(step)
}

// ServeHTTP routes per-home fleet requests by ownership (pass-through when
// this node owns the home, 307 + owner address otherwise) and serves the
// ring's own endpoints:
//
//	GET  /healthz                    liveness (process is up)
//	GET  /readyz                     readiness (not draining, store healthy)
//	GET  /ring                       membership + ownership summary
//	POST /ring/members {"members"}   replace membership (triggers rebalance
//	                                 in the caller; see Rebalance)
//	POST /ring/migrate {"home","target"}  migrate one home off this node
//	POST /ring/transfer/{home}?migration=  target side of a migration
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		n.handleHealthz(w, r)
	case path == "/readyz":
		n.handleReadyz(w, r)
	case path == "/ring" && r.Method == http.MethodGet:
		n.handleRingStatus(w, r)
	case path == "/ring/members" && r.Method == http.MethodPost:
		n.handleSetMembers(w, r)
	case path == "/ring/migrate" && r.Method == http.MethodPost:
		n.handleMigrate(w, r)
	case strings.HasPrefix(path, "/ring/transfer/") && r.Method == http.MethodPost:
		n.handleTransfer(w, r)
	case path == "/metrics":
		n.handleMetrics(w, r)
	default:
		if home := homeFromPath(path); home != "" {
			if owner := n.Owner(home); owner != "" && owner != n.self {
				n.redirect(w, r, owner)
				return
			}
		}
		n.inner.ServeHTTP(w, r)
	}
}

// homeFromPath extracts the {home} segment of /fleet/homes/{home}[/...].
func homeFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/fleet/homes/")
	if !ok || rest == "" {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// redirect answers 307 with the owner's address, preserving method, path and
// body (clients with GetBody re-send POST bodies on 307 automatically).
func (n *Node) redirect(w http.ResponseWriter, r *http.Request, owner string) {
	target := "http://" + owner + r.URL.RequestURI()
	w.Header().Set("X-Ring-Owner", owner)
	http.Redirect(w, r, target, http.StatusTemporaryRedirect)
}

func (n *Node) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

type readyBody struct {
	Ready   bool   `json:"ready"`
	Reason  string `json:"reason,omitempty"`
	Sealed  int    `json:"sealed_homes"`
	Members int    `json:"ring_members"`
}

func (n *Node) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := readyBody{Ready: true, Sealed: n.hub.SealedHomes(), Members: len(n.ring.Members())}
	if n.draining.Load() {
		body.Ready = false
		body.Reason = "draining"
	} else if sh, ok := n.hub.StoreHealth(); ok && sh.Degraded {
		body.Ready = false
		body.Reason = "store degraded"
	}
	status := http.StatusOK
	if !body.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

type ringStatus struct {
	Self      string            `json:"self"`
	Members   []string          `json:"members"`
	Homes     int               `json:"homes"`
	Sealed    int               `json:"sealed_homes"`
	Overrides map[string]string `json:"overrides,omitempty"`
}

func (n *Node) handleRingStatus(w http.ResponseWriter, _ *http.Request) {
	homes, err := n.hub.Homes()
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	st := ringStatus{Self: n.self, Members: n.ring.Members(), Homes: len(homes),
		Sealed: n.hub.SealedHomes(), Overrides: n.overrides()}
	writeJSON(w, http.StatusOK, st)
}

type membersRequest struct {
	Members []string `json:"members"`
}

func (n *Node) handleSetMembers(w http.ResponseWriter, r *http.Request) {
	var req membersRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if len(req.Members) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "ring: empty membership"})
		return
	}
	n.ring.SetMembers(req.Members)
	// Membership changed: migrate every resident home whose hash owner is no
	// longer this node. Runs in the background — the rebalance is a sequence
	// of individually-converging migrations, not a transaction. The context
	// must outlive this request: net/http cancels r.Context() when the
	// handler returns, which would cancel every transfer mid-rebalance.
	ctx := context.WithoutCancel(r.Context())
	go func() {
		if err := n.Rebalance(ctx); err != nil {
			slog.Error("ring: rebalance after membership change", "node", n.self, "err", err)
		}
	}()
	writeJSON(w, http.StatusOK, membersRequest{Members: n.ring.Members()})
}

type migrateRequest struct {
	Home   string `json:"home"`
	Target string `json:"target"`
}

type migrateResponse struct {
	Home   string `json:"home"`
	Target string `json:"target"`
}

func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req migrateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<10)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if req.Home == "" || req.Target == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "ring: migrate needs home and target"})
		return
	}
	if err := n.Migrate(r.Context(), req.Home, req.Target); err != nil {
		writeJSON(w, statusOf(err), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, migrateResponse{Home: req.Home, Target: req.Target})
}

// transferAck is the target's answer to a completed transfer. Lines echoes
// how many records the target holds for this migration id; the source
// releases ownership only when it matches what it sent (the replay-end
// trailer check, round-tripped).
type transferAck struct {
	Home      string `json:"home"`
	Migration string `json:"migration"`
	Lines     uint64 `json:"lines"`
	// Applied is false when this delivery was a duplicate of an
	// already-applied transfer.
	Applied bool `json:"applied"`
}

// handleTransfer is the target side of a migration: decode the record
// stream (trailer-validated — a stream cut short by a dying source answers
// 400 and is never partially applied), import the home wholesale, remember
// the migration id, and ack with the line count.
func (n *Node) handleTransfer(w http.ResponseWriter, r *http.Request) {
	home := strings.TrimPrefix(r.URL.Path, "/ring/transfer/")
	mig := r.URL.Query().Get("migration")
	if home == "" || strings.Contains(home, "/") || mig == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "ring: transfer needs /ring/transfer/{home}?migration="})
		return
	}
	if err := n.hook("received"); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	recs, _, err := logserver.ReadReplayStream(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	lines := uint64(len(recs))

	n.transferMu.Lock()
	defer n.transferMu.Unlock()

	mark, done := n.imports[home]
	if done && mark.migration == mig {
		writeJSON(w, http.StatusOK, transferAck{Home: home, Migration: mig, Lines: mark.lines, Applied: false})
		return
	}

	exp := &fleet.HomeExport{Home: home}
	for _, rec := range recs {
		if rec.Home != home {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("ring: transfer for %q carries record of %q", home, rec.Home)})
			return
		}
		if rec.Kind == fleet.RecordMigrationState {
			st := &engine.StateExport{}
			if err := json.Unmarshal(rec.State, st); err != nil {
				writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
				return
			}
			exp.State = st
			continue
		}
		exp.Records = append(exp.Records, rec)
	}

	if err := n.hook("pre-import"); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	if err := n.hub.ImportHome(exp); err != nil {
		writeJSON(w, statusOf(err), errorBody{Error: err.Error()})
		return
	}
	// A kill here (post-import, pre-mark) loses the idempotency mark but not
	// the import: the source's retry re-imports wholesale onto the same
	// records — convergent, because the target serves nothing for this home
	// until the source releases.
	if err := n.hook("post-import"); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	n.imports[home] = importMark{migration: mig, lines: lines}
	n.hub.MetricsRegistry().Migration.Imported.Inc()
	if err := n.hook("pre-ack"); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, transferAck{Home: home, Migration: mig, Lines: lines, Applied: true})
}

// handleMetrics serves the hub's exposition and appends the per-node ring
// gauges (the inner handler streams without Content-Length, so appending to
// the same response is safe).
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n.inner.ServeHTTP(w, r)
	homes, err := n.hub.Homes()
	if err != nil {
		return
	}
	fmt.Fprintf(w, "# HELP cadel_ring_members Ring membership size as this node sees it.\n")
	fmt.Fprintf(w, "# TYPE cadel_ring_members gauge\ncadel_ring_members %d\n", len(n.ring.Members()))
	fmt.Fprintf(w, "# HELP cadel_ring_homes_owned Homes resident on this node.\n")
	fmt.Fprintf(w, "# TYPE cadel_ring_homes_owned gauge\ncadel_ring_homes_owned %d\n", len(homes))
	fmt.Fprintf(w, "# HELP cadel_ring_homes_sealed Homes sealed for migration on this node.\n")
	fmt.Fprintf(w, "# TYPE cadel_ring_homes_sealed gauge\ncadel_ring_homes_sealed %d\n", n.hub.SealedHomes())
	fmt.Fprintf(w, "# HELP cadel_ring_ownership_overrides Placement entries routing a home off its hash owner.\n")
	fmt.Fprintf(w, "# TYPE cadel_ring_ownership_overrides gauge\ncadel_ring_ownership_overrides %d\n", len(n.overrides()))
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func statusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, fleet.ErrNoHome):
		return http.StatusNotFound
	case errors.Is(err, fleet.ErrHomeSealed),
		errors.Is(err, fleet.ErrStoreDegraded),
		errors.Is(err, fleet.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrMigrationInFlight):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}
