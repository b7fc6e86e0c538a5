// Package cadel is the public API of the CADEL home server — a
// reproduction of "Framework and Rule-based Language for Facilitating
// Context-aware Computing using Information Appliances" (Nishigaki et al.,
// ICDCS 2005).
//
// A Server ties the framework's five modules together (Fig. 3 of the
// paper): the rule description support module (lexicon + lookup service),
// the CADEL rule database, the consistency & conflict check module, the
// rule execution module, and the UPnP communication interface. Since the
// fleet subsystem landed, a Server is a thin single-home client of a
// fleet.Hub: the rule database, priority table and execution engine live in
// the hub's one home, and the Server contributes what is inherently local —
// UPnP discovery, event subscriptions, the lookup service, and action
// dispatch to the discovered appliances. The home's id in the hub is
// HomeID, so a fleet API client addresses a home server's data as
// /fleet/homes/home/... (internal/httpapi). Multi-home deployments use
// internal/fleet's Hub directly (cmd/homeserver -fleet).
//
// Typical use:
//
//	network := cadel.NewNetwork()
//	hm, _ := home.New(network, home.DefaultConfig())   // virtual appliances
//	srv, _ := cadel.NewServer(network, cadel.WithClock(hm.Clock.Now))
//	defer srv.Close()
//	srv.RegisterUser("tom")
//	srv.DiscoverDevices(500 * time.Millisecond)
//	res, _ := srv.Submit("If hot and stuffy, turn on the air conditioner "+
//	    "with 25 degrees of temperature setting.", "tom")
package cadel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/lookup"
	"repro/internal/upnp"
	"repro/internal/vocab"
)

// Re-exported building blocks so applications only import this package.
type (
	// Network is the simulated LAN segment devices and the server share.
	Network = upnp.Network
	// Rule is a compiled CADEL rule object: its compiled template (device,
	// action, condition, source; read-only, possibly shared with other
	// rules) plus its own id and owner.
	Rule = core.Rule
	// DeviceRef identifies a rule's target device.
	DeviceRef = core.DeviceRef
	// Context is the world snapshot conditions are evaluated against.
	Context = core.Context
	// Conflict pairs a new rule with an existing rule it can clash with.
	Conflict = conflict.Conflict
	// Fired is one dispatched action in the execution log.
	Fired = engine.Fired
	// Query selects devices in the lookup service.
	Query = lookup.Query
	// RemoteDevice is a discovered UPnP device.
	RemoteDevice = upnp.RemoteDevice
	// SubmitResult reports the outcome of registering a CADEL command.
	SubmitResult = fleet.Result
	// SymbolStats is the home's symbol-table and id-slice footprint.
	SymbolStats = engine.SymbolStats
	// CompactStats reports one symbol-compaction epoch.
	CompactStats = engine.CompactStats
)

// NewNetwork creates a LAN segment.
func NewNetwork() *Network { return upnp.NewNetwork() }

// Errors reported by the server (defined by the fleet subsystem).
var (
	// ErrInconsistent marks a rule whose condition can never hold; the
	// server refuses it so the user can fix the condition (Sect. 4.4).
	ErrInconsistent = fleet.ErrInconsistent
	// ErrUnknownUser marks a submission by an unregistered user.
	ErrUnknownUser = fleet.ErrUnknownUser
	// ErrForbidden marks a rule whose owner lacks the privilege for the
	// target device and action (the paper's future-work security check).
	ErrForbidden = fleet.ErrForbidden
)

// Option configures a Server.
type Option interface{ apply(*options) }

type options struct {
	now      func() time.Time
	eventTTL time.Duration
	onFire   func(Fired)
	fullScan bool
	perms    *auth.Store
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithClock supplies the time source (e.g. a simulation clock).
func WithClock(now func() time.Time) Option {
	return optionFunc(func(o *options) { o.now = now })
}

// WithEventTTL sets how long arrival events ("alan got home from work")
// stay part of the context.
func WithEventTTL(ttl time.Duration) Option {
	return optionFunc(func(o *options) { o.eventTTL = ttl })
}

// WithOnFire installs a callback invoked after every dispatched action. It
// runs on the hub's shard goroutine; it must not call back into the Server.
func WithOnFire(fn func(Fired)) Option {
	return optionFunc(func(o *options) { o.onFire = fn })
}

// WithFullScanEngine makes the rule execution module re-evaluate every
// registered rule on every context change, as the paper's prototype does,
// over a plain map-backed context with unbound conditions, instead of the
// default symbol-interned incremental evaluation that only re-checks rules
// whose condition dependencies were touched. Mostly useful as an oracle or
// baseline; results are identical (see the engine's equivalence tests).
func WithFullScanEngine() Option {
	return optionFunc(func(o *options) { o.fullScan = true })
}

// WithPermissions installs a privilege store (the paper's future-work
// security mechanism): rule submissions are rejected when the owner lacks
// permission for the target device and action.
func WithPermissions(store *auth.Store) Option {
	return optionFunc(func(o *options) { o.perms = store })
}

// HomeID is the id of the Server's single home inside its hub — the
// {home} segment under which internal/httpapi serves the fleet API.
const HomeID = "home"

// Server is the CADEL home server: a fleet.Hub scoped to one home, plus the
// UPnP communication interface and the lookup service.
type Server struct {
	hub    *fleet.Hub
	lex    *vocab.Lexicon
	cp     *upnp.ControlPoint
	lookup *lookup.Service

	mu     sync.Mutex
	unsubs []func() error
}

// NewServer starts a home server on the network.
func NewServer(network *Network, opts ...Option) (*Server, error) {
	o := options{now: time.Now, eventTTL: 4 * time.Hour}
	for _, opt := range opts {
		opt.apply(&o)
	}
	cp, err := upnp.NewControlPoint(network)
	if err != nil {
		return nil, err
	}
	lex := vocab.Default()
	s := &Server{
		lex:    lex,
		cp:     cp,
		lookup: lookup.New(lex),
	}
	hubOpts := []fleet.HubOption{
		fleet.WithShards(1),
		fleet.WithClock(o.now),
		fleet.WithEventTTL(o.eventTTL),
		fleet.WithLexiconFactory(func(string) *vocab.Lexicon { return lex }),
		fleet.WithDispatcher(func(_ string, ref core.DeviceRef, action core.Action) error {
			return s.dispatch(ref, action)
		}),
	}
	if o.onFire != nil {
		fn := o.onFire
		hubOpts = append(hubOpts, fleet.WithOnFire(func(_ string, f Fired) { fn(f) }))
	}
	if o.fullScan {
		hubOpts = append(hubOpts, fleet.WithFullScan())
	}
	if o.perms != nil {
		perms := o.perms
		hubOpts = append(hubOpts, fleet.WithAuthorizer(
			func(_, owner string, ref core.DeviceRef, verb string) bool {
				return perms.Allowed(owner, ref, verb)
			}))
	}
	s.hub, err = fleet.NewHub(hubOpts...)
	if err != nil {
		_ = cp.Close()
		return nil, err
	}
	return s, nil
}

// Close stops the server, its subscriptions and its hub.
func (s *Server) Close() error {
	s.mu.Lock()
	unsubs := s.unsubs
	s.unsubs = nil
	s.mu.Unlock()
	for _, u := range unsubs {
		_ = u()
	}
	err := s.cp.Close()
	if herr := s.hub.Close(); err == nil {
		err = herr
	}
	return err
}

// ---- users ----

// RegisterUser adds a home user with optional favourite keywords (used by
// "my favorite movie is on air").
func (s *Server) RegisterUser(name string, favorites ...string) error {
	return s.hub.RegisterUser(HomeID, name, favorites...)
}

// Users returns the registered users.
func (s *Server) Users() []string {
	users, _ := s.hub.Users(HomeID)
	return users
}

// ---- devices ----

// DiscoverDevices searches the network and subscribes to the events of every
// discovered device. It returns the number of known devices.
func (s *Server) DiscoverDevices(window time.Duration) (int, error) {
	devices := s.cp.Search(upnp.TargetAll, window)
	var firstErr error
	for _, rd := range devices {
		if err := s.watch(rd); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return len(devices), firstErr
}

// watch subscribes to all services of a device and feeds events to the hub.
// Ingestion is asynchronous, but the hub's mailbox is FIFO per home: any
// Server call made after a subscription callback returns observes the event.
func (s *Server) watch(rd *upnp.RemoteDevice) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, svc := range rd.Services {
		rd := rd
		cancel, err := s.cp.Subscribe(rd, svc.ServiceType, func(vars map[string]string) {
			_ = s.hub.PostEvent(HomeID, rd.DeviceType, rd.FriendlyName, rd.Location, vars)
		})
		if err != nil {
			return fmt.Errorf("cadel: watch %s/%s: %w", rd.FriendlyName, svc.ServiceType, err)
		}
		s.unsubs = append(s.unsubs, cancel)
	}
	return nil
}

// Devices returns the discovered devices.
func (s *Server) Devices() []*RemoteDevice { return s.cp.Devices() }

// FindDevice retrieves one device by friendly name over the network
// (the paper's E1a operation).
func (s *Server) FindDevice(name string, window time.Duration) (*RemoteDevice, error) {
	return s.cp.FindByName(name, window)
}

// Find runs a lookup query over the discovered devices (Figs. 5-6).
func (s *Server) Find(q Query) []*RemoteDevice {
	return s.lookup.Find(s.cp.Devices(), q)
}

// AllowedVerbs lists the actions a device accepts.
func (s *Server) AllowedVerbs(rd *RemoteDevice) []string { return s.lookup.AllowedVerbs(rd) }

// WordsFor lists user-defined words involving the device's sensors.
func (s *Server) WordsFor(rd *RemoteDevice) []string { return s.lookup.WordsFor(rd) }

// ---- rule registration ----

// Submit parses and registers one CADEL command for the owner: a rule
// definition, a condition-word definition or a configuration-word
// definition. Rule submissions run the consistency check (inconsistent rules
// are rejected with ErrInconsistent) and the conflict check (conflicting
// rules are registered and reported so the user can set a priority order).
func (s *Server) Submit(source, owner string) (*SubmitResult, error) {
	return s.hub.Submit(HomeID, source, owner)
}

// RemoveRule deletes a rule by id.
func (s *Server) RemoveRule(id string) error { return s.hub.RemoveRule(HomeID, id) }

// Rules returns all registered rules in registration order.
func (s *Server) Rules() []*Rule {
	rules, _ := s.hub.Rules(HomeID)
	return rules
}

// RulesByOwner returns one user's rules.
func (s *Server) RulesByOwner(owner string) []*Rule {
	rules, _ := s.hub.RulesByOwner(HomeID, owner)
	return rules
}

// ExportRules serializes the rule database (Sect. 4.3(iv)).
func (s *Server) ExportRules() ([]byte, error) { return s.hub.ExportRules(HomeID) }

// ImportRules loads rules exported by ExportRules, recompiling their CADEL
// sources against this server's lexicon. Each rule runs Submit's checks, so
// its owner must be a registered user.
func (s *Server) ImportRules(data []byte) (int, error) {
	return s.hub.ImportRules(HomeID, data)
}

// SetPriority records a priority order for a device: users listed highest
// first, optionally attached to a context written in CADEL condition syntax
// ("alan got home from work"). An empty context makes it the device's
// default order (Sect. 3.2, Fig. 7).
func (s *Server) SetPriority(ref DeviceRef, users []string, contextSource string) error {
	return s.hub.SetPriority(HomeID, ref, users, contextSource)
}

// PriorityOrders returns the orders applying to a device, contextual orders
// first. The slice is a cached snapshot shared with the priority table:
// treat it as read-only.
func (s *Server) PriorityOrders(ref DeviceRef) []conflict.Order {
	orders, _ := s.hub.PriorityOrders(HomeID, ref)
	return orders
}

// ---- runtime ----

// Tick re-evaluates all rules at the current clock time. Call it after
// advancing a simulation clock.
func (s *Server) Tick() { _ = s.hub.Tick(HomeID) }

// Log returns the executed-action log. The log is a bounded ring (the
// fleet's DefaultLogLimit, most recent entries kept), so a long-running
// server does not grow it without bound.
func (s *Server) Log() []Fired {
	log, _ := s.hub.Log(HomeID)
	return log
}

// Snapshot returns a copy of the current context.
func (s *Server) Snapshot() *Context {
	ctx, _ := s.hub.Context(HomeID)
	return ctx
}

// SymbolStats returns the home's symbol-table and id-slice footprint (zero
// before the first user or rule registration materializes the home).
func (s *Server) SymbolStats() SymbolStats {
	st, err := s.hub.HomeStats(HomeID)
	if err != nil {
		return SymbolStats{}
	}
	return st.Symbols
}

// CompactSymbols forces a symbol-compaction epoch on the server's home:
// symbol ids orphaned by removed rules are reclaimed and the live ids
// renumbered densely. The engine also compacts automatically once enough
// ids are dead; this passthrough mirrors the fleet API's per-home compact
// endpoint. ok is false when there is nothing to compact (no home yet, or
// an oracle-mode engine).
func (s *Server) CompactSymbols() (CompactStats, bool) {
	st, compacted, err := s.hub.CompactHome(HomeID)
	if err != nil {
		return CompactStats{}, false
	}
	return st, compacted
}

// Hub exposes the server's underlying single-home fleet hub.
func (s *Server) Hub() *fleet.Hub { return s.hub }

// dispatch routes a rule action to the matching discovered device.
func (s *Server) dispatch(ref core.DeviceRef, action core.Action) error {
	var target *upnp.RemoteDevice
	for _, rd := range s.cp.Devices() {
		if rd.FriendlyName != ref.Name {
			continue
		}
		if ref.Location != "" && rd.Location != "" && rd.Location != ref.Location {
			continue
		}
		target = rd
		break
	}
	if target == nil {
		return fmt.Errorf("cadel: no discovered device matches %s", ref)
	}
	return device.ApplyAction(s.cp, target, action)
}
