package fleet

import (
	"errors"
	"fmt"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/vocab"
)

// Conflict pairs a new rule with an existing rule it can clash with.
type Conflict = conflict.Conflict

// Home is one home's complete server state: lexicon, compiler, rule
// database, priority table, conflict checker and execution engine — the five
// modules of the paper's Fig. 3, minus the UPnP communication interface,
// which stays with the transport that feeds the hub. A Home is owned by
// exactly one shard; all methods run on the shard's current owner — its
// goroutine, or a poster running its own event inline — or during replay,
// before the shard starts, so they need no locking of their own.
type Home struct {
	id         string
	lex        *vocab.Lexicon
	compiler   *core.Compiler
	db         *registry.DB
	priorities *conflict.Table
	checker    conflict.Checker
	engine     *engine.Engine
	rules      *ruleTable // the shard's compiled-rule table, shared by its homes
	pending    bool       // queued in the shard's pending list (shard.flush)

	users     []string
	favorites map[string][]string // made on the first SetFavorites
	// words tracks the definitions THIS home made, in definition order. The
	// lexicon cannot be consulted for this: it also holds the built-in
	// entries, and a custom LexiconFactory may share one lexicon across
	// homes, whose words a per-home snapshot would then duplicate (and fail
	// to replay).
	words     []wordDef
	authorize Authorizer
	ruleSeq   uint64
}

// wordDef is one user-defined word registered by this home.
type wordDef struct {
	kind   vocab.Kind
	name   string
	source string
	owner  string
}

func newHome(id string, c *config, batch engine.BatchDispatcher, sm *obs.ShardMetrics, tr *engine.TraceRing, rules *ruleTable) *Home {
	lex := c.lexicon(id)
	h := &Home{
		id:         id,
		lex:        lex,
		compiler:   core.NewCompiler(lex),
		db:         registry.New(),
		priorities: conflict.NewTable(),
		rules:      rules,
		authorize:  c.authorize,
	}
	engineOpts := []engine.Option{
		engine.WithEventTTL(c.eventTTL),
		engine.WithBatchDispatcher(batch),
		engine.WithTrace(tr),
	}
	if sm != nil {
		engineOpts = append(engineOpts, engine.WithMetrics(&sm.Engine))
	}
	if c.logLimit > 0 {
		engineOpts = append(engineOpts, engine.WithLogLimit(c.logLimit))
	}
	if c.fullScan {
		engineOpts = append(engineOpts, engine.WithFullScan())
	}
	if c.onFire != nil {
		fn := c.onFire
		engineOpts = append(engineOpts, engine.WithOnFire(func(f engine.Fired) { fn(id, f) }))
	}
	h.engine = engine.New(h.db, h.priorities, c.now, engineOpts...)
	return h
}

// ID returns the home's identifier.
func (h *Home) ID() string { return h.id }

// Lexicon returns the home's lexicon (concurrency-safe on its own).
func (h *Home) Lexicon() *vocab.Lexicon { return h.lex }

// RegisterUser adds a home user with optional favourite keywords.
func (h *Home) RegisterUser(name string, favorites ...string) error {
	name = vocab.Normalize(name)
	if name == "" {
		return errors.New("fleet: empty user name")
	}
	if h.isUser(name) {
		return fmt.Errorf("%w: %q (person)", vocab.ErrDuplicate, name)
	}
	// A LexiconFactory may hand several homes one lexicon, where another home
	// may have added the person already; per-home duplicates are caught above.
	if err := h.lex.Add(vocab.Entry{Phrase: name, Kind: vocab.KindPerson}); err != nil && !errors.Is(err, vocab.ErrDuplicate) {
		return err
	}
	h.users = append(h.users, name)
	h.engine.SetUsers(append([]string(nil), h.users...))
	if len(favorites) > 0 {
		h.SetFavorites(name, favorites)
	}
	return nil
}

// Users returns the registered users.
func (h *Home) Users() []string { return append([]string(nil), h.users...) }

func (h *Home) isUser(name string) bool {
	for _, u := range h.users {
		if u == name {
			return true
		}
	}
	return false
}

// SetFavorites registers a user's favourite keywords.
func (h *Home) SetFavorites(user string, keywords []string) {
	user = vocab.Normalize(user)
	if h.favorites == nil {
		h.favorites = make(map[string][]string)
	}
	h.favorites[user] = append([]string(nil), keywords...)
	h.engine.SetFavorites(user, keywords)
}

// Submit parses and registers one CADEL command for the owner: a rule
// definition, a condition-word definition or a configuration-word
// definition. Rule submissions run the consistency check (inconsistent rules
// are rejected with ErrInconsistent) and the conflict check (conflicting
// rules are registered and reported so the user can set a priority order).
// A rule text the shard compiled before for the same owner and vocabulary
// is not parsed again (see ruleTable); every check still runs.
func (h *Home) Submit(source, owner string) (*Result, error) {
	owner = vocab.Normalize(owner)
	if !h.isUser(owner) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, owner)
	}
	rule, cmd, err := h.compile(source, owner, func() string { return h.nextRuleID(owner) })
	if err != nil {
		return nil, err
	}
	if rule != nil {
		return h.submitRule(rule)
	}
	switch c := cmd.(type) {
	case *lang.CondDef:
		exprSource := c.Expr.String()
		// Validate the definition compiles before registering the word.
		if _, err := h.compiler.CompileCondExpr(c.Expr, owner); err != nil {
			return nil, err
		}
		if err := h.lex.DefineCondWord(c.Name, exprSource, owner); err != nil {
			return nil, err
		}
		h.words = append(h.words, wordDef{vocab.KindCondWord, vocab.Normalize(c.Name), exprSource, owner})
		return &Result{
			DefinedWord: vocab.Normalize(c.Name),
			WordKind:    vocab.KindCondWord,
			WordSource:  exprSource,
		}, nil
	case *lang.ConfDef:
		parts := make([]string, len(c.Confs))
		for i, item := range c.Confs {
			parts[i] = item.String()
		}
		confSource := joinAnd(parts)
		if err := h.lex.DefineConfWord(c.Name, confSource, owner); err != nil {
			return nil, err
		}
		h.words = append(h.words, wordDef{vocab.KindConfWord, vocab.Normalize(c.Name), confSource, owner})
		return &Result{
			DefinedWord: vocab.Normalize(c.Name),
			WordKind:    vocab.KindConfWord,
			WordSource:  confSource,
		}, nil
	default:
		return nil, fmt.Errorf("fleet: unsupported command %T", cmd)
	}
}

// submitRule runs a submitted rule's authorization, consistency and conflict
// checks and registers it.
func (h *Home) submitRule(rule *core.Rule) (*Result, error) {
	if h.authorize != nil && !h.authorize(h.id, rule.Owner, rule.Device, rule.Action.Verb) {
		return nil, fmt.Errorf("%w: %s on %s by %s", ErrForbidden, rule.Action.Verb, rule.Device, rule.Owner)
	}
	ok, err := h.checker.Consistent(rule)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrInconsistent, rule.Cond)
	}
	candidates := h.db.SameDevice(rule.Device)
	conflicts, err := h.checker.FindConflicts(rule, candidates)
	if err != nil {
		return nil, err
	}
	if err := h.addRule(rule); err != nil {
		return nil, err
	}
	h.engine.Tick()
	return &Result{Rule: rule, Conflicts: conflicts}, nil
}

// addRule registers a compiled rule and counts its template reference.
func (h *Home) addRule(rule *core.Rule) error {
	if err := h.db.Add(rule); err != nil {
		return err
	}
	h.rules.hold(rule)
	return nil
}

// nextRuleID generates an unused "<owner>-<n>" rule id. Replayed rules keep
// their stored ids, so the sequence probes past collisions.
func (h *Home) nextRuleID(owner string) string {
	for {
		h.ruleSeq++
		id := fmt.Sprintf("%s-%d", owner, h.ruleSeq)
		if _, exists := h.db.Get(id); !exists {
			return id
		}
	}
}

func joinAnd(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " and "
		}
		out += p
	}
	return out
}

// compileSource recompiles one stored rule source against the home's lexicon.
func (h *Home) compileSource(source, id, owner string) (*core.Rule, error) {
	rule, _, err := h.compile(source, owner, func() string { return id })
	if err == nil && rule == nil {
		err = fmt.Errorf("fleet: %q is not a rule", source)
	}
	return rule, err
}

// restoreRule re-registers a persisted rule under its original id, skipping
// the consistency and conflict checks that ran at original submission.
func (h *Home) restoreRule(id, owner, source string) error {
	rule, err := h.compileSource(source, id, owner)
	if err != nil {
		return err
	}
	if err := h.addRule(rule); err != nil {
		return err
	}
	h.engine.Tick()
	return nil
}

// RemoveRule deletes a rule by id.
func (h *Home) RemoveRule(id string) error {
	rule, _ := h.db.Get(id)
	if err := h.db.Remove(id); err != nil {
		return err
	}
	h.rules.release(rule)
	return nil
}

// releaseRules drops every rule's template reference when the home leaves
// its shard.
func (h *Home) releaseRules() {
	for _, r := range h.db.All() {
		h.rules.release(r)
	}
}

// Rules returns all registered rules in registration order.
func (h *Home) Rules() []*core.Rule { return h.db.All() }

// RulesByOwner returns one user's rules.
func (h *Home) RulesByOwner(owner string) []*core.Rule {
	return h.db.ByOwner(vocab.Normalize(owner))
}

// ExportRules serializes the rule database (Sect. 4.3(iv)).
func (h *Home) ExportRules() ([]byte, error) { return h.db.Export() }

// ImportRules loads rules exported by ExportRules, recompiling their CADEL
// sources against this home's lexicon. It returns how many rules were added
// and their serialized records (for persistence).
func (h *Home) ImportRules(data []byte) (int, []registry.Record, error) {
	n, err := h.db.Import(data, h.compileSource)
	all := h.db.All()
	for _, r := range all[len(all)-n:] {
		h.rules.hold(r)
	}
	if n > 0 {
		h.engine.Tick()
	}
	recs := h.db.Records()
	return n, recs[len(recs)-n:], err
}

// SetPriority records a priority order for a device: users listed highest
// first, optionally attached to a context written in CADEL condition syntax.
// An empty context makes it the device's default order (Sect. 3.2, Fig. 7).
func (h *Home) SetPriority(ref core.DeviceRef, users []string, contextSource string) error {
	order := conflict.Order{Device: ref, ContextSource: contextSource}
	for _, u := range users {
		order.Users = append(order.Users, vocab.Normalize(u))
	}
	if contextSource != "" {
		expr, err := lang.ParseCondExpr(contextSource, h.lex)
		if err != nil {
			return fmt.Errorf("fleet: priority context: %w", err)
		}
		cond, err := h.compiler.CompileCondExpr(expr, "")
		if err != nil {
			return fmt.Errorf("fleet: priority context: %w", err)
		}
		order.Context = cond
	}
	h.priorities.Set(order)
	h.engine.Tick()
	return nil
}

// PriorityOrders returns the orders applying to a device, contextual first.
// The slice is the priority table's generation-gated cache (immutable once
// built; a later SetPriority produces a fresh one): treat it as read-only.
func (h *Home) PriorityOrders(ref core.DeviceRef) []conflict.Order {
	return h.priorities.OrdersFor(ref)
}

// Apply ingests one device event's context writes without evaluating and
// releases the event back to its pool — application is the end of its
// ownership chain. The shard flushes the accumulated dirty set in one pass
// afterwards.
func (h *Home) Apply(ev *ingest.Event) {
	h.engine.IngestEvent(ev)
	ev.Release()
}

// Flush runs one evaluation pass over everything ingested since the last.
func (h *Home) Flush() { h.engine.Tick() }

// Tick re-evaluates at the current clock time.
func (h *Home) Tick() { h.engine.Tick() }

// Log returns the home's fired-action log.
func (h *Home) Log() []engine.Fired { return h.engine.Log() }

// Context returns a copy of the home's current context.
func (h *Home) Context() *core.Context { return h.engine.Context() }

// Snapshot returns a cached read-only view of the home's current context.
// It is what observability endpoints should use: idle polls return the same
// object without cloning on the shard goroutine. Callers must not mutate it.
func (h *Home) Snapshot() *core.Context { return h.engine.Snapshot() }

// Symtab returns the home's symbol table. Each home owns exactly one (its
// rule database creates it; the engine and context share it), so symbol ids
// are meaningful only within the home — and only within the current
// compaction epoch (CompactSymbols).
func (h *Home) Symtab() *core.Symtab { return h.db.Symtab() }

// SymbolStats returns the home's symbol-table and id-slice footprint.
func (h *Home) SymbolStats() engine.SymbolStats { return h.engine.SymbolStats() }

// CompactSymbols forces a symbol-compaction epoch on the home's engine:
// live symbol ids are renumbered densely and every id holder (rule database,
// context, engine state, priority caches) is rewritten. The store is not
// involved — persisted records are CADEL source, and replay re-interns from
// scratch, so a rehydrated home naturally starts compact.
func (h *Home) CompactSymbols() (engine.CompactStats, bool) { return h.engine.CompactSymbols() }

// Owners returns the home's device → owning-rule-ID map.
func (h *Home) Owners() map[string]string { return h.engine.Owners() }

// Passes returns how many evaluation passes the home's engine has run.
func (h *Home) Passes() uint64 { return h.engine.Passes() }

// snapshotRecords serializes the home's durable state in dependency order:
// users (with favourites), user-defined words, rules, priority orders.
func (h *Home) snapshotRecords() []Record {
	var recs []Record
	for _, u := range h.users {
		recs = append(recs, Record{Home: h.id, Kind: RecordUser, User: u, Favorites: h.favorites[u]})
	}
	for _, w := range h.words {
		rk := RecordCondWord
		if w.kind == vocab.KindConfWord {
			rk = RecordConfWord
		}
		recs = append(recs, Record{Home: h.id, Kind: rk, Word: w.name, Owner: w.owner, Source: w.source})
	}
	for _, r := range h.db.Records() {
		recs = append(recs, Record{Home: h.id, Kind: RecordRule, ID: r.ID, Owner: r.Owner, Source: r.Source})
	}
	for _, o := range h.priorities.Orders() {
		dev := o.Device
		recs = append(recs, Record{
			Home: h.id, Kind: RecordPriority,
			Device: &dev, Users: append([]string(nil), o.Users...), Context: o.ContextSource,
		})
	}
	return recs
}

// ---- store-append rollbacks ----
// A mutation is undone when its store append fails, so in-memory state never
// outlives what a restart would rehydrate. Lexicon person entries are left
// in place (they may be shared across homes and are harmless alone).

func (h *Home) rollbackUser(name string) {
	name = vocab.Normalize(name)
	for i, u := range h.users {
		if u == name {
			h.users = append(h.users[:i:i], h.users[i+1:]...)
			break
		}
	}
	if _, had := h.favorites[name]; had {
		delete(h.favorites, name)
		h.engine.SetFavorites(name, nil)
	}
	h.engine.SetUsers(append([]string(nil), h.users...))
}

func (h *Home) rollbackRule(id string) {
	_ = h.RemoveRule(id)
	h.engine.Tick()
}

func (h *Home) rollbackWord(kind vocab.Kind, name string) {
	_ = h.lex.Remove(kind, name)
	for i := len(h.words) - 1; i >= 0; i-- {
		if h.words[i].kind == kind && h.words[i].name == name {
			h.words = append(h.words[:i:i], h.words[i+1:]...)
			break
		}
	}
}

// applyRecord replays one persisted mutation onto the home.
func (h *Home) applyRecord(rec Record) error {
	switch rec.Kind {
	case RecordUser:
		return h.RegisterUser(rec.User, rec.Favorites...)
	case RecordFavorites:
		h.SetFavorites(rec.User, rec.Favorites)
		return nil
	case RecordCondWord:
		if err := h.lex.DefineCondWord(rec.Word, rec.Source, rec.Owner); err != nil {
			return err
		}
		h.words = append(h.words, wordDef{vocab.KindCondWord, vocab.Normalize(rec.Word), rec.Source, rec.Owner})
		return nil
	case RecordConfWord:
		if err := h.lex.DefineConfWord(rec.Word, rec.Source, rec.Owner); err != nil {
			return err
		}
		h.words = append(h.words, wordDef{vocab.KindConfWord, vocab.Normalize(rec.Word), rec.Source, rec.Owner})
		return nil
	case RecordRule:
		return h.restoreRule(rec.ID, rec.Owner, rec.Source)
	case RecordRemove:
		return h.RemoveRule(rec.ID)
	case RecordPriority:
		if rec.Device == nil {
			return errors.New("fleet: priority record without device")
		}
		return h.SetPriority(*rec.Device, rec.Users, rec.Context)
	default:
		return fmt.Errorf("fleet: unknown record kind %q", rec.Kind)
	}
}
