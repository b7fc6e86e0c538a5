package fleet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

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
	journaled  bool       // a write appended a record for it (Hub.commit; see shard.exec)

	users []string
	// words tracks the definitions THIS home made, in definition order. The
	// lexicon cannot be consulted for this: it also holds the built-in
	// entries, and a custom LexiconFactory may share one lexicon across
	// homes, whose words a per-home snapshot would then duplicate (and fail
	// to replay).
	words     []wordDef
	authorize Authorizer
	ruleSeq   uint64 // the highest n of any "<owner>-<n>" rule id given or applied
}

// wordDef is one user-defined word registered by this home.
type wordDef struct {
	kind   RecordKind // RecordCondWord or RecordConfWord
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

// ---- writes: check, then apply ----
// A hub write runs in three steps on the home's shard (Hub.commit): check
// reads the home, changes nothing (but the rule-id counter, see
// checkSubmit) and builds the write's Record; the hub
// appends the record to its store; applyRecord then changes the home. A
// write whose check or append fails leaves the home as it was, so memory
// never holds what a restart would not rehydrate, and nothing needs undoing.
// Replay and migration import apply their records through applyRecord too
// (replayRecord).

// compiled is what a write's check compiled for its record, so that apply
// does not compile it again: a rule record's rule, a priority record's
// order. Replay and migration import pass the zero value, and applyRecord
// compiles the record's text.
type compiled struct {
	rule  *core.Rule
	order *conflict.Order
}

// checkUser checks a new user (optionally with favourite keywords) and
// returns its record.
func (h *Home) checkUser(name string, favorites []string) (Record, error) {
	name = vocab.Normalize(name)
	if name == "" {
		return Record{}, errors.New("fleet: empty user name")
	}
	if h.isUser(name) {
		return Record{}, fmt.Errorf("%w: %q (person)", vocab.ErrDuplicate, name)
	}
	return Record{Home: h.id, Kind: RecordUser, User: name, Favorites: favorites}, nil
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

// checkSubmit parses and checks one CADEL command for the owner: a rule
// definition, a condition-word definition or a configuration-word
// definition. It returns the command's record and the Result the hub
// reports once the record is applied. A rule runs the authorization,
// consistency (ErrInconsistent) and conflict checks; a conflicting rule
// passes, and its conflicts are reported so the user can set a priority
// order. A rule text the shard compiled before for the same owner and
// vocabulary is not parsed again (see ruleTable); every check still runs.
// A rule gets id, or, when id is empty, a new one: the rule-id counter is
// the one thing a check advances, and an id a failed write drew is not
// reused, as an id a rejected rule drew never was.
func (h *Home) checkSubmit(source, owner, id string) (Record, *Result, error) {
	owner = vocab.Normalize(owner)
	if !h.isUser(owner) {
		return Record{}, nil, fmt.Errorf("%w: %q", ErrUnknownUser, owner)
	}
	rule, cmd, err := h.compile(source, owner, func() string {
		if id != "" {
			return id
		}
		return h.nextRuleID(owner)
	})
	if err != nil {
		return Record{}, nil, err
	}
	if rule != nil {
		conflicts, err := h.checkRule(rule)
		if err != nil {
			return Record{}, nil, err
		}
		rec := Record{Home: h.id, Kind: RecordRule, ID: rule.ID, Owner: rule.Owner, Source: rule.Source}
		return rec, &Result{Rule: rule, Conflicts: conflicts}, nil
	}
	switch c := cmd.(type) {
	case *lang.CondDef:
		// The definition must compile before the word is registered.
		if _, err := h.compiler.CompileCondExpr(c.Expr, owner); err != nil {
			return Record{}, nil, err
		}
		return h.checkWord(RecordCondWord, c.Name, c.Expr.String(), owner)
	case *lang.ConfDef:
		parts := make([]string, len(c.Confs))
		for i, item := range c.Confs {
			parts[i] = item.String()
		}
		return h.checkWord(RecordConfWord, c.Name, strings.Join(parts, " and "), owner)
	default:
		return Record{}, nil, fmt.Errorf("fleet: unsupported command %T", cmd)
	}
}

// checkWord runs the duplicate-word check on a word definition.
func (h *Home) checkWord(kind RecordKind, name, source, owner string) (Record, *Result, error) {
	name = vocab.Normalize(name)
	vk := vocab.KindCondWord
	if kind == RecordConfWord {
		vk = vocab.KindConfWord
	}
	if _, dup := h.lex.Lookup(vk, name); dup {
		return Record{}, nil, fmt.Errorf("%w: %q (%v)", vocab.ErrDuplicate, name, vk)
	}
	return Record{Home: h.id, Kind: kind, Word: name, Owner: owner, Source: source},
		&Result{DefinedWord: name, WordKind: vk, WordSource: source}, nil
}

// checkRule runs a compiled rule's authorization, consistency and conflict
// checks and returns the existing rules it can conflict with.
func (h *Home) checkRule(rule *core.Rule) ([]Conflict, error) {
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
	return h.checker.FindConflicts(rule, h.db.SameDevice(rule.Device))
}

// checkImport checks one rule of an ExportRules document as checkSubmit
// checks a submitted rule, under its exported id, which must be new to the
// home.
func (h *Home) checkImport(r registry.Record) (Record, *Result, error) {
	if r.ID == "" {
		return Record{}, nil, errors.New("fleet: imported rule without id")
	}
	if _, dup := h.db.Get(r.ID); dup {
		return Record{}, nil, fmt.Errorf("fleet: import: %w: %q", registry.ErrDuplicateID, r.ID)
	}
	rec, res, err := h.checkSubmit(r.Source, r.Owner, r.ID)
	if err == nil && res.Rule == nil {
		err = fmt.Errorf("fleet: %q is not a rule", r.Source)
	}
	if err != nil {
		return Record{}, nil, fmt.Errorf("fleet: import %q: %w", r.ID, err)
	}
	return rec, res, nil
}

// nextRuleID generates an unused "<owner>-<n>" rule id. Replayed rules keep
// their stored ids and move the sequence past them (restoreRule); the
// sequence still probes past collisions, such as an imported id.
func (h *Home) nextRuleID(owner string) string {
	for {
		h.ruleSeq++
		id := fmt.Sprintf("%s-%d", owner, h.ruleSeq)
		if _, exists := h.db.Get(id); !exists {
			return id
		}
	}
}

// compileSource recompiles one stored rule source against the home's lexicon.
func (h *Home) compileSource(source, id, owner string) (*core.Rule, error) {
	rule, _, err := h.compile(source, owner, func() string { return id })
	if err == nil && rule == nil {
		err = fmt.Errorf("fleet: %q is not a rule", source)
	}
	return rule, err
}

// restoreRule registers a journaled rule under its id: the rule check
// compiled for a live write, or, when rule is nil (replay, migration
// import), the record's source compiled again. The rule's checks ran before
// its record was journaled, so none runs here, and neither does an engine
// pass (see applyRecord). An id of the form "<owner>-<n>" moves the rule-id
// sequence past n, so a restarted home never hands out the id of a rule
// its journal holds, removed or not.
func (h *Home) restoreRule(rec Record, rule *core.Rule) error {
	if rule == nil {
		var err error
		if rule, err = h.compileSource(rec.Source, rec.ID, rec.Owner); err != nil {
			return err
		}
	}
	if err := h.db.Add(rule); err != nil {
		return err
	}
	h.rules.hold(rule)
	if rest, ok := strings.CutPrefix(rule.ID, rule.Owner); ok && strings.HasPrefix(rest, "-") {
		if n, err := strconv.ParseUint(rest[1:], 10, 64); err == nil {
			h.ruleSeq = max(h.ruleSeq, n)
		}
	}
	return nil
}

// checkRemove checks that a rule exists and returns its removal record.
func (h *Home) checkRemove(id string) (Record, error) {
	if _, ok := h.db.Get(id); !ok {
		return Record{}, fmt.Errorf("%w: %q", registry.ErrNotFound, id)
	}
	return Record{Home: h.id, Kind: RecordRemove, ID: id}, nil
}

// removeRule deletes a rule by id.
func (h *Home) removeRule(id string) error {
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

// checkPriority checks a priority order for a device, users listed highest
// first, optionally attached to a context written in CADEL condition
// syntax, and returns its record. An empty context makes it the device's
// default order (Sect. 3.2, Fig. 7). It returns the record and the order,
// its context compiled.
func (h *Home) checkPriority(ref core.DeviceRef, users []string, contextSource string) (Record, *conflict.Order, error) {
	rec := Record{Home: h.id, Kind: RecordPriority, Device: &ref, Users: users, Context: contextSource}
	order, err := h.priorityOrder(rec)
	if err != nil {
		return Record{}, nil, err
	}
	return rec, &order, nil
}

// priorityOrder builds a priority record's order, compiling its context.
func (h *Home) priorityOrder(rec Record) (conflict.Order, error) {
	if rec.Device == nil {
		return conflict.Order{}, errors.New("fleet: priority record without device")
	}
	order := conflict.Order{Device: *rec.Device, ContextSource: rec.Context}
	for _, u := range rec.Users {
		order.Users = append(order.Users, vocab.Normalize(u))
	}
	if rec.Context != "" {
		expr, err := lang.ParseCondExpr(rec.Context, h.lex)
		if err != nil {
			return conflict.Order{}, fmt.Errorf("fleet: priority context: %w", err)
		}
		if order.Context, err = h.compiler.CompileCondExpr(expr, ""); err != nil {
			return conflict.Order{}, fmt.Errorf("fleet: priority context: %w", err)
		}
	}
	return order, nil
}

// applyRecord applies one journaled record to the home: a live write's,
// once the hub's store holds it, with what its check compiled, or a
// replayed or migrated one. It runs no engine pass: a live write runs one
// once it is applied (Hub.Submit, SetPriority, ImportRules once for the
// whole document), and replayRecord one after each rule and priority.
func (h *Home) applyRecord(rec Record, c compiled) error {
	switch rec.Kind {
	case RecordUser:
		// A LexiconFactory may hand several homes one lexicon, where another
		// home may have added the person already.
		if err := h.lex.Add(vocab.Entry{Phrase: rec.User, Kind: vocab.KindPerson}); err != nil && !errors.Is(err, vocab.ErrDuplicate) {
			return err
		}
		h.users = append(h.users, rec.User)
		h.engine.SetUsers(append([]string(nil), h.users...))
		if len(rec.Favorites) > 0 {
			h.engine.SetFavorites(rec.User, rec.Favorites)
		}
		return nil
	case RecordFavorites:
		h.engine.SetFavorites(rec.User, rec.Favorites)
		return nil
	case RecordCondWord, RecordConfWord:
		define := h.lex.DefineCondWord
		if rec.Kind == RecordConfWord {
			define = h.lex.DefineConfWord
		}
		if err := define(rec.Word, rec.Source, rec.Owner); err != nil {
			return err
		}
		h.words = append(h.words, wordDef{rec.Kind, vocab.Normalize(rec.Word), rec.Source, rec.Owner})
		return nil
	case RecordRule:
		return h.restoreRule(rec, c.rule)
	case RecordRemove:
		return h.removeRule(rec.ID)
	case RecordPriority:
		if c.order == nil {
			order, err := h.priorityOrder(rec)
			if err != nil {
				return err
			}
			c.order = &order
		}
		h.priorities.Set(*c.order)
		return nil
	default:
		return fmt.Errorf("fleet: unknown record kind %q", rec.Kind)
	}
}

// replayRecord applies a replayed or migrated record and, after a rule or
// a priority order, runs the engine pass a live write of it runs. The hub
// runs replay and migration import quiet, so the pass adopts owners and
// fires nothing.
func (h *Home) replayRecord(rec Record) error {
	if err := h.applyRecord(rec, compiled{}); err != nil {
		return err
	}
	if rec.Kind == RecordRule || rec.Kind == RecordPriority {
		h.engine.Tick()
	}
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
		recs = append(recs, Record{Home: h.id, Kind: RecordUser, User: u, Favorites: h.engine.Favorites(u)})
	}
	for _, w := range h.words {
		recs = append(recs, Record{Home: h.id, Kind: w.kind, Word: w.name, Owner: w.owner, Source: w.source})
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
