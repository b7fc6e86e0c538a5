package fleet

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
)

// This file is the hub's half of live home migration (see internal/ring for
// the coordinator) and the placement table that says where a home lives.
//
// Each shard's mailbox holds a placement table under the lock admit
// enqueues under. A home without an entry is placed by the ring's hash; an
// entry is sealed (migrating away: writes refused with a SealedError, HTTP
// 503 + Retry-After, dispatch feedback admitted), released(owner) (handed
// to owner: every write refused; a ring node redirects there) or adopted
// (imported here: served here whatever the hash says). Every transition
// goes through Hub.place, so a write is either queued before a transition
// or refused after it; it never recreates a released home. In memory only.
//
// Protocol order on the source: SealHome (the claim) → Quiesce (drain,
// repeated until the home's backlog is empty — dispatch-feedback chains keep
// draining through PostEventFeedback while the seal holds) → ExportHome →
// transfer → ReleaseHomeTo after the target acks. On any failure before the
// ack: UnsealHome and the home keeps serving where it is.

// HomeExport is one home's complete migratable state: the durable store
// records (users, words, rules, priorities — rule ids preserved) plus the
// engine's volatile state (context values with original timestamps, the
// fired-action log).
type HomeExport struct {
	Home    string
	Records []Record
	State   *engine.StateExport
}

// PlaceState is a home's state in its shard's placement table.
type PlaceState uint8

const (
	PlaceHashed   PlaceState = iota // no entry: the ring's hash places the home
	PlaceSealed                     // migrating away from this hub
	PlaceReleased                   // handed to Placement.Owner
	PlaceAdopted                    // imported here, whatever the hash says
)

// Placement is a home's entry in its shard's placement table.
type Placement struct {
	State PlaceState
	Owner string     // PlaceReleased: the node the home went to ("" if unknown)
	prev  PlaceState // PlaceSealed: the state an unseal restores
}

// place is the table's one transition function; to names the transition.
// PlaceSealed seals (ErrMigrationInFlight when already sealed); PlaceHashed
// unseals, restoring the entry the seal replaced (a no-op unless sealed);
// PlaceReleased releases to owner; PlaceAdopted imports. Only a seal can
// fail, so the other transitions' callers drop the error.
func (h *Hub) place(home string, to PlaceState, owner string) error {
	m := h.shardFor(home).mb
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, next := m.table[home], Placement{State: to, Owner: owner}
	switch {
	case to == PlaceSealed && cur.State == PlaceSealed:
		return fmt.Errorf("fleet: %q: %w", home, ErrMigrationInFlight)
	case to == PlaceSealed:
		next = Placement{State: to, Owner: cur.Owner, prev: cur.State}
	case to == PlaceHashed && cur.State != PlaceSealed:
		return nil
	case to == PlaceHashed:
		next = Placement{State: cur.prev, Owner: cur.Owner}
	}
	if next.State == PlaceHashed {
		delete(m.table, home)
	} else {
		m.table[home] = next
	}
	return nil
}

// Placement returns home's entry in the placement table: the zero Placement
// (PlaceHashed) when there is none.
func (h *Hub) Placement(home string) Placement {
	m := h.shardFor(home).mb
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.table[home]
}

// Placements returns a copy of every entry in the hub's placement tables.
func (h *Hub) Placements() map[string]Placement {
	out := make(map[string]Placement)
	for _, s := range h.shards {
		s.mb.mu.Lock()
		for home, p := range s.mb.table {
			out[home] = p
		}
		s.mb.mu.Unlock()
	}
	return out
}

// SealHome claims a resident home for migration: from here on every
// mutation and external event post fails with a SealedError (HTTP: 503 +
// Retry-After) until UnsealHome or ReleaseHome. Events already enqueued
// still evaluate, and dispatch-feedback chains keep draining via
// PostEventFeedback. Sealing a home that does not exist fails with
// ErrNoHome, sealing one that is already sealed with ErrMigrationInFlight.
func (h *Hub) SealHome(home string) error {
	return h.do(home, func(hm *Home) error {
		if hm == nil {
			return ErrNoHome
		}
		return h.place(home, PlaceSealed, "")
	})
}

// UnsealHome lifts a migration seal (the abort path: transfer failed, the
// home keeps serving on this hub) and restores the placement the seal
// replaced. Idempotent.
func (h *Hub) UnsealHome(home string) { _ = h.place(home, PlaceHashed, "") }

// SealedHomes reports how many homes are currently sealed for migration —
// a readiness signal (a draining node is not ready) and a /metrics gauge.
func (h *Hub) SealedHomes() (n int) {
	for _, p := range h.Placements() {
		if p.State == PlaceSealed {
			n++
		}
	}
	return n
}

// MetricsRegistry returns the hub's metrics registry without the flush
// barrier Metrics() runs. It is the write-side accessor migration and ring
// code record counters through; scrapers should keep using Metrics().
func (h *Hub) MetricsRegistry() *obs.Metrics { return h.metrics }

// ExportHome snapshots one home's durable records and volatile engine state
// on its shard goroutine. The caller is expected to have sealed the home and
// drained its backlog first (Quiesce until Backlog(home) == 0), so the
// export observes a settled home.
func (h *Hub) ExportHome(home string) (*HomeExport, error) {
	var exp *HomeExport
	err := h.do(home, func(hm *Home) error {
		if hm == nil {
			return ErrNoHome
		}
		exp = &HomeExport{Home: home, Records: hm.snapshotRecords(), State: hm.engine.ExportState()}
		return nil
	})
	return exp, err
}

// ImportHome materializes a migrated home on this hub from an export,
// wholesale-replacing any resident copy — a retried transfer (or one that
// raced a duplicate delivery) converges on exactly the exported state, never
// a hybrid. The durable records are replayed and persisted to this hub's own
// store; the volatile state is restored with its original timestamps; the
// whole import runs with the engine in quiet mode, so rules whose conditions
// already hold are adopted as current device owners without firing again
// (they fired on the source — the imported log proves it).
func (h *Hub) ImportHome(exp *HomeExport) error {
	if exp == nil || exp.Home == "" {
		return errors.New("fleet: import without home")
	}
	return h.onShard(exp.Home, func(s *shard) error {
		if err := s.importHome(exp); err != nil {
			return err
		}
		return h.place(exp.Home, PlaceAdopted, "")
	})
}

func (s *shard) importHome(exp *HomeExport) error {
	h := s.hub
	// Drop any resident copy: a stale pre-migration home, or the partial
	// result of an earlier interrupted import.
	s.evict(exp.Home)
	// Tombstone before the records: if this process dies mid-import, replay
	// sees <reset, partial records> and the next transfer retry prepends a
	// fresh reset — the store can never rehydrate a duplicate or a hybrid.
	if err := h.append(Record{Home: exp.Home, Kind: RecordHomeReset}); err != nil {
		return err
	}
	hm := s.home(exp.Home)
	hm.engine.SetQuiet(true)
	defer hm.engine.SetQuiet(false)
	for _, rec := range exp.Records {
		rec.Seq = 0 // transfer-stream numbering; this hub's store renumbers
		if err := hm.replayRecord(rec); err != nil {
			s.dropHome(exp.Home)
			return err
		}
		if err := h.append(rec); err != nil {
			s.dropHome(exp.Home)
			return err
		}
	}
	if exp.State != nil {
		hm.engine.ImportState(exp.State)
	}
	return nil
}

// dropHome removes a home mid-import and tombstones its partial records.
func (s *shard) dropHome(id string) {
	s.evict(id)
	// Best effort: if this append fails too, the partial records stay ahead
	// of no reset, but the next import attempt writes one before its own
	// records, restoring the invariant.
	_ = s.hub.append(Record{Home: id, Kind: RecordHomeReset})
}

// ReleaseHome is ReleaseHomeTo with the new owner unknown.
func (h *Hub) ReleaseHome(home string) error { return h.ReleaseHomeTo(home, "") }

// ReleaseHomeTo forgets a home after the migration target acked the
// transfer. The placement entry turns released(owner) first, so every later
// write, dispatch feedback included, is refused instead of recreating the
// home empty; then a tombstone is appended (a restarted source must not
// resurrect a home it handed away) and the home leaves memory. A failed
// append leaves a released copy that only bounces requests until a retry or
// restart; releasing a home already gone is a no-op, so retries are safe.
func (h *Hub) ReleaseHomeTo(home, owner string) error {
	_ = h.place(home, PlaceReleased, owner)
	return h.onShard(home, func(s *shard) error {
		if _, ok := s.homes[home]; !ok {
			return nil
		}
		if err := h.append(Record{Home: home, Kind: RecordHomeReset}); err != nil {
			return err
		}
		s.evict(home)
		return nil
	})
}
