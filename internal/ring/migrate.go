package ring

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	neturl "net/url"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Source-side migration coordinator: seal → drain → snapshot → transfer →
// (target replays) → ack → release. Every step before the ack is abortable —
// on failure the home is unsealed and keeps serving here. The ack is the
// commit point: once the target confirms it holds all N transfer lines, the
// source tombstones and forgets the home.

const (
	// drainRounds bounds the quiesce loop. Each round runs a full barrier;
	// dispatch-feedback chains shorten by at least one hop per round, so a
	// home that needs this many rounds is a rule cycle, not a backlog.
	drainRounds = 64
	// transferAttempts bounds transfer retries against one target. The whole
	// transfer is idempotent per migration id, so retrying after a timeout,
	// reset or 500 is always safe.
	transferAttempts = 6
	// transferBackoff is the base delay between transfer attempts, growing
	// linearly (base, 2×base, ...) — migration is operator-scale, so a
	// simple ramp beats tuned jitter.
	transferBackoff = 25 * time.Millisecond
)

// ErrMigrationInFlight reports a migration rejected because another
// migration of the same home is already running on this node (HTTP: 409).
var ErrMigrationInFlight = fleet.ErrMigrationInFlight

// Migrate moves one resident home to the target node and releases it here.
// On any error the home is unsealed and keeps serving on this node; the only
// non-retryable window is after the target's ack, where a failed release
// leaves the home released to the target here (served by the target, never
// by both). The seal is the claim: a manual /ring/migrate racing a
// background rebalance gets ErrMigrationInFlight instead of a second
// concurrent transfer to a possibly different target.
func (n *Node) Migrate(ctx context.Context, home, target string) error {
	m := &n.hub.MetricsRegistry().Migration
	if target == "" || target == n.self {
		return fmt.Errorf("ring: cannot migrate %q to %q", home, target)
	}
	err := n.hub.SealHome(home)
	if errors.Is(err, ErrMigrationInFlight) {
		return err
	}
	m.Started.Inc()
	start := time.Now()
	if err != nil {
		m.Failed.Inc()
		return err
	}
	abort := func(err error) error {
		n.hub.UnsealHome(home)
		m.Failed.Inc()
		return err
	}

	// Drain: quiesce until the home's mailbox is empty. New external posts
	// bounce off the seal (503 + Retry-After); dispatch-feedback events keep
	// flowing via PostEventFeedback and settle within a few rounds.
	drained := false
	for i := 0; i < drainRounds; i++ {
		if err := n.hub.Quiesce(); err != nil {
			return abort(err)
		}
		if n.hub.Backlog(home) == 0 {
			drained = true
			break
		}
	}
	if !drained {
		return abort(fmt.Errorf("ring: %q still has backlog after %d drain rounds", home, drainRounds))
	}

	exp, err := n.hub.ExportHome(home)
	if err != nil {
		return abort(err)
	}
	body, lines, err := encodeTransfer(exp)
	if err != nil {
		return abort(err)
	}
	mig := fmt.Sprintf("%s/%s/%d.%d", n.self, home, n.nonce, n.migSeq.Add(1))

	ack, err := n.postTransfer(ctx, target, home, mig, body, m)
	if err != nil {
		return abort(err)
	}
	if ack.Lines != lines {
		// The target acked a different stream length than we sent — it holds
		// some other migration's state. Abort; the next attempt gets a fresh
		// migration id and wholesale-replaces whatever is there.
		return abort(fmt.Errorf("ring: target acked %d lines, sent %d", ack.Lines, lines))
	}

	// Commit point: the target holds the complete home. ReleaseHomeTo turns
	// the placement entry from sealed to released(target) before it drops
	// the home, in the critical section the mailbox admits under: from that
	// instant routing redirects to the target and every write that still
	// reaches this hub, even one routed here before the release, is refused
	// instead of recreating an empty home. A failed release keeps the entry:
	// the home now lives on the target, and the copy here only bounces
	// requests until a retry or restart finishes the forget.
	if err := n.hub.ReleaseHomeTo(home, target); err != nil {
		m.Failed.Inc()
		return fmt.Errorf("ring: target holds %q but source release failed: %w", home, err)
	}
	m.Completed.Inc()
	m.DurationNs.Observe(uint64(time.Since(start)))
	return nil
}

// Rebalance migrates every resident home whose hash owner is another member.
// Placement entries are deliberately ignored here: rebalancing moves homes
// TOWARD hash ownership, which is what survives a restart (the placement
// table is in-memory). Each home migrates independently; each failure is
// logged, and the first is reported after every home has been attempted.
func (n *Node) Rebalance(ctx context.Context) error {
	homes, err := n.hub.Homes()
	if err != nil {
		return err
	}
	var firstErr error
	for _, home := range homes {
		owner := n.ring.Owner(home)
		if owner == "" || owner == n.self {
			continue
		}
		if err := n.Migrate(ctx, home, owner); err != nil {
			slog.Warn("ring: migration failed", "home", home, "target", owner, "err", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// encodeTransfer frames a home export as a replay stream: the durable
// records with transfer sequence numbers 1..N, one migration-state record
// carrying the volatile engine state, and a replay-end trailer whose Epoch
// is the line count — the target rejects any stream cut short by a dying
// source before applying a single record.
func encodeTransfer(exp *fleet.HomeExport) ([]byte, uint64, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var seq uint64
	for _, rec := range exp.Records {
		seq++
		rec.Seq = seq
		if err := enc.Encode(rec); err != nil {
			return nil, 0, err
		}
	}
	if exp.State != nil {
		raw, err := json.Marshal(exp.State)
		if err != nil {
			return nil, 0, err
		}
		seq++
		if err := enc.Encode(fleet.Record{Home: exp.Home, Kind: fleet.RecordMigrationState, Seq: seq, State: raw}); err != nil {
			return nil, 0, err
		}
	}
	if err := enc.Encode(fleet.Record{Kind: fleet.RecordReplayEnd, Epoch: seq}); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), seq, nil
}

// postTransfer delivers the framed stream to the target, retrying timeouts,
// resets and 5xx answers. Building the request from a bytes.Reader gives it
// a GetBody, so fault-injecting transports can rewind and replay the body.
// Duplicated deliveries are harmless: the target's idempotency mark turns
// the duplicate into an ack of the already-applied import.
func (n *Node) postTransfer(ctx context.Context, target, home, mig string, body []byte, m *obs.MigrationMetrics) (*transferAck, error) {
	url := "http://" + target + "/ring/transfer/" + home + "?migration=" + neturl.QueryEscape(mig)
	var lastErr error
	for attempt := 0; attempt < transferAttempts; attempt++ {
		if attempt > 0 {
			m.TransferRetries.Inc()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(attempt) * transferBackoff):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := n.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("ring: transfer to %s: %s: %s", target, resp.Status, bytes.TrimSpace(respBody))
			if resp.StatusCode >= 500 || resp.StatusCode == http.StatusServiceUnavailable {
				continue // target-side fault: retry, the import is idempotent
			}
			return nil, lastErr // 4xx: our stream is bad, retrying won't help
		}
		ack := &transferAck{}
		if err := json.Unmarshal(respBody, ack); err != nil {
			lastErr = err
			continue
		}
		if ack.Home != home || ack.Migration != mig {
			lastErr = fmt.Errorf("ring: transfer ack for %q/%q, want %q/%q", ack.Home, ack.Migration, home, mig)
			continue
		}
		return ack, nil
	}
	return nil, fmt.Errorf("ring: transfer of %q to %s failed after %d attempts: %w", home, target, transferAttempts, lastErr)
}
