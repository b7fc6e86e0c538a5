package main

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric whose layer the workload does not exercise reads 0; the
// README says which workloads each one describes.
var perLayer = []struct{ name, unit string }{
	{"e2a.p90_ms", "ms"},
	{"e2a.p99_ms", "ms"},
	{"client.lag_p50_ms", "ms"},
	{"client.lag_p99_ms", "ms"},
	{"transport.recv_p50_us", "us"},
	{"transport.recv_p99_us", "us"},
	{"transport.parse_errors", "count"},
	{"ingest.admit_p50_ns", "ns"},
	{"ingest.decode_p50_ns", "ns"},
	{"ingest.shed", "count"},
	{"fleet.post_p50_ns", "ns"},
	{"fleet.post_to_action_p50_us", "us"},
	{"fleet.post_to_action_p99_us", "us"},
	{"fleet.coalesce", "events/pass"},
	{"fleet.queue_max", "tasks"},
	{"engine.pass_mean_us", "us"},
	{"engine.rules_checked_per_pass", "rules/pass"},
	{"dispatch.actions", "count"},
	{"dispatch.missing", "count"},
	{"submit.p50_ms", "ms"},
	{"submit.p99_ms", "ms"},
	{"submit.to_journal_p50_ms", "ms"},
	{"submit.conflicts_mean", "rules"},
	{"store.append_p50_us", "us"},
	{"store.append_p99_us", "us"},
	{"store.appends", "count"},
	{"migrate.homes_per_s", "homes/s"},
	{"migrate.gap_p50_ms", "ms"},
	{"migrate.gap_p99_ms", "ms"},
	{"ring.transfer_p50_ms", "ms"},
	{"ring.source_p50_ms", "ms"},
	{"ring.redirects", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

// perLayer adds the layer metrics of the traced phase p.
func (r *report) perLayer(p *phase, tl *timeline, led *ledger, closedLoop bool) {
	var lag, recv, admit, decode, post, p2a []int64
	var total, unattributed int64
	if led.spans != nil {
		for _, s := range led.spans.records(p.start, p.end) {
			has := func(st ...int) bool {
				for _, i := range st {
					if s[i] == 0 {
						return false
					}
				}
				return true
			}
			if has(stWrite) {
				lag = append(lag, s[stWrite]-s[stSched])
			}
			if has(stWrite, stRecv) {
				recv = append(recv, s[stRecv]-s[stWrite])
			}
			raw := has(stAdmitted)
			if raw {
				admit = append(admit, s[stAdmitted]-s[stRecv])
			}
			switch {
			case raw && has(stDeliver, stPost, stPosted, stDelivered):
				decode = append(decode, s[stPost]-s[stDeliver]+s[stDelivered]-s[stPosted])
			case !raw && has(stRecv, stPost):
				decode = append(decode, s[stPost]-s[stRecv])
			}
			if has(stPost, stPosted) {
				post = append(post, s[stPosted]-s[stPost])
			}
			// A synchronous post returns after its action; only asynchronous
			// posts have a mailbox wait to measure.
			if has(stPosted, stAction) && s[stAction] >= s[stPosted] {
				p2a = append(p2a, s[stAction]-s[stPosted])
			}
			// The named spans cover the write-to-action path except, on the
			// raw transport, the body read between Admit and Deliver.
			if has(stWrite, stRecv, stPost, stPosted, stAction) {
				total += s[stAction] - s[stWrite]
				if raw && has(stDeliver) {
					unattributed += s[stDeliver] - s[stAdmitted]
				}
			}
		}
	}
	for _, t := range []struct {
		name string
		q    float64
	}{{"e2a.p90_ms", 0.90}, {"e2a.p99_ms", 0.99}} {
		v, n := tail(p, led, t.q)
		r.add(t.name, v/1e6, "ms")
		r.samples[t.name] = n
	}
	r.percentiles("client.lag_p50_ms", "client.lag_p99_ms", lag, "ms")
	r.percentiles("transport.recv_p50_us", "transport.recv_p99_us", recv, "us")
	r.percentiles("ingest.admit_p50_ns", "", admit, "ns")
	r.percentiles("ingest.decode_p50_ns", "", decode, "ns")
	r.percentiles("fleet.post_p50_ns", "", post, "ns")
	r.percentiles("fleet.post_to_action_p50_us", "fleet.post_to_action_p99_us", p2a, "us")
	if total > 0 {
		r.add("trace.unattributed_pct", 100*float64(unattributed)/float64(total), "%")
	}

	d := func(f func(s snapshot) uint64) float64 { return float64(f(p.after) - f(p.before)) }
	r.add("transport.parse_errors", d(func(s snapshot) uint64 { return s.parseErrs }), "count")
	if passes := d(func(s snapshot) uint64 { return s.passes }); passes > 0 {
		r.add("fleet.coalesce", d(func(s snapshot) uint64 { return s.events })/passes, "events/pass")
		r.add("engine.rules_checked_per_pass", d(func(s snapshot) uint64 { return s.checked })/passes, "rules/pass")
	}
	if n := d(func(s snapshot) uint64 { return s.passNsN }); n > 0 {
		r.add("engine.pass_mean_us", d(func(s snapshot) uint64 { return s.passNsSum })/n/1e3, "us")
	}
	r.add("fleet.queue_max", float64(p.queueMax), "tasks")
	r.add("store.appends", d(func(s snapshot) uint64 { return s.appends }), "count")
	r.add("runtime.gc_cycles", float64(p.after.gcs-p.before.gcs), "count")
	r.add("runtime.gc_pause_ms", d(func(s snapshot) uint64 { return s.gcPauseNs })/1e6, "ms")

	r.add("dispatch.actions", float64(led.actions), "count")
	r.add("dispatch.missing", float64(led.missing), "count")

	// Tracing overhead, recording sub-windows against the ones between: the
	// closed loop pays it in throughput, the open loops in latency.
	var on, off []float64
	for i, w := range windowStats(p, tl, led) {
		v := w.p50
		if closedLoop {
			v = 1 / float64(max(w.events, 1)) // time per event
		}
		if recording(i) {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	if base := median(off); base != 0 {
		r.add("trace.overhead_pct", 100*(median(on)/base-1), "%")
	}
}

// fillLayers reports 0 for every per-layer metric the workload left unset.
func (r *report) fillLayers() {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.add(m.name, 0, m.unit)
		}
	}
}
