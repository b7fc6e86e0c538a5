package engine

import (
	"bytes"
	"encoding/binary"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ingest"
)

// IngestEvent applies a device event's context writes and dirty-key marks
// without running an evaluation pass. It is the engine's one ingest path:
// HandleDeviceEvent fills a pooled event and runs it too, and the fleet hub
// coalesces a burst by ingesting every event, then running a single Tick
// that evaluates all the accumulated dirty keys in one pass. No Go strings
// are materialized on the steady-state path: the fields alias the event's
// bytes, so interning happens here — on the goroutine that owns this
// engine's symbol table — through the byte-keyed ingest caches. A cache hit
// costs one map lookup per variable (the allocation-free m[string(b)] form);
// a miss materializes the strings once.
//
// The caller keeps ownership of ev and its slices; the engine retains
// nothing that aliases them.
func (e *Engine) IngestEvent(ev *ingest.Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ingestEventLocked(ev)
}

func (e *Engine) ingestEventLocked(ev *ingest.Event) {
	if e.fullScan {
		// The oracle has no id caches to hit; materialize the map shape its
		// string ingest expects.
		vars := make(map[string]string, len(ev.Vars))
		for _, v := range ev.Vars {
			vars[string(v.Key)] = string(v.Value)
		}
		e.ingestStringLocked(string(ev.DeviceType), string(ev.Name), string(ev.Location), vars)
		return
	}
	for _, v := range ev.Vars {
		e.sigScratch = appendSig(e.sigScratch[:0], ev.DeviceType, ev.Name, ev.Location, v.Key)
		e.ingestVarLocked(e.sigScratch, v.Key, v.Value)
	}
}

// ingestVarLocked applies one variable of an event; sig is the variable's
// signature (appendSig) and name its last field.
func (e *Engine) ingestVarLocked(sig, name, value []byte) {
	cv, ok := e.varCacheB[string(sig)]
	if !ok {
		cv = e.buildVarCacheLocked(sig)
	}
	switch cv.kind {
	case device.VarKindSpecial:
		e.applySpecialBytesLocked(cv, name, value)
	case device.VarKindNumber:
		// A null value decodes to empty bytes, which ParseFloat rejects —
		// the same silent skip the oracle's string ingest applies.
		if f, ok := ingest.ParseFloat(value); ok {
			for _, id := range cv.keyIDs {
				e.ctx.SetNumberID(id, f)
			}
			e.dirtyIDs.AddAll(cv.dirtyIDs)
		}
	case device.VarKindBool:
		b := (len(value) == 1 && value[0] == '1') || string(value) == "true"
		for _, id := range cv.keyIDs {
			e.ctx.SetBoolID(id, b)
		}
		e.dirtyIDs.AddAll(cv.dirtyIDs)
	default:
		// String vars (mode) are not observable by CADEL conditions in this
		// version; ignored.
	}
}

// appendSig appends a device variable's signature — device type, friendly
// name, location and variable name — the key of the ingest cache. Every
// field but the last is length-prefixed, so the encoding is unambiguous
// whatever bytes the fields hold (a filled event's need not be valid UTF-8).
func appendSig(s, deviceType, friendlyName, location, name []byte) []byte {
	s = binary.AppendUvarint(s, uint64(len(deviceType)))
	s = append(s, deviceType...)
	s = binary.AppendUvarint(s, uint64(len(friendlyName)))
	s = append(s, friendlyName...)
	s = binary.AppendUvarint(s, uint64(len(location)))
	s = append(s, location...)
	return append(s, name...)
}

// sigFields splits a signature built by appendSig back into its fields.
func sigFields(sig []byte) (deviceType, friendlyName, location, name string) {
	var f [3]string
	for i := range f {
		n, k := binary.Uvarint(sig)
		f[i], sig = string(sig[k:k+int(n)]), sig[k+int(n):]
	}
	return f[0], f[1], f[2], string(sig)
}

// buildVarCacheLocked interns the context keys and dirty ids for one device
// variable and memoizes them under its signature; it runs once per distinct
// event signature.
func (e *Engine) buildVarCacheLocked(sig []byte) *cachedVar {
	deviceType, friendlyName, location, varName := sigFields(sig)
	cv := &cachedVar{kind: device.KindOfVar(varName)}
	switch cv.kind {
	case device.VarKindSpecial:
		// A bare "presence-" (empty user) stays out of the cache plan: the
		// empty cv.user makes the apply step a no-op, matching the oracle's
		// rejection of the malformed variable.
		if user, ok := strings.CutPrefix(varName, "presence-"); ok && user != "" {
			cv.user = user
			cv.userID = e.tab.Intern(user)
			for _, k := range core.LocationDirtyKeys(user) {
				cv.dirtyIDs = append(cv.dirtyIDs, e.tab.Intern(k))
			}
		}
	case device.VarKindNumber, device.VarKindBool:
		dirtyKeys := core.NumberDirtyKeys
		if cv.kind == device.VarKindBool {
			dirtyKeys = core.BoolDirtyKeys
		}
		for _, key := range device.ContextKeys(deviceType, friendlyName, location, varName) {
			cv.keyIDs = append(cv.keyIDs, e.tab.Intern(key))
			for _, dk := range dirtyKeys(key) {
				cv.dirtyIDs = append(cv.dirtyIDs, e.tab.Intern(dk))
			}
		}
	}
	if e.varCacheB == nil {
		e.varCacheB = make(map[string]*cachedVar)
	}
	e.varCacheB[string(sig)] = cv
	return cv
}

// applySpecialBytesLocked applies a presence, arrival or EPG variable.
func (e *Engine) applySpecialBytesLocked(cv *cachedVar, name, value []byte) {
	switch {
	case cv.user != "":
		e.ctx.SetLocationID(cv.userID, e.placeSlotLocked(value))
		e.dirtyIDs.AddAll(cv.dirtyIDs)
	case string(name) == "event":
		// "person|event|seq", person must be non-empty.
		i := bytes.IndexByte(value, '|')
		if i <= 0 {
			return
		}
		rest := value[i+1:]
		event := rest
		if j := bytes.IndexByte(rest, '|'); j >= 0 {
			event = rest[:j]
		}
		arrKey := value[:i+1+len(event)] // the "person|event" prefix
		ids, ok := e.arrCacheB[string(arrKey)]
		if !ok {
			ids = arrIDs{
				key:  e.tab.Intern(string(arrKey)),
				name: e.tab.Intern(core.EventDepKey(string(event))),
			}
			if e.arrCacheB == nil {
				e.arrCacheB = make(map[string]arrIDs)
			}
			e.arrCacheB[string(arrKey)] = ids
		}
		e.ctx.Now = e.now()
		e.ctx.RecordEventID(ids.key, ids.name)
		e.dirtyIDs.Add(ids.name)
	case string(name) == "programs":
		e.ctx.SetPrograms(device.DecodePrograms(string(value)))
		e.dirtyIDs.Add(e.programsDep)
	}
}

// placeSlotLocked resolves a place name to its interned slot (place id plus
// one; "" = 0), memoized so the steady-state presence churn between known
// places costs one allocation-free map lookup and no interning lock.
func (e *Engine) placeSlotLocked(place []byte) uint32 {
	if len(place) == 0 {
		return 0
	}
	if slot, ok := e.placeSlot[string(place)]; ok {
		return slot
	}
	name := string(place)
	slot := e.tab.Intern(name) + 1
	if e.placeSlot == nil {
		e.placeSlot = make(map[string]uint32)
	}
	e.placeSlot[name] = slot
	return slot
}
