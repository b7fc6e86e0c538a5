// Package ring places homes on a fleet of hub processes with a consistent-
// hash ring and choreographs live home migration between them.
//
// Placement: every member (a `cmd/homeserver -fleet` process, addressed as
// host:port) projects a fixed number of virtual nodes onto a 64-bit hash
// circle; a home belongs to the member owning the first virtual node at or
// clockwise-after the home's hash. Adding or removing a member moves only
// the homes between the affected virtual nodes — the property that makes
// rebalancing a set of migrations instead of a full reshuffle.
//
// Routing: a Node wraps its hub's fleet HTTP handler. Requests for a home
// the node owns pass through; requests for anyone else's home answer
// 307 Temporary Redirect with the owner's address, so any node is a valid
// entry point and clients converge on the owner in one hop (two after a
// migration, while the hub's placement table routes the home off its hash
// owner). Ownership is one lookup in that table, then the hash.
//
// Migration (see migrate.go): seal → drain → snapshot → transfer → replay →
// ack → release, idempotent per migration id, fault-tested under transport
// resets, duplicated deliveries, injected 500s and process kills at every
// protocol step.
package ring

import (
	"sort"
	"strconv"
	"sync"
)

// vnodesPerMember is how many virtual nodes each member projects onto the
// circle. 64 keeps the ownership spread within a few percent of uniform for
// small fleets while keeping SetMembers (sort of members×64 hashes) cheap.
const vnodesPerMember = 64

type vnode struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring over member addresses. The zero value is
// unusable; build with New. All methods are safe for concurrent use.
type Ring struct {
	mu      sync.RWMutex
	members []string
	vnodes  []vnode // sorted by hash
}

// New builds a ring over the given members (duplicates ignored).
func New(members ...string) *Ring {
	r := &Ring{}
	r.SetMembers(members)
	return r
}

// SetMembers replaces the ring's membership.
func (r *Ring) SetMembers(members []string) {
	seen := make(map[string]struct{}, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			continue
		}
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	vnodes := make([]vnode, 0, len(uniq)*vnodesPerMember)
	for _, m := range uniq {
		for i := 0; i < vnodesPerMember; i++ {
			vnodes = append(vnodes, vnode{hash: hash64(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].hash != vnodes[j].hash {
			return vnodes[i].hash < vnodes[j].hash
		}
		// Hash ties (vanishingly rare) break by address so every member
		// computes the identical ring.
		return vnodes[i].member < vnodes[j].member
	})
	r.mu.Lock()
	r.members = uniq
	r.vnodes = vnodes
	r.mu.Unlock()
}

// Members returns the current membership, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.members...)
}

// Owner returns the member owning home — the first virtual node clockwise
// from the home's hash — or "" on an empty ring.
func (r *Ring) Owner(home string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.vnodes) == 0 {
		return ""
	}
	h := hash64(home)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0 // wrap around the circle
	}
	return r.vnodes[i].member
}

// hash64 is FNV-1a, the same family the hub's shard router uses; inlined so
// the ring shares no allocation with hash/fnv's interface indirection.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
