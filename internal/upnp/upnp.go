// Package upnp is a from-scratch micro-UPnP stack: SSDP discovery over UDP,
// device description documents over HTTP, action control and state-variable
// eventing. It stands in for the CyberLink UPnP library the paper's
// prototype used as its communication interface module.
//
// One deliberate substitution (documented in DESIGN.md): instead of IP
// multicast — typically unavailable in sandboxes and containers — a Network
// value models the LAN segment. Every device host and control point
// registers its UDP endpoint with the Network, and "multicast" sends the
// datagram to every registered member over real loopback UDP. All message
// parsing, description fetching, control and eventing use genuine UDP/HTTP
// I/O, so discovery latency (experiment E1) is measured over a real network
// stack.
package upnp

import (
	"fmt"
	"net"
	"sync"
)

// Network models one LAN segment: the set of UDP endpoints that receive
// SSDP "multicast" traffic.
type Network struct {
	mu      sync.RWMutex
	members map[string]*net.UDPAddr
	drop    func(payload []byte) bool // loss model; nil is lossless
}

// NewNetwork returns an empty network segment.
func NewNetwork() *Network {
	return &Network{members: make(map[string]*net.UDPAddr)}
}

// Join registers a member endpoint and returns an unregister function.
func (n *Network) Join(addr *net.UDPAddr) (leave func()) {
	key := addr.String()
	n.mu.Lock()
	n.members[key] = addr
	n.mu.Unlock()
	return func() {
		n.mu.Lock()
		delete(n.members, key)
		n.mu.Unlock()
	}
}

// Members returns a snapshot of all registered endpoints.
func (n *Network) Members() []*net.UDPAddr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*net.UDPAddr, 0, len(n.members))
	for _, a := range n.members {
		out = append(out, a)
	}
	return out
}

// SetDrop installs a loss model for the segment's SSDP datagrams, the
// multicasts and the unicast search responses alike: each datagram is passed
// to drop before it is sent and discarded when drop returns true. Tests
// drive it from a seeded source to lose datagrams reproducibly; nil restores
// a lossless segment. drop may be called from several goroutines at once.
func (n *Network) SetDrop(drop func(payload []byte) bool) {
	n.mu.Lock()
	n.drop = drop
	n.mu.Unlock()
}

// send writes one datagram to addr unless the loss model drops it.
func (n *Network) send(conn *net.UDPConn, payload []byte, addr *net.UDPAddr) error {
	n.mu.RLock()
	drop := n.drop
	n.mu.RUnlock()
	if drop != nil && drop(payload) {
		return nil
	}
	_, err := conn.WriteToUDP(payload, addr)
	return err
}

// multicast sends the payload to every member except the sender itself.
func (n *Network) multicast(conn *net.UDPConn, payload []byte) error {
	self := conn.LocalAddr().String()
	var firstErr error
	for _, addr := range n.Members() {
		if addr.String() == self {
			continue
		}
		if err := n.send(conn, payload, addr); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("upnp: multicast to %s: %w", addr, err)
		}
	}
	return firstErr
}
