package cluster

import (
	"net"
	"sync/atomic"
	"time"

	"passivelight/internal/rxnet"
)

// Router peering: the replicated routing tier. Each router dials its
// peers and pushes its active ring as RingUpdate frames — on connect,
// on every membership change, and on a periodic keepalive — over the
// same wire protocol engines already speak. Incoming updates converge
// with three rules, no external coordinator:
//
//   - Higher remote epoch: adopt the peer's ring wholesale. Members
//     that vanish fail their routes over to survivors (the peer knows
//     something we don't — usually that we just restarted).
//   - Equal epochs, different member sets: union WITHOUT an epoch
//     bump. Concurrent admissions on both routers merge; an address
//     conflict resolves to the lexicographically greater address so
//     both sides pick the same winner. Union is commutative and
//     idempotent, so mutual pushes settle in one round trip.
//   - Lower remote epoch: ignore. Our own keepalive push heals the
//     stale peer.
//
// The merge is eventually consistent, not linearizable: an equal-epoch
// union can resurrect an engine one router just evicted (the two
// histories diverged). That is self-healing by design — a truly dead
// engine fails its next dial and the janitor re-evicts it after
// DeadEngineTimeout, while a live one was being wrongly evicted and
// its keepalive hello re-admits it anyway.

// peerKeepAlive paces unconditional ring pushes on a healthy peer
// link. It must sit well below serveConn's 2-minute read deadline on
// the receiving router, or an idle link would be cut between pushes.
const peerKeepAlive = 15 * time.Second

// peerLink is this router's outbound half of one peer connection.
// kick (capacity 1, level-triggered) coalesces push requests.
type peerLink struct {
	addr      string
	kick      chan struct{}
	connected atomic.Bool
}

// AddPeer registers a router replica and starts its link. Safe before
// or after Listen (RouterConfig.Peers calls it from Listen; in-process
// tests call it once both routers have bound ephemeral ports).
// Idempotent per address.
func (r *Router) AddPeer(addr string) {
	if addr == "" {
		return
	}
	r.mu.Lock()
	if _, ok := r.peers[addr]; ok {
		r.mu.Unlock()
		return
	}
	pl := &peerLink{addr: addr, kick: make(chan struct{}, 1)}
	r.peers[addr] = pl
	r.mu.Unlock()
	r.wg.Add(1)
	go r.peerLoop(pl)
}

// kickPeers nudges every peer link to push the current ring now.
// Non-blocking; a push already pending absorbs the kick.
func (r *Router) kickPeers() {
	r.mu.Lock()
	links := make([]*peerLink, 0, len(r.peers))
	for _, pl := range r.peers {
		links = append(links, pl)
	}
	r.mu.Unlock()
	for _, pl := range links {
		select {
		case pl.kick <- struct{}{}:
		default:
		}
	}
}

// ringUpdateBody marshals the active ring for a peer push.
func (r *Router) ringUpdateBody() ([]byte, error) {
	r.mu.Lock()
	ru := rxnet.RingUpdate{Epoch: r.ring.Epoch()}
	for _, m := range r.ring.Members() {
		ru.Members = append(ru.Members, rxnet.RingMember{ID: m.ID, Addr: m.Addr})
	}
	r.mu.Unlock()
	return rxnet.MarshalRingUpdate(ru)
}

// peerLoop maintains one peer link for the router's lifetime: dial
// with the upstream backoff policy, push the ring on connect, then on
// every kick and every peerKeepAlive, redialing when a write fails.
func (r *Router) peerLoop(pl *peerLink) {
	defer r.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	attempt := 0
	tick := time.NewTicker(peerKeepAlive)
	defer tick.Stop()
	for {
		select {
		case <-r.closed:
			return
		default:
		}
		if conn == nil {
			c, err := net.DialTimeout("tcp", pl.addr, dialTimeout)
			if err != nil {
				attempt++
				select {
				case <-time.After(r.backoff().Delay(attempt)):
				case <-r.closed:
					return
				}
				continue
			}
			conn = c
			attempt = 0
			pl.connected.Store(true)
			r.logf("cluster: router peer %s connected", pl.addr)
		}
		body, err := r.ringUpdateBody()
		if err != nil {
			// Marshal failure (e.g. a ring past MaxRingMembers) is a
			// config problem, not a link problem; keep the link up.
			r.logf("cluster: peer ring update: %v", err)
		} else {
			conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := rxnet.WriteFrame(conn, rxnet.FrameRingUpdate, body); err != nil {
				r.logf("cluster: router peer %s write: %v; redialing", pl.addr, err)
				conn.Close()
				conn = nil
				pl.connected.Store(false)
				continue
			}
		}
		select {
		case <-r.closed:
			return
		case <-pl.kick:
		case <-tick.C:
		}
	}
}

// reconcileUpsLocked aligns the upstream table with the active ring:
// new members get fresh upstreams, moved members get fresh upstreams
// with their old connection queued for closing, departed members
// leave the table. Returns the stale upstreams to close outside r.mu
// and the departed member IDs (whose routes must fail over). Callers
// hold r.mu.
func (r *Router) reconcileUpsLocked() (stale []*upstream, removed map[string]bool) {
	keep := make(map[string]bool, r.ring.Len())
	for _, m := range r.ring.Members() {
		keep[m.ID] = true
		up := r.ups[m.ID]
		switch {
		case up == nil:
			r.ups[m.ID] = &upstream{id: m.ID, addr: m.Addr}
		case up.addr != m.Addr:
			stale = append(stale, up)
			r.ups[m.ID] = &upstream{id: m.ID, addr: m.Addr}
		}
	}
	removed = make(map[string]bool)
	for id, up := range r.ups {
		if !keep[id] {
			stale = append(stale, up)
			removed[id] = true
			delete(r.ups, id)
		}
	}
	return stale, removed
}

// applyPeerUpdate converges this router's membership with a ring
// pushed by a peer, per the rules at the top of this file.
func (r *Router) applyPeerUpdate(ru rxnet.RingUpdate) {
	r.peerUpdates.Add(1)
	members := make([]Member, 0, len(ru.Members))
	for _, m := range ru.Members {
		members = append(members, Member{ID: m.ID, Addr: m.Addr})
	}
	var stale []*upstream
	var removed map[string]bool
	changed := false
	r.mu.Lock()
	local := r.ring.Epoch()
	switch {
	case ru.Epoch > local:
		nr, err := NewRing(r.ring.VNodes(), members...)
		if err != nil {
			r.mu.Unlock()
			r.logf("cluster: peer ring epoch %d rejected: %v", ru.Epoch, err)
			return
		}
		nr.epoch = ru.Epoch
		r.ring = nr
		stale, removed = r.reconcileUpsLocked()
		changed = true
		r.logf("cluster: adopted peer ring epoch %d (%d members)", ru.Epoch, len(members))
	case ru.Epoch == local:
		// Union without a bump: both routers may have absorbed
		// different admissions at the same epoch. Same-package field
		// access keeps the merge a non-event for epoch observers.
		nr := r.ring.Clone()
		mutated := false
		for _, m := range members {
			found := false
			for i := range nr.members {
				if nr.members[i].ID == m.ID {
					found = true
					if nr.members[i].Addr != m.Addr && m.Addr > nr.members[i].Addr {
						nr.members[i].Addr = m.Addr
						mutated = true
					}
					break
				}
			}
			if !found && m.ID != "" {
				nr.members = append(nr.members, m)
				mutated = true
			}
		}
		if mutated {
			nr.rebuild()
			r.ring = nr
			stale, removed = r.reconcileUpsLocked()
			changed = true
			r.logf("cluster: merged peer ring at epoch %d (%d members)", local, nr.Len())
		}
	default:
		// Stale peer; the keepalive push heals it.
	}
	r.mu.Unlock()
	for _, up := range stale {
		up.wmu.Lock()
		if up.conn != nil {
			up.conn.Close()
			up.conn = nil
			up.connected.Store(false)
		}
		up.wmu.Unlock()
	}
	if len(removed) > 0 {
		r.failOverRoutes(removed)
	}
	if changed {
		r.kickPeers()
	}
}
