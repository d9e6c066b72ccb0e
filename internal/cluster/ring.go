// Package cluster is the distributed receiver-network tier: a
// consistent-hash ring over the engine fleet plus a router front-end
// that spreads rxnet chunk streams across N engine processes, with
// session handoff and zero-loss graceful drain. See doc.go for the
// full topology.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member when RingConfig
// leaves it zero. 128 points per member keeps the ownership imbalance
// of small fleets (2-8 engines) within a few percent while the ring
// stays tiny (a few KiB).
const DefaultVNodes = 128

// Member is one engine process on the ring.
type Member struct {
	// ID is the stable identity used for hashing — ownership follows
	// IDs, not addresses, so an engine restarted on a new port keeps
	// its ring slice when its ID is stable.
	ID string `json:"id"`
	// Addr is the engine's chunk-ingest listen address ("host:port").
	Addr string `json:"addr"`
}

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by Members[member].
type ringPoint struct {
	hash   uint64
	member int
}

// Ring is a deterministic consistent-hash ring with virtual nodes:
// every member contributes VNodes points on a 64-bit hash circle and
// a stream key is owned by the member of the first point at or after
// the key's hash (wrapping). The layout is a pure function of the
// member IDs and VNodes — independent of member order, process, or
// platform — so every process that loads the same ring JSON agrees on
// ownership. Epoch versions the membership: Absorb/Remove bump it, and
// routers re-resolve ownership when they observe a bump.
//
// Ring is not safe for concurrent mutation; guard it externally (the
// Router does).
type Ring struct {
	vnodes  int
	epoch   uint64
	members []Member
	points  []ringPoint
}

// ringJSON is the wire form of a Ring.
type ringJSON struct {
	VNodes  int      `json:"vnodes"`
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// NewRing builds a ring over the members. vnodes <= 0 selects
// DefaultVNodes. Member IDs must be unique and non-empty.
func NewRing(vnodes int, members ...Member) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes}
	for _, m := range members {
		if err := r.add(m); err != nil {
			return nil, err
		}
	}
	r.rebuild()
	return r, nil
}

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Epoch returns the membership version. It bumps on every Absorb or
// Remove that changes the ring, so a router can cheaply detect that
// ownership must be re-resolved.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Members returns the member set in insertion order (copy).
func (r *Ring) Members() []Member {
	return append([]Member(nil), r.members...)
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// add validates and appends a member without rebuilding.
func (r *Ring) add(m Member) error {
	if m.ID == "" {
		return errors.New("cluster: ring member needs a non-empty ID")
	}
	for _, have := range r.members {
		if have.ID == m.ID {
			return fmt.Errorf("cluster: ring member %q already present", m.ID)
		}
	}
	r.members = append(r.members, m)
	return nil
}

// Clone returns an independent copy: same members, epoch and layout,
// sharing no state with the receiver. The Router mutates clones so a
// caller-held ring is never written behind its back.
func (r *Ring) Clone() *Ring {
	c := &Ring{vnodes: r.vnodes, epoch: r.epoch, members: append([]Member(nil), r.members...)}
	c.rebuild()
	return c
}

// Absorb applies a batch of admissions as one membership change: each
// member is added if its ID is new, or has its address refreshed if
// it moved. However many members land, the epoch bumps AT MOST once —
// this is what lets a router coalesce a join stampede into a single
// rebalance instead of N epochs. It reports whether anything changed
// (and hence whether the epoch bumped). Members with empty IDs and
// exact duplicates of existing members are skipped.
func (r *Ring) Absorb(members []Member) bool {
	changed := false
	for _, m := range members {
		if m.ID == "" {
			continue
		}
		found := false
		for i := range r.members {
			if r.members[i].ID == m.ID {
				found = true
				if r.members[i].Addr != m.Addr {
					r.members[i].Addr = m.Addr
					changed = true
				}
				break
			}
		}
		if !found {
			r.members = append(r.members, m)
			changed = true
		}
	}
	if changed {
		r.epoch++
		r.rebuild()
	}
	return changed
}

// Remove deletes the member with the given ID, bumping the epoch.
// It reports whether the member was present.
func (r *Ring) Remove(id string) bool {
	for i, m := range r.members {
		if m.ID == id {
			r.members = append(r.members[:i], r.members[i+1:]...)
			r.epoch++
			r.rebuild()
			return true
		}
	}
	return false
}

// rebuild recomputes the point set from the member list. Points hash
// only member IDs and vnode indices, and ties sort by member ID, so
// the layout is invariant under member-list permutation.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for i, m := range r.members {
		seed := fnv1a64(m.ID)
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   splitmix64(seed + uint64(v)),
				member: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		pi, pj := r.points[i], r.points[j]
		if pi.hash != pj.hash {
			return pi.hash < pj.hash
		}
		return r.members[pi.member].ID < r.members[pj.member].ID
	})
}

// OwnerAvoiding returns the first owner of key, walking the ring past
// members for which avoid returns true (draining or down engines).
// ok is false when the ring is empty or every member is avoided.
func (r *Ring) OwnerAvoiding(key uint64, avoid func(Member) bool) (Member, bool) {
	if len(r.points) == 0 {
		return Member{}, false
	}
	h := splitmix64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	tried := make(map[int]bool, len(r.members))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if tried[p.member] {
			continue
		}
		m := r.members[p.member]
		if avoid == nil || !avoid(m) {
			return m, true
		}
		tried[p.member] = true
		if len(tried) == len(r.members) {
			return Member{}, false
		}
	}
	return Member{}, false
}

// MarshalJSON serializes the ring (vnodes, epoch, members); the point
// layout is derived, so it never travels.
func (r *Ring) MarshalJSON() ([]byte, error) {
	return json.Marshal(ringJSON{VNodes: r.vnodes, Epoch: r.epoch, Members: r.Members()})
}

// UnmarshalJSON loads a serialized ring and rebuilds the point
// layout, so all processes that load the same JSON agree on
// ownership.
func (r *Ring) UnmarshalJSON(b []byte) error {
	var w ringJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.VNodes <= 0 {
		w.VNodes = DefaultVNodes
	}
	loaded := Ring{vnodes: w.VNodes}
	for _, m := range w.Members {
		if err := loaded.add(m); err != nil {
			return err
		}
	}
	loaded.epoch = w.Epoch
	loaded.rebuild()
	*r = loaded
	return nil
}

// fnv1a64 hashes a string with 64-bit FNV-1a — stable across
// processes and platforms, unlike hash/maphash.
func fnv1a64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap,
// well-mixed 64-bit permutation used both to spread vnode points and
// to mix stream keys (which are often dense small integers).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
