package cluster

import (
	"encoding/json"
	"fmt"
	"testing"
)

func mustRing(t *testing.T, vnodes int, ids ...string) *Ring {
	t.Helper()
	members := make([]Member, len(ids))
	for i, id := range ids {
		members[i] = Member{ID: id, Addr: "127.0.0.1:" + id}
	}
	r, err := NewRing(vnodes, members...)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	return r
}

// Ownership is a pure function of the member set: two rings built
// from the same members agree on every key, regardless of member
// order, and a JSON round-trip preserves the layout exactly.
func TestRingDeterminism(t *testing.T) {
	a := mustRing(t, 0, "engine-1", "engine-2", "engine-3")
	b := mustRing(t, 0, "engine-3", "engine-1", "engine-2") // permuted

	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var c Ring
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if c.Epoch() != a.Epoch() || c.VNodes() != a.VNodes() || c.Len() != a.Len() {
		t.Fatalf("round-trip lost ring shape: %+v vs %+v", c, a)
	}

	for key := uint64(0); key < 10000; key++ {
		oa, ok := a.OwnerAvoiding(key, nil)
		if !ok {
			t.Fatalf("key %d: no owner on a populated ring", key)
		}
		if ob, _ := b.OwnerAvoiding(key, nil); ob.ID != oa.ID {
			t.Fatalf("key %d: member order changed ownership: %q vs %q", key, oa.ID, ob.ID)
		}
		if oc, _ := c.OwnerAvoiding(key, nil); oc.ID != oa.ID {
			t.Fatalf("key %d: JSON round-trip changed ownership: %q vs %q", key, oa.ID, oc.ID)
		}
	}
}

// The load split across members stays near-uniform: with 128 vnodes
// no member of a 4-engine ring strays past ~2x of its fair share.
func TestRingBalance(t *testing.T) {
	r := mustRing(t, 0, "a", "b", "c", "d")
	counts := map[string]int{}
	const keys = 40000
	for key := uint64(0); key < keys; key++ {
		m, _ := r.OwnerAvoiding(key, nil)
		counts[m.ID]++
	}
	fair := keys / 4
	for id, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Fatalf("member %q owns %d of %d keys (fair %d): imbalance too large", id, n, keys, fair)
		}
	}
}

// Adding one member to an N-ring moves only about 1/(N+1) of the
// keys — the consistent-hashing contract — and every moved key moves
// TO the new member, never between old ones.
func TestRingRebalanceMovesBoundedFraction(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("engine-%d", i)
			}
			before := mustRing(t, 0, ids...)
			after := mustRing(t, 0, ids...)
			if !after.Absorb([]Member{{ID: "engine-new", Addr: "127.0.0.1:0"}}) {
				t.Fatal("Absorb of a new member reported no change")
			}
			if after.Epoch() != before.Epoch()+1 {
				t.Fatalf("Absorb did not bump epoch: %d -> %d", before.Epoch(), after.Epoch())
			}
			const keys = 20000
			moved := 0
			for key := uint64(0); key < keys; key++ {
				ob, _ := before.OwnerAvoiding(key, nil)
				oa, _ := after.OwnerAvoiding(key, nil)
				if ob.ID == oa.ID {
					continue
				}
				moved++
				if oa.ID != "engine-new" {
					t.Fatalf("key %d moved between existing members (%q -> %q)", key, ob.ID, oa.ID)
				}
			}
			// Expect ~keys/(n+1); allow 1.7x slack for hash variance.
			bound := keys * 17 / ((n + 1) * 10)
			if moved > bound {
				t.Fatalf("adding 1 member to %d moved %d of %d keys (bound %d)", n, moved, keys, bound)
			}
			if moved == 0 {
				t.Fatal("adding a member moved nothing — new member owns no keys")
			}
		})
	}
}

// Remove + re-Add restores the exact prior ownership (IDs drive the
// layout), which is what lets a drained engine rejoin its slice after
// a rolling restart.
func TestRingRemoveRejoinRestoresOwnership(t *testing.T) {
	r := mustRing(t, 0, "a", "b", "c")
	want := map[uint64]string{}
	for key := uint64(0); key < 5000; key++ {
		m, _ := r.OwnerAvoiding(key, nil)
		want[key] = m.ID
	}
	if !r.Remove("b") {
		t.Fatal("Remove(b) reported absent")
	}
	if r.Remove("b") {
		t.Fatal("second Remove(b) reported present")
	}
	movedToOthers := 0
	for key := uint64(0); key < 5000; key++ {
		m, ok := r.OwnerAvoiding(key, nil)
		if !ok {
			t.Fatalf("key %d: no owner after remove", key)
		}
		if want[key] == "b" && m.ID != "b" {
			movedToOthers++
		} else if want[key] != "b" && m.ID != want[key] {
			t.Fatalf("key %d: removing b moved it between survivors (%q -> %q)", key, want[key], m.ID)
		}
	}
	if movedToOthers == 0 {
		t.Fatal("b owned nothing before removal")
	}
	if !r.Absorb([]Member{{ID: "b", Addr: "127.0.0.1:b"}}) {
		t.Fatal("re-Absorb of b reported no change")
	}
	for key := uint64(0); key < 5000; key++ {
		if m, _ := r.OwnerAvoiding(key, nil); m.ID != want[key] {
			t.Fatalf("key %d: rejoin did not restore ownership (%q, want %q)", key, m.ID, want[key])
		}
	}
}

// OwnerAvoiding walks past avoided members and fails cleanly when
// everyone is avoided or the ring is empty.
func TestRingOwnerAvoiding(t *testing.T) {
	r := mustRing(t, 0, "a", "b")
	for key := uint64(0); key < 2000; key++ {
		m, ok := r.OwnerAvoiding(key, func(m Member) bool { return m.ID == "a" })
		if !ok || m.ID != "b" {
			t.Fatalf("key %d: avoiding a should own b, got %q ok=%v", key, m.ID, ok)
		}
	}
	if _, ok := r.OwnerAvoiding(1, func(Member) bool { return true }); ok {
		t.Fatal("avoiding everyone still returned an owner")
	}
	empty := mustRing(t, 0)
	if _, ok := empty.OwnerAvoiding(1, nil); ok {
		t.Fatal("empty ring returned an owner")
	}
}

func TestRingRejectsDuplicateAndEmptyIDs(t *testing.T) {
	if _, err := NewRing(8, Member{ID: "x"}, Member{ID: "x"}); err == nil {
		t.Fatal("duplicate member IDs accepted")
	}
	if _, err := NewRing(8, Member{ID: ""}); err == nil {
		t.Fatal("empty member ID accepted")
	}
	r := mustRing(t, 8, "x")
	if r.Absorb([]Member{{ID: "x", Addr: "127.0.0.1:x"}, {ID: "", Addr: "127.0.0.1:y"}}) || r.Len() != 1 {
		t.Fatalf("Absorb took a duplicate or empty ID: %v", r.Members())
	}
}
