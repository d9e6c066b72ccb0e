package rxnet

import "sort"

// ReplayEntry is one chunk body kept for replay: a FrameCodeChunk body
// when Codes is set, else a float64 FrameSampleChunk body.
type ReplayEntry struct {
	Seq   uint32
	Body  []byte
	Codes bool
}

// Frame returns the entry's wire form with the live or replay marking:
// a code frame when it is stored as codes and codesOK says the peer
// answered the Hello, else its float64 frame, a code body expanded
// into *scratch (valid until the next use of scratch).
func (e ReplayEntry) Frame(codesOK, replay bool, scratch *[]byte) (FrameType, []byte) {
	if e.Codes && codesOK {
		if replay {
			return FrameCodeReplay, e.Body
		}
		return FrameCodeChunk, e.Body
	}
	body := e.Body
	if e.Codes {
		*scratch = AppendSampleBody((*scratch)[:0], e.Body)
		body = *scratch
	}
	if replay {
		return FrameSampleReplay, body
	}
	return FrameSampleChunk, body
}

// ReplayTail is a byte-bounded tail of one stream's chunk bodies, in
// serial Seq order: each append is newer than every kept entry, and a
// tail spans less than 2^31 seqs. Trims clear the vacated slots, and an
// emptied tail lets go of its array. The zero value is empty; it is not
// safe for concurrent use.
type ReplayTail struct {
	entries []ReplayEntry
	bytes   int
}

// Append adds e, then drops the oldest entries while the stored bytes
// exceed budget, always keeping e. It returns the bytes evicted.
func (t *ReplayTail) Append(e ReplayEntry, budget int) int {
	t.entries = append(t.entries, e)
	t.bytes += len(e.Body)
	drop := 0
	for over := t.bytes - budget; over > 0 && drop < len(t.entries)-1; drop++ {
		over -= len(t.entries[drop].Body)
	}
	return t.drop(drop)
}

// TrimThrough drops every entry through seq and returns the bytes
// freed.
func (t *ReplayTail) TrimThrough(seq uint32) int { return t.drop(t.after(seq)) }

// After returns the entries past seq, aliasing the tail until its next
// change. gap reports that the oldest kept entry starts past seq+1.
func (t *ReplayTail) After(seq uint32) (entries []ReplayEntry, gap bool) {
	gap = len(t.entries) > 0 && SeqLess(seq+1, t.entries[0].Seq)
	return t.entries[t.after(seq):], gap
}

// Entries returns every kept entry, aliasing the tail until its next
// change.
func (t *ReplayTail) Entries() []ReplayEntry { return t.entries }

// Bytes returns the bytes the tail stores.
func (t *ReplayTail) Bytes() int { return t.bytes }

// after is the index of the first entry past seq.
func (t *ReplayTail) after(seq uint32) int {
	return sort.Search(len(t.entries), func(i int) bool { return SeqLess(seq, t.entries[i].Seq) })
}

// drop releases the oldest n entries and returns their bytes.
func (t *ReplayTail) drop(n int) int {
	freed := 0
	for _, e := range t.entries[:n] {
		freed += len(e.Body)
	}
	clear(t.entries[:n])
	if t.entries = t.entries[n:]; len(t.entries) == 0 {
		t.entries = nil
	}
	t.bytes -= freed
	return freed
}
