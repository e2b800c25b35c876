package gateway

// Canonical query-key interning for the semantic dedup cache.
//
// Every admitted query's canonical key used to be carried as a plain
// string on the shared entry and on every subscription, and the dedup
// cache hashed the full string on every lookup. Interning stores each
// distinct canonical key exactly once behind a stable pointer: the dedup
// cache becomes a pointer-keyed map (hashing a word, not a string),
// subscription/shared key equality is pointer equality, and the N
// subscriptions of a shared query all alias one allocation. The table is
// guarded by the gateway's lock, and entries are dropped when their shared
// query's last subscriber leaves, keeping it bounded by the live query set.

// internedKey is one canonical key, allocated once per distinct string.
// Identity is the pointer: two subscriptions reference the same query iff
// their keys are the same pointer.
type internedKey struct {
	s string
}

// String returns the underlying canonical text.
func (k *internedKey) String() string {
	if k == nil {
		return ""
	}
	return k.s
}

// internTable maps canonical strings to their unique interned pointer.
type internTable struct {
	m map[string]*internedKey
}

func newInternTable(sizeHint int) *internTable {
	return &internTable{m: make(map[string]*internedKey, sizeHint)}
}

// intern returns the canonical pointer for s, allocating it on first use.
// This is the only place the string is hashed; every downstream lookup
// keys on the returned pointer.
func (t *internTable) intern(s string) *internedKey {
	if k, ok := t.m[s]; ok {
		return k
	}
	k := &internedKey{s: s}
	t.m[s] = k
	return k
}

// drop forgets an interned key once its last referent is gone. Holders of
// the pointer keep a valid (GC-live) key; a later intern of the same
// string simply mints a fresh pointer.
func (t *internTable) drop(k *internedKey) {
	if k != nil {
		delete(t.m, k.s)
	}
}

// size reports the number of live interned keys.
func (t *internTable) size() int { return len(t.m) }
