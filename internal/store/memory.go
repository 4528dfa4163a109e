package store

import (
	"container/list"
	"reflect"
	"sync"
	"unsafe"
)

// defaultShards is the shard count used when a constructor is given a
// non-positive shard argument.
const defaultShards = 16

// keyBytes is what each entry's key costs in Stats.Bytes.
const keyBytes = int64(unsafe.Sizeof(Key{}))

// Memory is the in-process tier: a sharded, size-bounded LRU addressed
// by content Key and safe for concurrent use. Each shard holds its own
// map and recency list under its own mutex, so concurrent sweeps scale
// across cores instead of serialising on one lock. Keys are content
// hashes already, so a key's own bits pick its shard.
//
// A Memory can also stand alone as a no-eviction archive: size the
// capacity to the maximum insert count (see search.Runner, which sizes
// it to the run budget) and nothing is ever displaced.
type Memory[V any] struct {
	shards []*shard[V]
	// size estimates one value's bytes for Stats.Bytes accounting.
	size func(V) int
}

// shard counters (hits/misses/evictions) live under the shard mutex
// rather than as tier-level atomics so Stats can take every shard lock
// and read a mutually consistent snapshot — with free-running atomics a
// concurrent reader could observe hits and misses from different
// moments and report an effectiveness ratio no real instant ever had.
type shard[V any] struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recent
	entries   map[Key]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	bytes     int64
}

type entry[V any] struct {
	key   Key
	value V
	// bytes is the size charged to the shard for this entry, remembered
	// so updates and evictions debit exactly what was credited.
	bytes int64
}

// NewMemory returns a memory tier bounded to capacity entries spread
// over the given number of shards (non-positive = 16). Capacity is
// raised to at least one entry per shard so every shard can hold
// something. Byte accounting charges each entry its key size plus the
// value type's static size; use NewMemorySized when values carry
// significant indirect memory.
func NewMemory[V any](capacity, shards int) *Memory[V] {
	return NewMemorySized[V](capacity, shards, nil)
}

// NewMemorySized is NewMemory with a custom per-value byte sizer for
// the tier's Stats.Bytes accounting: each entry is charged its key size
// plus size(value). A nil sizer falls back to the value type's static
// size.
func NewMemorySized[V any](capacity, shards int, size func(V) int) *Memory[V] {
	if shards <= 0 {
		shards = defaultShards
	}
	if capacity < shards {
		capacity = shards
	}
	if size == nil {
		static := int(reflect.TypeOf((*V)(nil)).Elem().Size())
		size = func(V) int { return static }
	}
	m := &Memory[V]{shards: make([]*shard[V], shards), size: size}
	per := capacity / shards
	extra := capacity % shards
	for i := range m.shards {
		cap := per
		if i < extra {
			cap++
		}
		m.shards[i] = &shard[V]{
			capacity: cap,
			order:    list.New(),
			entries:  make(map[Key]*list.Element),
		}
	}
	return m
}

func (m *Memory[V]) shardFor(k Key) *shard[V] {
	return m.shards[(k.Hi^k.Lo)%uint64(len(m.shards))]
}

// Get returns the cached value for k, marking it most recently used.
//
//acr:hotpath
func (m *Memory[V]) Get(k Key) (V, bool) {
	s := m.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		s.hits++
		return el.Value.(*entry[V]).value, true
	}
	s.misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes k, evicting the least recently used entry of
// k's shard when the shard is full.
//
//acr:hotpath
func (m *Memory[V]) Put(k Key, v V) {
	bytes := keyBytes + int64(m.size(v))
	s := m.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		e := el.Value.(*entry[V])
		e.value = v
		s.bytes += bytes - e.bytes
		e.bytes = bytes
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.capacity {
		if oldest := s.order.Back(); oldest != nil {
			s.order.Remove(oldest)
			e := oldest.Value.(*entry[V])
			delete(s.entries, e.key)
			s.bytes -= e.bytes
			s.evictions++
		}
	}
	//lint:ignore allochot the insert path's single entry allocation is the cache storing its value; the hit and refresh paths above stay alloc-free
	s.entries[k] = s.order.PushFront(&entry[V]{key: k, value: v, bytes: bytes})
	s.bytes += bytes
}

// Stats returns a consistent snapshot of the tier's counters: every
// shard lock is held for the duration of the aggregation (acquired in
// shard order, so Stats callers cannot deadlock against each other), so
// Hits, Misses, Evictions, Len and Bytes all describe the same instant.
func (m *Memory[V]) Stats() Stats {
	for _, s := range m.shards {
		s.mu.Lock()
	}
	st := Stats{}
	for _, s := range m.shards {
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Len += s.order.Len()
		st.Capacity += s.capacity
		st.Bytes += s.bytes
	}
	for _, s := range m.shards {
		s.mu.Unlock()
	}
	return st
}
