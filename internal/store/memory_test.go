package store

import (
	"sync"
	"sync/atomic"
	"testing"
)

// testKey builds a test key; distinct n give distinct keys.
func testKey(n uint64) Key { return Key{Hi: n} }

func TestGetPutAndEviction(t *testing.T) {
	// One shard makes eviction order deterministic.
	c := NewMemory[int](2, 1)
	a, b, cc := testKey(1), testKey(2), testKey(3)
	c.Put(a, 1)
	c.Put(b, 2)
	if v, ok := c.Get(a); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// a is now most recent; inserting c must evict b.
	c.Put(cc, 3)
	if _, ok := c.Get(b); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get(a); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.Get(cc); !ok {
		t.Error("c should be present")
	}
	if got := c.Stats().Len; got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := NewMemory[string](2, 1)
	c.Put(testKey(1), "v1")
	c.Put(testKey(1), "v2")
	if v, _ := c.Get(testKey(1)); v != "v2" {
		t.Errorf("refresh failed: %q", v)
	}
	if got := c.Stats().Len; got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
}

func TestStatsCounters(t *testing.T) {
	c := NewMemory[int](4, 2)
	c.Put(testKey(1), 1)
	c.Get(testKey(1))
	c.Get(testKey(2))
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", s)
	}
	if s.Capacity != 4 {
		t.Errorf("capacity = %d, want 4", s.Capacity)
	}
	if r := s.HitRatio(); r != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", r)
	}
	if (Stats{}).HitRatio() != 0 {
		t.Error("empty stats hit ratio should be 0")
	}
}

func TestCapacityRaisedToShardCount(t *testing.T) {
	c := NewMemory[int](1, 8)
	for i := 0; i < 8; i++ {
		c.Put(testKey(uint64(i)), i)
	}
	if s := c.Stats(); s.Capacity != 8 {
		t.Errorf("capacity = %d, want 8 (one per shard)", s.Capacity)
	}
}

// TestHitRatioEmptyCache is the NaN regression: a ratio over zero
// lookups must answer 0, not 0/0.
func TestHitRatioEmptyCache(t *testing.T) {
	c := NewMemory[int](16, 4)
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("fresh cache stats = %+v", s)
	}
	if r := s.HitRatio(); r != 0 {
		t.Errorf("HitRatio() on zero lookups = %v, want 0 (NaN regression)", r)
	}
}

// TestStatsConsistentSnapshot is the torn-aggregation regression: Stats
// must hold every shard lock while it aggregates, so each snapshot's
// counters describe one instant. With free-running counters a snapshot
// taken mid-burst could count a lookup in Misses that a later-read Hits
// had not yet seen, breaking Hits+Misses <= lookups-started.
func TestStatsConsistentSnapshot(t *testing.T) {
	c := NewMemory[int](64, 8)
	var started atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := testKey(uint64((g*17 + i) % 64))
				started.Add(1)
				if _, ok := c.Get(key); !ok {
					c.Put(key, i)
				}
			}
		}(g)
	}
	var prev Stats
	for i := 0; i < 200; i++ {
		s := c.Stats()
		// Every snapshot obeys the books: lookups counted never exceed
		// lookups started, and counters never run backwards.
		if total, max := s.Hits+s.Misses, started.Load(); total > max {
			t.Fatalf("snapshot counts %d lookups, only %d started", total, max)
		}
		if s.Hits < prev.Hits || s.Misses < prev.Misses || s.Evictions < prev.Evictions {
			t.Fatalf("counters ran backwards: %+v then %+v", prev, s)
		}
		if s.Len > s.Capacity {
			t.Fatalf("Len %d exceeds capacity %d", s.Len, s.Capacity)
		}
		prev = s
	}
	close(stop)
	wg.Wait()
	// Quiescent: the final snapshot must balance exactly.
	if s := c.Stats(); s.Hits+s.Misses != started.Load() {
		t.Errorf("final snapshot %d lookups, want %d", s.Hits+s.Misses, started.Load())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewMemory[int](128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := (g*31 + i) % 200
				if v, ok := c.Get(testKey(uint64(n))); ok && v != n {
					t.Errorf("corrupt value for key %d: %d", n, v)
					return
				}
				c.Put(testKey(uint64(n)), n)
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Len > 128 {
		t.Errorf("cache exceeded capacity: %d", s.Len)
	}
	if s.Hits+s.Misses == 0 {
		t.Error("no lookups recorded")
	}
}

// TestBytesAccounting pins the approximate-size tracking: inserts credit
// key+value bytes (a Key costs 16), updates re-charge the delta,
// evictions and overwrites debit exactly what was credited — so a cache
// cycled through many generations of entries never drifts.
func TestBytesAccounting(t *testing.T) {
	sized := func(v string) int { return len(v) }
	c := NewMemorySized[string](2, 1, sized)
	c.Put(testKey(1), "xxxx") // 16 + 4
	c.Put(testKey(2), "yy")   // 16 + 2
	if got := c.Stats().Bytes; got != 38 {
		t.Fatalf("bytes after two inserts = %d, want 38", got)
	}
	c.Put(testKey(1), "x") // update: 20 -> 17
	if got := c.Stats().Bytes; got != 35 {
		t.Fatalf("bytes after shrinking update = %d, want 35", got)
	}
	c.Put(testKey(3), "zzzz") // evicts lru entry testKey(2) (18), adds 20
	s := c.Stats()
	if s.Evictions != 1 || s.Bytes != 37 {
		t.Fatalf("after eviction: %+v, want 1 eviction and 37 bytes", s)
	}
	// Cycle many generations: the total must equal the resident entries'
	// charge, not accumulate residue from evicted ones.
	for i := 0; i < 100; i++ {
		c.Put(testKey(uint64(100+i)), "vvvv")
	}
	s = c.Stats()
	if s.Len != 2 || s.Bytes != 2*(16+4) {
		t.Fatalf("after churn: %+v, want 2 resident entries at 20 bytes each", s)
	}
}

// TestDefaultSizerChargesStaticValueSize: NewMemory without a sizer
// charges each entry its key size plus the value type's static
// footprint.
func TestDefaultSizerChargesStaticValueSize(t *testing.T) {
	c := NewMemory[uint64](4, 1)
	c.Put(testKey(1), 1)
	if got := c.Stats().Bytes; got != 16+8 {
		t.Fatalf("bytes = %d, want 24 (16-byte key + 8-byte value)", got)
	}
}
